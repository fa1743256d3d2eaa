import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flowdisc"


def test_no_assert_statements_in_the_library():
    # `python -O` strips assert statements; invariants raise InternalCheckError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SRC.is_dir() and not found, found
