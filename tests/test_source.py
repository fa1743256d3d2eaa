import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flowdisc"

# the modules whose results are asserted exactly; cli and sdp may use floats
# for option parsing and Monte-Carlo estimates, and game only inside the class
# named here, for its wait probability
EXACT_MODULES = ("lp", "core", "coloring", "maxflow", "totalflow", "equivalence", "util", "game")
FLOAT_CLASSES = {"game": "RandomBreaker"}


def test_no_assert_statements_in_the_library():
    # `python -O` strips assert statements; invariants raise InternalCheckError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SRC.is_dir() and not found, found


def test_no_floats_in_the_exact_modules():
    found = []
    for name in EXACT_MODULES:
        path = SRC / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = [node for node in tree.body if isinstance(node, ast.ClassDef)
                   and node.name == FLOAT_CLASSES.get(name)]
        assert len(allowed) == (name in FLOAT_CLASSES), name
        tree.body = [node for node in tree.body if node not in allowed]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: name float")
    assert not found, found


def test_readme_table_names_every_module():
    readme = (SRC.parent.parent / "README.md").read_text()
    rows = set(re.findall(r"^\| `flowdisc\.(\w+)` \|", readme, flags=re.MULTILINE))
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules and modules <= rows, sorted(modules - rows)


def test_no_class_table_parameter_has_a_default():
    # a split carries its own class table and every other layer takes one, so
    # no function falls back to building the table itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                found += [f"{path.name}:{node.lineno}" for arg in with_default if arg.arg == "classes"]
    assert SRC.is_dir() and not found, found
