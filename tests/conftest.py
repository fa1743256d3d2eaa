from fractions import Fraction

import pytest

from flowdisc import lp as lpmod
from flowdisc.core import CARRY

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    """Register one acceptance criterion outcome for the terminal summary."""
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{name}: {status}{suffix}")


@pytest.fixture
def record():
    return record_criterion


@pytest.fixture
def complete_carries():
    """Extend a point with the Lindley carries of an LP built by add_carry_rows.

    Each carry, labelled (CARRY, ...), appears first in its own row, with
    coefficient -1; it gets the least value that row allows,
    max(0, rest of the row - rhs).
    """
    def complete(lp, values):
        out = dict(values)
        for con in lp.constraints:
            unknown = [v for v in con.coeffs if v not in out]
            if unknown:
                (carry,) = unknown
                assert con.relation == lpmod.LE and con.coeffs[carry] == -1 and lp.variables[carry][0] == CARRY
                rest = sum(c * out[v] for v, c in con.coeffs.items() if v != carry)
                out[carry] = max(Fraction(0), rest - con.rhs)
        return out
    return complete


@pytest.fixture
def relabel():
    """Move a point over one LP's columns to the columns of another LP with
    the same labels; a label that the other LP lacks is dropped."""
    def move(src, values, dst):
        col = {label: c for c, label in enumerate(dst.variables)}
        return {col[src.variables[c]]: v for c, v in values.items() if src.variables[c] in col}
    return move


@pytest.fixture
def times_instance():
    """A seeded instance builder: fractional releases and processing times on
    ``denominators`` (all integral with ``(1,)``), repeated releases, forbidden
    entries and p = 0; every job keeps a finite machine."""
    from flowdisc.core import make_instance

    def build(rng, m, denominators=(1, 1, 2, 3, 4)):
        jobs = []
        for _ in range(rng.randint(1, 9)):
            if jobs and rng.random() < 0.3:
                release = jobs[-1][0]
            else:
                release = Fraction(rng.randint(0, 12), rng.choice(denominators))
            proc = [None if rng.random() < 0.2 else
                    Fraction(rng.choice([0, 1, 2, 3, 4, 5, 6]), rng.choice(denominators))
                    for _ in range(m)]
            if all(p is None for p in proc):
                proc[rng.randrange(m)] = Fraction(rng.randint(1, 6))
            jobs.append((release, proc))
        return make_instance(m, jobs)
    return build
