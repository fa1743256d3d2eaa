"""Outside-in tracing: wrap flowdisc's public functions from the benchmark's
side, record one span per call, and turn the spans into per-layer metrics.

Nothing in ``src/`` knows about it.  ``install`` replaces each target through
every flowdisc module attribute that holds it (``from .coloring import
discrepancy`` binds ``discrepancy`` in ``maxflow`` and ``totalflow`` too), and
``uninstall`` puts the originals back.  Counts are read from the arguments
and return values of the wrapped calls, never from inside the library.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _lp_facts(args, result) -> dict:
    lp = args[0]
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in result.values.values()), default=0)
    return {
        "rows": len(lp.constraints),
        "cols": len(lp.variables),
        "nnz": sum(len(c.coeffs) for c in lp.constraints),
        "optimal": result.status == sys.modules["flowdisc.lp"].OPTIMAL,
        "value_bits": bits,
    }


def _patterns(args, result) -> dict:
    seq, mode = args[0], args[1]
    one_sided = mode == sys.modules["flowdisc.coloring"].ONE_SIDED
    # color_brute_force fixes the first sign except in the one-sided mode
    return {"patterns": 2 ** seq.n if one_sided else 2 ** max(seq.n - 1, 0)}


def _game_facts(args, result) -> dict:
    state, _trace = result
    return {
        "moves": len(state.history),
        "waits": sum(1 for _player, idx, _sign in state.history if idx is None),
        # TreeBreaker.checked_moves: build-phase moves whose invariants passed
        "invariant_checks": getattr(args[2], "checked_moves", 0),
    }


# (span name, flowdisc module, function, facts(args, result) or None)
TARGETS = (
    ("lp.solve_lp", "lp", "solve_lp", _lp_facts),
    ("maxflow.solve_min_T", "maxflow", "solve_min_T", None),
    ("maxflow.build_assignment_lp", "maxflow", "build_assignment_lp", None),
    ("maxflow.fractional_assignment_violations", "maxflow", "fractional_assignment_violations", None),
    ("maxflow.quantize_dyadic", "maxflow", "quantize_dyadic", None),
    ("maxflow.split_to_pair_instance", "maxflow", "split_to_pair_instance",
     lambda args, result: {"pair_jobs": result.instance.n}),
    ("maxflow.round_half_integral_maxflow", "maxflow", "round_half_integral_maxflow",
     lambda args, result: {"D": result[1]}),
    ("maxflow.check_result", "maxflow", "check_result", None),
    ("totalflow.build_auxiliary_lp", "totalflow", "build_auxiliary_lp", None),
    ("totalflow.measure_alpha", "totalflow", "measure_alpha", None),
    ("totalflow.quantize_dyadic_time", "totalflow", "quantize_dyadic_time", None),
    ("totalflow.split_jobs_instance", "totalflow", "split_jobs_instance", None),
    ("totalflow.normalize_consistent_order", "totalflow", "normalize_consistent_order", None),
    ("totalflow.round_half_integral_totalflow", "totalflow", "round_half_integral_totalflow",
     lambda args, result: {"D": result[1]}),
    ("totalflow.check_result", "totalflow", "check_result", None),
    ("coloring.discrepancy", "coloring", "discrepancy", None),
    ("coloring.color_brute_force", "coloring", "color_brute_force", _patterns),
    ("game.play_game", "game", "play_game", _game_facts),
    ("core.evaluate_max_flow", "core", "evaluate_max_flow", None),
    ("core.evaluate_total_flow_srpt", "core", "evaluate_total_flow_srpt", None),
    ("core.gen_random_instance", "core", "gen_random_instance", None),
)
COLORER = "coloring.colorer"
MAKER_MOVE = "game.maker.move"
BREAKER_MOVE = "game.breaker.move"
OP = "op"

# spans whose calls per op are reported as "<span>.calls"
CALL_COUNTS = ("lp.solve_lp", "maxflow.fractional_assignment_violations",
               "totalflow.measure_alpha", COLORER, "coloring.discrepancy",
               MAKER_MOVE, BREAKER_MOVE)
SELF_TIMES = tuple(name for name, *_ in TARGETS) + (COLORER, MAKER_MOVE, BREAKER_MOVE, OP)


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, op, facts]``;
    ``parent`` indexes ``spans`` and ``op`` is the op id (None in set-up)."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.paused = False  # while set, wrapped calls record nothing
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn, facts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if facts is not None:
                rec[5] = facts(args, result)
            return result

        return traced

    def wrap_colorer(self, colorer):
        return self.wrap(COLORER, colorer, lambda args, result: {"vectors": len(args[0].vectors)})

    def _with_players(self, play_game):
        """play_game that traces the maker's and the breaker's ``move`` calls."""

        @functools.wraps(play_game)
        def play(values, maker, breaker, *args, **kwargs):
            maker.move = self.wrap(MAKER_MOVE, maker.move)
            breaker.move = self.wrap(BREAKER_MOVE, breaker.move)
            try:
                return play_game(values, maker, breaker, *args, **kwargs)
            finally:
                del maker.move, breaker.move

        return play

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "flowdisc" or name.startswith("flowdisc.")]
        for span, module, attr, facts in TARGETS:
            original = getattr(sys.modules[f"flowdisc.{module}"], attr)
            inner = self._with_players(original) if span == "game.play_game" else original
            traced = self.wrap(span, inner, facts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP, perf_counter(), None, None, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self.op = None

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, *_ in self.spans]
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, facts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "facts": facts}, default=str) + "\n")


def op_shares(tracer: Tracer) -> dict:
    """Each span name's self time inside ops, as a share of all op time."""
    own_by_name: dict = {}
    op_time = 0.0
    for rec, own in zip(tracer.spans, tracer.self_times()):
        if rec[4] is None:
            continue
        own_by_name[rec[0]] = own_by_name.get(rec[0], 0.0) + own
        if rec[0] == OP:
            op_time += rec[2] - rec[1]
    return {name: own / op_time for name, own in own_by_name.items()} if op_time else {}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics: self seconds per op (plus the span's time in the one
    traced set-up), calls and counts per op, LP sizes per solve."""
    self_op: dict = {}
    self_setup: dict = {}
    calls: dict = {}
    facts: dict = {}
    for rec, own in zip(tracer.spans, tracer.self_times()):
        name, op, fact = rec[0], rec[4], rec[5]
        if op is None:
            self_setup[name] = self_setup.get(name, 0.0) + own
            continue
        self_op[name] = self_op.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if fact:
            facts.setdefault(name, []).append(fact)
    ops = max(ops, 1)
    out = {f"{name}.self_s": self_op.get(name, 0.0) / ops + self_setup.get(name, 0.0)
           for name in SELF_TIMES}
    out.update({f"{name}.calls": calls.get(name, 0) / ops for name in CALL_COUNTS})

    def total(span: str, key: str) -> float:
        return sum(f[key] for f in facts.get(span, []))

    solves = facts.get("lp.solve_lp", [])
    for key in ("rows", "cols", "nnz"):
        out[f"lp.{key}"] = total("lp.solve_lp", key) / len(solves) if solves else 0.0
    out["lp.feasible_ratio"] = total("lp.solve_lp", "optimal") / len(solves) if solves else 0.0
    out["lp.value_bits.max"] = max((f["value_bits"] for f in solves), default=0)
    out["maxflow.pair_jobs"] = total("maxflow.split_to_pair_instance", "pair_jobs") / ops
    out["coloring.vectors"] = total(COLORER, "vectors") / ops
    out["coloring.patterns"] = total("coloring.color_brute_force", "patterns") / ops
    for key in ("moves", "waits", "invariant_checks"):
        out[f"game.{key}"] = total("game.play_game", key) / ops
    return out
