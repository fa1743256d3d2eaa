"""Smoke test of the benchmark itself, at tiny sizes (maxflow n=8, totalflow
n=6, game k=4, brute n=8), two passes per workload."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.run import measure, report, run_passes  # noqa: E402
from perfbench.tracer import BREAKER_MOVE, MAKER_MOVE  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Spans each workload exists to exercise, and spans it must leave idle.
EXERCISED = {
    "maxflow-windows": (
        "lp.solve_lp", "maxflow.solve_min_T", "maxflow.build_assignment_lp",
        "maxflow.fractional_assignment_violations", "maxflow.quantize_dyadic",
        "maxflow.split_to_pair_instance", "maxflow.round_half_integral_maxflow",
        "maxflow.check_result", "coloring.colorer", "coloring.discrepancy",
        "core.evaluate_max_flow", "core.gen_random_instance",
    ),
    "totalflow-lp": (
        "lp.solve_lp", "totalflow.build_auxiliary_lp", "totalflow.measure_alpha",
        "totalflow.quantize_dyadic_time", "totalflow.split_jobs_instance",
        "totalflow.normalize_consistent_order", "totalflow.round_half_integral_totalflow",
        "totalflow.check_result", "coloring.colorer", "coloring.discrepancy",
        "core.evaluate_total_flow_srpt", "core.gen_random_instance",
    ),
    "game-hard": ("game.play_game", MAKER_MOVE, BREAKER_MOVE),
    "color-brute": ("coloring.color_brute_force", "coloring.discrepancy"),
}
IDLE = {"game-hard": ("lp.solve_lp", "coloring.colorer"), "color-brute": ("lp.solve_lp",)}


@pytest.fixture(scope="module")
def runs():
    return {(name, trace): measure(name, 0, 60, trace, tiny=True, max_passes=2)
            for name in WORKLOADS for trace in (False, True)}


def spans_of(run, op_id, name):
    return [rec for rec in run.tracer.spans if rec[4] == op_id and rec[0] == name]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(runs, trace):
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for name in WORKLOADS:
        lines, result = report(runs[name, trace], trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {key: m["unit"] for key, m in result["metrics"].items()}
        assert printed == wanted, name
        for key, unit in wanted.items():
            assert any(line.startswith(f"{key} = ") and line.endswith(f" {unit}")
                       for line in lines), (name, key)


def test_traced_levels_match_the_trace_records(runs):
    for name, span in (("maxflow-windows", "maxflow.round_half_integral_maxflow"),
                       ("totalflow-lp", "totalflow.round_half_integral_totalflow")):
        run = runs[name, True]
        for op_id, rec in enumerate(run.records):
            if rec.out is None:  # outputs are kept for the first pass only
                continue
            trace = rec.out[0]
            traced = [s[5]["D"] for s in spans_of(run, op_id, span)]
            assert traced == [level.discrepancy for level in trace.levels], (name, op_id)


def test_move_calls_equal_history_length(runs):
    run = runs["game-hard", True]
    for op_id, rec in enumerate(run.records):
        if rec.out is None:
            continue
        state = rec.out[0]
        calls = len(spans_of(run, op_id, MAKER_MOVE)) + len(spans_of(run, op_id, BREAKER_MOVE))
        assert calls == len(state.history), run.ops[rec.index].label


def test_each_span_exercised_by_its_workload(runs):
    for name, spans in EXERCISED.items():
        called = {rec[0] for rec in runs[name, True].tracer.spans}
        assert set(spans) <= called, (name, sorted(set(spans) - called))
    for name, spans in IDLE.items():
        called = {rec[0] for rec in runs[name, True].tracer.spans}
        assert not set(spans) & called, name
    metrics = runs["game-hard", True].per_layer()
    assert metrics["game.invariant_checks"] > 0 and metrics["lp.solve_lp.calls"] == 0


def _altered(name, out):
    """The op output with one exact field changed."""
    if name == "maxflow-windows":
        return out[0], dict(out[1], max_flow="1000/1"), out[2]
    if name == "totalflow-lp":
        return out[0], dict(out[1], total_flow="1000/1"), out[2]
    if name == "game-hard":
        state, payoff, breaker = out
        return state, payoff + 5, breaker  # above the pairing bound 4 as well
    signs, disc = out
    return signs, replace(disc, value=disc.value + 1)


def test_gate_rejects_altered_output(runs):
    for name in WORKLOADS:
        run = runs[name, False]
        rec = run.records[0]
        op = run.ops[rec.index]
        assert op.check(rec.out) == []
        assert op.check(_altered(name, rec.out)), name


def test_later_pass_must_repeat_the_first():
    calls = []

    def run():
        calls.append(None)
        return len(calls)

    op = Op("drifting", run, lambda out: [], lambda out: out)
    records, _elapsed = run_passes([op], 60, max_passes=2)
    assert [bool(rec.problems) for rec in records] == [False, True]
