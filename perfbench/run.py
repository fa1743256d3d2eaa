"""perfbench: seeded, single-process, closed-loop benchmark of flowdisc.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload maxflow-windows --seed 1 --seconds 30 --trace 0

Each op starts after the previous one ends.  The run sets up its workload
(import, input generation, pre-built structures) several times and reports the
median, then repeats whole passes over a fixed list of distinct ops until
another pass would overrun ``--seconds``.  Each op is timed by itself, in
calibrated seconds (see ``calibration_kernel``), and ``ops_per_s`` is taken
from each op's median over the passes.  Every op's output goes through an
exact-output gate, outside the timed span.  With
``--trace 0`` the last line reports the end-to-end metrics; with ``--trace 1``
the library's public functions are wrapped from outside and the last line
reports per-layer metrics, and the spans go to ``perfbench/out/``.
The last line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer, layer_metrics, op_shares  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15
# One calibrated second is the time of this many calibration_kernel runs.
KERNELS_PER_S = 400
MODULES = ("util", "core", "lp", "coloring", "maxflow", "totalflow", "game")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-op numbers read from outputs: mean over the ops that report them, else 0.
FIGURE_UNITS = {"maxflow.gap_pmax": "p_max", "totalflow.flow_over_lp": "ratio",
                "maxflow.levels": "count/op", "totalflow.levels": "count/op"}


def layer_unit(name: str) -> str:
    if name in FIGURE_UNITS:
        return FIGURE_UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    return {"lp.rows": "count/solve", "lp.cols": "count/solve", "lp.nnz": "count/solve",
            "lp.feasible_ratio": "ratio", "lp.value_bits.max": "bits",
            "trace.ops_per_s": "1/s"}.get(name, "count/op")


def calibration_kernel() -> int:
    """A fixed piece of pure-Python work that shares no code with flowdisc:
    Fraction arithmetic, dict updates and a sort, the kinds of work its ops do.

    A shared host or VM can change speed by up to 2x for seconds or minutes
    at a time, and every Python op slows alike.  Timing this kernel right
    before and right after each op measures the speed the op ran at, so op
    times can be stated in calibrated seconds, which a program change moves
    and a slow spell does not.
    """
    acc = Fraction(0)
    counts: dict = {}
    keys = []
    for i in range(1, 250):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        counts[i % 37] = counts.get(i % 37, 0) + i
        keys.append((i * 7919) % 1009)
    keys.sort()
    return acc.numerator + len(counts) + keys[-1]


def kernel_seconds() -> float:
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time in calibrated seconds, by the kernel times
    taken just before and just after."""
    return seconds / (KERNELS_PER_S * (before + after) / 2)


def _is_flowdisc(name: str) -> bool:
    return name == "flowdisc" or name.startswith("flowdisc.")


@contextlib.contextmanager
def isolated_flowdisc():
    """Let a run import flowdisc afresh, and hand back the caller's modules after."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_flowdisc(name)}
    try:
        yield
    finally:
        for name in [name for name in sys.modules if _is_flowdisc(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def import_flowdisc() -> SimpleNamespace:
    for name in [name for name in sys.modules if _is_flowdisc(name)]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"flowdisc.{m}") for m in MODULES})


@dataclass
class OpRecord:
    index: int  # the op's place in the pass
    pass_no: int
    seconds: float  # wall time
    cal_seconds: float
    problems: list
    out: object = None  # kept for the first pass only, so memory does not grow with the run


@dataclass
class Run:
    workload: str
    ops: list
    records: list
    elapsed: float
    setups: list = field(default_factory=list)
    tracer: Tracer = None

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.records if rec.problems)

    @property
    def passes(self) -> int:
        return self.records[-1].pass_no + 1

    def op_cal_seconds(self) -> list:
        """Each op's median calibrated time over the passes."""
        times: list = [[] for _ in self.ops]
        for rec in self.records:
            times[rec.index].append(rec.cal_seconds)
        return [statistics.median(t) for t in times]

    @property
    def ops_per_s(self) -> float:
        """Ops per calibrated second, over a pass with each op at its median."""
        return len(self.ops) / sum(self.op_cal_seconds())

    def figures(self) -> dict:
        """Mean of each per-op figure over the certified ops of the first pass."""
        values: dict = {}
        for rec in self.records:
            if rec.out is not None and not rec.problems:
                for key, value in self.ops[rec.index].figures(rec.out).items():
                    values.setdefault(key, []).append(value)
        return {key: float(sum(vals) / len(vals)) for key, vals in values.items()}

    def end_to_end(self) -> dict:
        return {
            "setup_s": statistics.median(cal for _wall, cal in self.setups),
            "ops_per_s": self.ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        metrics = layer_metrics(self.tracer, len(self.records))
        metrics.update({key: 0.0 for key in FIGURE_UNITS})
        metrics.update(self.figures())
        metrics["trace.ops_per_s"] = self.ops_per_s
        return metrics

    def first_pass_digest(self) -> str:
        outs = [self.ops[rec.index].summary(rec.out) if rec.out is not None else None
                for rec in self.records if rec.pass_no == 0]
        return hashlib.sha256(json.dumps(outs, sort_keys=True, default=str).encode()).hexdigest()


def _run_op(op, index: int, pass_no: int, op_id: int, first: dict, tracer) -> OpRecord:
    """Time ``op.run`` alone, between two kernel timings, then gate its
    output: the first pass through ``op.check``, a later one against the
    first pass's exact outputs."""
    out = problems = None
    before = kernel_seconds()
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the op boundary: record the failure and keep running
        problems = [f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    after = kernel_seconds()
    if tracer is not None:
        tracer.paused = True
    try:
        if problems is not None:
            pass
        elif pass_no == 0:
            problems = op.check(out)
            first[index] = op.summary(out)
        else:
            same = index in first and op.summary(out) == first[index]
            problems = [] if same else ["output differs from the first pass"]
    except Exception as exc:
        problems = [f"gate raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    finally:
        if tracer is not None:
            tracer.paused = False
    for problem in problems:
        print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    return OpRecord(index, pass_no, seconds, calibrated(seconds, before, after), problems,
                    out if pass_no == 0 else None)


def run_passes(ops: list, seconds: float, tracer=None, max_passes=None) -> tuple[list, float]:
    """Whole passes over ``ops``, at least one, while the next pass (as long
    as the last) still fits in ``seconds``."""
    records: list = []
    first: dict = {}
    start = perf_counter()
    pass_no = 0
    while True:
        pass_start = perf_counter()
        for index, op in enumerate(ops):
            records.append(_run_op(op, index, pass_no, len(records), first, tracer))
        pass_no += 1
        now = perf_counter()
        if pass_no == max_passes or now - start + (now - pass_start) > seconds:
            return records, now - start


def measure(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            max_passes=None, spans_path=None) -> Run:
    """One benchmark run; ``tiny`` and ``max_passes`` serve the smoke test."""
    cls = WORKLOADS[workload]
    with isolated_flowdisc():
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                before = kernel_seconds()
                start = perf_counter()
                wl = cls(import_flowdisc(), seed, tiny)
                wall = perf_counter() - start
                setups.append((wall, calibrated(wall, before, kernel_seconds())))
            ops = wl.ops()
            records, elapsed = run_passes(ops, seconds, max_passes=max_passes)
            return Run(workload, ops, records, elapsed, setups=setups)
        fd = import_flowdisc()
        tracer = Tracer()
        tracer.install()
        try:
            wl = cls(fd, seed, tiny)
            if hasattr(wl, "colorer"):
                wl.colorer = tracer.wrap_colorer(wl.colorer)
            ops = wl.ops()
            records, elapsed = run_passes(ops, seconds, tracer, max_passes)
        finally:
            tracer.uninstall()
        if spans_path is not None:
            tracer.write(spans_path)
        return Run(workload, ops, records, elapsed, tracer=tracer)


def report(run: Run, trace: bool) -> tuple[list, dict]:
    """Human-readable lines and the result object for one run."""
    attempted = len(run.records)
    lines = [f"workload {run.workload}: {len(run.ops)} ops x {run.passes} passes = "
             f"{attempted} runs in {run.elapsed:.3f} s, {run.failed} failed "
             f"(fail_rate = {run.failed / attempted:.6g})"]
    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in run.per_layer().items()}
        shares = sorted(((share, name) for name, share in op_shares(run.tracer).items()),
                        reverse=True)
        lines.append("self-time shares of op time: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares if share >= 0.001))
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in run.end_to_end().items()}
        # Printed, not bounded: these follow the machine's slow spells.
        times = sorted(rec.seconds for rec in run.records)
        lines.append(f"op_s.samples = {len(times)}")
        lines.append(f"op_s.p50 = {statistics.median(times):.6g} s")
        for q in (99, 90, 75):
            if len(times) * (100 - q) / 100 >= 10:
                lines.append(f"op_s.p{q} = {times[-(len(times) * (100 - q) // 100) - 1]:.6g} s")
                break
        wall_op_s = sum(rec.seconds for rec in run.records) / attempted
        lines.append(f"wall_ops_per_s = {1 / wall_op_s:.6g} 1/s (mean over every op run)")
        lines.append(f"wall_setup_s = {statistics.median(w for w, _cal in run.setups):.6g} s")
        lines += [f"{name} = {value:.6g} {FIGURE_UNITS[name]}"
                  for name, value in run.figures().items()]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"first_pass_sha256 = {run.first_pass_digest()}")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowdisc" / "__init__.py").is_file():
        print(f"perfbench: no flowdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path)
    lines, result = report(run, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
