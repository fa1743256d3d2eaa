"""Command-line driver: generators, pipelines, colorers, games, reductions,
block experiments, and seeded benchmark batches.

Exit codes: 0 success, 1 validation failure (bad input or file, or a usage
error such as a missing option or an unknown choice), 2 internal assertion (a
guaranteed bound or invariant failed, which is a bug).  Every failure prints
one line on stderr.

The pipelines (maxflow, totalflow, bench) offer the colorers that can round
their vectors: brute, greedy and floating.  The paired colorer takes only
+-1 entries, so it is offered by color alone.

All randomness flows from one --seed through named substreams, and every
artifact is serialized deterministically (sorted keys, rationals as
"num/den"), so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import coloring, equivalence, game, maxflow, sdp, totalflow
from .core import (
    SchedulingInstance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
)
from .util import InternalCheckError, ValidationError, rat_from_str, rat_to_str, substream_seed


def _out_path(name: str, explicit) -> str:
    if explicit:
        return explicit
    base = os.environ.get("FLOWDISC_OUTDIR", ".")
    return os.path.join(base, name)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}")


def _write_json(path: str, data) -> None:
    _write_text(path, json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a UTF-8 text file")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON at line {exc.lineno}, column {exc.colno}")
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise ValidationError(f"{path}: {exc}")


def _load_instance(path: str) -> SchedulingInstance:
    return instance_from_json(_read_json(path))


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "instance":
        inst = gen_random_instance(
            args.n, args.m, (args.p_lo, args.p_hi), (args.r_lo, args.r_hi),
            args.infinity_prob, substream_seed(args.seed, "instance-gen"),
        )
        _write_json(_out_path("instance.json", args.out), instance_to_json(inst))
    elif args.kind == "vectors":
        import random

        if args.n < 1:
            raise ValidationError(f"--n must be at least 1, got {args.n}")
        rng = random.Random(substream_seed(args.seed, "vector-gen"))
        vectors = []
        for _ in range(args.n):
            row = [Fraction(rng.randint(-8, 8), 8) for _ in range(args.m)]
            norm = sum(abs(x) for x in row)
            if norm > 1:
                row = [x / norm for x in row]
            vectors.append(row)
        seq = coloring.SignedVectorSequence(m=args.m, vectors=vectors)
        _write_json(_out_path("vectors.json", args.out), coloring.seq_to_json(seq))
    else:  # hard instance, exported in the vector format with m = 1
        values = game.breaker_hard_instance(args.hard_k)
        seq = coloring.SignedVectorSequence(m=1, vectors=[[v] for v in values])
        _write_json(_out_path("hard.json", args.out), coloring.seq_to_json(seq))
    return 0


def cmd_maxflow(args) -> int:
    inst = _load_instance(args.instance)
    colorer = coloring.get_colorer(args.colorer)
    asg, trace = maxflow.full_round_maxflow(inst, colorer)
    data = maxflow.result_to_json(trace, asg)
    problems = maxflow.check_result(inst, data)
    if problems:
        raise InternalCheckError("; ".join(problems))
    _write_json(_out_path("maxflow.json", args.out), data)
    print(f"T* = {rat_to_str(trace.t_star)}  max_flow = {rat_to_str(trace.final_value)}  "
          f"bound = {rat_to_str(trace.bound_value)}")
    return 0


def cmd_totalflow(args) -> int:
    inst = _load_instance(args.instance)
    colorer = coloring.get_colorer(args.colorer)
    _y, trace = totalflow.full_round_totalflow(inst, colorer)
    data = totalflow.result_to_json(trace)
    problems = totalflow.check_result(inst, data)
    if problems:
        raise InternalCheckError("; ".join(problems))
    _write_json(_out_path("totalflow.json", args.out), data)
    print(f"lp_cost = {rat_to_str(trace.lp_cost)}  total_flow = {rat_to_str(trace.total_flow)}  "
          f"alpha = {rat_to_str(trace.alpha_final)} <= {rat_to_str(trace.bound_value)}")
    return 0


def cmd_color(args) -> int:
    seq = coloring.seq_from_json(_read_json(args.vectors))
    if not seq.vectors:
        raise ValidationError("the vector sequence is empty")
    mode = {"prefix": coloring.PREFIX, "interval": coloring.INTERVAL,
            "one-sided": coloring.ONE_SIDED}[args.mode]
    if args.colorer == "brute":
        signs = coloring.color_brute_force(seq, mode, limit=args.limit)
    else:
        signs = coloring.get_colorer(args.colorer)(seq)
    signed = seq.with_signs(signs)
    report = coloring.discrepancy(signed, mode)
    data = coloring.seq_to_json(signed)
    data["discrepancy"] = {
        "mode": report.mode,
        "value": rat_to_str(report.value),
        "witness": list(report.witness),
    }
    _write_json(_out_path("colored.json", args.out), data)
    print(f"{args.colorer} {args.mode}: value = {rat_to_str(report.value)} at {report.witness}")
    return 0


def cmd_game(args) -> int:
    if args.hard_k is not None and args.values:
        raise ValidationError("--hard-k and --values are alternatives: give one of them")
    if args.hard_k is not None:
        values = game.breaker_hard_instance(args.hard_k)
    elif args.values:
        seq = coloring.seq_from_json(_read_json(args.values))
        if seq.m != 1:
            raise ValidationError("the game needs one-dimensional values (m = 1)")
        values = [v[0] for v in seq.vectors]
    else:
        raise ValidationError("supply --hard-k or --values")
    makers = {
        "pairing": lambda: game.PairingMaker(allow_fractional=True),
        "greedy": game.GreedyMaker,
    }
    breakers = {
        "tree": lambda: game.TreeBreaker(args.hard_k),
        "random": lambda: game.RandomBreaker(substream_seed(args.seed, "tournament"),
                                             wait_prob=0.1),
    }
    if args.breaker == "tree" and args.hard_k is None:
        raise ValidationError("the tree breaker requires --hard-k")
    maker = makers[args.maker]()
    breaker = breakers[args.breaker]()
    state, trace = game.play_game(values, maker, breaker, starter=args.starter)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["turn", "player", "index_or_wait", "sign", "max_prefix_after"])
    for turn, ((player, idx, sign), peak) in enumerate(zip(state.history, trace)):
        writer.writerow([turn, player, "wait" if idx is None else idx,
                         "" if sign is None else sign, rat_to_str(peak)])
    _write_text(_out_path("trace.csv", args.trace), buf.getvalue())
    print(f"moves = {len(trace)}  payoff = {rat_to_str(max(trace))}")
    return 0


def cmd_reduce(args) -> int:
    seq = coloring.seq_from_json(_read_json(args.vectors))
    vectors = []
    for j, v in enumerate(seq.vectors):
        nz = [(i, x) for i, x in enumerate(v) if x != 0]
        pos = [(i, x) for i, x in nz if x > 0]
        neg = [(i, x) for i, x in nz if x < 0]
        if len(nz) > 2 or len(pos) > 1 or len(neg) > 1:
            raise ValidationError(f"vector {j} is not a (+p1, -p2) two-sparse vector")
        i1, p1 = pos[0] if pos else ((neg[0][0] + 1) % seq.m, Fraction(0))
        i2, p2 = (neg[0][0], -neg[0][1]) if neg else ((i1 + 1) % seq.m, Fraction(0))
        vectors.append(equivalence.two_sparse(i1, i2, p1, p2))
    if args.mode == "instance":
        inst = equivalence.vectors_to_maxflow_instance(vectors, seq.m)
        _write_json(_out_path("reduced_instance.json", args.out), instance_to_json(inst))
        print(f"constructed {inst.n} jobs on {inst.m} machines")
    else:
        rep = equivalence.roundtrip_check(vectors, seq.m)
        data = {
            "opt_value": rat_to_str(rep.opt_value),
            "extracted_signs": rep.extracted_signs,
            "extracted_value": rat_to_str(rep.extracted_value),
            "brute_signs": rep.brute_signs,
            "brute_value": rat_to_str(rep.brute_value),
        }
        _write_json(_out_path("roundtrip.json", args.out), data)
        print(f"OPT = {rat_to_str(rep.opt_value)}  extracted = {rat_to_str(rep.extracted_value)}"
              f"  brute = {rat_to_str(rep.brute_value)}")
    return 0


def cmd_sdp(args) -> int:
    delta = rat_from_str(args.delta)
    if args.mode == "choose-r":
        r = sdp.choose_r(delta, args.n, args.m)
        print(f"r = {r}")
        return 0
    if args.mode == "mc":
        r = args.r if args.r is not None else sdp.choose_r(delta, args.n, args.m)
        rep = sdp.gaussian_measure_mc(r, delta, args.n, args.m,
                                      args.samples, substream_seed(args.seed, "mc"))
        print(f"r = {r}  fraction = {rep.fraction:.6f}  target = {rep.target:.6f}  "
              f"slack = {rep.slack:.6f}  ok = {rep.within_target}")
        return 0 if rep.within_target else 1
    if args.vectors is None:
        raise ValidationError(f"sdp --mode {args.mode} needs --vectors")
    seq = coloring.seq_from_json(_read_json(args.vectors))
    r = args.r if args.r is not None else sdp.choose_r(delta, seq.n, seq.m)
    block = sdp.build_block_instance(seq, r)
    if args.mode == "build":
        out = {"r": r, "m": block.m, "n": block.n,
               "vectors": [[rat_to_str(x) for x in v] for v in block.vectors()]}
        _write_json(_out_path("block.json", args.out), out)
        print(f"built {block.count} block vectors in dimension {block.dim}")
        return 0
    # verify: search for an all-prefixes-in-K coloring, then fold and check
    signs = sdp.search_block_coloring(block, delta)
    if signs is None:
        print("no in-body coloring found (search exhausted)")
        return 0
    sol = sdp.signs_to_sdp_vectors(signs, r)
    rep = sdp.sdp_prefix_discrepancy(seq, sol)
    bound_sq = (1 + delta) ** 2
    data = {"r": r, "w": [list(row) for row in sol.signs],
            "value_sq": rat_to_str(rep.value_sq), "bound_sq": rat_to_str(bound_sq)}
    _write_json(_out_path("sdp.json", args.out), data)
    ok = rep.value_sq <= bound_sq
    print(f"folded value^2 = {rat_to_str(rep.value_sq)} <= {rat_to_str(bound_sq)}: {ok}")
    if not ok:
        raise InternalCheckError("an in-body coloring must fold below 1 + delta")
    return 0


def summarize(entries: list[tuple[SchedulingInstance, dict]]) -> tuple[str, str, bool]:
    """Aggregate homogeneous result files into (csv, pretty table, all-ok flag)."""
    kinds = {("maxflow" if "T_star" in data else "totalflow") for _, data in entries}
    if len(kinds) > 1:
        raise ValidationError(f"mixed result kinds in one batch: {sorted(kinds)}")
    kind = kinds.pop() if kinds else "maxflow"
    rows = []
    all_ok = True
    for inst, data in entries:
        if kind == "maxflow":
            problems = maxflow.check_result(inst, data)
            levels = " ".join(f"h{rec['h']}:{rec['D']}" for rec in data["levels"])
            rows.append([inst.n, inst.m, data["T_star"], levels, data["max_flow"],
                         "ok" if not problems else "VIOLATED"])
        else:
            problems = totalflow.check_result(inst, data)
            levels = " ".join(f"h{rec['h']}:{rec['D']}" for rec in data["alpha_levels"])
            rows.append([inst.n, inst.m, data["lp_cost"], levels, data["total_flow"],
                         "ok" if not problems else "VIOLATED"])
        all_ok = all_ok and not problems
    header = ["n", "m", "T_star" if kind == "maxflow" else "lp_cost",
              "levels", "value", "bound"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    widths = [max(len(str(r[c])) for r in [header] + rows) for c in range(len(header))]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
             for row in [header] + rows]
    return buf.getvalue(), "\n".join(lines), all_ok


def cmd_bench(args) -> int:
    if args.count < 1:
        raise ValidationError(f"--count must be at least 1, got {args.count}")
    outdir = args.outdir or os.environ.get("FLOWDISC_OUTDIR", ".")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create {outdir}: {exc.strerror}")
    entries = []
    for run_id in range(args.count):
        inst = gen_random_instance(
            args.n, args.m, (1, 4), (0, 2 * args.n), 0.2,
            substream_seed(args.seed, f"instance-gen:{run_id}"),
        )
        inst_path = os.path.join(outdir, f"bench_{run_id:03d}_instance.json")
        _write_json(inst_path, instance_to_json(inst))
        colorer = coloring.get_colorer(args.colorer)
        asg, trace = maxflow.full_round_maxflow(inst, colorer)
        data = maxflow.result_to_json(trace, asg)
        _write_json(os.path.join(outdir, f"bench_{run_id:03d}_result.json"), data)
        entries.append((inst, data))
    csv_text, pretty, all_ok = summarize(entries)
    _write_text(os.path.join(outdir, "summary.csv"), csv_text)
    print(pretty)
    return 0 if all_ok else 1


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    problems = []
    if args.result:
        data = _read_json(args.result)
        if not isinstance(data, dict):
            print(f"malformed result file: expected a JSON object, got {type(data).__name__}")
            return 1
        checker = maxflow.check_result if "T_star" in data else totalflow.check_result
        problems = checker(inst, data)
    if problems:
        for p in problems:
            print(p)
        return 1
    print("ok")
    return 0


PIPELINE_COLORERS = ["brute", "greedy", "floating"]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they end like any rejected input:
    exit 1 and one stderr line.  Subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances, vector sequences, or hard game values")
    p.add_argument("kind", choices=["instance", "vectors", "hard"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--p-lo", type=int, default=1)
    p.add_argument("--p-hi", type=int, default=4)
    p.add_argument("--r-lo", type=int, default=0)
    p.add_argument("--r-hi", type=int, default=10)
    p.add_argument("--infinity-prob", type=float, default=0.2)
    p.add_argument("--hard-k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("maxflow", help="run the max-flow rounding pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--colorer", default="greedy", choices=PIPELINE_COLORERS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_maxflow)

    p = sub.add_parser("totalflow", help="run the total-flow rounding pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--colorer", default="greedy", choices=PIPELINE_COLORERS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_totalflow)

    p = sub.add_parser("color", help="color a vector sequence and report discrepancy")
    p.add_argument("--vectors", required=True)
    p.add_argument("--colorer", default="brute",
                   choices=list(coloring.COLORERS))
    p.add_argument("--mode", default="prefix", choices=["prefix", "interval", "one-sided"])
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("game", help="play a maker-breaker game and dump the trace")
    p.add_argument("--values")
    p.add_argument("--hard-k", type=int)
    p.add_argument("--maker", default="pairing", choices=["pairing", "greedy"])
    p.add_argument("--breaker", default="random", choices=["tree", "random"])
    p.add_argument("--starter", default="breaker", choices=["maker", "breaker"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("reduce", help="vector sequence <-> scheduling instance translation")
    p.add_argument("--vectors", required=True)
    p.add_argument("--mode", default="roundtrip", choices=["instance", "roundtrip"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sdp", help="block expansion, body search, folded verification, MC tails")
    p.add_argument("--mode", default="verify", choices=["build", "choose-r", "verify", "mc"])
    p.add_argument("--vectors")
    p.add_argument("--delta", default="1/2")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--samples", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sdp)

    p = sub.add_parser("bench", help="seeded batch of pipeline runs with a summary table")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--colorer", default="greedy", choices=PIPELINE_COLORERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="re-validate an instance or result file")
    p.add_argument("--instance", required=True)
    p.add_argument("--result")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
