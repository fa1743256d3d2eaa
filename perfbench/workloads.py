"""The four perfbench workloads: seeded inputs, the op a user waits for, and
the exact-output gate each op must pass to count as certified.

A workload is built from the flowdisc modules it is handed (``fd``), so the
benchmark times the import it performed itself.  Inputs are generated once, in
set-up, into a pool; ``ops()`` returns one op per pool entry.  That list is a
*pass*, and a run repeats whole passes, so every op is timed several times
and every run of a workload sees the same mix of op kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

DEFAULT_SEED = 0

# Unique optima on the default seed, keyed by (n, pool index).  T* and the
# auxiliary LP cost are optimal values, not vertices, so a change of LP vertex
# must leave them as they are.
MAXFLOW_T_STAR_SEED0 = {
    (8, 0): "4/1", (8, 1): "4/1", (8, 2): "3/1", (8, 3): "4/1",
    (10, 0): "4/1", (10, 1): "4/1", (10, 2): "4/1", (10, 3): "47/7",
    (12, 0): "4/1", (12, 1): "4/1", (12, 2): "4/1", (12, 3): "4/1",
}
TOTALFLOW_LP_COST_SEED0 = {
    (4, 0): "17/2", (4, 1): "14/1", (4, 2): "23/2", (4, 3): "7/1",
    (5, 0): "22/1", (5, 1): "51/1", (5, 2): "135/4", (5, 3): "113/4",
}
# Payoffs of the hard-instance games (breaker first, TreeBreaker(k)); the
# breaker's play is deterministic, so they hold on every seed.
TREE_PAYOFFS = {4: {"pairing": Fraction(1), "greedy": Fraction(1)}}
PAIRING_BOUND = 4  # certified bound of the pairing maker on +-1 values


@dataclass
class Op:
    """One unit of work.  ``run`` is what a user waits for, and the only part
    that is timed.  ``check`` is the gate: it lists what is wrong with the
    output (empty means certified).  ``summary`` gives the exact outputs; a
    later pass must reproduce those of the first pass."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    summary: Callable[[Any], Any]  # exact outputs, JSON-serializable
    figures: Callable[[Any], dict] = lambda out: {}  # per-op numbers read from the output


def _pipeline_pool(fd, seed: int, tag: str, sizes, pool: int) -> list:
    """``pool`` instances per size from the generator the ROADMAP baseline
    uses, as ``(n, pool index, instance)``, the sizes interleaved."""
    return [
        (n, q, fd.core.gen_random_instance(n, 2, (1, 4), (0, 2 * n), 0.2,
                                           fd.util.substream_seed(seed, f"{tag}:{n}:{q}")))
        for q in range(pool) for n in sizes
    ]


class MaxflowWindows:
    """``flowdisc maxflow`` minus file I/O, greedy colorer."""

    name = "maxflow-windows"
    sizes = {False: (8, 10, 12), True: (8,)}
    pool = {False: 24, True: 2}

    def __init__(self, fd, seed: int, tiny: bool = False):
        self.fd = fd
        self.seed = seed
        self.colorer = fd.coloring.color_greedy
        self.instances = _pipeline_pool(fd, seed, "maxflow", self.sizes[tiny], self.pool[tiny])

    def ops(self) -> list:
        return [self._op(n, q, inst) for n, q, inst in self.instances]

    def _op(self, n: int, q: int, inst) -> Op:
        mf = self.fd.maxflow
        expected = MAXFLOW_T_STAR_SEED0.get((n, q)) if self.seed == DEFAULT_SEED else None

        def run():
            asg, trace = mf.full_round_maxflow(inst, self.colorer)
            data = mf.result_to_json(trace, asg)
            return trace, data, mf.check_result(inst, data)

        def check(out):
            _trace, data, problems = out
            # again, on the output as it leaves the op
            problems = problems or mf.check_result(inst, data)
            if expected is not None and data["T_star"] != expected:
                problems.append(f"T* {data['T_star']} != recorded {expected}")
            return problems

        def figures(out):
            trace = out[0]
            return {
                "maxflow.gap_pmax": (trace.final_value - trace.t_star) / self.fd.core.p_max(inst),
                "maxflow.levels": len(trace.levels),
            }

        return Op(f"maxflow n={n} #{q}", run, check, lambda out: out[1], figures)


class TotalflowLp:
    """``flowdisc totalflow`` minus file I/O, greedy colorer."""

    name = "totalflow-lp"
    sizes = {False: (4, 5), True: (6,)}
    pool = {False: 40, True: 2}

    def __init__(self, fd, seed: int, tiny: bool = False):
        self.fd = fd
        self.seed = seed
        self.colorer = fd.coloring.color_greedy
        self.instances = _pipeline_pool(fd, seed, "totalflow", self.sizes[tiny], self.pool[tiny])

    def ops(self) -> list:
        return [self._op(n, q, inst) for n, q, inst in self.instances]

    def _op(self, n: int, q: int, inst) -> Op:
        tf = self.fd.totalflow
        expected = TOTALFLOW_LP_COST_SEED0.get((n, q)) if self.seed == DEFAULT_SEED else None

        def run():
            _y, trace = tf.full_round_totalflow(inst, self.colorer)
            data = tf.result_to_json(trace)
            return trace, data, tf.check_result(inst, data)

        def check(out):
            _trace, data, problems = out
            problems = problems or tf.check_result(inst, data)
            if expected is not None and data["lp_cost"] != expected:
                problems.append(f"lp_cost {data['lp_cost']} != recorded {expected}")
            return problems

        def figures(out):
            trace = out[0]
            return {
                "totalflow.flow_over_lp": trace.total_flow_dilated / trace.lp_cost,
                "totalflow.levels": len(trace.levels),
            }

        return Op(f"totalflow n={n} #{q}", run, check, lambda out: out[1], figures)


def replay_payoff(values, history) -> tuple[Fraction, list]:
    """The game's payoff, recomputed from its history without the library:
    the largest |prefix sum| of the colored elements after any move."""
    colors = [0] * len(values)
    problems = []
    payoff = 0
    for _player, idx, sign in history:
        if idx is not None:
            if colors[idx]:
                problems.append(f"element {idx} colored twice")
            colors[idx] = sign
        run = 0
        for v, c in zip(values, colors):
            run += c * v
            payoff = max(payoff, abs(run))
    if 0 in colors:
        problems.append(f"{colors.count(0)} elements left uncolored")
    return Fraction(payoff), problems


class GameHard:
    """Games of the pairing and the greedy maker against a waiting random
    breaker on seeded +-1 sequences, plus both makers against TreeBreaker on
    the k=4 hard instance."""

    name = "game-hard"
    tree_k = 4
    random_n = {False: 200, True: 20}
    # pairing and greedy games per pass
    games = {False: (12, 8), True: (2, 2)}

    def __init__(self, fd, seed: int, tiny: bool = False):
        self.fd = fd
        self.hard_values = fd.game.breaker_hard_instance(self.tree_k)
        self.sequences = {}
        for maker, count in zip(("pairing", "greedy"), self.games[tiny]):
            games = []
            for g in range(count):
                rng = random.Random(fd.util.substream_seed(seed, f"game:{maker}:{g}"))
                values = [rng.choice((-1, 1)) for _ in range(self.random_n[tiny])]
                games.append((values, fd.util.substream_seed(seed, f"breaker:{maker}:{g}")))
            self.sequences[maker] = games

    def ops(self) -> list:
        gm = self.fd.game
        k = self.tree_k
        makers = {"pairing": gm.PairingMaker, "greedy": gm.GreedyMaker}
        random_ops = {
            maker: [self._op(f"random {maker} #{g}", values, makers[maker],
                             lambda s=breaker_seed: gm.RandomBreaker(s, wait_prob=0.1),
                             self._random_gate(maker))
                    for g, (values, breaker_seed) in enumerate(games)]
            for maker, games in self.sequences.items()
        }
        ops = [self._op(f"tree k={k} pairing", self.hard_values,
                        lambda: gm.PairingMaker(allow_fractional=True),
                        lambda: gm.TreeBreaker(k), self._tree_gate(TREE_PAYOFFS[k]["pairing"])),
               self._op(f"tree k={k} greedy", self.hard_values, gm.GreedyMaker,
                        lambda: gm.TreeBreaker(k), self._tree_gate(TREE_PAYOFFS[k]["greedy"]))]
        # alternate the makers, so that a slow spell of the machine does not
        # fall on one kind of game only
        pairing, greedy = random_ops["pairing"], random_ops["greedy"]
        for i in range(max(len(pairing), len(greedy))):
            ops += pairing[i:i + 1] + greedy[i:i + 1]
        return ops

    def _op(self, label, values, make_maker, make_breaker, gate) -> Op:
        def run():
            breaker = make_breaker()
            state, trace = self.fd.game.play_game(values, make_maker(), breaker)
            return state, max(trace), breaker

        def check(out):
            state, payoff, _breaker = out
            replayed, problems = replay_payoff(state.values, state.history)
            if replayed != payoff:
                problems.append(f"payoff {payoff} != replayed {replayed}")
            return problems + gate(out)

        def summary(out):
            state, payoff, _breaker = out
            return {"payoff": str(payoff), "history": state.history}

        return Op(label, run, check, summary)

    @staticmethod
    def _tree_gate(expected: Fraction):
        def gate(out):
            _state, payoff, breaker = out
            problems = []
            if payoff != expected:
                problems.append(f"payoff {payoff} != {expected}")
            if breaker.checked_moves < 1:
                problems.append("TreeBreaker checked no move")
            return problems
        return gate

    @staticmethod
    def _random_gate(maker: str):
        def gate(out):
            payoff = out[1]
            if maker == "pairing" and payoff > PAIRING_BOUND:
                return [f"pairing payoff {payoff} > {PAIRING_BOUND}"]
            return []
        return gate


def window_value(col, vectors, signs, mode: str) -> Fraction:
    """Discrepancy of a signed sequence by direct enumeration of prefix sums.

    Independent of ``coloring.discrepancy`` (``col`` only supplies the mode
    names): O(n^2 m) Fraction arithmetic over every window, the reference the
    color-brute gate compares with.
    """
    best = None
    for i in range(len(vectors[0])):
        sums = [Fraction(0)]
        for v, s in zip(vectors, signs):
            sums.append(sums[-1] + s * v[i])
        if mode == col.PREFIX:
            val = max(abs(x) for x in sums[1:])
        elif mode == col.INTERVAL:
            val = max(abs(sums[b] - sums[a]) for b in range(len(sums)) for a in range(b))
        else:
            val = max(sums[b] - sums[a] for b in range(1, len(sums)) for a in range(b))
        best = val if best is None else max(best, val)
    return best


class ColorBrute:
    """Exhaustive colorer plus the discrepancy report of its signs, as
    ``flowdisc color --colorer brute`` does, in each of the three modes."""

    name = "color-brute"
    n = {False: 16, True: 8}
    m = 2
    pool = 8

    def __init__(self, fd, seed: int, tiny: bool = False):
        self.fd = fd
        col = fd.coloring
        self.modes = (col.PREFIX, col.INTERVAL, col.ONE_SIDED)
        # The one-sided mode enumerates all 2^n patterns, the others fix the
        # first sign; one vector fewer there gives every op the same count.
        self.sequences = [
            [col.SignedVectorSequence(m=self.m, vectors=self._vectors(
                seed, mode, q, self.n[tiny] - (mode == col.ONE_SIDED)))
             for mode in self.modes]
            for q in range(self.pool)
        ]

    def _vectors(self, seed: int, mode: str, q: int, n: int) -> list:
        """Vectors drawn as ``flowdisc gen vectors`` draws them."""
        rng = random.Random(self.fd.util.substream_seed(seed, f"vectors:{mode}:{q}"))
        vectors = []
        for _ in range(n):
            row = [Fraction(rng.randint(-8, 8), 8) for _ in range(self.m)]
            norm = sum(abs(x) for x in row)
            if norm > 1:
                row = [x / norm for x in row]
            vectors.append(row)
        return vectors

    def ops(self) -> list:
        return [self._op(mode, q, seq)
                for q, seqs in enumerate(self.sequences) for mode, seq in zip(self.modes, seqs)]

    def _op(self, mode: str, q: int, seq) -> Op:
        col = self.fd.coloring

        def run():
            signs = col.color_brute_force(seq, mode)
            return signs, col.discrepancy(seq.with_signs(signs), mode)

        def check(out):
            signs, report = out
            if len(signs) != seq.n or any(s not in (-1, 1) for s in signs):
                return [f"signs {signs} are not a full +-1 coloring"]
            problems = []
            value = window_value(col, seq.vectors, signs, mode)
            if report.value != value:
                problems.append(f"reported {report.value} != evaluated {value}")
            if report.reproduce(seq.with_signs(signs)) != report.value:
                problems.append(f"witness {report.witness} does not reproduce {report.value}")
            return problems

        def summary(out):
            signs, report = out
            return {"signs": signs, "value": str(report.value), "witness": list(report.witness)}

        return Op(f"brute {mode} #{q}", run, check, summary)


WORKLOADS = {wl.name: wl for wl in (MaxflowWindows, TotalflowLp, GameHard, ColorBrute)}
