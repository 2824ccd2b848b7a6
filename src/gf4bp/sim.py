"""Monte-Carlo harness: block experiments, outcome classification, statistics
and CSV/JSONL emission.

Blocks are independent work items.  The error of block i is drawn from a
substream keyed by (seed, channel-domain, i) only, so all strategies and all
p values of one experiment face the same underlying randomness and results
are identical no matter how many workers execute the blocks.  A work item is
one p value and a range of blocks: each block's error, syndrome and standard
BP run are computed once and shared by every strategy, since pc08 and
enhanced feedback start from that same run.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gf4
from .channel import DepolarizingChannel, priors as channel_priors, sample_error, substream
from .decoder import TannerGraph, decode
from .feedback import FeedbackConfig, feedback_decode, feedback_round
from .formats import parse_stabilizer_text
from .stabilizer import StabilizerCode, build_code_4_1_1, group_membership, syndrome

CSV_HEADER = (
    "p,strategy,n_blocks,errors_strict,BER,BER_lo,BER_hi,ANoI,"
    "exact,degenerate,nonequivalent,detected,seed"
)

OUTCOME_CLASSES = ("exact", "degenerate", "nonequivalent", "detected", "unchecked")

_STREAM_CHANNEL = 0
_STREAM_DECODER = 1

BUILTIN_CODES = {"4_1_1": build_code_4_1_1}


def load_code(source) -> StabilizerCode:
    """Resolve a code source: a StabilizerCode, a built-in name or a file path."""
    if isinstance(source, StabilizerCode):
        return source
    name = str(source)
    if name in BUILTIN_CODES:
        return BUILTIN_CODES[name]()
    path = Path(name)
    if not path.exists():
        raise ValueError(f"unknown code {name!r}: not a built-in name or file")
    return parse_stabilizer_text(path.read_text())


@dataclass
class ExperimentSpec:
    code: object  # StabilizerCode, built-in name or path
    p_values: tuple
    strategies: tuple = ("standard",)
    blocks: int = 1000
    seed: int = 0
    max_iter: int = 90
    t_pert: int = 40
    n_a: int | None = None
    delta: float = 0.1
    inject: str | None = None  # fixed Pauli error on the sent qubits
    workers: int = 1
    degeneracy_limit: int = 10_000

    def __post_init__(self):
        self.p_values = tuple(float(p) for p in self.p_values)
        self.strategies = tuple(self.strategies)
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p={p} not in [0, 1]")
        for strategy in self.strategies:
            if strategy not in ("standard", "pc08", "enhanced"):
                raise ValueError(f"unknown strategy {strategy!r}")
        for name, values in (("p", self.p_values), ("strategy", self.strategies)):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} values in {values}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class BlockResult:
    p: float
    strategy: str
    block: int
    error: str
    e_out: str
    converged: bool
    iterations: int
    outcome: str


@dataclass
class StrategyStats:
    p: float
    strategy: str
    n_blocks: int
    errors_strict: int
    ber: float
    ber_lo: float
    ber_hi: float
    anoi: float
    exact: int
    degenerate: int
    nonequivalent: int
    detected: int
    unchecked: int
    seed: int

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(self.p),
                self.strategy,
                str(self.n_blocks),
                str(self.errors_strict),
                repr(self.ber),
                repr(self.ber_lo),
                repr(self.ber_hi),
                repr(self.anoi),
                str(self.exact),
                str(self.degenerate),
                str(self.nonequivalent),
                str(self.detected),
                str(self.seed),
            ]
        )


def wilson_interval(errors: int, n: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = errors / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def classify_outcome(code: StabilizerCode, error, outcome, check_membership=True) -> str:
    """Classify a decode outcome against the sampled error.

    exact: e_out equals the error; degenerate: they differ by a stabilizer
    element; nonequivalent: converged but not equivalent; detected: the
    decoder reported failure.  With check_membership=False the degenerate /
    nonequivalent split is not computed and 'unchecked' is returned instead.
    """
    if not outcome.converged:
        return "detected"
    error = np.asarray(error, dtype=np.uint8)
    e_out_full = code.embed_sent(outcome.error)
    if np.array_equal(e_out_full, error):
        return "exact"
    if not check_membership:
        return "unchecked"
    difference = np.bitwise_xor(e_out_full, error)
    return "degenerate" if group_membership(difference, code) else "nonequivalent"


def _run_blocks(args):
    """Decode a contiguous range of blocks at one p under every strategy.

    Each block's error, syndrome and standard BP run are computed once:
    standard reports that run, and so do pc08 and enhanced if it converged;
    otherwise feedback_decode continues from it.  Results are block-major.
    """
    (code, spec, p_index, block_lo, block_hi) = args
    p = spec.p_values[p_index]
    graph = TannerGraph(code)
    chan = DepolarizingChannel(p)
    base_priors = channel_priors(chan, code.n_sent)
    check_membership = code.n_total <= spec.degeneracy_limit
    inject = None if spec.inject is None else gf4.pauli_to_values(spec.inject)
    if inject is not None and inject.shape != (code.n_sent,):
        raise ValueError(
            f"injected error must cover the {code.n_sent} sent qubits"
        )
    configs = {
        s: FeedbackConfig(s, t_pert=spec.t_pert, n_a=spec.n_a, delta=spec.delta)
        for s in spec.strategies if s != "standard"
    }
    results = []
    for block in range(block_lo, block_hi):
        if inject is not None:
            error = code.embed_sent(inject)
        else:
            rng = substream(spec.seed, _STREAM_CHANNEL, block)
            error = sample_error(code.n_sent, chan, rng, n_ebits=code.n_ebits)
        target = syndrome(code, error)
        first = decode(code, target, base_priors, max_iter=spec.max_iter, graph=graph)
        first_class = classify_outcome(code, error, first, check_membership)
        for strategy_index, strategy in enumerate(spec.strategies):
            outcome, klass = first, first_class
            if strategy != "standard" and not first.converged:
                rng = substream(spec.seed, _STREAM_DECODER, strategy_index, p_index, block)
                outcome, _ = feedback_decode(
                    code, target, base_priors, configs[strategy],
                    max_iter=spec.max_iter, rng=rng, graph=graph, first=first,
                )
                klass = classify_outcome(code, error, outcome, check_membership)
            results.append(
                BlockResult(
                    p=p,
                    strategy=strategy,
                    block=block,
                    error=gf4.values_to_pauli(error[: code.n_sent]),
                    e_out=outcome.error_pauli,
                    converged=outcome.converged,
                    iterations=outcome.iterations,
                    outcome=klass,
                )
            )
    return results


def run_experiment(spec: ExperimentSpec, jsonl_path=None):
    """Run the experiment; returns (stats per (p, strategy), all block results),
    both in spec order of p, then strategy, then block."""
    code = load_code(spec.code)
    step = spec.blocks
    if spec.workers > 1:
        step = max(1, math.ceil(spec.blocks / (spec.workers * 4)))
    tasks = [
        (code, spec, p_index, lo, min(lo + step, spec.blocks))
        for p_index in range(len(spec.p_values))
        for lo in range(0, spec.blocks, step)
    ]

    if spec.workers == 1:
        chunk_results = [_run_blocks(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunk_results = list(pool.map(_run_blocks, tasks))

    # Chunks come back in task order, so each cell fills in block order.
    strategy_index = {strategy: i for i, strategy in enumerate(spec.strategies)}
    cells = [[[] for _ in spec.strategies] for _ in spec.p_values]
    for (_, _, p_index, _, _), chunk in zip(tasks, chunk_results):
        for r in chunk:
            cells[p_index][strategy_index[r.strategy]].append(r)

    stats = []
    block_results = []
    for p, row in zip(spec.p_values, cells):
        for strategy, cell in zip(spec.strategies, row):
            block_results.extend(cell)
            counts = {klass: 0 for klass in OUTCOME_CLASSES}
            for r in cell:
                counts[r.outcome] += 1
            errors_strict = len(cell) - counts["exact"]
            lo, hi = wilson_interval(errors_strict, len(cell))
            total_iterations = sum(r.iterations for r in cell)
            stats.append(
                StrategyStats(
                    p=p,
                    strategy=strategy,
                    n_blocks=len(cell),
                    errors_strict=errors_strict,
                    ber=errors_strict / len(cell),
                    ber_lo=lo,
                    ber_hi=hi,
                    anoi=total_iterations / len(cell),
                    exact=counts["exact"],
                    degenerate=counts["degenerate"],
                    nonequivalent=counts["nonequivalent"],
                    detected=counts["detected"],
                    unchecked=counts["unchecked"],
                    seed=spec.seed,
                )
            )

    if jsonl_path is not None:
        with open(jsonl_path, "w") as handle:
            for r in block_results:
                handle.write(
                    json.dumps(
                        {
                            "p": r.p,
                            "strategy": r.strategy,
                            "block": r.block,
                            "error": r.error,
                            "e_out": r.e_out,
                            "converged": r.converged,
                            "iterations": r.iterations,
                            "class": r.outcome,
                        }
                    )
                    + "\n"
                )
    return stats, block_results


def format_csv(stats) -> str:
    lines = [CSV_HEADER]
    lines.extend(s.csv_row() for s in stats)
    return "\n".join(lines) + "\n"


def write_csv(stats, path):
    Path(path).write_text(format_csv(stats))


def trace_run(
    code: StabilizerCode,
    p: float,
    error=None,
    target=None,
    strategy: str = "standard",
    check: int | None = None,
    qubit: int | None = None,
    max_iter: int = 90,
    t_pert: int = 40,
    n_a: int | None = None,
    delta: float = 0.1,
    seed: int = 0,
):
    """Single-instance run that records per-iteration beliefs.

    Either an error (Pauli string on the sent qubits) or a target syndrome
    must be given.  For pc08/enhanced, a (check, qubit) pair pins the single
    feedback round to adjust; without it the full feedback loop runs with
    seeded random choices.  Returns (rows, outcome) where each row is
    (iteration, qubit, belief 4-vector), iterations counted across rounds.
    """
    graph = TannerGraph(code)
    chan = DepolarizingChannel(p)
    pri = channel_priors(chan, code.n_sent)
    if (error is None) == (target is None):
        raise ValueError("give exactly one of error or target syndrome")
    if error is not None:
        target = syndrome(code, code.embed_sent(gf4.pauli_to_values(error)))
    target = np.asarray(target, dtype=np.int64)

    rows = []
    counter = [0]

    def record(_iteration, beliefs):
        counter[0] += 1
        for q in range(beliefs.shape[0]):
            rows.append((counter[0], q, beliefs[q].copy()))

    if strategy == "standard":
        outcome = decode(
            code, target, pri, max_iter=max_iter, graph=graph, on_iteration=record
        )
        return rows, outcome

    config = FeedbackConfig(strategy=strategy, t_pert=t_pert, n_a=n_a, delta=delta)
    rng = substream(seed, _STREAM_DECODER, 0, 0, 0)
    if check is None:
        outcome, _ = feedback_decode(
            code,
            target,
            pri,
            config,
            max_iter=max_iter,
            rng=rng,
            graph=graph,
            on_iteration=record,
        )
        return rows, outcome

    if qubit is None:
        raise ValueError("a pinned round needs both check and qubit")
    first = decode(
        code, target, pri, max_iter=max_iter, graph=graph, on_iteration=record
    )
    if first.converged:
        return rows, first
    outcome, _, _ = feedback_round(
        code,
        target,
        pri,
        check,
        qubit,
        config,
        rng=rng,
        graph=graph,
        current_e_out=first.error,
        on_iteration=record,
    )
    return rows, replace(outcome, iterations=first.iterations + outcome.iterations)
