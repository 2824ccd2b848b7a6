"""Monte-Carlo harness: block experiments, outcome classification, statistics
and CSV/JSONL emission.

Blocks are independent work items.  The error of block i is drawn from a
substream keyed by (seed, channel-domain, i) only, so all strategies and all
p values of one experiment face the same underlying randomness and results
are identical no matter how many workers execute the blocks.  A work item is
a range of blocks at every p value, one per worker.  Its blocks are drawn
BATCH_BLOCKS at a time: one row of uniforms per block, shared by every p,
then per p the errors, syndromes and error strings as arrays.  Each block's
standard BP run is computed once and shared by every strategy, since pc08
and enhanced feedback start from that same run, and blocks with the same
syndrome at a p share that run too: a work item decodes each (p, syndrome)
once.  Within a work item every BP run, first run or feedback restart, is a
lane of one lane kernel; jobs finish out of order and results are put back
in spec order, so outputs do not depend on the lane width, the batch size or
the worker count.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf4
from .channel import (
    DepolarizingChannel,
    priors as channel_priors,
    sample_error,
    substream,
    substream_uniforms,
)
from .decoder import (
    Lanes,
    decode,
    lane_width,
    log_priors,
    tanner_graph,
)
from .feedback import (
    FeedbackConfig,
    FeedbackRun,
    check_integer,
    check_slot,
    feedback_decode,
)
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


def __getattr__(name):
    """ProcessPoolExecutor, imported on first use (PEP 562): serial runs skip it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _injected_error(code: StabilizerCode, inject: str | None):
    """An injected Pauli string on the sent qubits as a full (n_total)
    error, or None without one."""
    if inject is None:
        return None
    values = gf4.pauli_to_values(inject)
    if values.shape != (code.n_sent,):
        raise ValueError(
            f"injected error {inject!r} must cover the {code.n_sent} sent qubits"
        )
    return code.embed_sent(values)


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
        check_integer("blocks", self.blocks, 1)
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p={p} not in [0, 1]")
        for name, values in (("p", self.p_values), ("strategy", self.strategies)):
            if not values:
                raise ValueError(f"no {name} values given")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} values in {values}")
        check_integer("seed", self.seed)
        check_integer("workers", self.workers, 1)
        check_integer("max_iter", self.max_iter, 1)
        check_integer("degeneracy_limit", self.degeneracy_limit)
        for strategy in self.strategies:
            if strategy != "standard":  # FeedbackConfig checks name and parameters
                FeedbackConfig(
                    strategy, t_pert=self.t_pert, n_a=self.n_a, delta=self.delta
                )
        if isinstance(self.code, StabilizerCode):  # by name, run_experiment checks
            _injected_error(self.code, self.inject)


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
    e_out = code.embed_sent(outcome.error)
    if np.array_equal(error, e_out):
        return "exact"
    return _inexact_class(code, error, e_out, check_membership)


def _inexact_class(code: StabilizerCode, error, e_out, check_membership) -> str:
    """The class of a converged e_out (n_total) that is not the error."""
    if not check_membership:
        return "unchecked"
    if group_membership(np.bitwise_xor(e_out, error), code):
        return "degenerate"
    return "nonequivalent"


#: New blocks are sampled, checked and stringified this many at a time.
BATCH_BLOCKS = 256


@dataclass(eq=False)
class _Batch:
    """A batch of sampled blocks at one p, as arrays."""

    p_index: int
    blocks: range
    errors: np.ndarray  # (B, n_total)
    targets: np.ndarray  # (B, n_checks) syndromes
    text: str  # the errors on the sent qubits as Pauli strings, back to back


@dataclass(eq=False)
class _FirstRun:
    """The first run on one syndrome at one p, and the batch rows that
    wait for it."""

    p_index: int
    key: bytes
    target: np.ndarray
    waiting: list  # (batch, rows)


@dataclass(eq=False)
class _Block:
    """One sampled block at one p while its feedback runs are decoded."""

    p_index: int
    block: int
    error: np.ndarray
    target: np.ndarray
    text: str  # the error on the sent qubits as a Pauli string


class _Chunk:
    """A pool task: a contiguous range of blocks at every p under every
    strategy, decoded as jobs on one Lanes kernel.

    New blocks are drawn BATCH_BLOCKS at a time: their uniforms once for
    every p, then per p their errors, syndromes and error strings as
    arrays.  A first run depends only on the graph, the priors, the target
    and max_iter, so each syndrome at each p is decoded once: its first
    block's syndrome is queued for the lanes, the blocks that share it wait
    for that run, and once it is done its read-only outcome and embedded
    e_out are kept (per p, keyed by the packed syndrome) for the rest of
    the task, so later blocks with that syndrome are classified and
    reported at once, a batch's rows together.  Results go straight into
    per-(p, strategy) lists indexed by block.  The lanes are refilled as
    they finish, pending feedback restarts before new first runs.  Each
    block's first run is shared by its strategies: standard reports it, and
    so do pc08 and enhanced if it converged; otherwise a FeedbackRun per
    strategy continues from it, drawing from the block's own substream.
    """

    def __init__(self, code, spec, inject, block_lo, block_hi):
        self.code = code
        self.spec = spec
        self.graph = graph = tanner_graph(code)
        self.lanes = Lanes(graph, lane_width(graph))
        self.check_membership = code.n_total <= spec.degeneracy_limit
        self.inject = inject  # the embedded injected error, or None
        self.channels = [DepolarizingChannel(p) for p in spec.p_values]
        self.priors = [channel_priors(chan, code.n_sent) for chan in self.channels]
        self.lane_priors = [log_priors(pri) for pri in self.priors]
        self.configs = {
            s: FeedbackConfig(s, t_pert=spec.t_pert, n_a=spec.n_a, delta=spec.delta)
            for s in spec.strategies if s != "standard"
        }
        self.batches = (
            range(lo, min(lo + BATCH_BLOCKS, block_hi))
            for lo in range(block_lo, block_hi, BATCH_BLOCKS)
        )
        # per p: packed syndrome -> its _FirstRun until decoded, then
        # (outcome, embedded e_out, e_out string)
        self.first_runs = [{} for _ in spec.p_values]
        self.new_runs = deque()  # _FirstRuns waiting for a lane
        self.restarts = deque()  # ((block, strategy_index, run), priors, t_pert)
        self.block_lo = block_lo
        # per p, per strategy: the BlockResult of each block, by block - block_lo
        self.cells = [
            [[None] * (block_hi - block_lo) for _ in spec.strategies]
            for _ in spec.p_values
        ]

    def run(self) -> list:
        """Decode every block; the per-(p, strategy) result lists."""
        lanes = self.lanes
        while True:
            while lanes.busy < lanes.width and self.load_next():
                pass
            if not lanes.busy:
                break
            for job, outcome in lanes.step():
                if isinstance(job, _FirstRun):
                    self.first_run_done(job, outcome)
                else:
                    block, strategy_index, run = job
                    run.finish_round(outcome)
                    self.advance(block, strategy_index, run)
        return self.cells

    def load_next(self) -> bool:
        """Load a feedback restart, else a new syndrome's first run, sampling
        batches until one is there; False when neither is left.  Sampling
        can queue restarts too: blocks whose syndrome's run is known and did
        not converge."""
        while True:
            if self.restarts:
                job, adjusted, t_pert = self.restarts.popleft()
                self.lanes.load(job, log_priors(adjusted), job[0].target, t_pert)
                return True
            if self.new_runs:
                job = self.new_runs.popleft()
                self.lanes.load(
                    job, self.lane_priors[job.p_index], job.target, self.spec.max_iter
                )
                return True
            blocks = next(self.batches, None)
            if blocks is None:
                return False
            self.sample(blocks)

    def sample(self, blocks: range) -> None:
        """Draw a batch of blocks at every p; report the rows whose syndrome
        is decoded, and queue one first run for each new syndrome."""
        code, n_sent = self.code, self.code.n_sent
        uniforms = None
        if self.inject is None:
            uniforms = substream_uniforms(self.spec.seed, _STREAM_CHANNEL, blocks, n_sent)
        for p_index, channel in enumerate(self.channels):
            if uniforms is None:
                errors = np.tile(self.inject, (len(blocks), 1))
            else:
                errors = sample_error(n_sent, channel, uniforms, n_ebits=code.n_ebits)
            targets = syndrome(code, errors)
            batch = _Batch(
                p_index, blocks, errors, targets,
                gf4.values_to_pauli(errors[:, :n_sent]),
            )
            packed = np.packbits(targets < 0, axis=1)
            groups = {}  # packed syndrome -> its rows
            for row, key in enumerate(
                packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
            ):
                groups.setdefault(key, []).append(row)
            known = self.first_runs[p_index]
            for key, rows in groups.items():
                entry = known.get(key)
                if entry is None:
                    known[key] = job = _FirstRun(
                        p_index, key, targets[rows[0]], [(batch, rows)]
                    )
                    self.new_runs.append(job)
                elif isinstance(entry, _FirstRun):
                    entry.waiting.append((batch, rows))
                else:
                    self.report(batch, rows, *entry)

    def first_run_done(self, job: _FirstRun, outcome) -> None:
        """Keep a syndrome's first run and report the rows waiting for it."""
        outcome.error.setflags(write=False)  # shared by every block of the key
        outcome.frustrated.setflags(write=False)
        decoded = self.first_runs[job.p_index][job.key] = (
            outcome, self.code.embed_sent(outcome.error), outcome.error_pauli,
        )
        for batch, rows in job.waiting:
            self.report(batch, rows, *decoded)

    def report(self, batch: _Batch, rows: list, outcome, e_full, e_out: str) -> None:
        """Report the first run of a batch's rows under standard, and under
        pc08 and enhanced if it converged; else start their feedback runs.

        The rows' errors have identity ebit columns, so a row is exact when
        its error string is e_out."""
        spec, n_sent, p_index = self.spec, self.code.n_sent, batch.p_index
        converged, iterations = outcome.converged, outcome.iterations
        texts = [batch.text[row * n_sent : (row + 1) * n_sent] for row in rows]
        if converged:
            classes = [
                "exact" if text == e_out else _inexact_class(
                    self.code, batch.errors[row], e_full, self.check_membership
                )
                for row, text in zip(rows, texts)
            ]
        else:
            classes = ["detected"] * len(rows)
        first = batch.blocks.start
        offset = first - self.block_lo  # of the batch's first block in a cell
        sampled = None
        p = spec.p_values[p_index]
        for strategy_index, strategy in enumerate(spec.strategies):
            if strategy == "standard" or converged:
                cell = self.cells[p_index][strategy_index]
                # positional: a keyword call costs twice as much per block
                for row, text, klass in zip(rows, texts, classes):
                    cell[offset + row] = BlockResult(
                        p, strategy, first + row, text, e_out, converged, iterations,
                        klass,
                    )
                continue
            if sampled is None:
                sampled = [
                    _Block(
                        p_index, first + row, batch.errors[row], batch.targets[row], text
                    )
                    for row, text in zip(rows, texts)
                ]
            for block in sampled:
                rng = substream(
                    spec.seed, _STREAM_DECODER, strategy_index, p_index, block.block
                )
                run = FeedbackRun(
                    self.graph, block.target, self.priors[p_index],
                    self.configs[strategy], outcome, rng,
                )
                self.advance(block, strategy_index, run)

    def advance(self, block: _Block, strategy_index: int, run: FeedbackRun) -> None:
        """Queue the run's next restart, or report the run once it is over."""
        restart = run.next_round()
        if restart is not None:
            self.restarts.append(((block, strategy_index, run),) + restart)
            return
        outcome, _ = run.result()
        klass = classify_outcome(self.code, block.error, outcome, self.check_membership)
        self.cells[block.p_index][strategy_index][block.block - self.block_lo] = (
            BlockResult(
                self.spec.p_values[block.p_index],
                self.spec.strategies[strategy_index],
                block.block,
                block.text,
                outcome.error_pauli,
                outcome.converged,
                outcome.iterations,
                klass,
            )
        )


def _run_blocks(args):
    """Decode one pool task, (code, spec, inject, block_lo, block_hi); see
    _Chunk."""
    return _Chunk(*args).run()


def run_experiment(spec: ExperimentSpec, jsonl_path=None):
    """Run the experiment; returns (stats per (p, strategy), all block results),
    both in spec order of p, then strategy, then block."""
    code = load_code(spec.code)
    inject = _injected_error(code, spec.inject)  # checked before any worker starts
    step = math.ceil(spec.blocks / spec.workers)
    tasks = [
        (code, spec, inject, lo, min(lo + step, spec.blocks))
        for lo in range(0, spec.blocks, step)
    ]

    if spec.workers == 1:
        chunk_results = [_run_blocks(task) for task in tasks]
    else:
        # through the module, where a replaced ProcessPoolExecutor is found
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunk_results = list(pool.map(_run_blocks, tasks))

    # Chunks come back in block order, so each cell fills in block order.
    cells = [[[] for _ in spec.strategies] for _ in spec.p_values]
    for chunk in chunk_results:
        for row, chunk_row in zip(cells, chunk):
            for cell, part in zip(row, chunk_row):
                cell.extend(part)
    for row in cells:
        for cell in row:
            decoded = sum(r is not None for r in cell)
            if decoded != spec.blocks:
                raise RuntimeError(f"{decoded} of {spec.blocks} blocks decoded in a cell")

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
        import json

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
    seeded random choices.  A check without a qubit, a qubit without a
    check, or a pin under standard is a ValueError.  Returns (rows, outcome)
    where each row is (iteration, qubit, belief 4-vector), iterations
    counted across rounds.
    """
    if (check is None) != (qubit is None):
        raise ValueError("a pinned round needs both check and qubit")
    if strategy == "standard" and check is not None:
        raise ValueError(
            "standard BP has no feedback round to pin with check and qubit"
        )
    graph = tanner_graph(code)
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

    check_slot(graph, check, qubit)
    first = decode(
        code, target, pri, max_iter=max_iter, graph=graph, on_iteration=record
    )
    if first.converged:
        return rows, first
    run = FeedbackRun(graph, target, pri, config, first, rng)
    adjusted, t_pert = run.start_round(check, qubit)
    outcome = decode(
        code, target, adjusted, max_iter=t_pert, graph=graph, on_iteration=record
    )
    run.finish_round(outcome)
    outcome.iterations = run.iterations  # the round's output, both runs' count
    return rows, outcome
