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
once.  The first iteration of new syndromes runs in bulk, a lane width of
them at a time, and every BP run it does not settle, first run or feedback
restart, is a lane of one lane kernel; jobs finish out of order and results
are put back in spec order, so outputs do not depend on the lane width, the
batch size or the worker count.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gf4
from .channel import (
    DepolarizingChannel,
    check_integer,
    priors as channel_priors,
    sample_error,
    substream,
    substream_uniforms,
)
from .decoder import (
    decode,
    idle_lanes,
    lane_width,
    log_priors,
    tanner_graph,
)
from .feedback import (
    FeedbackConfig,
    check_slot,
    feedback_decode,
    feedback_round,
    feedback_rounds,
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
    if not path.is_file():
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
    code: object  # StabilizerCode, built-in name or path; loaded when made
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
    configs: dict = field(init=False, repr=False, compare=False)  # by strategy
    channels: tuple = field(init=False, repr=False, compare=False)  # by p
    injected: object = field(init=False, repr=False, compare=False)  # n_total, or None

    def __post_init__(self):
        self.p_values = tuple(float(p) for p in self.p_values)
        self.strategies = tuple(self.strategies)
        check_integer("blocks", self.blocks, 1)
        self.channels = tuple(map(DepolarizingChannel, self.p_values))  # p in [0, 1]
        for name, values in (("p", self.p_values), ("strategy", self.strategies)):
            if not values:
                raise ValueError(f"no {name} values given")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} values in {values}")
        check_integer("seed", self.seed)
        check_integer("workers", self.workers, 1)
        check_integer("max_iter", self.max_iter, 1)
        self.configs = {  # FeedbackConfig checks name and parameters
            s: FeedbackConfig(s, t_pert=self.t_pert, n_a=self.n_a, delta=self.delta)
            for s in self.strategies if s != "standard"
        }
        self.code = load_code(self.code)
        self.injected = _injected_error(self.code, self.inject)


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

#: Above this many qubits (sent plus ebits) inexact converged outputs are 'unchecked'.
DEGENERACY_LIMIT = 10_000


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
    """The first run on one syndrome at one p: the batch rows that wait for
    it, then its read-only outcome and e_out, which later rows are reported against."""

    waiting: list  # (batch, rows), until the run is decoded
    outcome: object = None  # the DecodeOutcome, once decoded
    e_out: str = None  # its error_pauli


class _Chunk:
    """A pool task: a contiguous range of blocks at every p under every
    strategy, decoded as jobs on the process's idle Lanes kernel.

    New blocks are drawn BATCH_BLOCKS at a time: their uniforms once for
    every p, then per p their errors, syndromes and error strings as
    arrays.  A first run depends only on the graph, the priors, the target
    and max_iter, so each syndrome at each p is decoded once: its first
    block's syndrome waits in fresh for iteration 1 in bulk
    (Lanes.first_iteration), a lane width of syndromes at a time, and the
    blocks that share it wait in its _FirstRun, which then keeps the
    read-only outcome and e_out (per p, keyed by the packed syndrome) for
    the rest of the task, so later blocks with that syndrome are reported at
    once.  Results go into per-(p, strategy) lists indexed by block.  Every
    other BP run waits in one queue of Lanes.load arguments (job,
    log-priors, target, max_iter): feedback restarts on its front, first
    runs that iteration 1 did not settle on its back.
    Each block's first run is shared by its strategies: standard reports
    it, and so do pc08 and enhanced if it converged; otherwise a
    feedback_rounds generator per strategy continues from it, drawing from
    the block's own substream.  Its restarts are jobs (batch, row,
    strategy_index, run), and advance() sends each its outcome; the block's
    error, error string and index are read from its batch row when the run
    ends.  write() writes every BlockResult.
    """

    def __init__(self, spec, block_lo, block_hi):
        self.code = code = spec.code
        self.spec = spec
        self.graph = graph = tanner_graph(code)
        self.lanes = lanes = idle_lanes(graph, lane_width(graph))
        self.check_membership = code.n_total <= DEGENERACY_LIMIT
        self.priors = [channel_priors(chan, code.n_sent) for chan in spec.channels]
        self.lane_priors = [log_priors(pri) for pri in self.priors]
        self.first_messages = [lanes.first_messages(lp) for lp in self.lane_priors]
        self.fresh = [[] for _ in spec.p_values]  # per p: (_FirstRun, target) of new syndromes
        self.batches = (
            range(lo, min(lo + BATCH_BLOCKS, block_hi))
            for lo in range(block_lo, block_hi, BATCH_BLOCKS)
        )
        self.first_runs = [{} for _ in spec.p_values]  # per p: syndrome -> _FirstRun
        self.queue = deque()  # (job, log-priors, target, max_iter) waiting for a lane
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
                    self.advance(*job, outcome)
        return self.cells

    def load_next(self) -> bool:
        """Load the queue's front run; while it is empty, sample batches (which
        can queue restarts) until a lane width of new syndromes wait or no
        block is left, then run their iteration 1.  False when none is left."""
        while not self.queue:
            waiting = sum(map(len, self.fresh))
            blocks = next(self.batches, None) if waiting < self.lanes.width else None
            if blocks is not None:
                self.sample(blocks)
            elif waiting:
                self.first_iterations()
            else:
                return False
        self.lanes.load(*self.queue.popleft())
        return True

    def sample(self, blocks: range) -> None:
        """Draw a batch of blocks at every p; report the rows whose syndrome
        is decoded, and keep each new syndrome for its first iteration."""
        code, n_sent, inject = self.code, self.code.n_sent, self.spec.injected
        uniforms = None
        if inject is None:
            uniforms = substream_uniforms(self.spec.seed, _STREAM_CHANNEL, blocks, n_sent)
        for p_index, channel in enumerate(self.spec.channels):
            if uniforms is None:
                errors = np.tile(inject, (len(blocks), 1))
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
                    known[key] = entry = _FirstRun([])
                    self.fresh[p_index].append((entry, targets[rows[0]]))
                if entry.outcome is None:
                    entry.waiting.append((batch, rows))
                else:
                    self.report(batch, rows, entry)

    def first_iterations(self) -> None:
        """Iteration 1 of the new syndromes' first runs, a lane width at a time
        per p; a first run is queued for each it does not match."""
        for p_index, fresh in enumerate(self.fresh):
            lp, first = self.lane_priors[p_index], self.first_messages[p_index]
            for lo in range(0, len(fresh), self.lanes.width):
                entries, targets = zip(*fresh[lo : lo + self.lanes.width])
                outcomes = self.lanes.first_iteration(lp, first, np.array(targets))
                for entry, target, outcome in zip(entries, targets, outcomes):
                    if outcome.converged:
                        self.first_run_done(entry, outcome)
                    else:  # the simplest: the lane runs iteration 1 again
                        self.queue.append((entry, lp, target, self.spec.max_iter))
            fresh.clear()

    def first_run_done(self, job: _FirstRun, outcome) -> None:
        """Keep a syndrome's first run and report the rows waiting for it."""
        outcome.error.setflags(write=False)  # shared by every block of the key
        outcome.frustrated.setflags(write=False)
        job.outcome, job.e_out = outcome, outcome.error_pauli
        for batch, rows in job.waiting:
            self.report(batch, rows, job)
        job.waiting.clear()  # its batches need not outlive their results

    def report(self, batch: _Batch, rows: list, first_run: _FirstRun) -> None:
        """Report a first run for a batch's rows under standard, and under
        pc08 and enhanced if it converged; else start their feedback runs."""
        spec, outcome, p_index = self.spec, first_run.outcome, batch.p_index
        converged = outcome.converged
        shared = [i for i, s in enumerate(spec.strategies) if s == "standard" or converged]
        self.write(batch, rows, shared, outcome, first_run.e_out)
        first = batch.blocks.start
        for strategy_index, strategy in enumerate(spec.strategies):
            if strategy == "standard" or converged:
                continue
            for row in rows:
                rng = substream(
                    spec.seed, _STREAM_DECODER, strategy_index, p_index, first + row
                )
                run = feedback_rounds(
                    self.graph, batch.targets[row], self.priors[p_index],
                    spec.configs[strategy], outcome, rng,
                )
                self.advance(batch, row, strategy_index, run)

    def advance(self, batch: _Batch, row: int, strategy_index: int, run, outcome=None):
        """Send the run its last restart's outcome (None to start it) and
        queue its next restart, or report the batch's row once it is over."""
        try:
            adjusted = run.send(outcome)
        except StopIteration as done:
            self.write(batch, [row], [strategy_index], done.value[0])
            return
        job = (batch, row, strategy_index, run)
        self.queue.appendleft((job, log_priors(adjusted), batch.targets[row], self.spec.t_pert))

    def write(self, batch: _Batch, rows: list, strategy_indices: list, outcome, e_out=None):
        """Classify a batch's rows against a run's outcome (error string e_out)
        and write their BlockResults under the given strategies.  The rows'
        errors have identity ebit columns, so a row is exact when its error
        string is e_out; a converged run's other rows are left to _inexact_class."""
        code, spec, n_sent = self.code, self.spec, self.code.n_sent
        converged, iterations = outcome.converged, outcome.iterations
        e_out = outcome.error_pauli if e_out is None else e_out
        texts = [batch.text[row * n_sent : (row + 1) * n_sent] for row in rows]
        if converged:
            classes = [
                "exact" if text == e_out else _inexact_class(
                    code, batch.errors[row], code.embed_sent(outcome.error),
                    self.check_membership,
                )
                for row, text in zip(rows, texts)
            ]
        else:
            classes = ["detected"] * len(rows)
        first = batch.blocks.start
        offset = first - self.block_lo  # of the batch's first block in a cell
        p = spec.p_values[batch.p_index]
        for strategy_index in strategy_indices:
            cell = self.cells[batch.p_index][strategy_index]
            strategy = spec.strategies[strategy_index]
            # positional: a keyword call costs twice as much per block
            for row, text, klass in zip(rows, texts, classes):
                cell[offset + row] = BlockResult(
                    p, strategy, first + row, text, e_out, converged, iterations, klass,
                )


def _run_blocks(args):
    """Decode one pool task, (spec, block_lo, block_hi); see _Chunk."""
    return _Chunk(*args).run()


def run_experiment(spec: ExperimentSpec, jsonl_path=None):
    """Run the experiment; returns (stats per (p, strategy), all block results),
    both in spec order of p, then strategy, then block."""
    step = math.ceil(spec.blocks / spec.workers)
    tasks = [(spec, lo, min(lo + step, spec.blocks)) for lo in range(0, spec.blocks, step)]

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
    pri = channel_priors(DepolarizingChannel(p), code.n_sent)
    if (error is None) == (target is None):
        raise ValueError("give exactly one of error or target syndrome")
    if error is not None:
        target = syndrome(code, code.embed_sent(gf4.pauli_to_values(error)))
    target = np.asarray(target, dtype=np.int64)

    rows = []

    def record(_iteration, beliefs):
        t = rows[-1][0] + 1 if rows else 1  # counted across rounds
        rows.extend((t, q, belief.copy()) for q, belief in enumerate(beliefs))

    if strategy == "standard":
        return rows, decode(code, target, pri, max_iter=max_iter, on_iteration=record)

    config = FeedbackConfig(strategy=strategy, t_pert=t_pert, n_a=n_a, delta=delta)
    rng = substream(seed, _STREAM_DECODER, 0, 0, 0)
    if check is None:
        outcome, _ = feedback_decode(
            code, target, pri, config, max_iter=max_iter, rng=rng, on_iteration=record
        )
        return rows, outcome

    check_slot(tanner_graph(code), check, qubit)  # even if the first run converges
    first = decode(code, target, pri, max_iter=max_iter, on_iteration=record)
    if first.converged:
        return rows, first
    outcome, _ = feedback_round(
        code, target, pri, check, qubit, config, first, rng=rng, on_iteration=record
    )
    outcome.iterations += first.iterations  # the round's output, both runs' count
    return rows, outcome
