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
them at a time, and a first run it does not end continues from it in a
lane of one float32 lane kernel, as does every feedback restart; jobs finish
out of order and results are put back in spec order, so outputs do not
depend on the lane width, the batch size or the worker count.

A work item's results are arrays, not objects: per (p, strategy, block) a
record (RECORD) of a uint8 class code, the iterations, the converged flag
and an index into the item's table of distinct e_out strings, plus per p
the blocks' error strings joined in block order.  run_experiment joins the
items' arrays, counts each cell with np.bincount and writes the JSONL log
from them; its BlockResults builds a BlockResult only when one is read.
"""

import math
import sys
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, product, repeat, starmap

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
from .formats import load_code
from .stabilizer import StabilizerCode, check_integer, group_membership, syndrome

CSV_HEADER = (
    "p,strategy,n_blocks,errors_strict,BER,BER_lo,BER_hi,ANoI,"
    "exact,degenerate,nonequivalent,detected,seed"
)

OUTCOME_CLASSES = ("exact", "degenerate", "nonequivalent", "detected", "unchecked")
_UNDECODED = len(OUTCOME_CLASSES)  # the class code of a result not yet written
#: A result as an array record: klass indexes OUTCOME_CLASSES, e_out a table of strings.
RECORD = np.dtype([("klass", "u1"), ("iterations", "u4"), ("converged", "?"), ("e_out", "i4")])

_STREAM_CHANNEL = 0
_STREAM_DECODER = 1


def __getattr__(name):
    """ProcessPoolExecutor, imported on first use (PEP 562): serial runs skip it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    configs: tuple = field(init=False, repr=False, compare=False)  # by strategy; standard: None
    channels: tuple = field(init=False, repr=False, compare=False)  # by p
    injected: object = field(init=False, repr=False, compare=False)  # n_total, or None

    def __post_init__(self):
        for name in ("p_values", "strategies"):
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or np.ndim(values) != 1:  # sets too
                raise ValueError(f"{name} must be a sequence of values, not {values!r}")
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
        self.configs = tuple(  # FeedbackConfig checks name and parameters
            None if s == "standard"
            else FeedbackConfig(s, t_pert=self.t_pert, n_a=self.n_a, delta=self.delta)
            for s in self.strategies
        )
        self.code = load_code(self.code)
        self.injected = None if self.inject is None else self.code.embed_sent(self.inject)


@dataclass(slots=True)  # built per result read: half the memory, faster to make
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


#: New blocks are sampled, checked and stringified this many at a time.
BATCH_BLOCKS = 256

#: Above this many qubits (sent plus ebits) inexact converged outputs are 'unchecked'.
DEGENERACY_LIMIT = 10_000

#: The dtype of the harness's lane kernel; decode and trace_run run float64,
#: so a trace need not reproduce a harness block bit for bit.
LANE_REAL = np.float32


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
    it, then its read-only outcome, which later rows are reported against."""

    waiting: list  # (batch, rows), until the run is decoded
    outcome: object = None  # the DecodeOutcome, once decoded


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
    read-only outcome (per p, keyed by the packed syndrome) for the rest of
    the task, so later blocks with that syndrome are reported at once.
    Results go into a (p, strategy, block - block_lo) RECORD array, class
    _UNDECODED until written, e_out an index into the task's table of
    distinct e_outs; each batch's error strings are kept per p in block
    order.  Every other BP run waits in one queue of Lanes.load arguments:
    feedback restarts (job, log-priors, target, t_pert) on its front, and
    on its back the first runs that iteration 1 did not end, with the
    resume state it gave them.  A job is the call that takes its run's
    outcome: first_run_done for a first run, advance for a restart.
    Each block's first run is shared by its strategies: standard BP (no
    config) reports it, and so does each feedback strategy if it converged;
    otherwise a feedback_rounds generator per strategy continues from it,
    drawing from the block's own substream, and advance() sends it each
    restart's outcome; the block's error, error string and index are read
    from its batch row when the run ends.  write(), the harness's one
    outcome classifier, writes every result's record.
    """

    def __init__(self, spec, block_lo, block_hi):
        self.code = code = spec.code
        self.spec = spec
        self.graph = graph = tanner_graph(code)
        self.lanes = lanes = idle_lanes(graph, lane_width(graph, LANE_REAL), LANE_REAL)
        self.check_membership = code.n_total <= DEGENERACY_LIMIT
        self.priors = [channel_priors(chan, code.n_sent) for chan in spec.channels]
        self.lane_priors = [log_priors(pri, LANE_REAL) for pri in self.priors]
        for lp in self.lane_priors:  # G0, while the kernel is idle
            lanes.first_messages(lp)
        self.fresh = [[] for _ in spec.p_values]  # per p: (_FirstRun, target) of new syndromes
        self.batches = (
            range(lo, min(lo + BATCH_BLOCKS, block_hi))
            for lo in range(block_lo, block_hi, BATCH_BLOCKS)
        )
        self.first_runs = [{} for _ in spec.p_values]  # per p: syndrome -> _FirstRun
        self.queue = deque()  # Lanes.load arguments waiting for a lane
        self.block_lo = block_lo
        self.texts = [[] for _ in spec.p_values]  # per p: the batches' error strings
        self.e_outs = {}  # e_out -> its index in the task's table
        shape = (len(spec.p_values), len(spec.strategies), block_hi - block_lo)
        self.records = np.zeros(shape, RECORD)
        self.records["klass"] = _UNDECODED

    def run(self) -> tuple:
        """Decode every block; (per p the error strings joined in block order,
        the e_out table, the records), as run_experiment takes it."""
        lanes = self.lanes
        while True:
            while lanes.busy < lanes.width and self.load_next():
                pass
            if not lanes.busy:
                break
            for done, outcome in lanes.step():
                done(outcome)
        return ["".join(texts) for texts in self.texts], list(self.e_outs), self.records

    def load_next(self) -> bool:
        """Load the queue's front run; while it is empty, sample batches (which
        can queue restarts) until a lane width of new syndromes wait or no
        block is left, then run iteration 1 of a lane width of them.  False
        when none is left."""
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
            self.texts[p_index].append(batch.text)
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
        """Iteration 1 of up to a lane width of new syndromes' first runs at
        the first p that has any (Lanes.first_iteration); each run it does
        not end is queued to resume from it (so one width of resume states
        at a time)."""
        p_index = next(i for i, fresh in enumerate(self.fresh) if fresh)
        fresh, max_iter, lp = self.fresh[p_index], self.spec.max_iter, self.lane_priors[p_index]
        entries, targets = zip(*fresh[: self.lanes.width])
        del fresh[: self.lanes.width]
        finished, resumes = self.lanes.first_iteration(lp, np.array(targets), max_iter)
        for row, outcome in finished:
            self.first_run_done(entries[row], outcome)
        for row, state in resumes:
            job = partial(self.first_run_done, entries[row])
            self.queue.append((job, lp, targets[row], max_iter, state))

    def first_run_done(self, entry: _FirstRun, outcome) -> None:
        """Keep a syndrome's first run and report the rows waiting for it."""
        outcome.error.setflags(write=False)  # shared by every block of the key
        outcome.frustrated.setflags(write=False)
        entry.outcome = outcome
        for batch, rows in entry.waiting:
            self.report(batch, rows, entry)
        entry.waiting.clear()  # its batches need not outlive their results

    def report(self, batch: _Batch, rows: list, first_run: _FirstRun) -> None:
        """Report a first run for a batch's rows under standard BP, and under
        the feedback strategies if it converged; else start their runs."""
        spec, outcome, p_index = self.spec, first_run.outcome, batch.p_index
        converged = outcome.converged
        shared = [i for i, config in enumerate(spec.configs) if config is None or converged]
        self.write(batch, rows, shared, outcome)
        first = batch.blocks.start
        for strategy_index, config in enumerate(spec.configs):
            if config is None or converged:
                continue
            for row in rows:
                rng = substream(
                    spec.seed, _STREAM_DECODER, strategy_index, p_index, first + row
                )
                run = feedback_rounds(
                    self.graph, batch.targets[row], self.priors[p_index], config, outcome, rng
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
        job = partial(self.advance, batch, row, strategy_index, run)
        t_pert = self.spec.configs[strategy_index].t_pert
        self.queue.appendleft((job, log_priors(adjusted, LANE_REAL), batch.targets[row], t_pert))

    def write(self, batch: _Batch, rows: list, strategy_indices: list, outcome):
        """Classify a batch's rows against a run's outcome and write their
        records under the given strategies.  The rows' errors have identity
        ebit columns, so a row is exact when its error string is the
        outcome's, e_out, or, for many rows at once, its sent qubits are the
        outcome's error.  A converged run's other rows are degenerate if
        their error and e_out differ by a stabilizer element, else
        nonequivalent, or unchecked above DEGENERACY_LIMIT qubits."""
        code, n = self.code, self.code.n_sent
        e_out = outcome.error_pauli
        inexact = []  # positions in rows
        if outcome.converged and len(rows) == 1:
            inexact = [0] if batch.text[rows[0] * n : (rows[0] + 1) * n] != e_out else []
        elif outcome.converged:
            inexact = np.flatnonzero((batch.errors[rows, :n] != outcome.error).any(axis=1))
        klass = OUTCOME_CLASSES.index("exact" if outcome.converged else "detected")
        index = self.e_outs.setdefault(e_out, len(self.e_outs))
        offset = batch.blocks.start - self.block_lo  # of the batch's first block
        blocks = rows[0] + offset if len(rows) == 1 else np.add(rows, offset)
        cells = self.records[batch.p_index]
        for strategy_index in strategy_indices:
            cells[strategy_index, blocks] = (klass, outcome.iterations, outcome.converged, index)
        for i in inexact:
            other = "unchecked"
            if self.check_membership:
                diff = np.bitwise_xor(code.embed_sent(outcome.error), batch.errors[rows[i]])
                other = "degenerate" if group_membership(diff, code) else "nonequivalent"
            cells["klass"][strategy_indices, rows[i] + offset] = OUTCOME_CLASSES.index(other)


def _run_blocks(args):
    """Decode one pool task, (spec, block_lo, block_hi); see _Chunk."""
    return _Chunk(*args).run()


class BlockResults(Sequence):
    """A run's block results, read only, in spec order of p, then strategy,
    then block; each BlockResult is built when it is read, from the run's
    (p, strategy, block) RECORDs, its e_out table and its error strings per p."""

    def __init__(self, spec, texts, e_outs, records):
        self.spec, self.texts, self.e_outs, self.records = spec, texts, e_outs, records

    def __len__(self):
        return self.records.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        cell, block = divmod(range(len(self))[index], self.spec.blocks)
        (row,) = self._cell(*divmod(cell, len(self.spec.strategies)), block, block + 1)
        return BlockResult(*row)

    def __iter__(self):
        return starmap(BlockResult, self.rows())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def rows(self):
        """Every result's fields as a tuple, in order; a p's error strings
        are sliced once for all its strategies, and equal ones are one string."""
        n, strategies = self.spec.blocks, range(len(self.spec.strategies))
        return chain.from_iterable(
            self._cell(p_index, strategy_index, 0, n, errors)
            for p_index in range(len(self.spec.p_values))
            for errors in (self._errors(p_index, 0, n),)
            for strategy_index in strategies
        )

    def _errors(self, p_index, lo, hi):
        n, text = self.spec.code.n_sent, self.texts[p_index]
        errors = [text[i : i + n] for i in range(lo * n, hi * n, n)]
        return list(map({}.setdefault, errors, errors))  # equal ones as one string

    def _cell(self, p_index, strategy_index, lo, hi, errors=None):
        """The field tuples of blocks lo..hi of one (p, strategy) cell."""
        records = self.records[p_index, strategy_index, lo:hi]
        return zip(
            repeat(self.spec.p_values[p_index]), repeat(self.spec.strategies[strategy_index]),
            range(lo, hi), errors or self._errors(p_index, lo, hi),
            map(self.e_outs.__getitem__, records["e_out"].tolist()),
            records["converged"].tolist(), records["iterations"].tolist(),
            map(OUTCOME_CLASSES.__getitem__, records["klass"].tolist()),
        )


def run_experiment(spec: ExperimentSpec, jsonl_path=None):
    """Run the experiment; returns (stats per (p, strategy), BlockResults),
    both in spec order of p, then strategy, then block."""
    step = math.ceil(spec.blocks / spec.workers)
    tasks = [(spec, lo, min(lo + step, spec.blocks)) for lo in range(0, spec.blocks, step)]

    if spec.workers == 1:
        chunk_results = [_run_blocks(task) for task in tasks]
    else:
        # through the module, where a replaced ProcessPoolExecutor is found
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunk_results = list(pool.map(_run_blocks, tasks))

    # Tasks come back in block order, so their joined arrays are in block order.
    e_outs = []
    for _, table, records in chunk_results:
        records["e_out"] += len(e_outs)  # into the joined table
        e_outs.extend(table)
    texts, _, records = zip(*chunk_results)
    results = BlockResults(
        spec, ["".join(parts) for parts in zip(*texts)], e_outs,
        np.concatenate(records, axis=2),
    )

    n, stats = spec.blocks, []
    totals = results.records["iterations"].reshape(-1, n).sum(axis=1, dtype=np.int64).tolist()
    cells = product(spec.p_values, spec.strategies), results.records["klass"].reshape(-1, n)
    for (p, strategy), classes, total in zip(*cells, totals):
        counts = np.bincount(classes, minlength=_UNDECODED + 1).tolist()
        if counts[_UNDECODED]:
            raise RuntimeError(f"{n - counts[_UNDECODED]} of {n} blocks decoded in a cell")
        errors_strict = n - counts[0]
        lo, hi = wilson_interval(errors_strict, n)
        stats.append(StrategyStats(
            p, strategy, n, errors_strict, errors_strict / n, lo, hi, total / n,
            *counts[:_UNDECODED], spec.seed,
        ))

    if jsonl_path is not None:
        import json

        keys = ("p", "strategy", "block", "error", "e_out", "converged", "iterations", "class")
        with open(jsonl_path, "w") as handle:
            handle.writelines(json.dumps(dict(zip(keys, row))) + "\n" for row in results.rows())
    return stats, results


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
    config = None  # standard BP
    if strategy != "standard":
        config = FeedbackConfig(strategy=strategy, t_pert=t_pert, n_a=n_a, delta=delta)
    elif check is not None:
        raise ValueError("standard BP has no feedback round to pin with check and qubit")
    pri = channel_priors(DepolarizingChannel(p), code.n_sent)
    if (error is None) == (target is None):
        raise ValueError("give exactly one of error or target syndrome")
    if error is not None:
        target = syndrome(code, code.embed_sent(error))

    rows = []

    def record(_iteration, beliefs):
        t = rows[-1][0] + 1 if rows else 1  # counted across rounds
        rows.extend((t, q, belief.copy()) for q, belief in enumerate(beliefs))

    if config is None:
        return rows, decode(code, target, pri, max_iter=max_iter, on_iteration=record)

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
