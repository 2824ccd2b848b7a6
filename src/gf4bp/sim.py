"""Monte-Carlo harness: block experiments, outcome classification, statistics
and CSV/JSONL emission.

Blocks are independent work items.  The error of block i is drawn from the
stream of the key (seed, channel-domain, i) only, so all strategies and all
p values of one experiment face the same underlying randomness and results
are identical no matter how many workers execute the blocks.  A work item is
a range of blocks at every p value, one per worker.  Its keys are hashed a
window of batches at a time (substream_keys), and its blocks drawn
BATCH_BLOCKS at a time: one counter hash over the batch (keyed_uniforms)
shared by every p, then per p the errors, syndromes as parity words and
error strings as arrays.  Each block's standard BP run is computed once and
shared by every strategy, since pc08 and enhanced feedback start from that
same run, and blocks with the same syndrome at a p share that run too: a
work item decodes each (p, syndrome) once, and the quiet blocks (the all +1
syndrome) are found by one array op.  The first iteration of new syndromes
runs in bulk, a lane width of them at a time, and the runs it ends are
written a batch at a time; a first run it does not end continues from it in
a lane of one float32 lane kernel, as does every feedback restart; jobs
finish out of order and results are put back in spec order, so outputs do
not depend on the lane width, the batch size, the key window or the worker
count.

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
from dataclasses import astuple, dataclass, field
from functools import partial
from itertools import chain, product, repeat, starmap

import numpy as np

from . import gf4
from .channel import DepolarizingChannel, keyed_uniforms, sample_error, substream, substream_keys
from .channel import priors as channel_priors
from .decoder import decode, idle_lanes, lane_width, log_priors, tanner_graph
from .feedback import FeedbackConfig, check_slot, feedback_decode, feedback_round, feedback_rounds
from .formats import load_code
from .stabilizer import check_integer, group_membership, syndrome, syndrome_signs, syndrome_words

CSV_HEADER = (
    "p,strategy,n_blocks,errors_strict,BER,BER_lo,BER_hi,ANoI,"
    "exact,degenerate,nonequivalent,detected,unchecked,seed"
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
        return ",".join(map(str, astuple(self)))  # a float's str is its repr


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

#: Block keys are hashed this many batches at a time; bigger calls cost less per key.
KEY_BATCHES = 16

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
    text: str  # the errors on the sent qubits as Pauli strings, back to back


@dataclass(eq=False)
class _FirstRun:
    """The first run on one syndrome at one p: its target, the rows that wait
    for it, then its read-only outcome, which later rows are reported against."""

    target: np.ndarray  # (n_checks,) +1/-1, shared by the syndrome's rows
    waiting: list  # (batch, rows), until the run is decoded
    outcome: object = None  # the DecodeOutcome, once decoded


class _Chunk:
    """A pool task: a contiguous range of blocks at every p under every
    strategy, decoded as jobs on the process's idle Lanes kernel.

    New blocks come in batches with their keys' rows (_batches), and per p
    their syndrome words group them: the quiet rows (zero words) are one
    group, the loud rows one per words, and only their targets are
    unpacked.  A new syndrome's _FirstRun waits in fresh for iteration 1 in
    bulk (Lanes.first_iteration), a lane width of syndromes at a time, with
    the rows that share it; it then keeps the read-only outcome (per p,
    keyed by the words) for the rest of the task, so later rows with that
    syndrome are reported at once.  Results go into a (p, strategy,
    block - block_lo) RECORD array, class _UNDECODED until written, e_out an
    index into the task's table of distinct e_outs; each batch's error
    strings are kept per p in block order.  Every other BP run waits in one
    queue of Lanes.load arguments: feedback restarts (job, log-priors,
    target, t_pert) on its front, and on its back the first runs that
    iteration 1 did not end, with the resume state it gave them.  A job is
    the call that takes its run's outcome: first_run_done for a first run,
    advance for a restart.  A first run is shared by its rows' strategies:
    standard BP (no config) reports it, and so does each feedback strategy
    if it converged; otherwise a feedback_rounds generator per strategy and
    row continues from it, drawing from the block's own substream, and
    advance() sends it each restart's outcome.  write(), the harness's one
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
        zero = syndrome_words(code, np.zeros(code.n_total, dtype=np.uint8))
        self.quiet = zero.tobytes(), syndrome_signs(code, zero)  # key and target
        self.fresh = [[] for _ in spec.p_values]  # per p: _FirstRuns of new syndromes
        self.batches = self._batches(block_lo, block_hi)
        self.first_runs = [{} for _ in spec.p_values]  # per p: syndrome words -> _FirstRun
        self.queue = deque()  # Lanes.load arguments waiting for a lane
        self.block_lo = block_lo
        self.texts = [[] for _ in spec.p_values]  # per p: the batches' error strings
        self.e_outs = {}  # e_out -> its index in the task's table
        shape = (len(spec.p_values), len(spec.strategies), block_hi - block_lo)
        self.records = np.zeros(shape, RECORD)
        self.records["klass"] = _UNDECODED

    def _batches(self, block_lo, block_hi):
        """The task's batches, (blocks, their substream_keys rows or None
        under an injected error), with keys hashed a window at a time."""
        window, spec = KEY_BATCHES * BATCH_BLOCKS, self.spec
        for lo in range(block_lo, block_hi, window):
            hi = min(lo + window, block_hi)
            keys = None if spec.injected is not None else substream_keys(
                spec.seed, _STREAM_CHANNEL, np.arange(lo, hi, dtype=np.uint64)
            )
            for first in range(lo, hi, BATCH_BLOCKS):
                blocks = range(first, min(first + BATCH_BLOCKS, hi))
                yield blocks, keys if keys is None else keys[first - lo : blocks.stop - lo]

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
            batch = next(self.batches, None) if waiting < self.lanes.width else None
            if batch is not None:
                self.sample(*batch)
            elif waiting:
                self.first_iterations()
            else:
                return False
        self.lanes.load(*self.queue.popleft())
        return True

    def sample(self, blocks: range, keys) -> None:
        """Draw a batch of blocks at every p; report the rows whose syndrome
        is decoded, and keep each new syndrome for its first iteration."""
        code, n_sent = self.code, self.code.n_sent
        uniforms = None if keys is None else keyed_uniforms(keys, n_sent)
        for p_index, channel in enumerate(self.spec.channels):
            if uniforms is None:
                errors = np.tile(self.spec.injected, (len(blocks), 1))
            else:
                errors = sample_error(n_sent, channel, uniforms, n_ebits=code.n_ebits)
            batch = _Batch(p_index, blocks, errors, gf4.values_to_pauli(errors[:, :n_sent]))
            self.texts[p_index].append(batch.text)
            words = syndrome_words(code, errors)
            loud = words.any(axis=1)
            groups = {}  # syndrome words -> (target, rows)
            if not loud.all():
                groups[self.quiet[0]] = self.quiet[1], np.flatnonzero(~loud)
            loud = np.flatnonzero(loud)
            words = words[loud]
            keys = words.view(np.dtype((np.void, words.shape[1] * 8))).ravel().tolist()
            for row, key, target in zip(loud.tolist(), keys, syndrome_signs(code, words)):
                groups.setdefault(key, (target, []))[1].append(row)
            known = self.first_runs[p_index]
            for key, (target, rows) in groups.items():
                entry = known.get(key)
                if entry is None:
                    known[key] = entry = _FirstRun(target, [])
                    self.fresh[p_index].append(entry)
                if entry.outcome is None:
                    entry.waiting.append((batch, rows))
                else:
                    self.report(batch, rows, entry)

    def first_iterations(self) -> None:
        """Iteration 1 of up to a lane width of new syndromes' first runs at
        the first p that has any (Lanes.first_iteration): it settles the runs
        it ends and queues each other one to resume from it."""
        p_index = next(i for i, fresh in enumerate(self.fresh) if fresh)
        fresh, max_iter, lp = self.fresh[p_index], self.spec.max_iter, self.lane_priors[p_index]
        entries = fresh[: self.lanes.width]
        del fresh[: self.lanes.width]
        targets = np.array([entry.target for entry in entries])
        finished, resumes = self.lanes.first_iteration(lp, targets, max_iter)
        if finished:
            self.settle([(entries[row], outcome) for row, outcome in finished])
        for row, state in resumes:
            job = partial(self.first_run_done, entries[row])
            self.queue.append((job, lp, entries[row].target, max_iter, state))

    def first_run_done(self, entry: _FirstRun, outcome) -> None:
        """Settle the first run that a lane ended."""
        self.settle([(entry, outcome)])

    def settle(self, runs: list) -> None:
        """Keep first runs, (entry, outcome) pairs, read-only (their rows share
        them), and report the rows waiting for them: a converged run's under
        every strategy, one write per batch, e_outs cut from one Pauli string."""
        n, by_batch = self.code.n_sent, {}  # batch -> (rows, outcomes, which)
        text = gf4.values_to_pauli(np.stack([outcome.error for _, outcome in runs]))
        for i, (entry, outcome) in enumerate(runs):
            outcome.error_pauli = text[i * n : (i + 1) * n]
            outcome.error.setflags(write=False)
            outcome.frustrated.setflags(write=False)
            entry.outcome = outcome
            for batch, rows in entry.waiting:
                if not outcome.converged:
                    self.report(batch, rows, entry)
                    continue
                batch_rows, outcomes, which = by_batch.setdefault(batch, ([], [], []))
                batch_rows.extend(rows)
                which.extend([len(outcomes)] * len(rows))
                outcomes.append(outcome)
            entry.waiting.clear()  # its batches need not outlive their results
        everyone = list(range(len(self.spec.strategies)))
        for batch, (rows, outcomes, which) in by_batch.items():
            self.write(batch, rows, everyone, outcomes, which)

    def report(self, batch: _Batch, rows, first_run: _FirstRun) -> None:
        """Report a first run for a batch's rows under standard BP, and under
        the feedback strategies if it converged; else start their runs."""
        spec, outcome, p_index = self.spec, first_run.outcome, batch.p_index
        converged = outcome.converged
        shared = [i for i, config in enumerate(spec.configs) if config is None or converged]
        self.write(batch, rows, shared, [outcome])
        first = batch.blocks.start
        for strategy_index, config in enumerate(spec.configs):
            if config is None or converged:
                continue
            for row in map(int, rows):
                rng = substream(spec.seed, _STREAM_DECODER, strategy_index, p_index, first + row)
                run = feedback_rounds(
                    self.graph, first_run.target, self.priors[p_index], config, outcome, rng
                )
                self.advance(batch, row, strategy_index, first_run.target, run)

    def advance(self, batch: _Batch, row: int, strategy_index: int, target, run, outcome=None):
        """Send the run its last restart's outcome (None to start it) and
        queue its next restart, or report the batch's row once it is over."""
        try:
            adjusted = run.send(outcome)
        except StopIteration as done:
            self.write(batch, [row], [strategy_index], [done.value[0]])
            return
        job = partial(self.advance, batch, row, strategy_index, target, run)
        t_pert = self.spec.configs[strategy_index].t_pert
        self.queue.appendleft((job, log_priors(adjusted, LANE_REAL), target, t_pert))

    def write(self, batch: _Batch, rows, strategy_indices: list, outcomes: list, which=None):
        """Classify a batch's rows against runs' outcomes and write their
        records under the given strategies: rows[i] against
        outcomes[which[i]], or against outcomes[0] without which.  The rows'
        errors have identity ebit columns, so a row is exact when its error
        string is its outcome's, e_out.  A converged run's other rows are
        degenerate if their error and e_out differ by a stabilizer element,
        else nonequivalent, or unchecked above DEGENERACY_LIMIT qubits."""
        code, n, e_outs = self.code, self.code.n_sent, self.e_outs
        offset = batch.blocks.start - self.block_lo  # of the batch's first block
        cells = self.records[batch.p_index]
        fields = [
            (OUTCOME_CLASSES.index("exact" if o.converged else "detected"), o.iterations,
             o.converged, e_outs.setdefault(o.error_pauli, len(e_outs)))
            for o in outcomes
        ]
        if len(rows) == 1:
            (row,), (outcome,), which = rows, outcomes, [0]  # each outcome is some row's
            for strategy_index in strategy_indices:
                cells[strategy_index, row + offset] = fields[0]
            error = batch.text[row * n : (row + 1) * n]
            inexact = [0] if outcome.converged and error != outcome.error_pauli else []
        else:
            rows = np.asarray(rows)
            which = np.zeros(len(rows), dtype=np.intp) if which is None else np.asarray(which)
            table, record = np.array(fields, RECORD), np.dtype((np.void, RECORD.itemsize))
            cells.view(record)[np.ix_(strategy_indices, rows + offset)] = table.view(record)[which]
            texts = np.frombuffer(batch.text.encode(), f"S{n}")[rows]  # Paulis have no NUL
            outs = np.array([outcome.error_pauli for outcome in outcomes], f"S{n}")[which]
            inexact = np.flatnonzero(table["converged"][which] & (texts != outs))
        for i in inexact:
            outcome, row = outcomes[which[i]], rows[i]
            other = "unchecked"
            if self.check_membership:
                diff = np.bitwise_xor(code.embed_sent(outcome.error), batch.errors[row])
                other = "degenerate" if group_membership(diff, code) else "nonequivalent"
            cells["klass"][strategy_indices, row + offset] = OUTCOME_CLASSES.index(other)


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


def trace_run(spec: ExperimentSpec, target=None, check: int | None = None,
              qubit: int | None = None):
    """Single-instance run of a spec's one (p, strategy) cell that records
    per-iteration beliefs.

    The spec gives the code, the channel, the strategy's config, max_iter
    and the seed of the feedback draws; the syndrome is its injected error's
    or a given target (exactly one of the two).  With a feedback config, a
    (check, qubit) pair pins the single feedback round to adjust; without it
    the full feedback loop runs with seeded random choices.  A check without
    a qubit, a qubit without a check, or a pin under standard BP is a
    ValueError.  Returns (rows, outcome) where each row is (iteration,
    qubit, belief 4-vector), iterations counted across rounds.
    """
    if len(spec.p_values) != 1 or len(spec.strategies) != 1:
        raise ValueError("a trace runs one p and one strategy")
    if (check is None) != (qubit is None):
        raise ValueError("a pinned round needs both check and qubit")
    (config,), code = spec.configs, spec.code
    if config is None and check is not None:
        raise ValueError("standard BP has no feedback round to pin with check and qubit")
    if (spec.injected is None) == (target is None):
        raise ValueError("give exactly one of error or target syndrome")
    if target is None:
        target = syndrome(code, spec.injected)
    pri, max_iter = channel_priors(spec.channels[0], code.n_sent), spec.max_iter

    rows = []

    def record(_iteration, beliefs):
        t = rows[-1][0] + 1 if rows else 1  # counted across rounds
        rows.extend((t, q, belief.copy()) for q, belief in enumerate(beliefs))

    if config is None:
        return rows, decode(code, target, pri, max_iter=max_iter, on_iteration=record)

    rng = substream(spec.seed, _STREAM_DECODER, 0, 0, 0)
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
