"""Monte-Carlo harness: block experiments, outcome classification, statistics
and CSV/JSONL emission.

Blocks are independent work items.  The error of block i is drawn from the
stream of the key (seed, channel-domain, i) only, so all strategies and all p
values of one experiment face the same underlying randomness and results are
identical no matter how many workers execute the blocks.  A work item is a
range of blocks at every p value, one per worker (at most one per core), and
it samples all its blocks before it decodes any.  Its keys are hashed a
window of batches at a time (substream_keys), and its blocks drawn
BATCH_BLOCKS at a time: one counter hash over the batch (keyed_uniforms)
shared by every p, then per p the errors, syndromes as parity words and error
strings as arrays.  Each block's standard BP run is computed once and shared
by every strategy, since pc08 and enhanced feedback start from that same run,
and blocks with the same syndrome at a p share that run too: a work item
numbers each (p, syndrome) and decodes it once, and the quiet blocks (the all
+1 syndrome) take their number by one array op.  The first iteration runs in
bulk, a lane width of syndromes at a time; a first run it does not end
continues from it in a lane of one float32 lane kernel, as does every
feedback restart; jobs finish out of order, and once they are all done the
first runs' records are copied to their blocks, so outputs do not depend on
the lane width, the batch size, the key window or the worker count.

A work item's results are arrays, not objects: per (p, strategy, block) a
RECORD of a class code (exact if converged, else detected), the iterations
and an index into the item's table of e_out strings, plus per p the error
strings in block order.  run_experiment joins them, classifies them once
(classify_results), counts each cell with np.bincount and writes the JSONL
log; its BlockResults builds a BlockResult only when one is read.
"""

import math
import os
import sys
from collections import deque
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, replace
from functools import partial
from itertools import chain, product, repeat, starmap

import numpy as np

from . import gf4
from .channel import DepolarizingChannel, keyed_uniforms, sample_error, substream, substream_keys
from .channel import priors as channel_priors
from .decoder import DecodeOutcome, decode, idle_lanes, lane_width, log_priors, tanner_graph
from .feedback import FeedbackConfig, check_slot, feedback_decode, feedback_round, feedback_rounds
from .formats import load_code
from .stabilizer import check_integer, group_membership, syndrome, syndrome_signs, syndrome_words

CSV_HEADER = (
    "p,strategy,n_blocks,errors_strict,BER,BER_lo,BER_hi,ANoI,"
    "exact,degenerate,nonequivalent,detected,unchecked,seed"
)

OUTCOME_CLASSES = ("exact", "degenerate", "nonequivalent", "detected", "unchecked")
_UNDECODED = len(OUTCOME_CLASSES)  # the class code of a result not yet written
_EXACT, _DETECTED = map(OUTCOME_CLASSES.index, ("exact", "detected"))
#: A result as an array record: klass indexes OUTCOME_CLASSES, e_out a table of strings.
RECORD = np.dtype([("klass", "u1"), ("iterations", "u4"), ("e_out", "i4")])

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
        config = FeedbackConfig("enhanced", t_pert=self.t_pert, n_a=self.n_a, delta=self.delta)
        self.configs = tuple(  # FeedbackConfig checks names and parameters, standard alone too
            None if s == "standard" else replace(config, strategy=s) for s in self.strategies
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


def wilson_interval(errors: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # the standard normal's 97.5% quantile
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


class _Chunk:
    """A pool task: a contiguous range of blocks at every p under every
    strategy, decoded as jobs on the process's idle Lanes kernel.

    The task first samples every block in one loop (_sample), where an
    injected error replaces each batch's draw: per p its error strings,
    each block's syndrome number (ids, in order of first appearance) and
    each number's target.  It then decodes each (p, syndrome) once.
    Jobs wait in one queue of Lanes.step starts, and each step is given as
    many from its front as there are free lanes.  The front holds the
    feedback restarts (job, log-priors, target, t_pert, None).  When the
    queue is empty, iteration 1 runs in bulk (Lanes.first_iteration) on the
    next lane width of numbers, from fresh, and a first run it does not end
    joins the back with the resume state it gave it.  A job is the call
    that takes its run's outcome: first_run_done for a first run, advance
    for a restart.  settle keeps each first run's RECORD in firsts; from one
    that did not converge a feedback_rounds generator per feedback strategy
    and block with that syndrome continues, drawing from the block's own
    substream, and advance() sends it each restart's outcome and stores its
    record when it is over.  Once the lanes are idle, run copies each
    block's first-run record to its standard column, and to every
    strategy's column if the run converged.  Results are a (p, strategy,
    block - block_lo) RECORD array, class _UNDECODED until written, e_out
    an index into the task's table of distinct e_outs, with a provisional
    class that classify_results settles.
    """

    def __init__(self, spec, block_lo, block_hi):
        self.code = code = spec.code
        self.spec = spec
        self.graph = graph = tanner_graph(code)
        self.lanes = idle_lanes(graph, lane_width(graph, LANE_REAL), LANE_REAL)
        self.priors = [channel_priors(chan, code.n_sent) for chan in spec.channels]
        self.lane_priors = [log_priors(pri, LANE_REAL) for pri in self.priors]
        self.block_lo = block_lo
        self.texts, self.ids, self.targets = self._sample(block_lo, block_hi)
        width = self.lanes.width
        self.fresh = deque(  # lane-width groups of numbers for iteration 1
            (p_index, range(lo, min(lo + width, len(targets))))
            for p_index, targets in enumerate(self.targets)
            for lo in range(0, len(targets), width)
        )
        self.firsts = [np.zeros(len(targets), RECORD) for targets in self.targets]
        self.queue = deque()  # Lanes.step starts waiting for a lane
        self.e_outs = {}  # e_out -> its index in the task's table
        shape = (len(spec.p_values), len(spec.strategies), block_hi - block_lo)
        self.records = np.zeros(shape, RECORD)
        self.records["klass"] = _UNDECODED
        self.standard = [i for i, config in enumerate(spec.configs) if config is None]

    def _sample(self, block_lo, block_hi):
        """Draw every block, keys a window of KEY_BATCHES batches at a time
        (substream_keys) and uniforms a batch at a time (keyed_uniforms), shared
        by every p; an injected error replaces each batch's draw.  Per p (the
        error strings joined in block order, each block's syndrome number, each
        number's target signs in the kernel's dtype, LANE_REAL)."""
        code, spec, n_sent, injected = self.code, self.spec, self.code.n_sent, self.spec.injected
        texts, ids = [[] for _ in spec.p_values], [[] for _ in spec.p_values]
        known = [{} for _ in spec.p_values]  # per p: syndrome words -> number
        zero = syndrome_words(code, np.zeros(code.n_total, dtype=np.uint8))
        quiet = zero.tobytes()
        blocks, window = np.arange(block_lo, block_hi), KEY_BATCHES * BATCH_BLOCKS
        for lo in range(0, len(blocks), window):
            keys = substream_keys(spec.seed, _STREAM_CHANNEL, blocks[lo : lo + window])
            for first in range(0, len(keys), BATCH_BLOCKS):
                uniforms = keyed_uniforms(keys[first : first + BATCH_BLOCKS], n_sent)
                for p_index, channel in enumerate(spec.channels):
                    errors = (sample_error(channel, uniforms, n_ebits=code.n_ebits)
                              if injected is None else np.tile(injected, (len(uniforms), 1)))
                    texts[p_index].append(gf4.values_to_pauli(errors[:, :n_sent]))
                    words, seen = syndrome_words(code, errors), known[p_index]
                    loud = words.any(axis=1)
                    numbers = np.empty(len(errors), np.intp)
                    if not loud.all():
                        numbers[~loud] = seen.setdefault(quiet, len(seen))
                    loud = np.flatnonzero(loud)
                    words = words[loud].view(np.dtype((np.void, words.shape[1] * 8))).ravel()
                    numbers[loud] = [seen.setdefault(key, len(seen)) for key in words.tolist()]
                    ids[p_index].append(numbers)
        return (
            ["".join(parts) for parts in texts],
            [np.concatenate(parts) for parts in ids],
            [syndrome_signs(code, np.frombuffer(b"".join(seen), zero.dtype).reshape(-1, zero.size))
             .astype(LANE_REAL) for seen in known],
        )

    def run(self) -> tuple:
        """Decode every block; (per p the error strings joined in block order,
        the e_out table, the records), as run_experiment takes it."""
        lanes, queue, fresh = self.lanes, self.queue, self.fresh
        while True:
            starts, room = [], lanes.width - lanes.busy
            while len(starts) < room and (queue or fresh):
                if queue:
                    starts.append(queue.popleft())
                else:  # the queue is empty: iteration 1 of the next fresh numbers
                    self.first_iterations(*fresh.popleft())
            if not (starts or lanes.busy):
                break
            for done, outcome in lanes.step(starts=starts):
                done(outcome)
        for records, ids, firsts in zip(self.records, self.ids, self.firsts):
            firsts = firsts[ids]
            records[self.standard] = firsts
            converged = firsts["klass"] == _EXACT
            records[:, converged] = firsts[converged]
        return self.texts, list(self.e_outs), self.records

    def first_iterations(self, p_index: int, numbers: range) -> None:
        """Iteration 1 of the first runs on these numbers' syndromes at a p
        (Lanes.first_iteration): it settles the runs it ends and queues each
        other one to resume from it."""
        max_iter, lp = self.spec.max_iter, self.lane_priors[p_index]
        targets = self.targets[p_index][numbers.start : numbers.stop]
        (rows, *runs), resumes = self.lanes.first_iteration(lp, targets, max_iter)
        if len(rows):  # runs: their errors and masks
            self.settle(p_index, rows + numbers.start, *runs, 1)
        for row, state in resumes:
            job = partial(self.first_run_done, p_index, numbers[row])
            self.queue.append((job, lp, targets[row], max_iter, state))

    def first_run_done(self, p_index: int, number: int, outcome) -> None:
        """Settle the first run that a lane ended."""
        self.settle(p_index, [number], outcome.error[None], outcome.frustrated[None],
                    outcome.iterations)

    def settle(self, p_index: int, numbers, errors, frustrated, iterations: int):
        """Keep first runs' records, and start the feedback runs of each block
        whose first run did not converge (its mask is not empty), from its
        read-only outcome.  The runs' gf4 errors and frustrated masks are
        arrays, one row per number, and they ran the same number of iterations."""
        spec = self.spec
        converged = ~frustrated.any(axis=1)
        self.firsts[p_index][numbers] = self._table(converged, iterations, errors)
        if len(self.standard) == len(spec.configs):
            return  # no feedback strategy continues a run
        errors.setflags(write=False)
        frustrated.setflags(write=False)
        for i in np.flatnonzero(~converged).tolist():
            number, target = numbers[i], self.targets[p_index][numbers[i]]
            outcome = DecodeOutcome(errors[i], iterations, frustrated[i])
            rows = np.flatnonzero(self.ids[p_index] == number).tolist()  # its blocks - block_lo
            for strategy_index, config in enumerate(spec.configs):
                if config is None:
                    continue
                for row in rows:
                    block = self.block_lo + row
                    rng = substream(spec.seed, _STREAM_DECODER, strategy_index, p_index, block)
                    run = feedback_rounds(
                        self.graph, target, self.priors[p_index], config, outcome, rng
                    )
                    self.advance(p_index, strategy_index, row, target, run)

    def advance(self, p_index: int, strategy_index: int, row: int, target, run, outcome=None):
        """Send the run its last restart's outcome (None to start it) and
        queue its next restart, or store its record once it is over."""
        try:
            adjusted = run.send(outcome)
        except StopIteration as done:
            outcome = done.value[0]
            table = self._table(outcome.converged, outcome.iterations, outcome.error[None])
            self.records[p_index, strategy_index, row] = table[0]
            return
        job = partial(self.advance, p_index, strategy_index, row, target, run)
        t_pert = self.spec.configs[strategy_index].t_pert
        self.queue.appendleft((job, log_priors(adjusted, LANE_REAL), target, t_pert, None))

    def _table(self, converged, iterations, errors: np.ndarray) -> np.ndarray:
        """The RECORDs of runs with these verdicts, iterations and gf4 error
        rows: class exact if converged, else detected; e_out the index of its text."""
        text, n = gf4.values_to_pauli(errors), errors.shape[1]
        table = np.empty(len(errors), RECORD)
        table["klass"] = np.where(converged, _EXACT, _DETECTED)
        table["iterations"] = iterations
        table["e_out"] = [self.e_outs.setdefault(text[i : i + n], len(self.e_outs))
                          for i in range(0, len(text), n)]
        return table


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
            (records["klass"] != _DETECTED).tolist(),
            records["iterations"].tolist(),
            map(OUTCOME_CLASSES.__getitem__, records["klass"].tolist()),
        )


def classify_results(results: BlockResults) -> None:
    """Settle a run's classes in place, a (p, strategy) row at a time: a
    converged record whose e_out and error strings differ as fixed-width bytes
    (errors have identity ebits) is degenerate or nonequivalent, by one
    group_membership per distinct pair, or unchecked above DEGENERACY_LIMIT."""
    code, records, others = results.spec.code, results.records, {}  # (error, e_out) -> class
    n, e_outs = code.n_sent, results.e_outs
    table = np.array(e_outs, f"S{n}")  # Paulis have no NUL
    for text, classes, indices in zip(results.texts, records["klass"], records["e_out"]):
        errors = np.frombuffer(text.encode(), f"S{n}")
        for row, row_indices in zip(classes, indices):
            converged = np.flatnonzero(row == _EXACT)
            for block in converged[errors[converged] != table[row_indices[converged]]].tolist():
                key = text[block * n : (block + 1) * n], e_outs[row_indices[block]]
                if key not in others:
                    diff = np.bitwise_xor(*map(code.embed_sent, key))
                    others[key] = OUTCOME_CLASSES.index(
                        "unchecked" if code.n_total > DEGENERACY_LIMIT
                        else "degenerate" if group_membership(diff, code) else "nonequivalent"
                    )
                row[block] = others[key]


def run_experiment(spec: ExperimentSpec, jsonl_path=None):
    """Run the experiment; returns (stats per (p, strategy), BlockResults),
    both in spec order of p, then strategy, then block."""
    step = math.ceil(spec.blocks / min(spec.workers, os.cpu_count() or 1))
    tasks = [(spec, lo, min(lo + step, spec.blocks)) for lo in range(0, spec.blocks, step)]

    if len(tasks) == 1:
        chunk_results = [_run_blocks(tasks[0])]
    else:
        # a process per task, through the module, where a replaced pool is found
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=len(tasks)) as pool:
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
    classify_results(results)

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
    (check, qubit) pair pins the single feedback round (feedback_round);
    without it the full feedback loop runs with seeded random choices.  A
    check without a qubit, a qubit without a check, or a pin under standard
    BP is a ValueError.  Returns (rows, outcome) where each row is
    (iteration, qubit, belief 4-vector), iterations counted across rounds.
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
        rows.extend((t, q, belief) for q, belief in enumerate(beliefs))  # beliefs is fresh

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
    outcome, _ = feedback_round(code, target, pri, check, qubit, config, first, rng, record)
    outcome.iterations += first.iterations  # the round's output, both runs' count
    return rows, outcome
