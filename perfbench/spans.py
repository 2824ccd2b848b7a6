"""Span recording around the gf4bp functions the Monte-Carlo harness calls.

Nothing inside gf4bp is edited: `install` replaces module attributes (and two
TannerGraph methods) with timing wrappers and `Installed.remove` puts the
originals back.  Spans are aggregated as they close, keyed by
(name, parent name), so a layer's self time is its total time minus the time
of the wrapped calls made beneath it.

Process pool: the wrappers are installed before `run_experiment` creates its
pool, so forked workers inherit them.  Each worker records the spans of one
chunk into a fresh `SpanLog` and sends it back attached to the chunk's result
list; the parent merges it.  A worker that did not inherit the wrappers (a
non-fork start method) sends plain lists, and its spans are reported missing.
"""

import functools
import os
import pickle
import time


class SpanLog:
    """Aggregated spans, counters and per-block duration samples."""

    def __init__(self):
        self.totals = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}
        self.samples = {}  # name -> list of durations in seconds

    def add_span(self, name, parent, duration, self_time):
        entry = self.totals.setdefault((name, parent), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def merge(self, other):
        for key, (calls, total, own) in other.totals.items():
            entry = self.totals.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, amount in other.counts.items():
            self.count(name, amount)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)

    def _sum(self, field, name, parents):
        return sum(
            v[field] for (n, p), v in self.totals.items()
            if n == name and (parents is None or p in parents)
        )

    def calls(self, name, parents=None):
        return self._sum(0, name, parents)

    def total(self, name, parents=None):
        """Seconds in spans of `name`, optionally only under the given parents."""
        return self._sum(1, name, parents)

    def self_time(self, name, parents=None):
        """Seconds in spans of `name` not covered by wrapped calls beneath them."""
        return self._sum(2, name, parents)


class Tracer:
    """Stack of open spans feeding a SpanLog; one per benchmark process."""

    def __init__(self):
        self.pid = os.getpid()
        self.log = SpanLog()
        self._stack = []  # open frames: [name, start, child_time]

    def enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame, sample=False):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.log.add_span(
            frame[0], parent[0] if parent else None, duration, duration - frame[2]
        )
        if sample:
            self.log.samples.setdefault(frame[0], []).append(duration)

    def reset(self):
        self.log = SpanLog()
        self._stack = []


class TracedChunk(list):
    """A worker's block results with the SpanLog of the chunk attached."""

    spans = None


def _wrap(tracer, name, fn, on_result=None, sample=False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, sample)
        if on_result is not None:
            on_result(tracer.log, result)
        return result

    return traced


def _count_decode(log, outcome):
    log.count("decoder.calls")
    log.count("decoder.iterations", outcome.iterations)


def _count_feedback(log, result):
    outcome, records = result
    if not records:
        return
    log.count("feedback.blocks_entered")
    log.count("feedback.rounds", len(records))
    log.count("feedback.restart_iterations", sum(r.iterations for r in records))
    for record in records:
        log.count(f"feedback.rounds_{record.outcome}")
    if outcome.converged:
        log.count("feedback.blocks_rescued")


def _wrap_chunk(tracer, fn):
    """_run_blocks: a span in the benchmark process, a fresh log in a worker."""

    @functools.wraps(fn)
    def traced(args):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.reset()
        frame = tracer.enter("sim._run_blocks")
        try:
            result = fn(args)
        finally:
            tracer.exit(frame)
        if not in_worker:
            return result
        chunk = TracedChunk(result)
        chunk.spans = tracer.log
        tracer.reset()
        return chunk

    return traced


def _pool_class(tracer, base):
    class TracedPool(base):
        """Times the wait for the workers and merges the spans they send back."""

        def map(self, fn, *iterables, **kwargs):
            frame = tracer.enter("sim.pool_map")
            try:
                chunks = list(super().map(fn, *iterables, **kwargs))
            finally:
                tracer.exit(frame)
            # Measuring the result size is the benchmark's own work: its span
            # keeps it out of run_experiment's self time.
            frame = tracer.enter("bench.ipc_size")
            for chunk in chunks:
                tracer.log.count("sim.ipc_bytes", len(pickle.dumps(list(chunk))))
                tracer.log.count("sim.ipc_blocks", len(chunk))
                if isinstance(chunk, TracedChunk):
                    tracer.log.merge(chunk.spans)
            tracer.exit(frame)
            return chunks

    return TracedPool


# (module, attribute, span name, result hook, keep per-call samples)
FUNCTION_TARGETS = (
    ("sim", "parse_stabilizer_text", "formats.parse_stabilizer_text", None, True),
    ("sim", "substream", "channel.substream", None, False),
    ("sim", "sample_error", "channel.sample_error", None, False),
    ("sim", "syndrome", "stabilizer.syndrome", None, False),
    ("sim", "decode", "decoder.decode", _count_decode, True),
    ("sim", "feedback_decode", "feedback.feedback_decode", _count_feedback, True),
    ("sim", "classify_outcome", "sim.classify_outcome", None, False),
    ("feedback", "decode", "decoder.decode", _count_decode, False),
    ("feedback", "feedback_round", "feedback.feedback_round", None, False),
    ("feedback", "frustrated_checks", "feedback.frustrated_checks", None, False),
    ("feedback", "pc08_perturb", "feedback.pc08_perturb", None, False),
    ("feedback", "enhanced_reset", "feedback.enhanced_reset", None, False),
    ("decoder", "hard_decision", "decoder.hard_decision", None, False),
)

# (class, method, span name, keep per-call samples)
METHOD_TARGETS = (
    ("TannerGraph", "__init__", "decoder.TannerGraph", True),
    ("TannerGraph", "syndrome_signs", "decoder.syndrome_signs", False),
)


class Installed:
    """Wrappers in place; `remove` restores every replaced attribute."""

    def __init__(self):
        self.absent = []
        self._saved = []  # (owner, attribute, original)

    def replace(self, owner, attribute, wrapper_factory, label):
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None:
            self.absent.append(label)
            return
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_factory(original))

    def remove(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []


def install(tracer, gf4bp_modules):
    """Wrap the harness's call targets; gf4bp_modules maps short name -> module.

    A target that no longer exists is listed in `absent` instead of failing.
    """
    installed = Installed()
    for module_name, attribute, span, hook, sample in FUNCTION_TARGETS:
        installed.replace(
            gf4bp_modules.get(module_name),
            attribute,
            lambda fn, s=span, h=hook, k=sample: _wrap(tracer, s, fn, h, k),
            f"gf4bp.{module_name}.{attribute}",
        )
    decoder = gf4bp_modules.get("decoder")
    for class_name, method, span, sample in METHOD_TARGETS:
        installed.replace(
            getattr(decoder, class_name, None),
            method,
            lambda fn, s=span, k=sample: _wrap(tracer, s, fn, None, k),
            f"gf4bp.decoder.{class_name}.{method}",
        )
    sim = gf4bp_modules.get("sim")
    installed.replace(
        sim, "_run_blocks", lambda fn: _wrap_chunk(tracer, fn), "gf4bp.sim._run_blocks"
    )
    installed.replace(
        sim,
        "ProcessPoolExecutor",
        lambda base: _pool_class(tracer, base),
        "gf4bp.sim.ProcessPoolExecutor",
    )
    return installed

