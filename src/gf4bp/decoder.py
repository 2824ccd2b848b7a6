"""GF(4) sum-product decoding on a stabilizer code's Tanner graph.

Messages are probability 4-vectors over the error symbols (I, X, Z, Y),
updated with a flooding schedule: all check-to-qubit messages, then all
qubit-to-check messages and beliefs, then a hard decision whose syndrome is
tested against the target every iteration.  Ebit columns are excluded from
the graph since receiver-held qubits are error-free.

A check constrains the GF(4) inner product of the incident symbols with the
row entries to the trace-0 classes {0, 1} (syndrome +1) or the trace-1
classes {omega, omega_bar} (syndrome -1).  Because the trace is additive, the
check-to-qubit message equals (1 + s_c * kappa * D) / 4, with kappa the
commute sign of the candidate symbol against the row entry and D the product
of (commute mass - anticommute mass) over the other neighbors; the test
suite checks this form against a direct Klein-group convolution.

The message takes two values only: A = 1 + s_c * D on the two symbols that
commute with the row entry (I and the entry itself) and B = 1 - s_c * D on
the other two, so the kernel stores one (A, B) pair per edge and never
builds the four.  Two folds keep this exact.  The quarter is dropped and
the floor raised to 4 * MSG_FLOOR: scaling by a power of two commutes with
rounding here, so max(y / 4, F) = max(y, 4F) / 4, and the quarter cancels
in the normalizing division.  s_c is the first factor of the check's
prefix product (a product with +-1 is exact), so no pass applies it.  The
normalizing sum still adds the four symbols in the order I, X, Z, Y, each
term A or B by the entry; the pairs are stored in entry order (every X
entry, then Z, then Y), so each run of one entry takes its terms from
whole slices.

The iteration is slot-major, with a trailing lane axis (below) on every
array.  Check-side products run over a (check slot, check) layout of the D
factors.  Qubit-side values live in a (qubit slot, symbol, qubit) layout:
the gathered check messages, their exclusive products and the
qubit-to-check messages, which are normalized in place and stay there from
one iteration to the next; the check update reads m_I and m_entry from
that layout.  Tables of flat positions move values between the layouts, so
each step is a short loop of whole-row numpy operations over at most the
maximum degree.  Sums over the four symbols are the left fold
((a0 + a1) + a2) + a3 and products over slots are left folds (prefix times
suffix for the exclusive products), the order in which numpy's sum over a
length-4 axis and cumprod compute them; the outputs therefore equal bit for
bit those of a row-major (edges, 4) implementation, which tests/oracles.py
keeps as the reference.  The syndrome test XORs each check's
anticommutation bits over its slots, O(edges) integer work.

Decoding jobs run as lanes of one kernel (Lanes): every array carries a
trailing lane axis, each lane has its own iteration count and cap and stops
on its own syndrome match, and a finished lane can be refilled with the next
job while the others go on.  Every operation is elementwise along the lane
axis, and the lane axis is the innermost axis of every operand, so a lane
computes bit for bit what it would compute alone; decode is the kernel at
width 1.

All probability vectors are clamped to MSG_FLOOR before normalization, which
prevents the all-zero product collapse.
"""

import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import gf4
from .stabilizer import ANTICOMMUTES, StabilizerCode

MSG_FLOOR = 1e-30

#: Workspace bytes for the lanes of one process; the lane count is this
#: divided by a lane's workspace (Lanes.lane_bytes), and at least 1.
LANE_WORKSPACE_BYTES = 5 << 19


def _symbol_sum(v: np.ndarray, total: np.ndarray) -> None:
    """The left fold ((v0 + v1) + v2) + v3 over the leading symbol axis of
    v (4, ...), into total."""
    np.add(v[0], v[1], out=total)
    np.add(total, v[2], out=total)
    np.add(total, v[3], out=total)


def _normalize(v: np.ndarray, total: np.ndarray) -> None:
    """Clamp v (4, ...) to MSG_FLOOR, then divide it in place by its sums over
    the leading symbol axis, accumulated in total."""
    np.maximum(v, MSG_FLOOR, out=v)
    _symbol_sum(v, total)
    np.divide(v, total, out=v)


def _slot_product_ops(a: np.ndarray, pref: np.ndarray, suf: np.ndarray) -> list:
    """The (x, y, out) multiplications, in order, of the left-fold products
    over the leading (slot) axis of a, into pref and suf.

    pref has one more slot than a, pref[k] being pref[0] times the slots
    before k, so pref[-1] is pref[0] times all slots; suf[k] is the product
    of the slots after k.  pref[:-1] * suf is pref[0] times each slot's
    product over the other slots.  pref[0] must hold the starting factor
    and suf[-1] must hold 1.
    """
    n_slots = a.shape[0]
    return [(pref[k], a[k], pref[k + 1]) for k in range(n_slots)] + [
        (suf[k], a[k], suf[k - 1]) for k in range(n_slots - 1, 0, -1)
    ]


def _run(ufunc, ops: list) -> None:
    """Apply a binary ufunc to each (x, y, out) in order."""
    for x, y, out in ops:
        ufunc(x, y, out=out)


def _slot_table(owner: np.ndarray, n_owner: int):
    """Degrees, the slot-major (max degree, owners) edge table padded with
    the sentinel edge, and each edge's slot; slots follow edge order."""
    n_edges = owner.size
    degree = np.bincount(owner, minlength=n_owner)
    order = np.argsort(owner, kind="stable")
    starts = np.concatenate([[0], np.cumsum(degree)])
    slot = np.empty(n_edges, dtype=np.intp)
    slot[order] = np.arange(n_edges) - starts[owner[order]]
    table = np.full((int(degree.max(initial=0)), n_owner), n_edges, dtype=np.intp)
    table[slot, owner] = np.arange(n_edges)
    return degree, table, slot


class TannerGraph:
    """Edge structure between checks and transmitted qubits.

    Edges exist where a check row has a nonzero entry on a sender column and
    are stored check-major.  The slot-major tables check_slots
    (max check degree, checks) and qubit_slots (max qubit degree, qubits)
    list each node's edges; pad slots point at a sentinel edge n_edges.
    """

    def __init__(self, code: StabilizerCode):
        sent = code.checks[:, : code.n_sent]
        self.n_checks, self.n_qubits = sent.shape
        check_idx, qubit_idx = np.nonzero(sent)
        self.edge_check = check_idx.astype(np.intp)
        self.edge_qubit = qubit_idx.astype(np.intp)
        self.edge_entry = sent[check_idx, qubit_idx].astype(np.intp)
        self.n_edges = n_edges = self.edge_check.size

        self.check_deg, self.check_slots, check_slot = _slot_table(
            self.edge_check, self.n_checks
        )
        self._check_start = np.concatenate([[0], np.cumsum(self.check_deg)])
        self.qubit_deg, self.qubit_slots, qubit_slot = _slot_table(
            self.edge_qubit, self.n_qubits
        )
        # Flat gather positions between the check layout (slot, check), the
        # qubit layout (slot, qubit) and the (A, B) pairs in entry order.  A
        # pad cell past the qubit layout and a pad pair hold 1; the pad
        # edge's entry is I, whose anticommutation bits are 0.
        qubit_cell = np.append(
            qubit_slot * self.n_qubits + self.edge_qubit, self.qubit_slots.size
        )
        by_entry = np.argsort(self.edge_entry, kind="stable")
        self._entry_runs = np.searchsorted(self.edge_entry[by_entry], [1, 2, 3, 4])
        pair = np.empty(n_edges + 1, dtype=np.intp)
        pair[by_entry] = np.arange(n_edges)
        pair[n_edges] = n_edges
        entry = np.append(self.edge_entry, 0)
        # each check cell's D factor, from the (qubit cell + pad) D array
        self._check_gather = qubit_cell[self.check_slots]
        # the edges' s_c * D, from the check cells into entry order
        self._pair_gather = (check_slot * self.n_checks + self.edge_check)[by_entry]
        # the edge's m_entry in the (slot, symbol, qubit) messages
        slot_entry = entry[self.qubit_slots]
        self._entry_gather = (
            np.arange(len(self.qubit_slots))[:, None] * 4 + slot_entry
        ) * self.n_qubits + np.arange(self.n_qubits)
        # the (slot, symbol, qubit) check-to-qubit messages, A or B from the
        # (2, edge + pad) pairs
        self._qubit_gather = (
            ANTICOMMUTES[slot_entry].transpose(0, 2, 1).astype(np.intp) * (n_edges + 1)
            + pair[self.qubit_slots][:, None, :]
        )
        # anticommutation bits of each check cell, from the (entry, qubit)
        # table of an error's bits
        self._check_bits = (entry * self.n_qubits + np.append(self.edge_qubit, 0))[
            self.check_slots
        ]
        self._decode_lanes = None  # decode's width-1 Lanes, made on first use

    def check_qubits(self, check: int) -> np.ndarray:
        """Sender qubits incident to a check, in column order."""
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_qubit[lo:hi]

    def check_entries(self, check: int) -> np.ndarray:
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_entry[lo:hi]

    def parities(self, e_values: np.ndarray) -> np.ndarray:
        """Anticommutation parity (0/1) with every check of errors e_values,
        shaped (n_qubits,) or (n_qubits, lanes): the XOR over the check's
        slots of its edges' bits, 0 on a check without sender entries."""
        bits = ANTICOMMUTES.take(e_values, axis=1)
        bits = bits.reshape((-1,) + e_values.shape[1:]).take(self._check_bits, axis=0)
        return np.bitwise_xor.reduce(bits, axis=0)

    def syndrome_signs(self, e_values: np.ndarray) -> np.ndarray:
        """Syndrome (+1/-1 per check) of an error on the transmitted qubits."""
        return 1 - 2 * self.parities(e_values).astype(np.int64)


_GRAPHS = weakref.WeakKeyDictionary()


def tanner_graph(code: StabilizerCode) -> TannerGraph:
    """The TannerGraph of a code object, built on first use and kept while
    the code object lives; the code's check matrix must not change."""
    graph = _GRAPHS.get(code)
    if graph is None:
        graph = _GRAPHS[code] = TannerGraph(code)
    return graph


@dataclass
class DecodeOutcome:
    """Hard decision on the transmitted qubits plus convergence bookkeeping.

    iterations counts BP iterations actually run (a decode that matches the
    syndrome at iteration t reports t); for feedback decoding it accumulates
    over all rounds.  When no iteration matches the syndrome, error is the
    hard decision of the last iteration run.
    """

    error: np.ndarray
    converged: bool
    iterations: int

    @property
    def error_pauli(self) -> str:
        return gf4.values_to_pauli(self.error)


def hard_decision(beliefs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Argmax over the symbol axis with deterministic tie-break in the order
    I, X, Z, Y."""
    return beliefs.argmax(axis=axis).astype(np.uint8)


def _pair_fold_ops(graph: TannerGraph, pairs: np.ndarray, total: np.ndarray) -> list:
    """The (x, y, out) additions, in order, of the normalizing fold
    ((I + X) + Z) + Y of the entry-ordered (A, B) pairs into total: A on I
    and on the symbol equal to the edge's entry, B on the other two."""
    runs = graph._entry_runs  # X entries end at runs[1], Z at runs[2]
    ops = []
    for symbol in (1, 2, 3):
        lo, hi = runs[symbol - 1], runs[symbol]
        for start, stop, row in ((0, lo, 1), (lo, hi, 0), (hi, runs[3], 1)):
            if start < stop:
                x = pairs[0] if symbol == 1 else total
                ops.append((x[start:stop], pairs[row, start:stop], total[start:stop]))
    return ops


def _check_messages(graph: TannerGraph, v) -> None:
    """The (2, edges + pad, lanes) check-to-qubit pairs v.ab (A, B), in
    entry order, from the (slot, symbol, qubit, lanes) qubit-to-check
    messages v.qg."""
    # D factor of each qubit cell: 2 * (m_I + m_entry) - (sum of the four)
    d, total = v.d_cells, v.total_q
    _symbol_sum(v.qg_symbols, total)
    # mode="clip": the tables index in range, and the default mode buffers out=
    v.qg_rows.take(graph._entry_gather, axis=0, out=d, mode="clip")
    np.add(v.qg_symbols[0], d, out=d)
    np.multiply(d, 2.0, out=d)
    np.subtract(d, total, out=d)
    v.d.take(graph._check_gather, axis=0, out=v.cg, mode="clip")
    _run(np.multiply, v.check_products)  # cpref[0] holds s_c
    np.multiply(v.cpref_excl, v.csuf, out=v.cg)
    pairs = v.pairs
    a, b = pairs
    v.cg_rows.take(graph._pair_gather, axis=0, out=b, mode="clip")
    np.add(b, 1.0, out=a)
    np.subtract(1.0, b, out=b)
    np.maximum(pairs, 4.0 * MSG_FLOOR, out=pairs)
    _run(np.add, v.pair_fold)
    np.divide(pairs, v.total_e, out=pairs)


def _qubit_messages(graph: TannerGraph, v) -> None:
    """Beliefs v.bel and new qubit-to-check messages v.qg from v.ab."""
    v.ab_rows.take(graph._qubit_gather, axis=0, out=v.qg, mode="clip")
    _run(np.multiply, v.qubit_products)
    np.multiply(v.pri, v.qpref[-1], out=v.bel)
    _normalize(v.bel, v.total_n)
    np.multiply(v.qpref_excl, v.qsuf, out=v.qg)
    np.multiply(v.qg, v.pri, out=v.qg)
    _normalize(v.qg_symbols, v.total_q)


def _lane_shapes(graph: TannerGraph) -> dict:
    """Per-lane float64 workspace shapes; the lane axis is appended last.
    The _KEPT ones carry a job from one iteration to the next, the others
    are scratch."""
    n, n_checks = graph.n_qubits, graph.n_checks
    check_slots, qubit_slots = graph.check_slots.shape[0], graph.qubit_slots.shape[0]
    return {
        "pri": (4, n),
        "qg": (qubit_slots, 4, n),
        "target_parity": (n_checks,),
        "d": (graph.qubit_slots.size + 1,),
        "cg": (check_slots, n_checks),
        "cpref": (check_slots + 1, n_checks),
        "csuf": (check_slots, n_checks),
        "ab": (2, graph.n_edges + 1),
        "total_e": (graph.n_edges,),
        "qpref": (qubit_slots + 1, 4, n),
        "qsuf": (qubit_slots, 4, n),
        "bel": (4, n),
        "total_q": (qubit_slots, n),
        "total_n": (n,),
    }


# moved when lanes are repacked; sigma, the target signs, is cpref[0]
_KEPT = ("pri", "qg", "sigma", "target_parity")


class Lanes:
    """Up to `width` decode jobs run side by side, one per lane.

    Every workspace array is allocated once, as a flat buffer holding
    `width` lanes, and viewed with the lane axis last for the number of
    occupied lanes, so an iteration costs what the occupied lanes cost.
    load() holds a job for the next step().  step() writes the held jobs
    into the lanes of finished ones when they fill those lanes exactly;
    otherwise it first lays the buffers out once for the lanes still
    running (packed together) and the held jobs.  It then runs one
    iteration on every occupied lane and returns (job, DecodeOutcome) for
    each lane that matched its target syndrome (unless halt is off) or
    reached its iteration cap.  A finished lane stays in the layout until
    the next step() refills it or packs the remaining lanes.
    """

    def __init__(self, graph: TannerGraph, width: int):
        if width < 1:
            raise ValueError("width must be at least 1")
        self.graph = graph
        self.width = width
        self._shapes = _lane_shapes(graph)
        self._flat = {
            name: np.empty(width * math.prod(shape))
            for name, shape in self._shapes.items()
        }
        self._views = {}
        self._layout = 0
        self.jobs = []  # per lane of the layout: its job, None once finished
        self.busy = 0  # jobs running or held
        self.iterations = []  # per lane of the layout
        self.caps = []
        self._held = []  # (job, priors, target, max_iter) for the next layout

    @staticmethod
    def lane_bytes(graph: TannerGraph) -> int:
        """Workspace bytes per lane."""
        return 8 * sum(math.prod(shape) for shape in _lane_shapes(graph).values())

    def _view(self, lanes: int):
        """The workspace for `lanes` lanes, with every view and op list the
        step uses, made on first use of each layout."""
        view = self._views.get(lanes)
        if view is None:
            view = self._views[lanes] = SimpleNamespace(
                **{
                    name: self._flat[name][: math.prod(shape) * lanes].reshape(
                        shape + (lanes,)
                    )
                    for name, shape in self._shapes.items()
                }
            )
            view.sigma = view.cpref[0]
            view.cpref_excl, view.qpref_excl = view.cpref[:-1], view.qpref[:-1]
            view.qg_symbols = view.qg.swapaxes(0, 1)
            view.d_cells = view.d[:-1].reshape(view.total_q.shape)
            view.pairs = view.ab[:, :-1]
            view.qg_rows, view.cg_rows, view.ab_rows = (
                x.reshape(math.prod(x.shape[:-1]), lanes)
                for x in (view.qg, view.cg, view.ab)
            )
            view.check_products = _slot_product_ops(view.cg, view.cpref, view.csuf)
            view.qubit_products = _slot_product_ops(view.qg, view.qpref, view.qsuf)
            view.pair_fold = _pair_fold_ops(self.graph, view.pairs, view.total_e)
        return view

    def _relayout(self) -> None:
        """Lay the buffers out for the running lanes, packed in lane order,
        followed by the held jobs."""
        keep = [lane for lane, job in enumerate(self.jobs) if job is not None]
        old = self._view(self._layout)
        kept = {name: getattr(old, name)[..., keep] for name in _KEPT}
        n_kept = len(keep)
        lanes = self._layout = n_kept + len(self._held)
        view = self._view(lanes)
        # pad cells and empty products read 1 in every layout
        view.d[-1] = 1.0
        view.ab[:, -1] = 1.0
        view.csuf[-1:] = 1.0
        view.qpref[0] = 1.0
        view.qsuf[-1:] = 1.0
        for name, values in kept.items():
            getattr(view, name)[..., :n_kept] = values
        free = [None] * len(self._held)
        self.jobs = [self.jobs[i] for i in keep] + free
        self.iterations = [self.iterations[i] for i in keep] + free
        self.caps = [self.caps[i] for i in keep] + free
        self._start_held(range(n_kept, lanes))

    def _start_held(self, lanes) -> None:
        """Write the held jobs' first messages and targets into the free
        lanes `lanes`, one lane per held job, in order."""
        view = self._view(self._layout)
        for lane, (job, priors, target, max_iter) in zip(lanes, self._held):
            view.pri[..., lane] = priors
            view.qg[..., lane] = priors  # the first messages are the priors
            view.sigma[:, lane] = target
            # a -1 on a check without sender edges is never matched
            view.target_parity[:, lane] = target < 0
            self.iterations[lane] = 0
            self.caps[lane] = max_iter
            self.jobs[lane] = job
        self._held = []

    def load(self, job, priors: np.ndarray, target: np.ndarray, max_iter: int) -> None:
        """Hold a job for the next step, which starts it in a free lane.

        priors is the normalized (4, n_qubits) prior matrix and target the
        (n_checks,) syndrome of +1/-1 entries; job, any object but None, is
        returned with the outcome.  priors and target are read, not
        copied, and must not change before the next step.
        """
        if self.busy >= self.width:
            raise RuntimeError("every lane is busy")
        self._held.append((job, priors, target, max_iter))
        self.busy += 1

    def step(self, halt: bool = True) -> list:
        """One flooding iteration on every busy lane; returns the finished
        lanes' (job, DecodeOutcome) pairs in lane order."""
        if self._held or None in self.jobs:
            free = [lane for lane, job in enumerate(self.jobs) if job is None]
            if len(free) == len(self._held):
                self._start_held(free)  # the held jobs fill the layout's holes
            else:
                self._relayout()
        lanes = self._layout
        graph = self.graph
        view = self._view(lanes)
        _check_messages(graph, view)
        _qubit_messages(graph, view)
        e_hat = hard_decision(view.bel, axis=0)
        matched = np.logical_and.reduce(graph.parities(e_hat) == view.target_parity)
        finished = []
        for lane, match in enumerate(matched.tolist()):
            self.iterations[lane] += 1
            if (halt and match) or self.iterations[lane] >= self.caps[lane]:
                outcome = DecodeOutcome(
                    error=e_hat[:, lane].copy(),
                    converged=match,
                    iterations=self.iterations[lane],
                )
                finished.append((self.jobs[lane], outcome))
                self.jobs[lane] = None
                self.busy -= 1
        return finished

    def beliefs(self, lane: int) -> np.ndarray:
        """A fresh (n_qubits, 4) copy of a lane's last beliefs."""
        return np.array(self._view(self._layout).bel[..., lane].T, order="C")


def lane_width(graph: TannerGraph) -> int:
    """Lanes that fit LANE_WORKSPACE_BYTES on this graph, at least 1."""
    return max(1, LANE_WORKSPACE_BYTES // Lanes.lane_bytes(graph))


def normalized_priors(priors: np.ndarray) -> np.ndarray:
    """The (4, n) clamped, normalized transpose of an (n, 4) prior matrix,
    as Lanes.load takes it."""
    pri = np.array(np.asarray(priors, dtype=float).T, order="C")
    _normalize(pri, np.empty(pri.shape[1:]))
    return pri


def decode(
    code: StabilizerCode,
    target_syndrome,
    priors,
    max_iter: int = 90,
    graph: TannerGraph | None = None,
    on_iteration=None,
    halt: bool = True,
) -> DecodeOutcome:
    """Run flooding sum-product decoding against a target syndrome.

    priors has shape (n_sent, 4).  Stops as soon as the hard decision's
    syndrome matches the target (unless halt=False, which always runs
    max_iter iterations); non-convergence is a normal outcome, reported in
    the converged flag, and the returned error is then the hard decision of
    the last iteration run.  on_iteration(t, beliefs), if given, is called
    once per iteration with freshly allocated belief arrays.  Without a
    graph, the code object's cached graph (tanner_graph) is used.  This is
    one job on the lane kernel at width 1.
    """
    if graph is None:
        graph = tanner_graph(code)
    target = np.asarray(target_syndrome, dtype=np.int64).ravel()
    if target.shape != (graph.n_checks,):
        raise ValueError(
            f"syndrome length {target.shape} does not match {graph.n_checks} checks"
        )
    if not np.all(np.abs(target) == 1):
        raise ValueError("syndrome entries must be +1 or -1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (graph.n_qubits, 4):
        raise ValueError(
            f"priors shape {pri.shape} does not match ({graph.n_qubits}, 4)"
        )
    lanes = graph._decode_lanes
    if lanes is None or lanes.busy:  # first use, or a decode inside on_iteration
        lanes = graph._decode_lanes = Lanes(graph, 1)
    lanes.load(True, normalized_priors(pri), target, max_iter)
    iteration = 0
    while True:
        finished = lanes.step(halt)
        iteration += 1
        if on_iteration is not None:
            on_iteration(iteration, lanes.beliefs(0))
        if finished:
            return finished[0][1]
