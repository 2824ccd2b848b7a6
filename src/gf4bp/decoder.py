"""GF(4) sum-product decoding on a stabilizer code's Tanner graph, in the log
domain.

Messages are updated with a flooding schedule: all check-to-qubit messages,
then all beliefs, then a hard decision whose syndrome is tested against the
target every iteration.  Ebit columns are excluded from the graph since
receiver-held qubits are error-free.

A check constrains whether each incident symbol commutes with the check's
entry on that qubit, and nothing else, so one real number per edge and
direction carries a message (the refined and log-domain BP of Kuo & Lai,
arXiv:2002.06502, and Lai & Kuo, IEEE TQE 2021).  The qubit-to-check
message is Lambda = log(commute mass / anticommute mass) of the qubit's
distribution without that check.  The check-to-qubit message is

    gamma = atanh(s_c * prod over the check's other edges of tanh(Lambda / 2)),

which is half the log-ratio it puts between the two symbols commuting with
the entry (I and the entry itself) and the other two; the test suite checks
it against a direct Klein-group convolution.  With S_X, S_Z and S_Y the sums
of gamma over a qubit's X, Z and Y entries, its log-beliefs are

    L_I = lp_I + S_X + S_Z + S_Y    L_X = lp_X + S_X - S_Z - S_Y
    L_Z = lp_Z - S_X + S_Z - S_Y    L_Y = lp_Y - S_X - S_Z + S_Y

for log-priors lp, and the hard decision is the largest L, ties going to
I, X, Z, Y in that order.  The next message on an edge with entry e is
Lambda_q(e) - 2 gamma, where Lambda_q(e) = logaddexp(L_I, L_e) -
logaddexp(L_o1, L_o2) over the two other symbols is computed once per qubit
and entry.  No array holds four symbols per edge.

Saturation rule, so that no value is infinite or NaN at any p:
- priors are clamped to MSG_FLOOR and normalized before the log, so p = 0
  and p = 1 give finite log-priors;
- Lambda_q is formed from exp(L - max L) floored at MSG_FLOOR, as the
  probability-domain messages were, so |Lambda_q| <= log(1 / MSG_FLOOR);
- the check product is clipped to the values next to -1 and +1 in the
  kernel's dtype, so |gamma| < 19 in float64 and < 8.7 in float32 (MSG_FLOOR
  = 1e-30 is a normal float32 too);
- pad cells of the check layout hold Lambda = +inf, a factor tanh = 1, and
  the belief sums read gamma = 0 for pad slots.

The iteration is slot-major.  Messages live in a (check slot, check)
layout, per-qubit values in (entry, qubit) rows, one per entry type the
graph has: X and Z always, since they hold the hard decision's bits, and Y
only when some edge has a Y entry (a CSS code has none, and its L_Y is
lp_Y - S_X - S_Z).  One table gathers each check cell's Lambda_q / 2,
another each qubit's gammas as (run row, entry, qubit), every run padded to
the longest.  Products over slots are prefix times suffix folds and sums
over run rows left folds, so each step is a short loop of whole-row numpy
operations.

The hard decision is a tournament over the four L rows: X beats I iff
L_X > L_I, Y beats Z iff L_Y > L_Z, and the {Z, Y} winner beats the {I, X}
winner iff it is strictly greater, which is the first maximum in I, X, Z, Y
order.  It is kept as the decided symbols' Z bits and X bits (gf4's
encoding: low bit X part, high bit Z part).  A symbol anticommutes with an
X entry iff its Z bit is set, with a Z entry iff its X bit is set and with a
Y entry iff exactly one is set, so the bool rows [pad | Z | X | XOR], the
pad a zero and the XOR computed only with Y entries, sit where the message
gather reads Lambda_q / 2 of an (entry, qubit), and one take through that
gather and one XOR over each check's slots give every check's parity.

Decoding jobs run as lanes of one kernel (Lanes): every array carries a
trailing lane axis, each lane has its own iteration count and cap and stops
on its own syndrome match, and a finished lane can be refilled with the next
job while the others go on.  Every operation is elementwise along the lane
axis, and the lane axis is the innermost axis of every operand, so a lane
computes bit for bit what it would compute alone; decode is the kernel at
width 1.  Iteration 1 starts from gamma = 0 and bel = lp, so its gammas are
s_c times G0, the all +1 syndrome's (s_c = +-1 starts the check product, the
clip is symmetric, tanh and arctanh are odd), as Lanes.first_iteration uses
to run iteration 1 of many jobs at once: it ends those a lane would end and
gives each other one the state with which load resumes it at iteration 2.
The real dtype is a parameter of the kernel: decode runs float64, which
agreement with exact marginals to 1e-8 needs, and the Monte-Carlo harness
float32 (sim.LANE_REAL), at half a lane's bytes and cheaper tanh and arctanh.
"""

import math
import weakref
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import gf4
from .stabilizer import ANTICOMMUTES, StabilizerCode, check_integer

MSG_FLOOR = 1e-30

# The bit each entry reads of a symbol e (Z bit e >> 1, X bit e & 1): X
# entries the Z bit, Z entries the X bit, Y entries their XOR; it must agree
# with the one commutation table.
_E = np.arange(4)
if not np.array_equal(ANTICOMMUTES[1:], [_E >> 1, _E & 1, (_E >> 1) ^ (_E & 1)]):
    raise AssertionError("the anticommutation bit rows disagree with ANTICOMMUTES")

#: Workspace bytes for the lanes of one process; the lane count is this
#: divided by a lane's workspace (Lanes.lane_bytes), and at least 1.
LANE_WORKSPACE_BYTES = 5 << 19


def _slot_product_ops(a: np.ndarray, pref: np.ndarray, suf: np.ndarray) -> list:
    """The (x, y, out) multiplications, in order, of the left-fold products
    over the leading (slot) axis of a, into pref and suf, which have a's
    shape.

    pref[k] is pref[0] times the slots before k and suf[k] the product of
    the slots after k, so pref * suf is pref[0] times each slot's product
    over the other slots.  pref[0] must hold the starting factor and
    suf[-1] must hold 1.
    """
    n_slots = a.shape[0]
    return [(pref[k], a[k], pref[k + 1]) for k in range(n_slots - 1)] + [
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
    are stored check-major.  The slot-major table check_slots
    (max check degree, checks) lists each check's edges; pad slots point at
    a sentinel edge n_edges.
    """

    def __init__(self, code: StabilizerCode):
        sent = code.checks[:, : code.n_sent]
        self.n_checks, self.n_qubits = n_checks, n = sent.shape
        check_idx, qubit_idx = np.nonzero(sent)
        self.edge_check = check_idx.astype(np.intp)
        self.edge_qubit = qubit_idx.astype(np.intp)
        self.edge_entry = sent[check_idx, qubit_idx].astype(np.intp)
        self.n_edges = self.edge_check.size
        # per-qubit rows for X and Z entries, and for Y entries if there are any
        self.n_types = types = 2 + bool((self.edge_entry == 3).any())

        self.check_deg, self.check_slots, check_slot = _slot_table(
            self.edge_check, n_checks
        )
        self._check_start = np.concatenate([[0], np.cumsum(self.check_deg)])
        # Flat gather positions.  Check cells (slot, check) are numbered
        # slot * n_checks + check; cell check_slots.size is a pad cell.
        pad_cell = self.check_slots.size
        edge_cell = check_slot * n_checks + self.edge_check
        # each check cell's Lambda_q / 2 from the (entry - 1, qubit) rows
        # after the +inf cell 0, which pad cells read; the syndrome test
        # reads the anticommutation bit rows through it too, a pad cell a 0
        self._message_gather = np.append(
            1 + (self.edge_entry - 1) * n + self.edge_qubit, 0
        )[self.check_slots]
        # (run row, entry, qubit): each qubit's gammas from the check cells
        # of its edges with that entry, in edge order, then the pad cell
        # (gamma 0) up to the longest run, and at least two rows
        runs = []
        for symbol in range(1, types + 1):
            edges = np.flatnonzero(self.edge_entry == symbol)
            _, table, _ = _slot_table(self.edge_qubit[edges], n)
            runs.append(np.append(edge_cell[edges], pad_cell)[table])
        self._gamma_gather = np.full((max(2, *map(len, runs)), types, n), pad_cell)
        for entry, run in enumerate(runs):
            self._gamma_gather[: len(run), entry] = run
        self._lanes = {}  # (width, dtype) -> the idle_lanes Lanes
        self._first_messages = {}  # (dtype, log-prior bytes) -> G0, see Lanes.first_messages

    def check_qubits(self, check: int) -> np.ndarray:
        """Sender qubits incident to a check, in column order."""
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_qubit[lo:hi]

    def check_entries(self, check: int) -> np.ndarray:
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_entry[lo:hi]


_GRAPHS = weakref.WeakKeyDictionary()


def tanner_graph(code: StabilizerCode) -> TannerGraph:
    """The TannerGraph of a code object, built on first use and kept while
    the code object lives; the code's check matrix must not change."""
    graph = _GRAPHS.get(code)
    if graph is None:
        graph = _GRAPHS[code] = TannerGraph(code)
    return graph


class _ErrorPauli:
    """DecodeOutcome.error_pauli: made on first read, then an instance
    attribute (functools.cached_property takes a lock on Python 3.11)."""

    def __get__(self, outcome, owner=None):
        if outcome is None:
            return self
        outcome.error_pauli = pauli = gf4.values_to_pauli(outcome.error)
        return pauli


@dataclass
class DecodeOutcome:
    """Hard decision on the transmitted qubits plus convergence bookkeeping.

    iterations counts BP iterations actually run (a decode that matches the
    syndrome at iteration t reports t); for feedback decoding it accumulates
    over all rounds.  When no iteration matches the syndrome, error is the
    hard decision of the last iteration run.  frustrated is the (n_checks,)
    bool mask of the checks whose parity under error differs from the
    target's, as the lane step's syndrome test found it (all False when
    converged); feedback rounds read their frustrated checks from it, so it
    is required (ValueError if None).
    """

    error: np.ndarray
    converged: bool
    iterations: int
    frustrated: np.ndarray

    def __post_init__(self):
        if self.frustrated is None:
            raise ValueError("a DecodeOutcome needs its frustrated-check mask")

    # once per outcome: a shared first run is written for many blocks
    error_pauli = _ErrorPauli()


def _qubit_messages(v) -> None:
    """Lambda_q / 2 for every (entry, qubit), into v.half, from the
    (symbol, qubit, lanes) log-beliefs v.bel."""
    bel, top, x = v.bel, v.total, v.exp
    np.maximum.reduce(bel, axis=0, out=top)
    np.subtract(bel, top, out=x)
    np.exp(x, out=x)
    np.maximum(x, MSG_FLOOR, out=x)
    half, anti = v.half_entries, v.anti
    np.add(x[0], x[1 : len(half) + 1], out=half)  # I and the entry commute with it
    _run(np.add, v.anti_sums)  # the two symbols that do not
    np.divide(half, anti, out=half)
    np.log(half, out=half)
    np.multiply(half, 0.5, out=half)


def _check_messages(graph: TannerGraph, v) -> None:
    """Every check cell's gamma, into v.gamma_cells, from v.half and the
    previous gammas."""
    th = v.th
    # mode="clip": the tables index in range, and the default mode buffers out=
    v.half.take(graph._message_gather, axis=0, out=th, mode="clip")
    np.subtract(th, v.gamma_cells, out=th)  # Lambda / 2 of the edge
    np.tanh(th, out=th)
    _run(np.multiply, v.check_products)  # cpref[0] holds s_c
    np.multiply(v.cpref_excl, v.csuf, out=th)
    th.clip(-v.th_max, v.th_max, out=th)  # the values next to -1 and +1
    np.arctanh(th, out=v.gamma_cells)


def _beliefs(graph: TannerGraph, v) -> None:
    """The log-beliefs v.bel from the log-priors v.lp and the gammas."""
    v.gamma.take(graph._gamma_gather, axis=0, out=v.qg, mode="clip")
    _run(np.add, v.entry_sums)
    s, total, bel, lp = v.s, v.total, v.bel, v.lp
    types = len(s)
    np.add(s[0], s[1], out=total)
    if types == 3:
        np.add(total, s[2], out=total)
    np.add(lp[0], total, out=bel[0])
    rows = bel[1 : types + 1]
    np.multiply(s, 2.0, out=rows)
    np.subtract(rows, total, out=rows)
    np.add(rows, lp[1 : types + 1], out=rows)
    if types == 2:  # no Y entries: L_Y = lp_Y - (S_X + S_Z)
        np.subtract(lp[3], total, out=bel[3])


def _decision_ops(bel: np.ndarray, top: np.ndarray, rows: np.ndarray, types: int) -> list:
    """The calls, in order, that write the anticommutation bit rows of the
    hard decision of the log-beliefs bel (4, qubits, ...) into the bool rows
    (3, qubits, ...): its Z bits, its X bits and, for types = 3 entry types,
    their XOR (else row 2 is left as scratch).  The decision is argmax's
    first maximum in I, X, Z, Y order; top is (2, qubits, ...) float scratch."""
    even, odd = bel[0::2], bel[1::2]  # (I, Z) and (X, Y)
    # positional out= where numpy allows it: partial's keywords cost a call
    ops = [
        partial(np.maximum, even, odd, out=top),  # the {I, X} and {Z, Y} maxima
        partial(np.greater, top[1], top[0], rows[0]),  # the {Z, Y} winner wins
        partial(np.greater, odd, even, rows[1:]),  # X beats I, Y beats Z
        partial(np.copyto, rows[1], rows[2], "same_kind", rows[0]),  # Y's where Z bit
    ]
    if types == 3:
        ops.append(partial(np.not_equal, rows[0], rows[1], rows[2]))
    return ops


def _mismatches(v) -> np.ndarray:
    """Per check and lane, whether the check's parity under the hard
    decision of v.bel differs from the target's (bool, (checks, lanes))."""
    for op in v.syndrome_test:
        op()
    # the last slot holds the target parity, so the XOR is the mismatch
    return np.bitwise_xor.reduce(v.slot_bits, axis=0)


def _lane_shapes(graph: TannerGraph, real) -> dict:
    """Per-lane workspace (shape, dtype)s for real numbers of dtype real;
    the lane axis is appended last.  The _KEPT ones carry a job from one
    iteration to the next, the others are scratch."""
    n, n_checks, types = graph.n_qubits, graph.n_checks, graph.n_types
    check_slots = graph.check_slots.shape[0]
    bit = np.bool_
    return {
        "lp": ((4, n), real),
        "bel": ((4, n), real),
        "gamma": ((graph.check_slots.size + 1,), real),
        "cpref": ((max(check_slots, 1), n_checks), real),  # row 0 is sigma
        "csuf": ((check_slots, n_checks), real),
        "th": ((graph.check_slots.size + 1,), real),  # + 1: first_iteration's gamma
        "half": ((1 + types * n,), real),
        "qg": (graph._gamma_gather.shape, real),
        "s": ((types, n), real),
        "total": ((n,), real),
        "exp": ((4, n), real),
        "anti": ((types, n), real),
        "bits": ((1 + 3 * n,), bit),
        "slot_bits": ((check_slots + 1, n_checks), bit),
    }


# moved when lanes are repacked; sigma, the target signs, is cpref[0], and
# target_parity is slot_bits[-1]
_KEPT = ("lp", "bel", "gamma", "sigma", "target_parity")


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
    the next step() refills it or packs the remaining lanes.  Every real
    array has dtype real (np.float64 or np.float32), log-priors included,
    so the same operations run at either precision.
    """

    def __init__(self, graph: TannerGraph, width: int, real=np.float64):
        if width < 1:
            raise ValueError("width must be at least 1")
        self.graph = graph
        self.width = width
        self.real = real
        self._shapes = _lane_shapes(graph, real)
        self._flat = {
            name: np.empty(width * math.prod(shape), dtype=dtype)
            for name, (shape, dtype) in self._shapes.items()
        }
        self._views = {}  # by (lanes, first)
        # first_iteration writes only its own bools and its gamma and bel, in
        # step buffers that a step writes before it reads them
        own = {name: np.empty_like(self._flat[name]) for name in ("bits", "slot_bits")}
        self._first_flat = dict(self._flat, gamma=self._flat["th"], bel=self._flat["exp"], **own)
        self._layout = 0
        self.jobs = []  # per lane of the layout: its job, None once finished
        self.busy = 0  # jobs running or held
        self.iterations = []  # per lane of the layout
        self.caps = []
        self._held = []  # load's arguments for the next layout

    @staticmethod
    def lane_bytes(graph: TannerGraph, real=np.float64) -> int:
        """Workspace bytes per lane."""
        return sum(
            math.prod(shape) * np.dtype(dtype).itemsize
            for shape, dtype in _lane_shapes(graph, real).values()
        )

    def _view(self, lanes: int, first: bool = False):
        """The workspace for `lanes` lanes (first_iteration's if first), with
        every view and op list the step uses, made on first use of each layout."""
        flat = self._first_flat if first else self._flat
        view = self._views.get((lanes, first))
        if view is None:
            view = self._views[lanes, first] = SimpleNamespace(
                **{
                    name: flat[name][: math.prod(shape) * lanes].reshape(shape + (lanes,))
                    for name, (shape, _) in self._shapes.items()
                }
            )
            view.th_max = np.nextafter(self.real(1), self.real(0))  # the clip
            view.sigma = view.cpref[0]
            view.target_parity = view.slot_bits[-1]
            bit_rows = view.bits[1:].reshape((3,) + view.s.shape[1:])
            view.decided = bit_rows[:2].view(np.uint8)  # Z and X bits
            # the decision's bits (anti is free after _qubit_messages), then
            # each check cell's bit (axis 0, mode "clip" as in _check_messages)
            view.syndrome_test = _decision_ops(view.bel, view.anti[:2], bit_rows, len(view.s)) + [
                partial(
                    view.bits.take, self.graph._message_gather, 0,
                    view.slot_bits[:-1], "clip",
                )
            ]
            view.cpref_excl = view.cpref[: len(view.csuf)]
            view.gamma_cells = view.gamma[:-1].reshape(view.csuf.shape)
            view.th = view.th[:-1].reshape(view.csuf.shape)
            view.half_entries = view.half[1:].reshape(view.s.shape)
            x = view.exp  # an X, Z or Y entry anticommutes with Z and Y, X and Y, or X and Z
            others = [(x[2], x[3]), (x[1], x[3]), (x[1], x[2])]
            view.anti_sums = [(a, b, out) for (a, b), out in zip(others, view.anti)]
            view.check_products = _slot_product_ops(view.th, view.cpref, view.csuf)
            s, qg = view.s, view.qg
            view.entry_sums = [(qg[0], qg[1], s)] + [(s, row, s) for row in qg[2:]]
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
        view.half[0] = np.inf  # pad cells: tanh(+inf) = 1
        view.bits[0] = False  # and anticommutation bit 0
        view.csuf[-1:] = 1.0  # the empty product
        for name, values in kept.items():
            getattr(view, name)[..., :n_kept] = values
        free = [None] * len(self._held)
        self.jobs = [self.jobs[i] for i in keep] + free
        self.iterations = [self.iterations[i] for i in keep] + free
        self.caps = [self.caps[i] for i in keep] + free
        self._start_held(range(n_kept, lanes))

    def _start_held(self, lanes) -> None:
        """Write the held jobs' log-priors, targets and starting messages
        into the free lanes `lanes`, one lane per held job, in order."""
        view = self._view(self._layout)
        for lane, (job, lp, target, max_iter, resume) in zip(lanes, self._held):
            view.lp[..., lane] = lp
            view.sigma[:, lane] = target
            # a -1 on a check without sender edges is never matched
            view.target_parity[:, lane] = target < 0
            if resume is None:  # with every gamma 0, the first messages
                view.bel[..., lane] = lp  # are the priors'
                view.gamma[:, lane] = 0.0
            else:  # iteration 1's log-beliefs and gammas s_c * G0
                first, bel = resume
                view.bel[..., lane] = bel
                np.multiply(first, target, out=view.gamma_cells[..., lane])
                view.gamma[-1, lane] = 0.0
            self.iterations[lane] = 0 if resume is None else 1
            self.caps[lane] = max_iter
            self.jobs[lane] = job
        self._held = []

    def load(self, job, priors: np.ndarray, target: np.ndarray, max_iter: int, resume=None):
        """Hold a job for the next step, which starts it in a free lane.

        priors is the (4, n_qubits) log-prior matrix (log_priors) and target
        the (n_checks,) syndrome of +1/-1 entries; job, any object but None,
        is returned with the outcome.  Without resume the job starts at
        iteration 1; with the resume state that first_iteration returned for
        it (on the same priors, target and max_iter) it starts at iteration
        2.  The arrays are read, not copied, and must not change before the
        next step.
        """
        if self.busy >= self.width:
            raise RuntimeError("every lane is busy")
        self._held.append((job, priors, target, max_iter, resume))
        self.busy += 1

    def first_messages(self, lp: np.ndarray) -> np.ndarray:
        """G0 for log-priors lp, kept per graph, dtype and lp.  A new one is
        computed by this kernel's step, so it needs an idle kernel
        (RuntimeError if a job is running or held: its lane would be
        stepped); ArithmeticError if the all -1 syndrome's gammas are not -G0."""
        known, key = self.graph._first_messages, (self.real, lp.tobytes())
        if key not in known:
            if self.busy:
                raise RuntimeError("a new G0 needs an idle kernel")
            gammas = []
            for sign in (1, -1):
                self.load(sign, lp, np.full(self.graph.n_checks, sign), 1)
                self.step()
                gammas.append(self._view(self._layout).gamma_cells[..., 0].copy())
            if (-gammas[0]).tobytes() != gammas[1].tobytes():
                raise ArithmeticError("iteration 1's gammas are not odd in the syndrome")
            known[key] = gammas[0]
        return known[key]

    def first_iteration(self, lp, targets: np.ndarray, max_iter: int):
        """Iteration 1 of a job on each syndrome of targets (k <= width rows)
        with log-priors lp and cap max_iter, in bulk, between steps, from
        first_messages(lp).  A job ends as a lane would end it, on a match or
        at max_iter = 1.  Returns (finished, resumes): (row, DecodeOutcome)
        for each job that ends, and (row, resume state for load) for each
        other one, both in row order."""
        first = self.first_messages(lp)
        view = self._view(len(targets), first=True)
        view.lp, signs = lp[..., None], targets.T
        np.multiply(first[..., None], signs, out=view.gamma_cells)
        view.gamma[-1], view.bits[0] = 0.0, False  # the pad slots'
        np.less(signs, 0, out=view.target_parity)
        _beliefs(self.graph, view)
        frustrated, (z_bits, x_bits) = _mismatches(view).T, view.decided
        matched = ~frustrated.any(axis=1)
        ends = matched | (max_iter <= 1)
        done, going = np.flatnonzero(ends), np.flatnonzero(~ends)
        errors = (z_bits << 1 | x_bits).T[done]  # gf4 values, X bit + 2 * Z bit
        rows = zip(done.tolist(), errors, matched[done].tolist(), frustrated[done])
        finished = [(row, DecodeOutcome(e, m, 1, f)) for row, e, m, f in rows]
        bel = np.moveaxis(view.bel, -1, 0)[going]  # a copy: a step overwrites view.bel
        return finished, [(row, (first, b)) for row, b in zip(going.tolist(), bel)]

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
        _qubit_messages(view)
        _check_messages(graph, view)
        _beliefs(graph, view)
        frustrated = _mismatches(view)
        mismatched = np.logical_or.reduce(frustrated, axis=0)
        z_bits, x_bits = view.decided
        finished = []
        for lane, mismatch in enumerate(mismatched.tolist()):
            self.iterations[lane] += 1
            if (halt and not mismatch) or self.iterations[lane] >= self.caps[lane]:
                error = z_bits[:, lane] << 1  # gf4 value, X bit + 2 * Z bit
                error |= x_bits[:, lane]
                outcome = DecodeOutcome(
                    error=error,
                    converged=not mismatch,
                    iterations=self.iterations[lane],
                    frustrated=frustrated[:, lane].copy(),
                )
                finished.append((self.jobs[lane], outcome))
                self.jobs[lane] = None
                self.busy -= 1
        return finished

    def beliefs(self, lane: int) -> np.ndarray:
        """A fresh (n_qubits, 4) copy of a lane's last beliefs, the softmax
        of its log-beliefs."""
        bel = self._view(self._layout).bel[..., lane]
        x = np.exp(bel - bel.max(axis=0))
        return np.array((x / x.sum(axis=0)).T, order="C")


def idle_lanes(graph: TannerGraph, width: int, real=np.float64) -> Lanes:
    """The graph's kept Lanes of this width and dtype; a fresh one if busy."""
    lanes = graph._lanes.get((width, real))
    if lanes is None or lanes.busy:
        lanes = graph._lanes[width, real] = Lanes(graph, width, real)
    return lanes


def lane_width(graph: TannerGraph, real=np.float64) -> int:
    """Lanes of dtype real that fit LANE_WORKSPACE_BYTES, at least 1."""
    return max(1, LANE_WORKSPACE_BYTES // Lanes.lane_bytes(graph, real))


def log_priors(priors: np.ndarray, real=np.float64) -> np.ndarray:
    """The (4, n) log of the clamped, normalized transpose of an (n, 4)
    prior matrix, computed in float64 and cast to real, as Lanes.load of
    that dtype takes it."""
    pri = np.maximum(np.asarray(priors, dtype=float).T, MSG_FLOOR)
    return np.log(pri / pri.sum(axis=0)).astype(real, copy=False)


def decode(
    code: StabilizerCode,
    target_syndrome,
    priors,
    max_iter: int = 90,
    on_iteration=None,
    halt: bool = True,
) -> DecodeOutcome:
    """Run flooding sum-product decoding against a target syndrome.

    priors has shape (n_sent, 4), each qubit's finite, nonnegative and not
    all zero (ValueError naming the qubit otherwise).  Stops as soon as the
    hard decision's syndrome matches the target (unless halt=False, which
    always runs max_iter iterations); non-convergence is a normal outcome,
    reported in the converged flag, and the returned error is then the hard
    decision of the last iteration run.  on_iteration(t, beliefs), if
    given, is called once per iteration with freshly allocated belief
    arrays.  The graph is the code object's cached one (tanner_graph).
    This is one job on the lane kernel at width 1.
    """
    graph = tanner_graph(code)
    target = np.asarray(target_syndrome).ravel()
    if target.shape != (graph.n_checks,):
        raise ValueError(
            f"syndrome length {target.shape} does not match {graph.n_checks} checks"
        )
    if not np.isin(target, (1, -1)).all():  # before the cast, which truncates 1.5
        raise ValueError("syndrome entries must be +1 or -1")
    target = target.astype(np.int64)
    check_integer("max_iter", max_iter, 1)
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (graph.n_qubits, 4):
        raise ValueError(
            f"priors shape {pri.shape} does not match ({graph.n_qubits}, 4)"
        )
    bad = ~np.isfinite(pri).all(axis=1) | (pri < 0).any(axis=1)
    bad |= pri.sum(axis=1) <= 0
    if bad.any():
        q = int(np.argmax(bad))
        raise ValueError(
            f"priors of qubit {q} are {pri[q].tolist()}; they must be finite, "
            "nonnegative and not all zero"
        )
    lanes = idle_lanes(graph, 1)  # a fresh one for a decode inside on_iteration
    lanes.load(True, log_priors(pri), target, max_iter)
    iteration = 0
    while True:
        finished = lanes.step(halt)
        iteration += 1
        if on_iteration is not None:
            on_iteration(iteration, lanes.beliefs(0))
        if finished:
            return finished[0][1]
