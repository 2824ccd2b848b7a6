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
over run rows left folds, so each layer of a step is a short list of
whole-row numpy calls, (callable, operands), built once per lane layout.

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

Decoding jobs run as lanes of one kernel (Lanes): every array, each lane's
iteration count and cap included, carries a trailing lane axis, a lane
stops on its own syndrome match or cap, and a finished lane can be refilled
while the others go on.  Every operation is elementwise along the lane
axis, the innermost axis of every operand, so a lane computes bit for bit
what it would compute alone; decode is Lanes.run_one at width 1.  Iteration 1
starts from gamma = 0 and bel = lp, so its gammas are s_c times G0, the all
+1 syndrome's (s_c = +-1 starts the check product, the clip is symmetric,
tanh and arctanh are odd).  first_messages keeps G0 on the graph, one step of
its idle width-1 kernel; given it, Lanes.first_iteration runs iteration 1 of
many jobs at once and hands back those a lane would end as arrays, and the
others' states to resume from.  The graph keeps its kernels (idle_lanes) and
a kernel only the graph's gather tables, so both go with their code object.
The real dtype is a parameter of the kernel: decode runs float64, which
agreement with exact marginals to 1e-8 needs, and the Monte-Carlo harness
float32 (sim.LANE_REAL), at half a lane's bytes and cheaper tanh and arctanh.
"""

import math
import weakref
from dataclasses import dataclass, field
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

#: Workspace bytes for the lanes of one process, counted by lane_width; numpy's
#: take copies rows of 1, 2, 4, 8, 16 or 32 bytes by a fixed-size path.
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
        check_idx, qubit_idx = np.nonzero(sent != 0)  # uint8 nonzero is slower than bool's
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
        self._first_messages = {}  # (dtype, log-prior bytes) -> G0, see first_messages

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


@dataclass
class DecodeOutcome:
    """Hard decision on the transmitted qubits plus convergence bookkeeping.

    iterations counts BP iterations actually run (a decode that matches the
    syndrome at iteration t reports t); for feedback decoding it accumulates
    over all rounds.  When no iteration matches the syndrome, error is the
    hard decision of the last iteration run.  frustrated is the (n_checks,)
    bool mask of the checks whose parity under error differs from the
    target's, as the lane step's syndrome test found it; feedback rounds
    read their frustrated checks from it, so it is required (ValueError if
    None).  converged is derived from it: no check is frustrated.
    """

    error: np.ndarray
    iterations: int
    frustrated: np.ndarray
    converged: bool = field(init=False)

    def __post_init__(self):
        if self.frustrated is None:
            raise ValueError("a DecodeOutcome needs its frustrated-check mask")
        self.converged = not np.count_nonzero(self.frustrated)

    @property
    def error_pauli(self) -> str:
        return gf4.values_to_pauli(self.error)


def _qubit_messages(v) -> None:
    """Lambda_q / 2 for every (entry, qubit), into v.half, from the
    (symbol, qubit, lanes) log-beliefs v.bel."""
    for call, operands in v.qubit_calls:
        call(*operands)


def _check_messages(v) -> None:
    """Every check cell's gamma, into v.gamma_cells, from v.half and the
    previous gammas."""
    for call, operands in v.check_calls:
        call(*operands)


def _beliefs(v) -> None:
    """The log-beliefs v.bel from the log-priors v.lp and the gammas."""
    for call, operands in v.belief_calls:
        call(*operands)


def _decision_ops(bel: np.ndarray, top: np.ndarray, rows: np.ndarray, types: int) -> list:
    """The (callable, operands) calls, in order, that write the
    anticommutation bit rows of the hard decision of the log-beliefs bel
    (4, qubits, ...) into the bool rows (3, qubits, ...): its Z bits, its X
    bits and, for types = 3 entry types, their XOR (else row 2 is left as
    scratch).  The decision is argmax's first maximum in I, X, Z, Y order;
    top is (2, qubits, ...) float scratch."""
    even, odd = bel[0::2], bel[1::2]  # (I, Z) and (X, Y)
    ops = [
        (partial(np.maximum, out=top), (even, odd)),  # the {I, X} and {Z, Y} maxima
        (np.greater, (top[1], top[0], rows[0])),  # the {Z, Y} winner wins
        (np.greater, (odd, even, rows[1:])),  # X beats I, Y beats Z
        (np.copyto, (rows[1], rows[2], "same_kind", rows[0])),  # Y's where Z bit
    ]
    if types == 3:
        ops.append((np.not_equal, (rows[0], rows[1], rows[2])))
    return ops


def _mismatches(v) -> np.ndarray:
    """Per check and lane, whether the check's parity under the hard
    decision of v.bel differs from the target's (bool, (checks, lanes))."""
    for call, operands in v.syndrome_test:
        call(*operands)
    # the last slot holds the target parity, so the XOR is the mismatch
    return np.bitwise_xor.reduce(v.slot_bits, 0)


def _lane_shapes(graph: TannerGraph, real) -> dict:
    """Per-lane workspace (shape, dtype)s, its reals of dtype real;
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
        "iterations": ((), np.intp),  # run so far
        "caps": ((), np.intp),
    }


# moved when lanes are repacked; sigma, the target signs, is cpref[0], and
# target_parity is slot_bits[-1]
_KEPT = ("lp", "bel", "gamma", "sigma", "target_parity", "iterations", "caps")


class Lanes:
    """Up to `width` decode jobs run side by side, one per lane.

    Every workspace array is allocated once, as a flat buffer holding
    `width` lanes, and viewed with the lane axis last for the number of
    occupied lanes, so an iteration costs what the occupied lanes cost.
    step(halt, starts) first starts the jobs it is given, one
    (job, log-priors, target, max_iter, resume) tuple each: priors is the
    (4, n_qubits) log-prior matrix (log_priors) and target the (n_checks,)
    syndrome of +1/-1 entries; job, any object but None, is returned with
    the outcome.  Without resume (None) a job starts at iteration 1; with
    the resume state that first_iteration returned for it (on the same
    priors, target and max_iter) it starts at iteration 2.  The arrays are
    read during the call only.  The starts are written into the lanes of
    finished jobs when they fill those lanes exactly; otherwise the buffers
    are laid out once for the lanes still running (packed together) and the
    starts.  step then runs one iteration on every occupied lane and
    returns (job, DecodeOutcome) for each lane that matched its target
    syndrome (unless halt is off) or reached its iteration cap, which the
    workspace holds with its count.  A finished lane stays in the layout
    (jobs holds None for it) until a later step refills it or packs the
    remaining lanes; jobs is the one record of which lanes are busy.  Every
    real array has dtype real (np.float64 or np.float32), log-priors included,
    so the same operations run at either precision.  run_one steps one job
    alone to its end.  A kernel keeps two gather tables, not the graph.
    """

    def __init__(self, graph: TannerGraph, width: int, real=np.float64):
        if width < 1:
            raise ValueError("width must be at least 1")
        self._message_gather, self._gamma_gather = graph._message_gather, graph._gamma_gather
        self.width = width
        self.real = real
        self._shapes = _lane_shapes(graph, real)
        self._flat = {
            name: np.empty(width * math.prod(shape), dtype=dtype)
            for name, (shape, dtype) in self._shapes.items()
        }
        self._views = {}  # by (lanes, first)
        # first_iteration writes its own bools and log-prior lane, and its gamma
        # and bel in step buffers that a step writes before it reads them
        own = {name: np.empty_like(self._flat[name]) for name in ("bits", "slot_bits")}
        own["lp"] = np.empty(math.prod(self._shapes["lp"][0]), dtype=real)
        self._first_flat = dict(self._flat, gamma=self._flat["th"], bel=self._flat["exp"], **own)
        self.jobs = []  # per lane of the layout: its job, None once finished

    @property
    def busy(self) -> int:
        """Lanes running a job."""
        return len(self.jobs) - self.jobs.count(None)

    @staticmethod
    def lane_bytes(graph: TannerGraph, real=np.float64) -> int:
        """Workspace bytes per lane."""
        return sum(
            math.prod(shape) * np.dtype(dtype).itemsize
            for shape, dtype in _lane_shapes(graph, real).values()
        )

    def _view(self, lanes: int, first: bool = False):
        """The workspace for `lanes` lanes (first_iteration's, with one shared
        log-prior lane, if first), its views and each kernel layer's list of
        (callable, operands) calls, outputs positional, made once per layout
        (empty qubit and check lists for a first layout, which never runs them)."""
        view = self._views.get((lanes, first))
        if view is not None:
            return view
        flat = self._first_flat if first else self._flat

        def part(name, lanes):
            shape = self._shapes[name][0] + (lanes,)
            return flat[name][: math.prod(shape)].reshape(shape)

        v = self._views[lanes, first] = SimpleNamespace(**{
            name: part(name, 1 if first and name == "lp" else lanes) for name in self._shapes
        })
        v.sigma, v.target_parity = v.cpref[0], v.slot_bits[-1]
        bel, x, s, qg, total, anti, types = v.bel, v.exp, v.s, v.qg, v.total, v.anti, len(v.s)
        bit_rows = v.bits[1:].reshape((3,) + s.shape[1:])
        v.decided = bit_rows[:2].view(np.uint8)  # Z and X bits
        v.gamma_cells = cells = v.gamma[:-1].reshape(v.csuf.shape)
        half = v.half[1:].reshape(s.shape)
        v.entry_sums = [(qg[0], qg[1], s)] + [(s, row, s) for row in qg[2:]]
        # the decision's bits (anti is free after the qubit messages), then
        # each check cell's bit; mode "clip": the tables index in range, and
        # the default mode buffers out
        v.syndrome_test = _decision_ops(bel, anti[:2], bit_rows, types) + [
            (v.bits.take, (self._message_gather, 0, v.slot_bits[:-1], "clip"))
        ]
        lp, rows = v.lp, bel[1 : types + 1]
        v.belief_calls = [
            (v.gamma.take, (self._gamma_gather, 0, qg, "clip")),
            *[(np.add, ops) for ops in v.entry_sums],
            (np.add, (s[0], s[1], total)),
            *[(np.add, (total, row, total)) for row in s[2:]],  # S_Y, with Y entries
            (np.add, (lp[0], total, bel[0])),
            (np.multiply, (s, 2.0, rows)),
            (np.subtract, (rows, total, rows)),
            (np.add, (rows, lp[1 : types + 1], rows)),
            # no Y entries: L_Y = lp_Y - (S_X + S_Z)
            *[(np.subtract, (lp[3], total, bel[3]))] * (types == 2),
        ]
        if first:
            v.qubit_calls = v.check_calls = []
            return v
        th = v.th[:-1].reshape(v.csuf.shape)
        # an X, Z or Y entry anticommutes with Z and Y, X and Y, or X and Z
        others = [(x[2], x[3]), (x[1], x[3]), (x[1], x[2])]
        v.anti_sums = [(a, b, out) for (a, b), out in zip(others, anti)]
        v.check_products = _slot_product_ops(th, v.cpref, v.csuf)
        th_max = np.nextafter(self.real(1), self.real(0))  # the values next to -1 and +1
        v.qubit_calls = [
            (np.maximum.reduce, (bel, 0, None, total)),
            (np.subtract, (bel, total, x)),
            (np.exp, (x, x)),
            (partial(np.maximum, out=x), (x, MSG_FLOOR)),
            (np.add, (x[0], x[1 : types + 1], half)),  # I and the entry commute with it
            *[(np.add, ops) for ops in v.anti_sums],  # the two symbols that do not
            (np.divide, (half, anti, half)),
            (np.log, (half, half)),
            (np.multiply, (half, 0.5, half)),
        ]
        v.check_calls = [
            (v.half.take, (self._message_gather, 0, th, "clip")),
            (np.subtract, (th, cells, th)),  # Lambda / 2 of the edge
            (np.tanh, (th, th)),
            *[(np.multiply, ops) for ops in v.check_products],  # cpref[0] holds s_c
            (np.multiply, (v.cpref[: len(v.csuf)], v.csuf, th)),
            (th.clip, (-th_max, th_max, th)),
            (np.arctanh, (th, cells)),
        ]
        return v

    def _relayout(self, starts) -> None:
        """Lay the buffers out for the running lanes, packed in lane order,
        followed by the jobs of starts."""
        keep = [lane for lane, job in enumerate(self.jobs) if job is not None]
        old = self._view(len(self.jobs))
        kept = {name: getattr(old, name)[..., keep] for name in _KEPT}
        n_kept = len(keep)
        lanes = n_kept + len(starts)
        view = self._view(lanes)
        view.half[0] = np.inf  # pad cells: tanh(+inf) = 1
        view.bits[0] = False  # and anticommutation bit 0
        view.csuf[-1:] = 1.0  # the empty product
        for name, values in kept.items():
            getattr(view, name)[..., :n_kept] = values
        self.jobs = [self.jobs[i] for i in keep] + [None] * len(starts)
        self._start(range(n_kept, lanes), starts)

    def _start(self, lanes, starts) -> None:
        """Write the starts' log-priors, targets and starting messages into
        the free lanes `lanes`, one lane per start, in order."""
        view = self._view(len(self.jobs))
        for lane, (job, lp, target, max_iter, resume) in zip(lanes, starts):
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
            view.iterations[lane] = 0 if resume is None else 1
            view.caps[lane] = max_iter
            self.jobs[lane] = job

    def first_iteration(self, lp, first: np.ndarray, targets: np.ndarray, max_iter: int):
        """Iteration 1 of a job on each syndrome of targets (k <= width rows)
        with log-priors lp and cap max_iter, in bulk, between steps, from
        lp's G0 first (first_messages).  A job ends as a lane would end it,
        on a match or at max_iter = 1.  Returns ((rows, errors, frustrated),
        resumes): the rows of the jobs that end, in order, with their gf4
        errors (rows, n_qubits) and frustrated masks (rows, n_checks), whose
        empty rows are the matches; and (row, resume state for a start) for
        each other job, in row order."""
        view = self._view(len(targets), first=True)
        view.lp[..., 0], signs = lp, np.ascontiguousarray(targets.T)  # strides slow G0's broadcast
        np.multiply(first[..., None], signs, out=view.gamma_cells)
        view.gamma[-1], view.bits[0] = 0.0, False  # the pad slots'
        np.less(signs, 0, out=view.target_parity)
        _beliefs(view)
        frustrated, (z_bits, x_bits) = _mismatches(view).T, view.decided
        ends = ~frustrated.any(axis=1) | (max_iter <= 1)
        done, going = np.flatnonzero(ends), np.flatnonzero(~ends)
        errors = (z_bits << 1 | x_bits).T[done]  # gf4 values, X bit + 2 * Z bit
        bel = np.moveaxis(view.bel, -1, 0)[going]  # a copy: a step overwrites view.bel
        resumes = [(row, (first, b)) for row, b in zip(going.tolist(), bel)]
        return (done, errors, frustrated[done]), resumes

    def step(self, halt: bool = True, starts=()) -> list:
        """Start the jobs of starts in free lanes, then one flooding iteration
        on every busy lane; returns the finished lanes' (job, DecodeOutcome)
        pairs in lane order.  RuntimeError, before any lane changes, if
        starts outnumber the free lanes."""
        if starts or None in self.jobs:
            if len(starts) > self.width - self.busy:
                raise RuntimeError("every lane is busy")
            free = [lane for lane, job in enumerate(self.jobs) if job is None]
            if len(free) == len(starts):
                self._start(free, starts)  # the starts fill the layout's holes
            else:
                self._relayout(starts)
        view = self._view(len(self.jobs))
        _qubit_messages(view)
        _check_messages(view)
        _beliefs(view)
        frustrated = _mismatches(view)
        view.iterations += 1
        ended = view.iterations >= view.caps
        if halt:
            ended |= ~np.logical_or.reduce(frustrated, 0)
        z_bits, x_bits = view.decided
        finished = []
        for lane in ended.nonzero()[0].tolist():
            error = z_bits[:, lane] << 1 | x_bits[:, lane]  # gf4 value, X bit + 2 * Z bit
            outcome = DecodeOutcome(error, view.iterations.item(lane), frustrated[:, lane].copy())
            finished.append((self.jobs[lane], outcome))
            self.jobs[lane] = None
        return finished

    def run_one(self, lp, target, max_iter: int, halt: bool = True, on_iteration=None):
        """The DecodeOutcome of one job run alone on this idle kernel from
        iteration 1, one step at a time; after each iteration on_iteration(t,
        beliefs), if given, gets the lane's count t and a fresh (n_qubits, 4)
        copy of the lane's beliefs, the softmax of its log-beliefs."""
        if self.busy:
            raise RuntimeError("run_one needs an idle kernel")
        starts = [(True, lp, target, max_iter, None)]
        while True:
            finished, starts = self.step(halt, starts), ()
            if on_iteration is not None:
                view = self._view(1)
                x = np.exp(view.bel[..., 0] - view.bel[..., 0].max(axis=0))
                on_iteration(view.iterations.item(0), np.array((x / x.sum(axis=0)).T, order="C"))
            if finished:
                return finished[0][1]


def idle_lanes(graph: TannerGraph, width: int, real=np.float64) -> Lanes:
    """The graph's kept Lanes of this width and dtype; a fresh one if busy."""
    lanes = graph._lanes.get((width, real))
    if lanes is None or lanes.busy:
        lanes = graph._lanes[width, real] = Lanes(graph, width, real)
    return lanes


def first_messages(graph: TannerGraph, lp: np.ndarray, real) -> np.ndarray:
    """G0 for log-priors lp, kept per graph, dtype real and lp.  A new one is
    a one-iteration run_one of the graph's idle width-1 kernel of that dtype
    (idle_lanes), which leaves every other kernel's jobs as they were;
    ArithmeticError if the all -1 syndrome's gammas are not -G0."""
    known, key = graph._first_messages, (real, lp.tobytes())
    if key not in known:
        lanes, gammas = idle_lanes(graph, 1, real), []
        for sign in (1, -1):
            lanes.run_one(lp, np.full(graph.n_checks, sign), 1)
            gammas.append(lanes._view(1).gamma_cells[..., 0].copy())
        if (-gammas[0]).tobytes() != gammas[1].tobytes():
            raise ArithmeticError("iteration 1's gammas are not odd in the syndrome")
        known[key] = gammas[0]
    return known[key]


def lane_width(graph: TannerGraph, real=np.float64) -> int:
    """Lanes of dtype real that fit LANE_WORKSPACE_BYTES, at least 1, rounded
    down to a power of two when a row of that many reals is under 64 bytes."""
    count = max(1, LANE_WORKSPACE_BYTES // Lanes.lane_bytes(graph, real))
    return count if count * np.dtype(real).itemsize >= 64 else 1 << (count.bit_length() - 1)


def log_priors(priors: np.ndarray, real=np.float64) -> np.ndarray:
    """The (4, n) log of the clamped, normalized transpose of an (n, 4)
    prior matrix, computed in float64 and cast to real, as a start of
    Lanes.step of that dtype takes it."""
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
    This is Lanes.run_one on the graph's idle width-1 kernel (idle_lanes).
    """
    graph = tanner_graph(code)
    target = np.asarray(target_syndrome).ravel()
    if target.shape != (graph.n_checks,):
        raise ValueError(f"syndrome length {target.shape} does not match {graph.n_checks} checks")
    if target.dtype == bool or not np.isin(target, (1, -1)).all():  # a set bit is not +1
        raise ValueError("syndrome entries must be +1 or -1")
    check_integer("max_iter", max_iter, 1)
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (graph.n_qubits, 4):
        raise ValueError(f"priors shape {pri.shape} does not match ({graph.n_qubits}, 4)")
    bad = ~np.isfinite(pri).all(axis=1) | (pri < 0).any(axis=1) | (pri.sum(axis=1) <= 0)
    if bad.any():
        q = int(np.argmax(bad))
        raise ValueError(f"priors of qubit {q} are {pri[q].tolist()}; they must be finite, "
                         "nonnegative and not all zero")
    # idle_lanes: a fresh kernel for a decode called inside on_iteration
    return idle_lanes(graph, 1).run_one(log_priors(pri), target, max_iter, halt, on_iteration)
