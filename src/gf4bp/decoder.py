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

The iteration is symbol-major: messages are (4, edges) and priors
(4, qubits) arrays.  Check-side products run over a (slot, checks) gather of
the scalar D factors and qubit-side products over a (slot, 4, qubits) gather
of the messages, so each step is a short loop of whole-row numpy operations
over at most the maximum degree.  Sums over the four symbols are the left
fold ((a0 + a1) + a2) + a3 and products over slots are left folds (prefix
times suffix for the exclusive products), the order in which numpy's sum
over a length-4 axis and cumprod compute them; the outputs therefore equal
bit for bit those of a row-major (edges, 4) implementation, which
tests/oracles.py keeps as the reference.  The syndrome test XORs each
check's anticommutation bits over its edges, O(edges) integer work.

All probability vectors are clamped to MSG_FLOOR before normalization, which
prevents the all-zero product collapse.
"""

from dataclasses import dataclass

import numpy as np

from . import gf4
from .stabilizer import ANTICOMMUTES, StabilizerCode

MSG_FLOOR = 1e-30

#: KAPPA[s, e] = +1 if symbol e commutes with row entry s, else -1.
KAPPA = 1.0 - 2.0 * ANTICOMMUTES


def _normalized(v: np.ndarray, out=None) -> np.ndarray:
    """Clamp a fresh (4, k) array to MSG_FLOOR, then divide by column sums."""
    np.maximum(v, MSG_FLOOR, out=v)
    return np.divide(v, ((v[0] + v[1]) + v[2]) + v[3], out=out)


def _slot_products(a: np.ndarray):
    """Left-fold products over the leading (slot) axis of a.

    Returns (pref, suf): pref has one more slot than a, pref[k] being the
    product of the slots before k, so pref[-1] is the product of all slots;
    suf[k] is the product of the slots after k.  pref[:-1] * suf is each
    slot's product over the other slots.
    """
    n_slots = a.shape[0]
    pref = np.empty((n_slots + 1,) + a.shape[1:])
    suf = np.empty(a.shape)
    pref[0] = 1.0
    suf[-1:] = 1.0
    for k in range(n_slots):
        np.multiply(pref[k], a[k], out=pref[k + 1])
    for k in range(n_slots - 1, 0, -1):
        np.multiply(suf[k], a[k], out=suf[k - 1])
    return pref, suf


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
    list each node's edges; pad slots point at a sentinel edge n_edges whose
    value is neutral (1).
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
        # Flat gather positions: the (4, edges) messages' entry symbol, each
        # edge in (slot, check) d products, the (slot, symbol, qubit) layout
        # from the (4, edges + 1) check messages, and (symbol, edge) back.
        symbol = np.arange(4)[:, None]
        self._edge_entry_pos = self.edge_entry * n_edges + np.arange(n_edges)
        self._edge_check_pos = check_slot * self.n_checks + self.edge_check
        self._qubit_gather = symbol * (n_edges + 1) + self.qubit_slots[:, None, :]
        self._edge_qubit_pos = (qubit_slot * 4 + symbol) * self.n_qubits + self.edge_qubit
        self._edge_entry_qubit = self.edge_entry * self.n_qubits + self.edge_qubit
        self._kappa = np.ascontiguousarray(KAPPA[self.edge_entry].T)
        # reduceat over the first edge of each check with edges: a check
        # without sender entries would otherwise read its successor's edge
        self._parity_checks = np.nonzero(self.check_deg)[0]
        self._parity_starts = self._check_start[self._parity_checks]

    def check_qubits(self, check: int) -> np.ndarray:
        """Sender qubits incident to a check, in column order."""
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_qubit[lo:hi]

    def check_entries(self, check: int) -> np.ndarray:
        lo, hi = self._check_start[check], self._check_start[check + 1]
        return self.edge_entry[lo:hi]

    def syndrome_signs(self, e_values: np.ndarray) -> np.ndarray:
        """Syndrome (+1/-1 per check) of an error on the transmitted qubits.

        Each check's parity is the XOR of its edges' anticommutation bits; a
        check without sender entries has parity 0.
        """
        bits = ANTICOMMUTES.take(e_values, axis=1).take(self._edge_entry_qubit)
        parity = np.bitwise_xor.reduceat(bits, self._parity_starts)
        signs = np.ones(self.n_checks, dtype=np.int64)
        signs[self._parity_checks] -= 2 * parity
        return signs


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


def hard_decision(beliefs: np.ndarray) -> np.ndarray:
    """Per-qubit argmax with deterministic tie-break in the order I, X, Z, Y."""
    return np.argmax(beliefs, axis=-1).astype(np.uint8)


def _check_messages(
    graph: TannerGraph, msg_q2c: np.ndarray, sigma_edge: np.ndarray, out=None
) -> np.ndarray:
    """All (4, edges) check-to-qubit messages via the parity form."""
    n_edges = graph.n_edges
    d = np.ones(n_edges + 1)
    d[:n_edges] = 2.0 * (msg_q2c[0] + msg_q2c.take(graph._edge_entry_pos)) - (
        ((msg_q2c[0] + msg_q2c[1]) + msg_q2c[2]) + msg_q2c[3]
    )
    pref, suf = _slot_products(d.take(graph.check_slots))
    d_excl = (pref[:-1] * suf).take(graph._edge_check_pos)
    return _normalized(0.25 * (1.0 + (sigma_edge * d_excl) * graph._kappa), out=out)


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
    once per iteration with freshly allocated belief arrays.
    """
    if graph is None:
        graph = TannerGraph(code)
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
    pri = _normalized(np.array(pri.T, order="C"))

    n_qubits = graph.n_qubits
    sigma_edge = target.astype(float)[graph.edge_check]
    msg_q2c = pri[:, graph.edge_qubit]
    m_c2q = np.ones((4, graph.n_edges + 1))  # last column: the sentinel edge
    for iteration in range(1, max_iter + 1):
        _check_messages(graph, msg_q2c, sigma_edge, out=m_c2q[:, :-1])
        pref, suf = _slot_products(m_c2q.take(graph._qubit_gather))
        beliefs = np.empty((n_qubits, 4))
        _normalized(pri * pref[-1], out=beliefs.T)
        extrinsic = pri * (pref[:-1] * suf)
        msg_q2c = _normalized(extrinsic.take(graph._edge_qubit_pos))
        e_hat = hard_decision(beliefs)
        if on_iteration is not None:
            on_iteration(iteration, beliefs)
        matched = bool(np.array_equal(graph.syndrome_signs(e_hat), target))
        if halt and matched:
            return DecodeOutcome(error=e_hat, converged=True, iterations=iteration)
    return DecodeOutcome(error=e_hat, converged=matched, iterations=max_iter)
