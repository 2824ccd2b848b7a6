"""Machine-speed reference: a frozen GF(4) flooding-BP kernel.

A shared 2-core machine changes speed by up to 1.5x over minutes, when other
tenants load the same physical cores; a pure-numpy or pure-Python loop tracks
that change only weakly, while code with the decoder's mix of many small
numpy calls tracks it closely.  This module is a standalone copy of the
sum-product iteration of gf4bp's seed decoder (parity-form check update,
exclusive products by cumprod, hard decision, syndrome test) on the [[62,2]]
code.  It imports nothing from gf4bp, so no change under src/ alters its
speed: its time, set against REFERENCE_S, measures the machine and not the
code.  run.py times it between rounds and scales wall times by the ratio.
"""

import time
from pathlib import Path

import numpy as np

CODE_FILE = Path(__file__).resolve().parent / "codes" / "c62.stab"
ITERATIONS = 200
#: Seconds one `Reference.measure()` took on the 2-core x86 container the
#: calibration rates in workloads.py come from; it sets the scale only.
REFERENCE_S = 0.060
#: Seconds `import numpy` took in a fresh interpreter on the same container.
#: Import time swings by up to 2x with the machine's load, far more than the
#: kernel's speed, but it follows numpy's import time in the same interpreter:
#: scaling each set-up time by NUMPY_IMPORT_S / that import time cut the
#: ten-run spread of set-up time from 19-43% to 1-5%.  numpy is not code under
#: test, so the scaling cannot hide a change to gf4bp.
NUMPY_IMPORT_S = 0.085

_SYMBOLS = {"I": 0, "X": 1, "Z": 2, "Y": 3}
# KAPPA[s, e] = +1 if Pauli e commutes with Pauli s, else -1.
_KAPPA = np.array(
    [[1.0 if s == 0 or e == 0 or s == e else -1.0 for e in range(4)] for s in range(4)]
)


def _exclusive_prod(a):
    pref = np.ones_like(a)
    suf = np.ones_like(a)
    np.cumprod(a[:, :-1], axis=1, out=pref[:, 1:])
    np.cumprod(a[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pref * suf


def _normalize(a):
    a = np.maximum(a, 1e-30)
    return a / a.sum(axis=-1, keepdims=True)


def _slots(owner, n_owner):
    """Padded (owner, slot) -> edge table and each edge's flat slot index."""
    order = np.argsort(owner, kind="stable")
    degree = np.bincount(owner, minlength=n_owner)
    start = np.concatenate([[0], np.cumsum(degree)])
    position = np.empty(owner.size, dtype=np.intp)
    position[order] = np.arange(owner.size) - start[owner[order]]
    table = np.full((n_owner, degree.max()), owner.size, dtype=np.intp)
    table[owner, position] = np.arange(owner.size)
    return table, owner * degree.max() + position


class Reference:
    def __init__(self):
        rows = [
            [_SYMBOLS[c] for c in line.strip()]
            for line in CODE_FILE.read_text().splitlines()
            if line.strip()
        ]
        checks = np.array(rows, dtype=np.intp)
        self.hx = (checks & 1).astype(np.int64)
        self.hz = (checks >> 1).astype(np.int64)
        self.edge_check, self.edge_qubit = np.nonzero(checks)
        self.entry = checks[self.edge_check, self.edge_qubit]
        self.kappa = _KAPPA[self.entry]
        self.check_slots, self.check_pos = _slots(self.edge_check, checks.shape[0])
        self.qubit_slots, self.qubit_pos = _slots(self.edge_qubit, checks.shape[1])
        self.priors = np.tile([0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3], (checks.shape[1], 1))
        error = np.zeros(checks.shape[1], dtype=np.int64)
        error[[3, 17, 40]] = [1, 2, 3]
        self.target = 1 - 2 * ((self.hx @ (error >> 1) + self.hz @ (error & 1)) % 2)

    def _iterate(self, msg, sigma):
        n_edges = self.entry.size
        d = 2.0 * (msg[:, 0] + msg[np.arange(n_edges), self.entry]) - msg.sum(axis=1)
        d_excl = _exclusive_prod(np.append(d, 1.0)[self.check_slots]).reshape(-1)
        c2q = _normalize(0.25 * (1.0 + (sigma * d_excl[self.check_pos])[:, None] * self.kappa))
        gathered = np.concatenate([c2q, np.ones((1, 4))])[self.qubit_slots]
        beliefs = _normalize(self.priors * gathered.prod(axis=1))
        extrinsic = self.priors[:, None, :] * _exclusive_prod(gathered)
        msg = _normalize(extrinsic.reshape(-1, 4)[self.qubit_pos])
        e_hat = np.argmax(beliefs, axis=-1)
        parity = (self.hx @ (e_hat >> 1) + self.hz @ (e_hat & 1)) % 2
        return msg, bool(np.array_equal(1 - 2 * parity, self.target))

    def measure(self) -> float:
        """Seconds for ITERATIONS kernel iterations (never halted early)."""
        start = time.perf_counter()
        sigma = self.target[self.edge_check].astype(float)
        msg = self.priors[self.edge_qubit]
        for _ in range(ITERATIONS):
            msg, _matched = self._iterate(msg, sigma)
        return time.perf_counter() - start
