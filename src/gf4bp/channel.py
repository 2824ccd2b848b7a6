"""Depolarizing-channel priors and reproducible i.i.d. Pauli error sampling.

Randomness is organized as splittable substreams: substream(seed, *key)
returns a generator that is a pure function of its key, so per-block draws
are identical no matter how blocks are scheduled across workers.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit suffers X, Z or Y with probability p/3 each."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"crossover probability {self.p} not in [0, 1]")

    @property
    def p_identity(self) -> float:
        return 1.0 - self.p

    def prior(self) -> np.ndarray:
        """Single-qubit error distribution over (I, X, Z, Y)."""
        return np.array([1.0 - self.p, self.p / 3.0, self.p / 3.0, self.p / 3.0])


def priors(channel: DepolarizingChannel, n_sent: int) -> np.ndarray:
    """Per-qubit prior matrix of shape (n_sent, 4)."""
    return np.tile(channel.prior(), (n_sent, 1))


def sample_error(
    n_sent: int,
    channel: DepolarizingChannel,
    rng: np.random.Generator,
    n_ebits: int = 0,
) -> np.ndarray:
    """Draw an i.i.d. Pauli error; receiver-held ebit columns stay identity."""
    # rng.choice(4, size=n_sent, p=prior)'s own draw, without its per-call
    # validation of p: one uniform per qubit searched in the normalised CDF
    cdf = np.cumsum(channel.prior())
    cdf /= cdf[-1]
    error = np.zeros(n_sent + n_ebits, dtype=np.uint8)
    error[:n_sent] = cdf.searchsorted(rng.random(n_sent), side="right")
    return error


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *key)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    )
