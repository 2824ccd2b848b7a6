"""Depolarizing-channel priors and reproducible i.i.d. Pauli error sampling.

Every draw is a pure function of its key, so per-block draws do not depend
on how blocks are scheduled across workers.  substream(seed, *key) is a
numpy Generator, for the feedback draws; substream_uniforms is the block
error stream, a counter hash of (seed, domain, block, symbol) computed for a
whole batch in uint64 array ops (keyed_uniforms, after SplitMix64 and Salmon
et al.'s counter-based generators) from keys hashed by a vectorised copy of
numpy's SeedSequence (substream_keys, after O'Neill's seed_seq), which is
cheaper per key in bigger calls: the harness hashes a window's keys at once.
sample_error turns such uniforms, one row per block, into errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stabilizer import check_integer


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit suffers X, Z or Y with probability p/3 each."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"crossover probability {self.p} not in [0, 1]")

    def prior(self) -> np.ndarray:
        """Single-qubit error distribution over (I, X, Z, Y)."""
        return np.array([1.0 - self.p, self.p / 3.0, self.p / 3.0, self.p / 3.0])


def priors(channel: DepolarizingChannel, n_sent: int) -> np.ndarray:
    """Per-qubit prior matrix of shape (n_sent, 4)."""
    return np.tile(channel.prior(), (n_sent, 1))


def sample_error(channel: DepolarizingChannel, uniforms, n_ebits: int = 0) -> np.ndarray:
    """I.i.d. Pauli errors from uniforms already drawn, one per sent qubit,
    such as a Generator's random(n_sent) or a row of substream_uniforms: an
    (..., n_sent) array gives one error per row, of shape
    (..., n_sent + n_ebits), with identity on the receiver-held ebit
    columns; 0-d uniforms are a ValueError."""
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim == 0:
        raise ValueError("uniforms must have a qubit axis, not be 0-d")
    n_sent = uniforms.shape[-1]
    # rng.choice(4, size=n_sent, p=prior)'s own draw, without its per-call
    # validation of p: a uniform's symbol counts the normalised CDF entries at
    # or below it (searchsorted side="right"); the last, 1.0, is above them all
    cdf = np.cumsum(channel.prior())
    cdf /= cdf[-1]
    error = np.zeros(uniforms.shape[:-1] + (n_sent + n_ebits,), dtype=np.uint8)
    sent = error[..., :n_sent]
    for bound in cdf[:3]:
        sent += (uniforms >= bound).view(np.uint8)  # uint8 += bool takes numpy's slow cast loop
    return error


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *key)."""
    check_integer("seed", master_seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    )


# SeedSequence's uint32 hash constants (numpy's bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(value: int) -> list:
    """A nonnegative int as SeedSequence splits it: little-endian uint32 words."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed keys must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: list) -> list:
    """SeedSequence(...).generate_state(4, uint32) for an assembled entropy
    list.  Each word is an int or a uint64 array of values below 2**32, one
    per key; products stay below 2**64, and a difference that wraps modulo
    2**64 is still right modulo 2**32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for value in pool:
        value = value ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ (value >> 16))
    return state


def substream_keys(master_seed: int, domain: int, blocks) -> np.ndarray:
    """(len(blocks), 2) uint64 keys (s, g) of substream_uniforms' rows; a
    row depends on its block alone, so a window's keys serve any batch of it."""
    check_integer("seed", master_seed)
    blocks = np.asarray(blocks, dtype=np.uint64).ravel()
    # SeedSequence pads the run entropy to the pool size before a spawn key
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run)) + _uint32_words(domain)
    low, high = blocks & np.uint64(_MASK32), blocks >> np.uint64(32)
    wide = high > 0  # a block of 2**32 or more is two words
    keys = np.empty((blocks.size, 2), dtype=np.uint64)
    for rows, block_words in ((~wide, [low]), (wide, [low, high])):
        if rows.any():
            words = _seed_words(run + [w[rows] for w in block_words])
            keys[rows, 0] = words[0] | words[1] << np.uint64(32)
            keys[rows, 1] = words[2] | words[3] << np.uint64(32) | np.uint64(1)
    return keys


def keyed_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """(len(keys), n) uniforms of substream_keys rows, by their counter hash."""
    # counters s + (j + 1) * g, then SplitMix64's finalizer (Steele, Lea &
    # Flood, OOPSLA 2014), in place; uint64 products wrap modulo 2**64
    x = np.multiply.outer(keys[:, 1], np.arange(1, n + 1, dtype=np.uint64))
    x += keys[:, :1]
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) * 2.0**-53


def substream_uniforms(master_seed: int, domain: int, blocks, n: int) -> np.ndarray:
    """(len(blocks), n) uniforms; row i is the stream of the key
    (master_seed, domain, blocks[i]), whatever the other blocks.

    A key's four SeedSequence(master_seed, spawn_key=(domain, block)) state
    words, paired little-endian, give a start s and an odd increment
    g = w | 1 (substream_keys); uniform j is SplitMix64's finalizer of
    s + (j + 1) * g modulo 2**64, its top 53 bits times 2**-53
    (keyed_uniforms).  The finalizer is a bijection, so two keys share an
    output only where they share a counter.  Keys with different increments
    share isolated counters at the rate of independent 64-bit draws, about
    (K * n)**2 / 2**65 over K keys; a shared run of two or more needs equal
    increments and starts within n increments of each other, probability
    below K**2 * n / 2**127.
    """
    return keyed_uniforms(substream_keys(master_seed, domain, blocks), n)
