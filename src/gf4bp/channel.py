"""Depolarizing-channel priors and reproducible i.i.d. Pauli error sampling.

Randomness is organized as splittable substreams: substream(seed, *key)
returns a generator that is a pure function of its key, so per-block draws
are identical no matter how blocks are scheduled across workers.
substream_uniforms draws the first uniforms of many such substreams at once,
(seed, domain, block) for a batch of blocks, with the same values: it hashes
the keys with a vectorised copy of numpy's SeedSequence (after O'Neill's
seed_seq), and numpy's PCG64 seeds itself from each key's hashed words,
handed over as a seed sequence that only returns them.  Each key's raw
64-bit draws become doubles by Generator.random's formula, for the whole
batch at once.  sample_error turns such uniforms, one row per block, into
errors.  check_integer is the package's one rule for integer inputs
(counts, iteration caps and seeds).
"""

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence


def check_integer(name: str, value, least: int = 0) -> None:
    """ValueError unless value is an integer (int or numpy integer, not a
    float, even an integral one) of at least `least`."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}")


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


def sample_error(
    n_sent: int,
    channel: DepolarizingChannel,
    rng,
    n_ebits: int = 0,
) -> np.ndarray:
    """Draw an i.i.d. Pauli error; receiver-held ebit columns stay identity.

    rng is a Generator, or an (..., n_sent) array of uniforms already drawn
    from one, which gives one error per row of shape (..., n_sent + n_ebits).
    """
    if isinstance(rng, np.random.Generator):
        uniforms = rng.random(n_sent)
    else:
        uniforms = np.asarray(rng, dtype=float)
        if uniforms.shape[-1:] != (n_sent,):
            raise ValueError(
                f"uniforms of shape {uniforms.shape} do not cover {n_sent} qubits"
            )
    # rng.choice(4, size=n_sent, p=prior)'s own draw, without its per-call
    # validation of p: one uniform per qubit searched in the normalised CDF
    cdf = np.cumsum(channel.prior())
    cdf /= cdf[-1]
    error = np.zeros(uniforms.shape[:-1] + (n_sent + n_ebits,), dtype=np.uint8)
    error[..., :n_sent] = cdf.searchsorted(uniforms, side="right")
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
    """SeedSequence(...).generate_state(8, uint32) for an assembled entropy
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
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ (value >> 16))
    return state


class _HashedWords(ISeedSequence):
    """The seed of one key, SeedSequence's generate_state(4, uint64) words
    already hashed, so PCG64 seeds itself from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("hashed words give generate_state(4, uint64) only")
        return self.words


def substream_uniforms(master_seed: int, domain: int, blocks, n: int) -> np.ndarray:
    """(len(blocks), n) uniforms; row i is substream(master_seed, domain,
    blocks[i]).random(n)."""
    check_integer("seed", master_seed)
    blocks = np.asarray(blocks, dtype=np.uint64).ravel()
    # SeedSequence pads the run entropy to the pool size before a spawn key
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run)) + _uint32_words(domain)
    low, high = blocks & np.uint64(_MASK32), blocks >> np.uint64(32)
    wide = high > 0  # a block of 2**32 or more is two words
    seeds = np.empty((blocks.size, 4), dtype=np.uint64)
    for rows, block_words in ((~wide, [low]), (wide, [low, high])):
        if rows.any():
            words = _seed_words(run + [w[rows] for w in block_words])
            # uint32 word pairs, little-endian, as generate_state(4, uint64)
            seeds[rows] = np.stack(
                [words[i] | words[i + 1] << np.uint64(32) for i in range(0, 8, 2)],
                axis=1,
            )
    raw = np.empty((blocks.size, n), dtype=np.uint64)
    for row, seed in enumerate(seeds):
        raw[row] = PCG64(_HashedWords(seed)).random_raw(n)
    # Generator.random's double: the top 53 bits times 2**-53
    return (raw >> np.uint64(11)) * 2.0**-53
