import numpy as np
import pytest

from gf4bp import channel
from gf4bp.channel import (
    DepolarizingChannel,
    priors,
    sample_error,
    substream,
    substream_uniforms,
)

from oracles import symbols_by_searchsorted


def test_prior_examples():
    assert np.allclose(DepolarizingChannel(0.1).prior(), [0.9, 1 / 30, 1 / 30, 1 / 30])
    assert np.allclose(DepolarizingChannel(0.0).prior(), [1, 0, 0, 0])
    assert np.allclose(DepolarizingChannel(0.75).prior(), [0.25, 0.25, 0.25, 0.25])


def test_prior_sums_to_one():
    for p in np.linspace(0, 1, 21):
        assert abs(DepolarizingChannel(p).prior().sum() - 1.0) < 1e-12


def test_p_out_of_range():
    with pytest.raises(ValueError):
        DepolarizingChannel(-0.01)
    with pytest.raises(ValueError):
        DepolarizingChannel(1.01)


def test_priors_matrix():
    mat = priors(DepolarizingChannel(0.3), 7)
    assert mat.shape == (7, 4)
    assert np.allclose(mat, mat[0])


def test_sample_p0_all_identity():
    rng = substream(1, 0)
    error = sample_error(50, DepolarizingChannel(0.0), rng.random(50))
    assert not error.any()


def test_sample_p1_never_identity():
    rng = substream(2, 0)
    error = sample_error(200, DepolarizingChannel(1.0), rng.random(200))
    assert (error != 0).all()


def test_sample_ebits_error_free():
    rng = substream(3, 0)
    error = sample_error(10, DepolarizingChannel(0.9), rng.random(10), n_ebits=4)
    assert error.shape == (14,)
    assert not error[10:].any()


def test_sample_frequencies_within_3_sigma():
    n = 100_000
    p = 0.1
    rng = substream(4, 0)
    error = sample_error(n, DepolarizingChannel(p), rng.random(n))
    expected = np.array([0.9, 1 / 30, 1 / 30, 1 / 30])
    counts = np.bincount(error, minlength=4)
    for symbol in range(4):
        mean = n * expected[symbol]
        sigma = np.sqrt(n * expected[symbol] * (1 - expected[symbol]))
        assert abs(counts[symbol] - mean) < 3 * sigma


def test_identical_seed_identical_sequence():
    a = sample_error(1000, DepolarizingChannel(0.2), substream(42, 0, 7).random(1000))
    b = sample_error(1000, DepolarizingChannel(0.2), substream(42, 0, 7).random(1000))
    assert np.array_equal(a, b)


def test_substreams_are_order_independent():
    chan = DepolarizingChannel(0.15)

    def draw(block):
        return sample_error(64, chan, substream(99, 0, block).random(64))

    forward = {block: draw(block) for block in range(6)}
    backward = {block: draw(block) for block in reversed(range(6))}
    for block in range(6):
        assert np.array_equal(forward[block], backward[block])


def test_distinct_keys_distinct_streams():
    a = sample_error(500, DepolarizingChannel(0.5), substream(7, 0, 0).random(500))
    b = sample_error(500, DepolarizingChannel(0.5), substream(7, 0, 1).random(500))
    assert not np.array_equal(a, b)


def test_sample_error_from_uniform_rows():
    # one row of uniforms per error, drawn from each block's substream, gives
    # each row's error as one row of uniforms alone does
    chan = DepolarizingChannel(0.3)
    uniforms = np.stack([substream(5, 0, block).random(9) for block in range(4)])
    errors = sample_error(9, chan, uniforms, n_ebits=2)
    assert errors.shape == (4, 11)
    for row, error in zip(uniforms, errors):
        assert np.array_equal(error, sample_error(9, chan, row, n_ebits=2))
    with pytest.raises(ValueError):
        sample_error(8, chan, uniforms)


@pytest.mark.parametrize("p", [0.0, 0.002, 0.75, 1.0])
def test_sample_error_matches_searchsorted(p):
    # sample_error counts the CDF entries at or below each uniform with three
    # compares; uniforms equal to each entry below 1.0 and just below every
    # entry are where a compare could differ from searchsorted's side="right"
    chan = DepolarizingChannel(p)
    cdf = np.cumsum(chan.prior())
    cdf /= cdf[-1]
    edges = [np.nextafter(bound, 0.0) for bound in cdf] + [b for b in cdf if b < 1.0]
    uniforms = np.concatenate([edges, [0.0], substream(11, 0).random(8 * 62 - len(edges) - 1)])
    uniforms = uniforms.reshape(8, 62)
    errors = sample_error(62, chan, uniforms, n_ebits=2)
    assert errors.dtype == np.uint8 and errors.shape == (8, 64)
    assert np.array_equal(errors[:, :62], symbols_by_searchsorted(chan.prior(), uniforms))
    assert not errors[:, 62:].any()


SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3)
BLOCKS = (
    list(range(1000))
    + list(range(2**32 - 500, 2**32 + 500))  # a block of 2**32 or more is two words
    + [2**40 + 7, 2**64 - 1]
)


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_uniforms_match_numpy(seed):
    # 2,002 keys per seed: the hash, the PCG64 state and the uniforms
    n = 5
    uniforms = substream_uniforms(seed, 0, BLOCKS, n)
    blocks = np.array(BLOCKS, dtype=np.uint64)
    low = blocks & np.uint64(0xFFFFFFFF)
    # entropy: the seed's words padded to the pool size, then (0, block)
    seed_words = [seed & 0xFFFFFFFF, seed >> 32 & 0xFFFFFFFF, seed >> 64, 0]
    words = channel._seed_words(seed_words + [0, low])
    for row, block in enumerate(BLOCKS):
        sequence = np.random.SeedSequence(seed, spawn_key=(0, block))
        if block < 2**32:
            assert [int(w[row]) for w in words] == sequence.generate_state(8).tolist()
        # the uint32 words paired little-endian seed PCG64 as the sequence does
        state = sequence.generate_state(8).astype(np.uint64)
        hashed = channel._HashedWords(state[0::2] | state[1::2] << np.uint64(32))
        assert np.random.PCG64(hashed).state == np.random.PCG64(sequence).state
        assert np.array_equal(uniforms[row], substream(seed, 0, block).random(n))


@pytest.mark.parametrize(
    "n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]
)
def test_hashed_words_give_only_pcg64s_request(n_words, dtype):
    words = np.random.SeedSequence(3).generate_state(4, np.uint64)
    hashed = channel._HashedWords(words)
    assert hashed.generate_state(4, np.uint64) is words
    with pytest.raises(ValueError):
        hashed.generate_state(n_words, dtype)


def test_substream_seed_must_be_an_integer():
    # a seed of 1.7 used to give substream(1, ...)'s stream, and True seed 1's
    for seed in (1.7, 1.0, "1", True, np.True_):
        with pytest.raises(ValueError, match=f"seed must be an integer, not {seed!r}"):
            substream(seed, 0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        substream(-1, 0)
    assert substream(np.uint32(1), 0).random() == substream(1, 0).random()
    # substream_uniforms follows the same rule: 1.7 used to give seed 1's rows
    for seed in (1.7, 1.0, "1", True):
        with pytest.raises(ValueError, match=f"seed must be an integer, not {seed!r}"):
            substream_uniforms(seed, 0, [0, 1], 3)


def test_substream_uniforms_rejects_negative_seed():
    with pytest.raises(ValueError):
        substream_uniforms(-1, 0, [0], 3)
