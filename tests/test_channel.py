import numpy as np
import pytest

from gf4bp import channel
from gf4bp.channel import (
    DepolarizingChannel,
    keyed_uniforms,
    priors,
    sample_error,
    substream,
    substream_keys,
    substream_uniforms,
)

from oracles import block_uniforms, symbols_by_searchsorted


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
    error = sample_error(DepolarizingChannel(0.0), rng.random(50))
    assert not error.any()


def test_sample_p1_never_identity():
    rng = substream(2, 0)
    error = sample_error(DepolarizingChannel(1.0), rng.random(200))
    assert (error != 0).all()


def test_sample_ebits_error_free():
    rng = substream(3, 0)
    error = sample_error(DepolarizingChannel(0.9), rng.random(10), n_ebits=4)
    assert error.shape == (14,)
    assert not error[10:].any()


def test_sample_frequencies_within_3_sigma():
    n = 100_000
    p = 0.1
    rng = substream(4, 0)
    error = sample_error(DepolarizingChannel(p), rng.random(n))
    expected = np.array([0.9, 1 / 30, 1 / 30, 1 / 30])
    counts = np.bincount(error, minlength=4)
    for symbol in range(4):
        mean = n * expected[symbol]
        sigma = np.sqrt(n * expected[symbol] * (1 - expected[symbol]))
        assert abs(counts[symbol] - mean) < 3 * sigma


def test_identical_seed_identical_sequence():
    a = sample_error(DepolarizingChannel(0.2), substream_uniforms(42, 0, [7], 1000))
    b = sample_error(DepolarizingChannel(0.2), substream_uniforms(42, 0, [7], 1000))
    assert np.array_equal(a, b)


def test_substreams_are_order_independent():
    # key purity: a block's row depends on its key alone, not on the other
    # blocks of its batch, their order or whether they are one word or two
    blocks = [3, 2**32 + 5, 0, 2**40 + 1, 7, 2**32 - 1, 2**32]
    rows = substream_uniforms(99, 0, blocks, 64)
    order = np.random.default_rng(0).permutation(len(blocks))
    shuffled = substream_uniforms(99, 0, np.array(blocks, dtype=np.uint64)[order], 64)
    assert np.array_equal(shuffled, rows[order])
    for block, row in zip(blocks, rows):
        assert np.array_equal(substream_uniforms(99, 0, [block], 64)[0], row)
        assert np.array_equal(substream_uniforms(99, 0, [block, 1, 2**33], 64)[0], row)


@pytest.mark.parametrize(
    "lo, hi, cut", [(0, 40, 24), (2**32 - 20, 2**32 + 20, 2**32 + 5)],
    ids=["window-ends-in-a-batch", "straddles-2**32"],
)
def test_key_windows_compose_to_the_stream(lo, hi, cut):
    # substream_uniforms is keyed_uniforms of substream_keys, so keys hashed a
    # window at a time serve any batch: here two windows split at cut, read
    # in batches of 16, one of which the first window's end cuts; the second
    # range holds one-word blocks below 2**32 and two-word blocks from it
    keys = np.concatenate(
        [substream_keys(99, 3, range(lo, cut)), substream_keys(99, 3, range(cut, hi))]
    )
    assert keys.dtype == np.uint64 and keys.shape == (hi - lo, 2)
    assert np.array_equal(keys, substream_keys(99, 3, range(lo, hi)))
    for first in range(lo, hi, 16):
        batch = range(first, min(first + 16, hi))
        uniforms = keyed_uniforms(keys[first - lo : batch.stop - lo], 62)
        assert np.array_equal(uniforms, substream_uniforms(99, 3, batch, 62))


def test_distinct_keys_distinct_streams():
    chan = DepolarizingChannel(0.5)
    a, b = sample_error(chan, substream_uniforms(7, 0, [0, 1], 500))
    assert not np.array_equal(a, b)
    (c,) = sample_error(chan, substream_uniforms(7, 1, [0], 500))
    (d,) = sample_error(chan, substream_uniforms(8, 0, [0], 500))
    assert not np.array_equal(a, c) and not np.array_equal(a, d)


def test_sample_error_from_uniform_rows():
    # one row of uniforms per error, as substream_uniforms draws one per
    # block, gives each row's error as one row of uniforms alone does
    chan = DepolarizingChannel(0.3)
    uniforms = substream_uniforms(5, 0, range(4), 9)
    errors = sample_error(chan, uniforms, n_ebits=2)
    assert errors.shape == (4, 11)
    for row, error in zip(uniforms, errors):
        assert np.array_equal(error, sample_error(chan, row, n_ebits=2))
    # the width is the uniforms' last axis, so 0-d uniforms have none
    with pytest.raises(ValueError, match="^uniforms must have a qubit axis, not be 0-d$"):
        sample_error(chan, uniforms[0, 0])


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
    errors = sample_error(chan, uniforms, n_ebits=2)
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
    # 2,002 keys per seed, one batch of blocks below and above 2**32: the
    # vectorised key hash gives numpy's SeedSequence state words, and every
    # row is the Python-integer oracle's
    n = 5
    uniforms = substream_uniforms(seed, 0, BLOCKS, n)
    blocks = np.array(BLOCKS, dtype=np.uint64)
    low, high = blocks & np.uint64(0xFFFFFFFF), blocks >> np.uint64(32)
    # entropy: the seed's words padded to the pool size, then (0, block)
    seed_words = [seed & 0xFFFFFFFF, seed >> 32 & 0xFFFFFFFF, seed >> 64, 0]
    narrow = channel._seed_words(seed_words + [0, low])
    wide = channel._seed_words(seed_words + [0, low, high])
    for row, block in enumerate(BLOCKS):
        words = narrow if block < 2**32 else wide
        state = np.random.SeedSequence(seed, spawn_key=(0, block)).generate_state(4)
        assert [int(w[row]) for w in words] == state.tolist()
        assert np.array_equal(uniforms[row], block_uniforms(seed, block, n))


@pytest.mark.parametrize("domain", [1, 2, 2**32 + 9])
def test_substream_uniforms_match_the_oracle_in_other_domains(domain):
    # a domain of 2**32 or more is two words of the key, as a block is
    blocks = [0, 5, 2**32 + 3]
    uniforms = substream_uniforms(20260808, domain, blocks, 7)
    for row, block in zip(uniforms, blocks):
        assert np.array_equal(row, block_uniforms(20260808, block, 7, domain=domain))
    assert not np.array_equal(uniforms, substream_uniforms(20260808, 0, blocks, 7))


def test_substream_uniforms_empty_shapes():
    assert substream_uniforms(1, 0, [], 62).shape == (0, 62)
    assert substream_uniforms(1, 0, [0, 2**32], 0).shape == (2, 0)


def test_stream_symbol_frequencies_match_the_channel():
    # 248,000 symbols at p = 0.3 from blocks on both sides of 2**32:
    # chi-square on 3 degrees of freedom below its 0.1% point, 16.27
    chan = DepolarizingChannel(0.3)
    blocks = range(2**32 - 2000, 2**32 + 2000)
    errors = sample_error(chan, substream_uniforms(20260808, 0, blocks, 62))
    counts = np.bincount(errors.ravel(), minlength=4)
    expected = errors.size * chan.prior()
    assert ((counts - expected) ** 2 / expected).sum() < 16.27


@pytest.mark.parametrize("axis", [1, 0], ids=["adjacent_symbols", "adjacent_blocks"])
def test_stream_uniforms_uncorrelated(axis):
    # Pearson correlation of N pairs of uniforms one symbol or one block
    # apart, within 4 / sqrt(N) of 0
    u = substream_uniforms(20260808, 0, range(2**32 - 2000, 2**32 + 2000), 62)
    a, b = np.delete(u, -1, axis=axis), np.delete(u, 0, axis=axis)
    r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(r) < 4 / np.sqrt(a.size)
    assert 0.0 <= u.min() and u.max() < 1.0


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
    with pytest.raises(ValueError, match="seed keys must be nonnegative, got -1"):
        substream_keys(0, -1, [0])
