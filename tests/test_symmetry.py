"""Symmetry relations of standard BP, and of enhanced feedback under Clifford
twists.

A permutation of a code's sent qubits (its ebit columns kept in place) or of
its checks, or a single-qubit Clifford on each sent qubit (a permutation of
its X, Z and Y), leaves standard BP unchanged in exact arithmetic, and the
depolarizing priors are the same on every qubit and every non-identity
symbol, so the decoded error must transform with the code.  In floating
point the kernel sums and multiplies in another order under a permutation (a
check's slots follow its columns, a qubit's gammas its checks), so a
near-tie may go the other way.  Each relation is run on
4_1_1 and on the [[62,2]] code of perfbench/codes/c62.stab (read only), each
block run alone on the graph's idle width-1 lane kernel (Lanes.run_one) at
float32, the harness's dtype, and at float64, decode's.

Enhanced feedback (feedback_decode at float64, n_a = 12, as default_n_a
gives [[62,2]]; 4_1_1's default is 0) is run under the Clifford twist only,
each block's draws from substream(12, 1, block) under both codes: the twist
leaves every check and slot in place, so the same draws choose the same
checks and slots, and the reset of a twisted entry is the twisted reset.
Qubit and check permutations reorder the slots and frustrated lists that the
draws index, so no relation is expected under them.

The thresholds were fixed before the first run and are not tuned to it:
- the decoded error transforms with the code in at least 99% of blocks;
- strict failures (not converged, or converged to another error) that occur
  under only one of the two codes are balanced: an exact two-sided sign
  test on them gives p > 0.001;
- the module takes at most 3 s of tier-1.
"""

import itertools
import math
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from gf4bp.channel import DepolarizingChannel, priors as channel_priors, sample_error, substream
from gf4bp.decoder import idle_lanes, log_priors, tanner_graph
from gf4bp.feedback import FeedbackConfig, feedback_decode
from gf4bp.formats import load_code
from gf4bp.stabilizer import StabilizerCode, syndrome

AGREEMENT = 0.99  # least share of blocks whose decoded error transforms
SIGN_TEST_P = 0.001  # the discordant strict failures' p-value must exceed it

C62_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "codes" / "c62.stab"
ENHANCED = FeedbackConfig("enhanced", n_a=12)

# code -> (p values, blocks per p, max_iter)
CASES = {
    "4_1_1": ((0.05, 0.15), 200, 30),
    "c62": ((0.02, 0.03), 160, 90),
}


@cache
def _blocks(name):
    """The code, and per block its p, its error (gf4, all qubits) and its
    target syndrome, drawn from seed 12."""
    code = load_code(str(C62_PATH) if name == "c62" else name)
    p_values, n_blocks, _ = CASES[name]
    rng = np.random.default_rng(12)
    blocks = []
    for p in p_values:
        uniforms = rng.random((n_blocks, code.n_sent))
        errors = sample_error(DepolarizingChannel(p), uniforms, n_ebits=code.n_ebits)
        blocks.extend(zip([p] * n_blocks, errors, syndrome(code, errors)))
    return code, blocks


def _decoded(code, blocks, real, max_iter, strategy):
    """(decoded error, strict failure) per block, standard BP at dtype real,
    or enhanced feedback (ENHANCED) at float64 with block i's draws from
    substream(12, 1, i)."""
    lanes, out = idle_lanes(tanner_graph(code), 1, real), []
    for block, (p, error, target) in enumerate(blocks):
        pri = channel_priors(DepolarizingChannel(p), code.n_sent)
        if strategy == "enhanced":
            rng = substream(12, 1, block)
            outcome, _ = feedback_decode(code, target, pri, ENHANCED, max_iter, rng)
        else:
            outcome = lanes.run_one(log_priors(pri, real), target, max_iter)
        exact = outcome.converged and np.array_equal(outcome.error, error[: code.n_sent])
        out.append((outcome.error, not exact))
    return out


@cache
def _original(name, real, strategy):
    code, blocks = _blocks(name)
    return _decoded(code, blocks, real, CASES[name][2], strategy)


def _permuted(code, transform, rng):
    """The code with its sent qubits or its checks permuted at random, or the
    symbols of each sent qubit (not all the identity), and the permutation:
    sent column k of the new code is column perm[k] of the old one, check k
    is check perm[k], and symbol s on sent qubit k becomes perm[k, s]."""
    if transform == "cliffords":
        # the six permutations of (X, Z, Y) = (1, 2, 3), the identity first
        tables = np.array([(0, *p) for p in itertools.permutations((1, 2, 3))], np.uint8)
        choice = rng.integers(6, size=code.n_sent)
        while not choice.any():
            choice = rng.integers(6, size=code.n_sent)
        perm, checks = tables[choice], code.checks.copy()
        checks[:, : code.n_sent] = perm[np.arange(code.n_sent), checks[:, : code.n_sent]]
        return StabilizerCode(checks, n_ebits=code.n_ebits), perm
    n = code.n_sent if transform == "qubits" else code.n_checks
    perm = rng.permutation(n)
    while np.array_equal(perm, np.arange(n)):
        perm = rng.permutation(n)
    if transform == "qubits":
        checks = code.checks[:, np.concatenate([perm, np.arange(n, code.n_total)])]
    else:
        checks = code.checks[perm]
    return StabilizerCode(checks, n_ebits=code.n_ebits), perm


def sign_test(a: int, b: int) -> float:
    """The exact two-sided sign test's p-value for a against b discordant pairs."""
    n = a + b
    tail = sum(math.comb(n, i) for i in range(min(a, b) + 1)) / 2**n
    return min(1.0, 2 * tail)


def test_sign_test():
    assert sign_test(0, 0) == 1.0
    assert sign_test(3, 3) == 1.0
    assert sign_test(0, 10) == sign_test(10, 0) == 2 / 1024
    assert sign_test(1, 4) == 2 * 6 / 32


_TRANSFORMS = ("qubits", "checks", "cliffords")
_RUNS = [(name, transform, real, "standard") for name in CASES for transform in _TRANSFORMS
         for real in (np.float32, np.float64)]
_RUNS += [(name, "cliffords", np.float64, "enhanced") for name in CASES]
_IDS = ["-".join((name, transform, real.__name__) + (strategy,) * (strategy != "standard"))
        for name, transform, real, strategy in _RUNS]


@cache
def _runs(name, transform, real, strategy):
    """(decoded error, strict failure) per block under the code and under its
    permuted twin, the twin's decoded errors mapped back to the code's qubit
    order or symbols."""
    code, blocks = _blocks(name)
    twisted, perm = _permuted(code, transform, np.random.default_rng(7))
    if transform == "qubits":  # the error moves with the columns, the syndrome stays
        moved = [np.concatenate([e[perm], e[code.n_sent :]]) for _, e, _ in blocks]
        blocks = [(p, e, t) for (p, _, t), e in zip(blocks, moved)]
    elif transform == "cliffords":  # the error moves with the symbols, the syndrome stays
        sent = np.arange(code.n_sent)
        moved = [np.concatenate([perm[sent, e[sent]], e[code.n_sent :]]) for _, e, _ in blocks]
        blocks = [(p, e, t) for (p, _, t), e in zip(blocks, moved)]
    else:  # the syndrome moves with the checks, the error stays
        blocks = [(p, e, t[perm]) for p, e, t in blocks]
    assert np.array_equal(syndrome(twisted, np.array([e for _, e, _ in blocks])),
                          [t for _, _, t in blocks])
    turned = _decoded(twisted, blocks, real, CASES[name][2], strategy)
    if transform == "qubits":
        turned = [(e_out[np.argsort(perm)], failed) for e_out, failed in turned]
    elif transform == "cliffords":  # each row of perm fixes 0, so argsort inverts it
        inverse = np.argsort(perm, axis=1)
        turned = [(inverse[sent, e_out], failed) for e_out, failed in turned]
    return _original(name, real, strategy), turned


# At the first run, [[62,2]] at float32 gave 314 of 320 blocks under either
# permutation, below AGREEMENT.  In each of the six blocks that differ the
# plain code's run reaches the 90-iteration cap unconverged, and float32
# rounding in another order takes the oscillating run elsewhere.  A standing
# defect, recorded in CHANGES.md; strict, so a fix fails the suite until the
# mark goes.  Under a Clifford twist every block agrees, at either dtype.
_FLOAT32_ORDER = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="float32 standard BP on [[62,2]] depends on qubit and check order in 6 of 320 blocks",
)
# At the first run, enhanced feedback on 4_1_1 gave 395 of 400 blocks under
# the twist, below AGREEMENT.  In each of the five blocks that differ, a
# restart's beliefs on qubit 0 tie exactly between Z and Y, the two symbols
# its enhanced reset gives equal mass (a prior of 0.075, 0.075, 0.425,
# 0.425), and the hard decision breaks ties in I, X, Z, Y order, which the
# twin's X <-> Y swap on that qubit does not keep.  A standing defect,
# recorded in CHANGES.md; strict, so a fix fails the suite until the mark
# goes.  [[62,2]] agrees in every block.
_ENHANCED_TIES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="enhanced resets on 4_1_1 leave exact belief ties, broken in label order",
)


def _marks(name, transform, real, strategy):
    if strategy == "enhanced":
        return _ENHANCED_TIES if name == "4_1_1" else ()
    float32_order = name == "c62" and real is np.float32 and transform != "cliffords"
    return _FLOAT32_ORDER if float32_order else ()


@pytest.mark.parametrize(
    "name, transform, real, strategy",
    [pytest.param(*run, marks=_marks(*run)) for run in _RUNS],
    ids=_IDS,
)
def test_decoded_error_transforms_with_the_code(name, transform, real, strategy):
    plain, turned = _runs(name, transform, real, strategy)
    agree = sum(np.array_equal(a, b) for (a, _), (b, _) in zip(plain, turned, strict=True))
    assert agree >= AGREEMENT * len(plain), f"{agree} of {len(plain)} blocks transform"


@pytest.mark.parametrize("name, transform, real, strategy", _RUNS, ids=_IDS)
def test_strict_failures_under_one_code_are_balanced(name, transform, real, strategy):
    plain, turned = _runs(name, transform, real, strategy)
    assert sum(failed for _, failed in plain) > 0  # the relation is not empty
    only_plain = sum(a and not b for (_, a), (_, b) in zip(plain, turned, strict=True))
    only_turned = sum(b and not a for (_, a), (_, b) in zip(plain, turned, strict=True))
    assert sign_test(only_plain, only_turned) > SIGN_TEST_P, (only_plain, only_turned)
