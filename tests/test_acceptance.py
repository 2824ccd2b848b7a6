"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 8 runs a ~5000-block Monte-Carlo comparison and takes a couple of
minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from gf4bp import gf4
from gf4bp.channel import DepolarizingChannel, priors as channel_priors, substream
from gf4bp.decoder import DecodeOutcome, decode
from gf4bp.feedback import FeedbackConfig, feedback_round
from gf4bp.sim import ExperimentSpec, format_csv, run_experiment
from gf4bp.stabilizer import (
    StabilizerCode,
    build_code_4_1_1,
    construction_b,
    ea_canonicalize,
    extend_with_ebits,
    group_membership,
    quaternary_to_pauli,
    syndrome,
)

from oracles import (
    add,
    enumerate_group,
    exact_marginals,
    flooding_hard_decisions,
    hard_decision,
    mul,
    random_tree_code,
)

TARGET_411 = np.array([-1, 1, 1, 1])


def _report(criterion, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status} ({elapsed:.3f}s) {detail}")


def test_criterion_1_gf4_tables():
    addition = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    multiplication = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    start = time.perf_counter()
    add_ok = all(
        add(a, b) == addition[a][b] for a in range(4) for b in range(4)
    )
    mul_ok = all(
        mul(a, b) == multiplication[a][b] for a in range(4) for b in range(4)
    )
    elapsed = time.perf_counter() - start
    ok = add_ok and mul_ok and elapsed < 1e-3
    _report(1, ok, elapsed, "all 32 table entries exact")
    assert add_ok and mul_ok
    assert elapsed < 1e-3


def test_criterion_2_golden_pipeline():
    start = time.perf_counter()
    h_c = np.array([[1, 2, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)
    canonical, pair_count = ea_canonicalize(quaternary_to_pauli(h_c))
    built = extend_with_ebits(canonical, pair_count)
    reference = build_code_4_1_1()
    group_equal = enumerate_group(built) == enumerate_group(reference)
    elapsed = time.perf_counter() - start
    ok = group_equal and pair_count == 1 and built.n_sent == 4 and built.n_ebits == 1
    _report(2, ok, elapsed, f"pipeline group equals the worked code, c={pair_count}")
    assert pair_count == 1
    assert group_equal
    assert elapsed < 1.0


def test_criterion_3_standard_bp_case_study():
    # Standard BP on the worked instance never converges: its hard decision
    # oscillates, and the detected error IYII (syndrome all -1) that criteria
    # 4 and 5 start from is one of the states it passes through.  The
    # readout after 90 iterations is pinned to an independent brute-force
    # flooding sum-product rather than to a single phase of the oscillation.
    code = build_code_4_1_1()
    priors = channel_priors(DepolarizingChannel(0.1), 4)
    trajectory = []
    start = time.perf_counter()
    outcome = decode(
        code, TARGET_411, priors, max_iter=90,
        on_iteration=lambda t, b: trajectory.append(hard_decision(b)),
    )
    elapsed = time.perf_counter() - start
    want = flooding_hard_decisions(code, TARGET_411, priors, 90)
    trajectory = np.array(trajectory)
    matches_oracle = np.array_equal(trajectory, want) and np.array_equal(
        outcome.error, want[-1]
    )
    detected = gf4.pauli_to_values("IYII")
    detected_at = [
        t + 1 for t, e_hat in enumerate(trajectory) if np.array_equal(e_hat, detected)
    ]
    detected_syndrome = syndrome(code, code.embed_sent(detected)).tolist()
    ok = (
        not outcome.converged
        and outcome.iterations == 90
        and matches_oracle
        and bool(detected_at)
        and detected_syndrome == [-1, -1, -1, -1]
    )
    _report(
        3, ok, elapsed,
        f"standard BP stalls; readout {outcome.error_pauli} at 90 "
        f"(oracle {gf4.values_to_pauli(want[-1])}), IYII at iterations {detected_at}",
    )
    assert not outcome.converged
    assert outcome.iterations == 90
    assert elapsed < 1.0
    assert trajectory.shape == want.shape
    mismatched = [
        t + 1 for t in range(len(want)) if not np.array_equal(trajectory[t], want[t])
    ]
    assert not mismatched, f"hard decisions differ from the oracle at {mismatched}"
    assert np.array_equal(outcome.error, want[-1])
    assert detected_syndrome == [-1, -1, -1, -1]
    assert detected_at, "the detected error IYII never appears in the trajectory"


def _detected_outcome(code):
    """The case study's detected error IYII as the working outcome of a
    round, with its frustrated checks against TARGET_411."""
    detected = gf4.pauli_to_values("IYII")
    frustrated = syndrome(code, code.embed_sent(detected)) != TARGET_411
    return DecodeOutcome(detected, False, 0, frustrated)


def test_criterion_4_enhanced_feedback_case_study():
    code = build_code_4_1_1()
    priors = channel_priors(DepolarizingChannel(0.1), 4)
    detected = _detected_outcome(code)  # the case study's detected error
    start = time.perf_counter()
    outcome, record = feedback_round(
        code,
        TARGET_411,
        priors,
        check=1,
        qubit=3,
        config=FeedbackConfig(strategy="enhanced", t_pert=40),
        current=detected,
    )
    elapsed = time.perf_counter() - start
    ok = (
        outcome.converged
        and outcome.error_pauli == "IIZX"
        and outcome.iterations <= 40
    )
    _report(
        4, ok, elapsed,
        f"enhanced reset of qubit 4 via check 2 -> {outcome.error_pauli} "
        f"in {outcome.iterations} iterations",
    )
    assert outcome.converged
    assert outcome.error_pauli == "IIZX"
    assert outcome.iterations <= 40
    assert record.outcome == "converged"
    assert elapsed < 1.0


def test_criterion_5_pc08_case_study():
    code = build_code_4_1_1()
    priors = channel_priors(DepolarizingChannel(0.1), 4)
    detected = _detected_outcome(code)
    config = FeedbackConfig(strategy="pc08", t_pert=40, delta=1.0)
    check = 1  # S_2; its sender qubits are 1, 2 and 4
    qubits = [0, 1, 3]
    budget = 12
    start = time.perf_counter()
    successes = 0
    for seed in range(100):
        rng = substream(seed, 5)
        converged = False
        for trial in range(budget):
            outcome, _ = feedback_round(
                code, TARGET_411, priors, check, qubits[trial % 3], config,
                rng=rng, current=detected,
            )
            if outcome.converged:
                converged = True
                break
        successes += converged
    elapsed = time.perf_counter() - start
    ok = successes <= 5 and elapsed < 10.0
    _report(
        5, ok, elapsed,
        f"pc08 delta=1 on the qubits of check 2 failed {100 - successes}/100 seeds",
    )
    assert successes <= 5
    assert elapsed < 10.0


def test_criterion_6_degeneracy_identity():
    code = build_code_4_1_1()
    start = time.perf_counter()
    product = np.bitwise_xor(
        gf4.pauli_to_values("IIZXI"), gf4.pauli_to_values("YZIII")
    )
    is_third_generator = gf4.values_to_pauli(product) == "YZZXI"
    member = group_membership(product, code)
    matches_row = product.tolist() == code.checks[2].tolist()
    elapsed = time.perf_counter() - start
    ok = is_third_generator and member and matches_row
    _report(6, ok, elapsed, "IIZXI * YZIII = YZZXI, the third generator")
    assert is_third_generator and member and matches_row


def test_criterion_7_bp_exactness_oracle():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for index in range(50):
        if index % 2 == 0:
            n = int(rng.integers(2, 7))
            row = rng.integers(0, 4, size=n).astype(np.uint8)
            if not row.any():
                row[0] = 1
            code = StabilizerCode(row[None, :], n_sent=n)
        else:
            code = random_tree_code(rng)
        priors = channel_priors(DepolarizingChannel(0.1), code.n_sent)
        error = np.zeros(code.n_total, dtype=np.uint8)
        error[: code.n_sent] = rng.integers(0, 4, size=code.n_sent)
        target = syndrome(code, error)
        marginals, mass = exact_marginals(code, target, priors)
        assert mass > 0
        history = []
        decode(
            code, target, priors, max_iter=2 * code.n_sent + 4,
            on_iteration=lambda t, b: history.append(b), halt=False,
        )
        worst = max(worst, float(np.abs(history[-1] - marginals).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8
    _report(7, ok, elapsed, f"50 tree/single-check codes, worst deviation {worst:.2e}")
    assert worst < 1e-8


ORDERING_SEED = 20260808
ORDERING_P = (0.02, 0.03)


@pytest.fixture(scope="module")
def ordering_experiment():
    row = np.zeros(31, dtype=np.uint8)
    row[[1, 5, 11, 24, 25, 27]] = 1
    code = construction_b(row)
    assert 60 <= code.n_sent <= 126
    spec = ExperimentSpec(
        code=code,
        p_values=ORDERING_P,
        strategies=("standard", "pc08", "enhanced"),
        blocks=5000,
        seed=ORDERING_SEED,
        workers=2,
    )
    start = time.perf_counter()
    stats, blocks = run_experiment(spec)
    return stats, blocks, time.perf_counter() - start


def test_criterion_8_strategy_ordering(ordering_experiment):
    stats, _, elapsed = ordering_experiment
    by = {(s.p, s.strategy): s for s in stats}
    ok = True
    details = []
    for p in ORDERING_P:
        std = by[(p, "standard")]
        pc = by[(p, "pc08")]
        enh = by[(p, "enhanced")]
        in_band = 0.01 <= std.ber <= 0.3
        ordered = enh.ber < pc.ber <= std.ber
        separated = enh.ber_hi < std.ber_lo
        faster = enh.anoi <= pc.anoi
        ok = ok and in_band and ordered and separated and faster
        details.append(
            f"p={p:g}: BER std={std.ber:.4f} pc08={pc.ber:.4f} enh={enh.ber:.4f}, "
            f"ANoI pc08={pc.anoi:.1f} enh={enh.anoi:.1f}"
        )
        assert in_band, f"standard BER {std.ber} outside [0.01, 0.3] at p={p}"
        assert ordered, f"ordering violated at p={p}: {enh.ber} {pc.ber} {std.ber}"
        assert separated, (
            f"Wilson intervals overlap at p={p}: enhanced hi {enh.ber_hi} vs "
            f"standard lo {std.ber_lo}"
        )
        assert faster, f"ANoI ordering violated at p={p}: {enh.anoi} > {pc.anoi}"
    ok = ok and elapsed < 1800
    _report(8, ok, elapsed, "; ".join(details))
    assert elapsed < 1800


def test_criterion_9_failure_conversion(ordering_experiment):
    _, blocks, _ = ordering_experiment
    indexed = {}
    for b in blocks:
        indexed.setdefault((b.p, b.strategy), {})[b.block] = b
    to_exact = 0
    to_nonequivalent = 0
    for p in ORDERING_P:
        std = indexed[(p, "standard")]
        enhanced = indexed[(p, "enhanced")]
        for block_id, b in std.items():
            if b.converged:
                continue
            result = enhanced[block_id].outcome
            if result == "exact":
                to_exact += 1
            elif result == "nonequivalent":
                to_nonequivalent += 1
    ok = to_exact > to_nonequivalent
    _report(
        9, ok, 0.0,
        f"standard failures -> enhanced: exact={to_exact}, "
        f"nonequivalent={to_nonequivalent}",
    )
    assert to_exact > to_nonequivalent


def test_criterion_10_determinism_across_workers():
    row = np.zeros(31, dtype=np.uint8)
    row[[1, 5, 11, 24, 25, 27]] = 1
    code = construction_b(row)
    kwargs = dict(
        code=code, p_values=(0.03,), strategies=("standard", "enhanced"),
        blocks=150, seed=99,
    )
    start = time.perf_counter()
    serial, _ = run_experiment(ExperimentSpec(workers=1, **kwargs))
    parallel, _ = run_experiment(ExperimentSpec(workers=2, **kwargs))
    repeat, _ = run_experiment(ExperimentSpec(workers=1, **kwargs))
    elapsed = time.perf_counter() - start
    csv_serial = format_csv(serial)
    ok = csv_serial == format_csv(parallel) == format_csv(repeat)
    _report(10, ok, elapsed, "CSV byte-identical across reruns and worker counts")
    assert csv_serial == format_csv(parallel)
    assert csv_serial == format_csv(repeat)
