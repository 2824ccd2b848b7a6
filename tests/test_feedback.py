import numpy as np
import pytest

from gf4bp.channel import (
    DepolarizingChannel,
    priors as channel_priors,
    sample_error,
    substream,
)
from gf4bp.decoder import DecodeOutcome, TannerGraph, decode
from gf4bp.feedback import (
    FeedbackConfig,
    adjust,
    default_n_a,
    enhanced_reset,
    feedback_decode,
    feedback_round,
    feedback_rounds,
    pc08_perturb,
)
from gf4bp.stabilizer import StabilizerCode, build_code_4_1_1, construction_b, syndrome

from oracles import frustrated_checks

TARGET = np.array([-1, 1, 1, 1])


@pytest.fixture
def code411():
    return build_code_4_1_1()


@pytest.fixture
def priors411():
    return channel_priors(DepolarizingChannel(0.1), 4)


def test_default_n_a_tiers():
    assert default_n_a(126) == 25
    assert default_n_a(810) == 81
    assert default_n_a(1720) == 43
    assert default_n_a(4) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(strategy="nope")
    with pytest.raises(ValueError):
        FeedbackConfig(strategy="pc08", t_pert=0)
    with pytest.raises(ValueError):
        FeedbackConfig(strategy="pc08", n_a=-1)
    with pytest.raises(ValueError):
        FeedbackConfig(strategy="pc08", delta=-0.5)
    # a NaN delta used to run every pc08 round on NaN priors
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
            FeedbackConfig(strategy="pc08", delta=delta)


def test_frustrated_checks(code411):
    # a matching output frustrates nothing
    e = code411.embed_sent("IIZX")
    assert frustrated_checks(code411, TARGET, e[:4]).size == 0
    # IYII has syndrome (-1,-1,-1,-1): checks 2..4 (0-based 1..3) disagree
    iyii = np.array([0, 3, 0, 0], dtype=np.uint8)
    assert frustrated_checks(code411, TARGET, iyii).tolist() == [1, 2, 3]
    # the all-identity output only violates the first check
    assert frustrated_checks(code411, TARGET, np.zeros(4, dtype=np.uint8)).tolist() == [0]


def test_enhanced_reset_branches():
    # entry X, s_c=-1, output commutes: bias toward anticommuting
    reset = enhanced_reset(1, -1, 1, 0.9)
    assert np.allclose(reset, [0.05, 0.05, 0.45, 0.45])
    # entry X, s_c=+1, output anticommutes: bias toward commuting
    reset = enhanced_reset(1, 1, -1, 0.9)
    assert np.allclose(reset, [0.45, 0.45, 0.05, 0.05])
    # entry Z shares with Z instead of X
    reset = enhanced_reset(2, -1, 1, 0.9)
    assert np.allclose(reset, [0.05, 0.45, 0.05, 0.45])


def test_enhanced_reset_properties():
    rng = np.random.default_rng(51)
    for _ in range(50):
        entry = int(rng.integers(1, 4))
        s_c, dot = (-1, 1) if rng.random() < 0.5 else (1, -1)
        p_identity = float(rng.random())
        reset = enhanced_reset(entry, s_c, dot, p_identity)
        assert abs(reset.sum() - 1.0) < 1e-15
        assert reset[0] == reset[entry]
        others = [i for i in (1, 2, 3) if i != entry]
        assert reset[others[0]] == reset[others[1]]
        if s_c == -1 and p_identity > 0.5:
            assert reset[others[0]] + reset[others[1]] == pytest.approx(p_identity)
            assert reset[others[0]] + reset[others[1]] > 0.5


def test_enhanced_reset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        enhanced_reset(0, -1, 1, 0.9)
    with pytest.raises(ValueError):
        enhanced_reset(1, 1, 1, 0.9)
    with pytest.raises(ValueError):
        enhanced_reset(1, -1, -1, 0.9)


def test_pc08_perturb():
    prior = np.array([0.9, 1 / 30, 1 / 30, 1 / 30])
    rng = substream(1, 2, 3)
    assert np.allclose(pc08_perturb(prior, 0.0, rng), prior)

    class OnesRng:
        def random(self, size):
            return np.ones(size)

    perturbed = pc08_perturb(prior, 1.0, OnesRng())
    expected = np.array([0.9, 1 / 15, 1 / 15, 1 / 15]) / 1.1
    assert np.allclose(perturbed, expected)

    rng = substream(5, 6)
    for _ in range(20):
        out = pc08_perturb(prior, 0.7, rng)
        assert out[0] < prior[0]  # identity mass shrinks after renormalizing
        assert abs(out.sum() - 1.0) < 1e-12

    # a NaN delta used to return all-NaN priors; nothing is drawn
    state = rng.bit_generator.state
    for delta in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
            pc08_perturb(prior, delta, rng)
    assert rng.bit_generator.state == state


def test_pc08_perturb_rows_equal_the_per_row_loop():
    # A pc08 round draws for all its qubits at once; the draws, the
    # normalized rows and the generator state after must equal perturbing
    # one row at a time with 3 uniforms each (the loop kept here).
    def one_row(prior, delta, rng):
        out = np.asarray(prior, dtype=float).copy()
        out[1:] *= 1.0 + delta * rng.random(3)
        return out / out.sum()

    shapes = np.random.default_rng(8)
    for seed in range(300):
        rows = shapes.random((int(shapes.integers(1, 13)), 4)) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        for delta in (0.0, 0.1, 0.7, 1.0):
            batch_rng, loop_rng = substream(seed, 1), substream(seed, 1)
            batch = pc08_perturb(rows, delta, batch_rng)
            loop = np.array([one_row(row, delta, loop_rng) for row in rows])
            assert np.array_equal(batch, loop)
            assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
            assert np.array_equal(
                pc08_perturb(rows[0], delta, substream(seed, 2)),
                one_row(rows[0], delta, substream(seed, 2)),
            )


def test_enhanced_round_case_study(code411, priors411):
    # standard BP fails; the detected error IYII leaves checks 2..4
    # frustrated, and resetting qubit 4 via frustrated check 2 converges to
    # the true error IIZX in three iterations
    first = decode(code411, TARGET, priors411, max_iter=88)
    assert not first.converged
    assert first.error_pauli == "IYII"
    assert frustrated_checks(code411, TARGET, first.error).tolist() == [1, 2, 3]
    assert first.frustrated.tolist() == [False, True, True, True]
    config = FeedbackConfig(strategy="enhanced", t_pert=40)
    before = priors411.copy()
    outcome, record = feedback_round(
        code411, TARGET, priors411, check=1, qubit=3, config=config,
        current=first,
    )
    assert outcome.converged
    assert outcome.iterations == 3
    assert outcome.error_pauli == "IIZX"
    assert record.outcome == "converged"
    # the round installed the enhanced reset on qubit 4 alone
    assert record.qubits_touched.tolist() == [3]
    assert np.allclose(record.applied, [[0.45, 0.45, 0.05, 0.05]])
    assert np.array_equal(priors411, before)


def test_round_reads_the_current_outcomes_mask(code411, priors411):
    # feedback_round takes enhanced's frustration pattern from the working
    # outcome's mask, not from a syndrome of its error: IYII with check 2's
    # bit cleared makes (s_c, sc_dot) = (+1, +1), which is no frustrated
    # pattern, while the true mask converges (test_enhanced_round_case_study)
    iyii = np.array([0, 3, 0, 0], dtype=np.uint8)
    mask = np.array([False, False, True, True])
    current = DecodeOutcome(iyii, False, 90, mask)
    config = FeedbackConfig(strategy="enhanced", t_pert=40)
    with pytest.raises(ValueError, match="not a frustrated pattern"):
        feedback_round(code411, TARGET, priors411, 1, 3, config, current)


def test_pc08_round_case_study_fails(code411, priors411):
    first = decode(code411, TARGET, priors411, max_iter=90)
    config = FeedbackConfig(strategy="pc08", t_pert=40, delta=1.0)
    before = priors411.copy()
    failures = 0
    for seed in range(40):
        outcome, record = feedback_round(
            code411, TARGET, priors411, check=1, qubit=0, config=config,
            rng=substream(seed, 0), current=first,
        )
        if not outcome.converged:
            failures += 1
            assert np.array_equal(priors411, before)
            assert record.applied.shape == (3, 4)
            assert not np.array_equal(record.applied, priors411[[0, 1, 3]])
    assert failures == 40
    # the pc08 round perturbs every qubit of the chosen check
    _, record = feedback_round(
        code411, TARGET, priors411, check=1, qubit=0, config=config,
        rng=substream(0, 0), current=first,
    )
    assert record.qubits_touched.tolist() == [0, 1, 3]


def test_failed_round_restores_priors_bit_exactly(code411, priors411):
    first = decode(code411, TARGET, priors411, max_iter=90)
    config = FeedbackConfig(strategy="pc08", t_pert=5, delta=1.0)
    before = priors411.copy()
    _, record = feedback_round(
        code411, TARGET, priors411, check=1, qubit=0, config=config,
        rng=substream(8, 1), current=first,
    )
    assert record.outcome in ("restored", "check_satisfied")
    assert record.qubits_touched.tolist() == [0, 1, 3]
    assert not np.array_equal(record.applied, before[[0, 1, 3]])
    assert np.array_equal(priors411, before)


def test_feedback_decode_zero_budget_equals_standard(code411, priors411):
    plain = decode(code411, TARGET, priors411, max_iter=90)
    for strategy in ("pc08", "enhanced"):
        config = FeedbackConfig(strategy=strategy, n_a=0)
        outcome, records = feedback_decode(
            code411, TARGET, priors411, config, max_iter=90, rng=substream(0, 0)
        )
        assert records == []
        assert outcome.converged == plain.converged
        assert outcome.iterations == plain.iterations
        assert outcome.error.tolist() == plain.error.tolist()


def test_feedback_decode_enhanced_finds_valid_output(code411, priors411):
    config = FeedbackConfig(strategy="enhanced", t_pert=40, n_a=12)
    outcome, records = feedback_decode(
        code411, TARGET, priors411, config, max_iter=90, rng=substream(123, 0)
    )
    assert outcome.converged
    full = code411.embed_sent(outcome.error)
    assert syndrome(code411, full).tolist() == TARGET.tolist()
    assert len(records) <= 12
    assert outcome.iterations == 90 + sum(r.iterations for r in records)


def test_feedback_decode_budget_respected(code411, priors411):
    config = FeedbackConfig(strategy="pc08", t_pert=10, n_a=5, delta=1.0)
    outcome, records = feedback_decode(
        code411, TARGET, priors411, config, max_iter=90, rng=substream(9, 9)
    )
    assert len(records) <= 5
    assert outcome.iterations == 90 + sum(r.iterations for r in records)


def test_feedback_decode_replayable(code411, priors411):
    config = FeedbackConfig(strategy="pc08", t_pert=15, n_a=6, delta=0.5)

    def run():
        return feedback_decode(
            code411, TARGET, priors411, config, max_iter=90, rng=substream(77, 3)
        )

    (out_a, rec_a), (out_b, rec_b) = run(), run()
    assert out_a.error.tolist() == out_b.error.tolist()
    assert out_a.iterations == out_b.iterations
    assert len(rec_a) == len(rec_b)
    for a, b in zip(rec_a, rec_b):
        assert (a.check, a.qubit, a.outcome, a.iterations) == (
            b.check, b.qubit, b.outcome, b.iterations,
        )
        assert np.array_equal(a.applied, b.applied)


def test_feedback_decode_converged_first_run_has_no_rounds():
    # Blocks of the [[62,2]] code at p=0.06 whose standard run converges:
    # feedback_decode returns that run as it is, with no round.
    code = construction_b([1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)])
    chan = DepolarizingChannel(0.06)
    pri = channel_priors(chan, code.n_sent)
    converged = 0
    for block in range(10):
        error = sample_error(code.n_sent, chan, substream(5, 0, block).random(code.n_sent))
        target = syndrome(code, error)
        first = decode(code, target, pri, max_iter=90)
        if not first.converged:
            continue
        converged += 1
        for strategy in ("pc08", "enhanced"):
            outcome, records = feedback_decode(
                code, target, pri, FeedbackConfig(strategy=strategy),
                rng=substream(5, 1, 0, 0, block),
            )
            assert records == []
            assert outcome.error.tolist() == first.error.tolist()
            assert (outcome.converged, outcome.iterations) == (True, first.iterations)
    assert converged >= 3


def test_feedback_decode_requires_feedback_strategy():
    # standard BP has no FeedbackConfig, so no feedback run can be given one
    # (it was refused when the run started)
    with pytest.raises(ValueError, match="'standard' is not a feedback strategy"):
        FeedbackConfig(strategy="standard")


@pytest.mark.parametrize("strategy", ["pc08", "enhanced"])
@pytest.mark.parametrize(
    "check, qubit, message",
    [(-1, 0, "out of range"), (4, 0, "out of range"), (1, 2, "not connected"),
     (1, -1, "not connected"), (1.5, 3, "check must be an integer, not 1.5"),
     (True, 3, "check must be an integer, not True"),
     (1, 3.0, "qubit must be an integer, not 3.0"),
     (1, np.True_, "qubit must be an integer, not np.True_")],
)
def test_adjustment_rejects_bad_pins(code411, priors411, strategy, check, qubit, message):
    # check 1 (0-based) has sender qubits 0, 1 and 3; nothing is drawn.  A
    # non-integer pin used to raise IndexError (check 1.5, or qubit 3.0 under
    # enhanced) or TypeError (check True), or ran (qubit 3.0 under pc08).
    graph = TannerGraph(code411)
    rng = substream(0, 0)
    state = rng.bit_generator.state
    first = DecodeOutcome(
        np.array([0, 3, 0, 0], dtype=np.uint8), False, 90,
        np.array([False, True, True, True]),
    )
    config = FeedbackConfig(strategy=strategy)
    with pytest.raises(ValueError, match=message):
        adjust(graph, TARGET, priors411, config, first, check, qubit, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("strategy", ["pc08", "enhanced"])
def test_feedback_run_needs_the_first_mask(code411, priors411, strategy):
    # a first outcome without its frustrated-check mask is refused when it is
    # made, so no run starts from one; a converged one has no round to run
    graph = TannerGraph(code411)
    config = FeedbackConfig(strategy=strategy)
    rng = substream(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="DecodeOutcome needs its frustrated-check mask"):
        DecodeOutcome(np.array([0, 3, 0, 0], dtype=np.uint8), False, 90, None)
    done = DecodeOutcome(np.array([0, 0, 1, 3], dtype=np.uint8), True, 3, np.zeros(4, bool))
    with pytest.raises(StopIteration):
        next(feedback_rounds(graph, TARGET, priors411, config, done, rng))
    assert rng.bit_generator.state == state


def test_feedback_round_checks_strategy_and_mask(code411, priors411):
    failed = DecodeOutcome(
        np.array([0, 3, 0, 0], dtype=np.uint8), False, 90, np.array([False, True, True, True])
    )
    # the config refuses standard BP when it is made (the round refused it)
    with pytest.raises(ValueError, match="not a feedback strategy \\(pc08 or enhanced\\)"):
        FeedbackConfig(strategy="standard")
    outcome, record = feedback_round(
        code411, TARGET, priors411, 1, 0, FeedbackConfig(strategy="enhanced"), failed
    )
    assert (record.check, record.qubit) == (1, 0)
    # a working outcome without its mask, converged or not, cannot be made,
    # so no pinned round or adjustment gets one (once a ValueError in each
    # of them, and a TypeError before that)
    for converged in (False, True):
        with pytest.raises(ValueError, match="DecodeOutcome needs its frustrated-check mask"):
            DecodeOutcome(np.array([0, 0, 1, 3], dtype=np.uint8), converged, 3, frustrated=None)


@pytest.mark.parametrize("strategy", ["pc08", "enhanced"])
def test_check_without_sender_qubits_ends_the_run(code411, priors411, strategy):
    # [[4,1;1]] plus a Z on a new ebit: a check no sender qubit can fix.  With
    # the target's only -1 there, the one frustrated check is chosen and the
    # run ends as the first run, with budget left but no round and no draw
    # after the choice (default_n_a(4) is 0, so n_a is given).
    checks = np.zeros((5, code411.n_total + 1), dtype=np.uint8)
    checks[:4, :-1] = code411.checks
    checks[4, -1] = 2
    code = StabilizerCode(checks, n_sent=4, n_ebits=code411.n_ebits + 1)
    target = np.array([1, 1, 1, 1, -1])
    first = decode(code, target, priors411, max_iter=7)
    assert not first.converged and first.frustrated.tolist() == [False] * 4 + [True]
    rng, drawn = substream(3, 1), substream(3, 1)
    drawn.choice(np.flatnonzero(first.frustrated))
    outcome, records = feedback_decode(
        code, target, priors411, FeedbackConfig(strategy=strategy, n_a=5), max_iter=7,
        rng=rng,
    )
    assert records == []
    assert outcome.error.tolist() == first.error.tolist()
    assert (outcome.converged, outcome.iterations) == (False, 7)
    assert rng.bit_generator.state == drawn.bit_generator.state


def _failed_blocks(code, p, count, seed=5):
    graph = TannerGraph(code)
    chan = DepolarizingChannel(p)
    pri = channel_priors(chan, code.n_sent)
    failed = []
    block = 0
    while len(failed) < count:
        target = syndrome(code, sample_error(code.n_sent, chan, substream(seed, 0, block).random(code.n_sent)))
        first = decode(code, target, pri)
        if not first.converged:
            failed.append((block, target, first))
        block += 1
    return graph, pri, failed


def _records_key(records):
    return [
        (r.check, r.qubit, r.outcome, r.iterations, r.qubits_touched.tolist(),
         r.applied.tolist())
        for r in records
    ]


def test_interleaved_runs_equal_runs_alone():
    # Feedback runs stepped round-robin, each restart decoded when its turn
    # comes, give the same rounds, draws and outcomes as each run on its own.
    code = construction_b([1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)])
    graph, pri, failed = _failed_blocks(code, 0.06, 3)
    specs = [
        (block, target, first, strategy)
        for block, target, first in failed
        for strategy in ("pc08", "enhanced")
    ]

    configs = [FeedbackConfig(strategy=strategy) for *_, strategy in specs]
    alone = [
        feedback_decode(code, target, pri, config, rng=substream(5, 1, 0, 0, block))
        for (block, target, _, _), config in zip(specs, configs)
    ]
    runs = [
        feedback_rounds(graph, target, pri, config, first, substream(5, 1, 0, 0, block))
        for (block, target, first, _), config in zip(specs, configs)
    ]
    results = [None] * len(runs)
    pending = [(index, next(run)) for index, run in enumerate(runs)]
    while pending:
        index, adjusted = pending.pop(0)
        restart = decode(code, specs[index][1], adjusted, max_iter=configs[index].t_pert)
        try:
            pending.append((index, runs[index].send(restart)))
        except StopIteration as done:
            results[index] = done.value
    assert sum(len(records) for _, records in alone) > len(specs)
    for (got, got_records), (outcome, records) in zip(results, alone, strict=True):
        assert got.error.tolist() == outcome.error.tolist()
        assert (got.converged, got.iterations) == (outcome.converged, outcome.iterations)
        assert _records_key(got_records) == _records_key(records)
