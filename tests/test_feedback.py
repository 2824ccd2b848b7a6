import re
from pathlib import Path

import numpy as np
import pytest

from gf4bp.channel import (
    DepolarizingChannel,
    priors as channel_priors,
    sample_error,
    substream,
)
from gf4bp import feedback
from gf4bp.decoder import DecodeOutcome, TannerGraph, decode, tanner_graph
from gf4bp.feedback import (
    FeedbackConfig,
    adjust,
    check_slot,
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


def _pinned_priors(code, priors, check, qubit, config, rng=None):
    """The priors a pinned round on (check, qubit) installs: adjust's."""
    graph = tanner_graph(code)
    slot = check_slot(graph, check, qubit)
    return adjust(graph, TARGET, priors, config, check, slot, rng)


def _same_outcome(a, b):
    return (a.error.tolist(), a.converged, a.iterations, a.frustrated.tolist()) == (
        b.error.tolist(), b.converged, b.iterations, b.frustrated.tolist()
    )


def _assert_rows_changed(adjusted, priors, rows):
    """adjusted differs from priors in each of rows and is bit-equal elsewhere."""
    others = [q for q in range(priors.shape[0]) if q not in rows]
    assert all(not np.array_equal(adjusted[q], priors[q]) for q in rows)
    assert np.array_equal(adjusted[others], priors[others])


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
    # entry X, s_c=-1 (a frustrated output commutes): bias toward anticommuting
    reset = enhanced_reset(1, -1, 0.9)
    assert np.allclose(reset, [0.05, 0.05, 0.45, 0.45])
    # entry X, s_c=+1 (a frustrated output anticommutes): bias toward commuting
    reset = enhanced_reset(1, 1, 0.9)
    assert np.allclose(reset, [0.45, 0.45, 0.05, 0.05])
    # entry Z shares with Z instead of X
    reset = enhanced_reset(2, -1, 0.9)
    assert np.allclose(reset, [0.05, 0.45, 0.05, 0.45])


def test_enhanced_reset_properties():
    rng = np.random.default_rng(51)
    for _ in range(50):
        entry = int(rng.integers(1, 4))
        s_c = -1 if rng.random() < 0.5 else 1
        p_identity = float(rng.random())
        reset = enhanced_reset(entry, s_c, p_identity)
        assert abs(reset.sum() - 1.0) < 1e-15
        assert reset[0] == reset[entry]
        others = [i for i in (1, 2, 3) if i != entry]
        assert reset[others[0]] == reset[others[1]]
        if s_c == -1 and p_identity > 0.5:
            assert reset[others[0]] + reset[others[1]] == pytest.approx(p_identity)
            assert reset[others[0]] + reset[others[1]] > 0.5


def test_enhanced_reset_rejects_bad_inputs():
    with pytest.raises(ValueError, match="must be X, Z or Y"):
        enhanced_reset(0, -1, 0.9)
    for s_c in (0, 2):
        with pytest.raises(ValueError, match=f"syndrome bit {s_c} is not -1 or \\+1"):
            enhanced_reset(1, s_c, 0.9)


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
    assert (record.check, record.qubit, record.outcome) == (1, 3, "converged")
    assert record.iterations == 3
    # the round installed the enhanced reset on qubit 4 alone
    adjusted = _pinned_priors(code411, priors411, 1, 3, config)
    _assert_rows_changed(adjusted, priors411, [3])
    assert np.allclose(adjusted[3], [0.45, 0.45, 0.05, 0.05])
    assert _same_outcome(decode(code411, TARGET, adjusted, 40), outcome)
    assert np.array_equal(priors411, before)


def test_round_reads_the_current_outcomes_mask(code411, priors411):
    # feedback_round reads whether its check is frustrated from the working
    # outcome's mask, not from a syndrome of its error: IYII with check 2's
    # bit cleared leaves check 2 satisfied, and the pin is refused, while the
    # true mask converges (test_enhanced_round_case_study)
    iyii = np.array([0, 3, 0, 0], dtype=np.uint8)
    mask = np.array([False, False, True, True])
    current = DecodeOutcome(iyii, 90, mask)
    config = FeedbackConfig(strategy="enhanced", t_pert=40)
    with pytest.raises(ValueError, match="0-based check 1 is not frustrated"):
        feedback_round(code411, TARGET, priors411, 1, 3, config, current)


def test_pc08_round_case_study_fails(code411, priors411):
    # from the detected IYII, whose frustrated checks are 1..3 (0-based)
    first = decode(code411, TARGET, priors411, max_iter=88)
    assert first.error_pauli == "IYII"
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
            # the round perturbed every qubit of the chosen check
            adjusted = _pinned_priors(code411, priors411, 1, 0, config, substream(seed, 0))
            _assert_rows_changed(adjusted, priors411, [0, 1, 3])
            assert _same_outcome(decode(code411, TARGET, adjusted, 40), outcome)
            assert record.iterations == outcome.iterations
    assert failures == 40


def test_failed_round_restores_priors_bit_exactly(code411, priors411):
    first = decode(code411, TARGET, priors411, max_iter=88)
    config = FeedbackConfig(strategy="pc08", t_pert=5, delta=1.0)
    before = priors411.copy()
    _, record = feedback_round(
        code411, TARGET, priors411, check=1, qubit=0, config=config,
        rng=substream(8, 1), current=first,
    )
    assert record.outcome in ("restored", "check_satisfied")
    adjusted = _pinned_priors(code411, priors411, 1, 0, config, substream(8, 1))
    _assert_rows_changed(adjusted, before, [0, 1, 3])
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
    assert len(rec_a) >= 2
    assert rec_a == rec_b
    # the rounds install the same priors, round by round, and these are the
    # priors feedback_decode's rounds ran on
    first = decode(code411, TARGET, priors411, max_iter=90)
    (out_c, rec_c, installed_c), (_, _, installed_d) = (
        _run_serially(code411, TARGET, priors411, config, first, substream(77, 3))
        for _ in range(2)
    )
    assert _same_outcome(out_c, out_a) and rec_c == rec_a
    assert len(installed_c) == len(rec_a)
    for c, d in zip(installed_c, installed_d, strict=True):
        assert np.array_equal(c, d)


def test_feedback_decode_without_rng_uses_generator_0(code411, priors411):
    # no rng is not unseeded: the pc08 draws come from default_rng(0), so the
    # run repeats
    config = FeedbackConfig(strategy="pc08", t_pert=15, n_a=6, delta=0.5)
    runs = [feedback_decode(code411, TARGET, priors411, config) for _ in range(2)]
    seeded = feedback_decode(code411, TARGET, priors411, config, rng=np.random.default_rng(0))
    assert len(seeded[1]) >= 2
    for outcome, records in runs:
        assert _same_outcome(outcome, seeded[0]) and records == seeded[1]


def test_feedback_decode_converged_first_run_has_no_rounds():
    # Blocks of the [[62,2]] code at p=0.06 whose standard run converges:
    # feedback_decode returns that run as it is, with no round.
    code = construction_b([1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)])
    chan = DepolarizingChannel(0.06)
    pri = channel_priors(chan, code.n_sent)
    converged = 0
    for block in range(10):
        error = sample_error(chan, substream(5, 0, block).random(code.n_sent))
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
    # check 1 (0-based) has sender qubits 0, 1 and 3; a pinned round checks
    # its pin before any draw.  A non-integer pin used to raise IndexError
    # (check 1.5, or qubit 3.0 under enhanced) or TypeError (check True), or
    # ran (qubit 3.0 under pc08).
    rng = substream(0, 0)
    state = rng.bit_generator.state
    first = DecodeOutcome(
        np.array([0, 3, 0, 0], dtype=np.uint8), 90, np.array([False, True, True, True])
    )
    config = FeedbackConfig(strategy=strategy)
    with pytest.raises(ValueError, match=message):
        feedback_round(code411, TARGET, priors411, check, qubit, config, first, rng)
    assert rng.bit_generator.state == state


def test_unpinned_rounds_do_not_check_pins(code411, priors411, monkeypatch):
    # feedback_rounds draws its slots from the graph, so only a pinned round
    # checks one: with check_slot refusing everything, feedback_decode runs
    # the same rounds
    for strategy in ("pc08", "enhanced"):
        config = FeedbackConfig(strategy=strategy, t_pert=15, n_a=6)
        outcome, records = feedback_decode(
            code411, TARGET, priors411, config, rng=substream(4, 2)
        )
        assert records

        def refuse(*args):
            raise AssertionError("check_slot called by an unpinned round")

        with monkeypatch.context() as patched:
            patched.setattr(feedback, "check_slot", refuse)
            got, got_records = feedback_decode(
                code411, TARGET, priors411, config, rng=substream(4, 2)
            )
        assert _same_outcome(got, outcome) and got_records == records


@pytest.mark.parametrize("strategy", ["pc08", "enhanced"])
def test_pinned_round_refuses_a_satisfied_check(code411, priors411, strategy):
    # A round adjusts a check the working outcome frustrates, as every round
    # of feedback_rounds does.  IYII satisfies check 0 (0-based): a pin there
    # used to run under pc08 and end in enhanced_reset's error under
    # enhanced.  Both now refuse it before any draw.
    iyii = DecodeOutcome(
        np.array([0, 3, 0, 0], dtype=np.uint8), 88, np.array([False, True, True, True])
    )
    rng = substream(0, 0)
    state = rng.bit_generator.state
    config = FeedbackConfig(strategy=strategy)
    with pytest.raises(ValueError, match="^0-based check 0 is not frustrated by the working"):
        feedback_round(code411, TARGET, priors411, 0, 1, config, iyii, rng)
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
        DecodeOutcome(np.array([0, 3, 0, 0], dtype=np.uint8), 90, None)
    done = DecodeOutcome(np.array([0, 0, 1, 3], dtype=np.uint8), 3, np.zeros(4, bool))
    assert done.converged
    with pytest.raises(StopIteration):
        next(feedback_rounds(graph, TARGET, priors411, config, done, rng))
    assert rng.bit_generator.state == state


def test_feedback_round_checks_strategy_and_mask(code411, priors411):
    failed = DecodeOutcome(
        np.array([0, 3, 0, 0], dtype=np.uint8), 90, np.array([False, True, True, True])
    )
    # the config refuses standard BP when it is made (the round refused it)
    with pytest.raises(ValueError, match="not a feedback strategy \\(pc08 or enhanced\\)"):
        FeedbackConfig(strategy="standard")
    outcome, record = feedback_round(
        code411, TARGET, priors411, 1, 0, FeedbackConfig(strategy="enhanced"), failed
    )
    assert (record.check, record.qubit) == (1, 0)
    # enhanced draws nothing, pc08 needs a stream to perturb from
    with pytest.raises(ValueError, match="pc08 rounds need a random stream"):
        feedback_round(code411, TARGET, priors411, 1, 0, FeedbackConfig(strategy="pc08"), failed)
    # a working outcome without its mask cannot be made, so no pinned round
    # or adjustment gets one (once a ValueError in each of them, and a
    # TypeError before that)
    with pytest.raises(ValueError, match="DecodeOutcome needs its frustrated-check mask"):
        DecodeOutcome(np.array([0, 0, 1, 3], dtype=np.uint8), 3, frustrated=None)


@pytest.mark.parametrize("strategy", ["pc08", "enhanced"])
def test_check_without_sender_qubits_ends_the_run(code411, priors411, strategy):
    # [[4,1;1]] plus a Z on a new ebit: a check no sender qubit can fix.  With
    # the target's only -1 there, the one frustrated check is chosen and the
    # run ends as the first run, with budget left but no round and no draw
    # after the choice (default_n_a(4) is 0, so n_a is given).
    checks = np.zeros((5, code411.n_total + 1), dtype=np.uint8)
    checks[:4, :-1] = code411.checks
    checks[4, -1] = 2
    code = StabilizerCode(checks, n_ebits=code411.n_ebits + 1)
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
        target = syndrome(code, sample_error(chan, substream(seed, 0, block).random(code.n_sent)))
        first = decode(code, target, pri)
        if not first.converged:
            failed.append((block, target, first))
        block += 1
    return graph, pri, failed


def _run_serially(code, target, pri, config, first, rng):
    """Drive feedback_rounds as feedback_decode does; returns (outcome,
    records, the priors of each restart)."""
    run, installed = feedback_rounds(tanner_graph(code), target, pri, config, first, rng), []
    try:
        adjusted = next(run)
        while True:
            installed.append(adjusted)
            adjusted = run.send(decode(code, target, adjusted, max_iter=config.t_pert))
    except StopIteration as done:
        return (*done.value, installed)


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
    serial = [
        _run_serially(code, target, pri, config, first, substream(5, 1, 0, 0, block))[2]
        for (block, target, first, _), config in zip(specs, configs)
    ]
    runs = [
        feedback_rounds(graph, target, pri, config, first, substream(5, 1, 0, 0, block))
        for (block, target, first, _), config in zip(specs, configs)
    ]
    results = [None] * len(runs)
    installed = [[] for _ in runs]
    pending = [(index, next(run)) for index, run in enumerate(runs)]
    while pending:
        index, adjusted = pending.pop(0)
        installed[index].append(adjusted)
        restart = decode(code, specs[index][1], adjusted, max_iter=configs[index].t_pert)
        try:
            pending.append((index, runs[index].send(restart)))
        except StopIteration as done:
            results[index] = done.value
    assert sum(len(records) for _, records in alone) > len(specs)
    for (got, got_records), (outcome, records) in zip(results, alone, strict=True):
        assert got.error.tolist() == outcome.error.tolist()
        assert (got.converged, got.iterations) == (outcome.converged, outcome.iterations)
        assert got_records == records
    for got_priors, priors in zip(installed, serial, strict=True):
        assert len(got_priors) == len(priors)
        for got, adjusted in zip(got_priors, priors):
            assert np.array_equal(got, adjusted)


def test_readme_library_example():
    # README's Library block, run as written: the case study's first run at
    # 88 iterations detects IYII, the pinned enhanced round on (1, 3) converges
    # to IIZX, and the rounds driven by hand end as feedback_decode's from it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    block = library.group(1)
    cut = block.index("# the procedure itself")
    names = {}
    exec(block[:cut], names)
    first, pinned = names["first"], names["outcome"]
    assert (first.error_pauli, first.converged, first.iterations) == ("IYII", False, 88)
    assert (pinned.error_pauli, pinned.converged) == ("IIZX", True)
    assert names["record"].outcome == "converged"
    exec(block[cut:], names)
    code, config = names["code"], names["config"]
    outcome, records = feedback_decode(
        code, names["target"], names["pri"], config, max_iter=88, rng=substream(1, 0)
    )
    assert _same_outcome(names["outcome"], outcome) and names["records"] == records
