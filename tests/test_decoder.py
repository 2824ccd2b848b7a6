import numpy as np
import pytest

import gc
import weakref
from itertools import product

from gf4bp import decoder, gf4
from gf4bp.channel import DepolarizingChannel, priors as channel_priors, sample_error
from gf4bp.decoder import (
    DecodeOutcome,
    Lanes,
    TannerGraph,
    _check_messages,
    _decision_ops,
    decode,
    first_messages,
    idle_lanes,
    log_priors,
    tanner_graph,
)
from gf4bp.feedback import FeedbackConfig, feedback_round
from gf4bp.stabilizer import (
    ANTICOMMUTES,
    StabilizerCode,
    build_code_4_1_1,
    construction_b,
    syndrome,
)

from oracles import (
    brute_check_message,
    check_update,
    compute_beliefs,
    exact_marginals,
    hard_decision,
    klein_convolve,
    qubit_update,
    random_tree_code,
    row_major_beliefs,
    syndrome_by_counting,
)

UNIFORM = np.full(4, 0.25)


@pytest.fixture
def code411():
    return build_code_4_1_1()


def test_graph_excludes_ebit_columns(code411):
    graph = TannerGraph(code411)
    assert graph.n_qubits == 4
    assert graph.n_checks == 4
    assert graph.n_edges == 14  # 14 nonzero sender entries in the 4x4 block
    assert graph.check_qubits(0).tolist() == [0, 1, 2]
    assert graph.check_entries(0).tolist() == [1, 2, 1]


def test_graph_adjacency_transpose_consistent(code411):
    # Each check cell gathers Lambda_q / 2 of its edge's (entry, qubit) from
    # the rows after the pad cell 0, and each qubit's (run row, entry)
    # column of the gamma gather lists exactly the cells of its edges with
    # that entry, in edge order, then pad cells up to the longest run; the
    # rows are X, Z and, only with Y entries (4_1_1 has them, the CSS
    # [[62,2]] code not), Y.
    for code, types in ((code411, 3), (construction_b(C62_ROW), 2)):
        graph = TannerGraph(code)
        n, cells = graph.n_qubits, graph.check_slots.size
        assert graph.n_types == types
        for cell, edge in enumerate(graph.check_slots.ravel()):
            want = 0
            if edge < graph.n_edges:
                want = 1 + (graph.edge_entry[edge] - 1) * n + graph.edge_qubit[edge]
            assert graph._message_gather.ravel()[cell] == want
        cell_of = {int(e): cell for cell, e in enumerate(graph.check_slots.ravel())}
        runs = graph._gamma_gather
        assert runs.shape[1:] == (types, n)
        longest = 0
        for qubit in range(n):
            for k, symbol in enumerate((1, 2, 3)[:types]):
                got = runs[:, k, qubit]
                want = [
                    cell_of[e]
                    for e in range(graph.n_edges)
                    if graph.edge_qubit[e] == qubit and graph.edge_entry[e] == symbol
                ]
                assert got[: len(want)].tolist() == want
                assert (got[len(want):] == cells).all()
                longest = max(longest, len(want))
        assert len(runs) == max(2, longest)


def test_graph_less_calls_share_one_graph_per_code(monkeypatch):
    # decode and feedback_round build a code object's TannerGraph once, and
    # keep it only while the code lives
    built = []

    class CountingGraph(TannerGraph):
        def __init__(self, code):
            built.append(True)
            super().__init__(code)

    monkeypatch.setattr(decoder, "TannerGraph", CountingGraph)
    code = build_code_4_1_1()
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    target = np.array([-1, 1, 1, 1])
    first = decode(code, target, pri, max_iter=3)  # YYYI frustrates check 3 alone
    decode(code, [1, 1, 1, 1], pri)
    feedback_round(
        code, target, pri, 3, 0, FeedbackConfig(strategy="pc08"), first,
        rng=np.random.default_rng(0),
    )
    assert len(built) == 1
    assert tanner_graph(code) is tanner_graph(code)
    assert tanner_graph(build_code_4_1_1()) is not tanner_graph(code)
    alive = weakref.ref(code)
    del code
    gc.collect()
    assert alive() is None


def test_klein_convolve_is_xor_convolution():
    rng = np.random.default_rng(0)
    p = rng.random(4)
    t = rng.random(4)
    direct = np.zeros(4)
    for x in range(4):
        for y in range(4):
            direct[x ^ y] += p[x] * t[y]
    assert np.allclose(klein_convolve(p, t), direct)


def test_check_update_point_mass_commuting_neighbor():
    # one other neighbor locked on a commuting symbol: the message is uniform
    # over the two symbols commuting with the target entry
    for target_entry in (1, 2, 3):
        point_mass = np.array([1.0, 0, 0, 0])
        message = check_update(target_entry, [1], [point_mass], 1)
        expected = np.zeros(4)
        expected[0] = 0.5
        expected[target_entry] = 0.5
        assert np.allclose(message, expected)


def test_check_update_degree_one_anticommuting():
    message = check_update(1, [], [], -1)  # entry X, no other neighbors
    assert np.allclose(message, [0, 0, 0.5, 0.5])


def test_check_update_uniform_input_gives_uniform():
    for s_c in (1, -1):
        message = check_update(2, [1, 3], [UNIFORM, UNIFORM], s_c)
        assert np.allclose(message, UNIFORM)


def test_check_update_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(50):
        degree = int(rng.integers(0, 5))
        target_entry = int(rng.integers(1, 4))
        entries = [int(v) for v in rng.integers(1, 4, size=degree)]
        messages = rng.random((degree, 4))
        messages /= messages.sum(axis=1, keepdims=True)
        s_c = int(rng.choice([1, -1]))
        got = check_update(target_entry, entries, list(messages), s_c)
        want = brute_check_message(target_entry, entries, list(messages), s_c)
        assert np.allclose(got, want, atol=1e-12)


def test_check_update_neighbor_order_equivariant():
    rng = np.random.default_rng(37)
    entries = [1, 2, 3, 1]
    messages = rng.random((4, 4))
    messages /= messages.sum(axis=1, keepdims=True)
    base = check_update(2, entries, list(messages), -1)
    for _ in range(5):
        perm = rng.permutation(4)
        permuted = check_update(
            2, [entries[i] for i in perm], [messages[i] for i in perm], -1
        )
        assert np.allclose(base, permuted)


def test_vectorized_check_messages_match_reference(code411):
    graph = TannerGraph(code411)
    rng = np.random.default_rng(41)
    target = np.array([-1, 1, 1, -1])
    msg = rng.random((graph.n_edges, 4))
    msg /= msg.sum(axis=1, keepdims=True)
    # one lane of the kernel, its q->c messages replaced by random ones: with
    # every Lambda_q / 2 at 0, an edge's Lambda / 2 is minus its cell's gamma
    lanes = Lanes(graph, 1)
    lanes._relayout([("job", log_priors(np.full((4, 4), 0.25)), target, 1, None)])
    view = lanes._view(1)
    view.half[1:] = 0.0
    cell = {int(e): divmod(i, graph.n_checks) for i, e in enumerate(graph.check_slots.ravel())}
    for e in range(graph.n_edges):
        commute = ANTICOMMUTES[graph.edge_entry[e]] == 0
        lam = np.log(msg[e, commute].sum() / msg[e, ~commute].sum())
        view.gamma_cells[cell[e] + (0,)] = -lam / 2
    _check_messages(view)
    for e in range(graph.n_edges):
        check = int(graph.edge_check[e])
        others = [
            i
            for i in range(graph.n_edges)
            if graph.edge_check[i] == check and i != e
        ]
        reference = check_update(
            int(graph.edge_entry[e]),
            [int(graph.edge_entry[i]) for i in others],
            [msg[i] for i in others],
            int(target[check]),
        )
        # gamma is half the log-ratio between the commuting symbols (I and
        # the entry) and the other two
        t = np.tanh(view.gamma_cells[cell[e] + (0,)])
        kappa = 1 - 2 * ANTICOMMUTES[graph.edge_entry[e]].astype(float)
        assert np.allclose((1 + kappa * t) / 4, reference, atol=1e-12)


def test_qubit_update_cases():
    prior = np.array([0.9, 1 / 30, 1 / 30, 1 / 30])
    assert np.allclose(qubit_update(prior, []), prior)
    incoming = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(qubit_update(UNIFORM, [incoming]), incoming)
    assert np.allclose(qubit_update(prior, [UNIFORM]), prior)


def test_compute_beliefs_isolated_qubit():
    prior = np.array([[0.7, 0.1, 0.1, 0.1]])
    beliefs = compute_beliefs(prior, [[]])
    assert np.allclose(beliefs, prior)


def test_hard_decision_tie_breaks():
    assert hard_decision(np.array([[0.7, 0.1, 0.1, 0.1]]))[0] == 0
    assert hard_decision(np.array([[0.25, 0.25, 0.25, 0.25]]))[0] == 0
    assert hard_decision(np.array([[0.1, 0.45, 0.45, 0.0]]))[0] == 1


def test_decision_ops_match_argmax():
    # every assignment of {-1, 0, 1, 2} to (L_I, L_X, L_Z, L_Y), then every
    # assignment of {0.0, -0.0}, as lanes of one array and one lane at a time
    grid = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0, 2.0]] * 4, indexing="ij"))
    zeros = np.stack(np.meshgrid(*[[0.0, -0.0]] * 4, indexing="ij"))
    bel = np.concatenate([grid.reshape(4, 1, -1), zeros.reshape(4, 1, -1)], axis=2)
    assert bel.shape == (4, 1, 256 + 16)
    want = hard_decision(bel, axis=0)
    for lanes, types in product(
        [slice(None)] + [slice(k, k + 1) for k in range(bel.shape[2])], (3, 2)
    ):
        part = np.ascontiguousarray(bel[..., lanes])
        rows = np.empty((3,) + part.shape[1:], dtype=bool)
        for call, operands in _decision_ops(part, np.empty((2,) + part.shape[1:]), rows, types):
            call(*operands)
        decided = 2 * rows[0].astype(np.uint8) + rows[1]
        assert np.array_equal(decided, want[:, lanes])
        # row k is the decision's anticommutation bit with entry k + 1, the
        # XOR row only for 3 entry types
        want_rows = ANTICOMMUTES[1 : types + 1, decided].astype(bool)
        assert np.array_equal(rows[:types], want_rows)


@pytest.mark.parametrize(
    "code_name, rows, ops",
    [("c62", 2, {"check_products": 22, "entry_sums": 5, "anti_sums": 2, "syndrome_test": 5,
                 "qubit_calls": 10, "check_calls": 28, "belief_calls": 12}),
     ("4_1_1", 3, {"check_products": 6, "entry_sums": 1, "anti_sums": 3, "syndrome_test": 6,
                   "qubit_calls": 11, "check_calls": 12, "belief_calls": 8})],
)
def test_lane_step_computes_only_what_it_reads(code_name, rows, ops):
    # The op lists one lane step runs, and the rows it computes per qubit:
    # prefix and suffix products over a check's S slots but none over all
    # of them (2 (S - 1) multiplies, and S rows of cpref with sigma first);
    # one left fold of the (entry, qubit) run rows; Lambda_q / 2, the
    # anticommute masses, the entry sums and the anticommutation bits only
    # for X, Z and, on a code with Y entries, Y (the decision's XOR with it).
    # Each layer's call list holds them, and is built once per layout.
    code = build_code_4_1_1() if code_name == "4_1_1" else construction_b(C62_ROW)
    graph = TannerGraph(code)
    n, slots = graph.n_qubits, graph.check_slots.shape[0]
    lanes = Lanes(graph, 2)
    view = lanes._view(2)
    assert lanes._view(2) is view
    assert {name: len(getattr(view, name)) for name in ops} == ops
    assert view.cpref.shape == (slots, graph.n_checks, 2)
    assert view.half.shape == (1 + rows * n, 2) and view.bits.shape == (1 + 3 * n, 2)
    assert view.s.shape == view.anti.shape == (rows, n, 2)
    # a first layout builds only what first_iteration runs
    bulk = lanes._view(2, first=True)
    assert bulk.qubit_calls == bulk.check_calls == []
    assert not hasattr(bulk, "check_products") and not hasattr(bulk, "anti_sums")
    for name in ("entry_sums", "syndrome_test", "belief_calls"):
        assert len(getattr(bulk, name)) == ops[name]


@pytest.mark.parametrize(
    "bad", [np.nan, -0.5, np.inf, 0.0], ids=["nan", "negative", "inf", "zero-total"]
)
def test_decode_rejects_bad_priors(code411, bad):
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    if bad == 0.0:
        pri[2] = 0.0
    else:
        pri[2, 1] = bad
    with pytest.raises(ValueError, match="priors of qubit 2"):
        decode(code411, [-1, 1, 1, 1], pri)


def test_decode_zero_syndrome_converges_first_iteration(code411):
    pri = channel_priors(DepolarizingChannel(0.05), 4)
    out = decode(code411, [1, 1, 1, 1], pri, max_iter=90)
    assert out.converged
    assert out.iterations == 1
    assert out.error_pauli == "IIII"


def test_decode_single_check_exact_when_marginals_satisfy():
    # weight-1 check: the exact posterior's argmax satisfies any syndrome,
    # so the decoder lands on it within two iterations
    code = StabilizerCode(np.array([[1]], dtype=np.uint8))
    pri = channel_priors(DepolarizingChannel(0.1), 1)
    for target, expected in [([1], "I"), ([-1], "Z")]:
        out = decode(code, target, pri, max_iter=10)
        assert out.converged
        assert out.iterations <= 2
        assert out.error_pauli == expected


def test_decode_nonconvergence_is_normal():
    # weight-2 check with identity-dominated priors: exact marginals prefer
    # II, which violates the -1 syndrome, and BP sits at that fixed point
    code = StabilizerCode(np.array([[1, 1]], dtype=np.uint8))
    pri = channel_priors(DepolarizingChannel(0.1), 2)
    out = decode(code, [-1], pri, max_iter=30)
    assert not out.converged
    assert out.iterations == 30
    marginals, _ = exact_marginals(code, np.array([-1]), pri)
    assert hard_decision(marginals).tolist() == out.error.tolist()


def test_decode_matches_exact_marginals_on_trees():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 25:
        code = random_tree_code(rng)
        pri = channel_priors(DepolarizingChannel(0.1), code.n_sent)
        error = np.zeros(code.n_total, dtype=np.uint8)
        error[: code.n_sent] = rng.integers(0, 4, size=code.n_sent)
        target = syndrome(code, error)
        marginals, mass = exact_marginals(code, target, pri)
        assert mass > 0
        beliefs_history = []
        decode(
            code,
            target,
            pri,
            max_iter=2 * code.n_sent + 4,
            on_iteration=lambda t, b: beliefs_history.append(b),
            halt=False,
        )
        assert np.allclose(beliefs_history[-1], marginals, atol=1e-8)
        checked += 1


def test_decode_long_run_stays_finite(code411):
    pri = channel_priors(DepolarizingChannel(0.1), 4)

    def check_finite(_t, beliefs):
        assert np.isfinite(beliefs).all()
        assert np.allclose(beliefs.sum(axis=1), 1.0, atol=1e-9)

    out = decode(
        code411, [-1, 1, 1, 1], pri, max_iter=1000, on_iteration=check_finite,
        halt=False,
    )
    assert np.isfinite(out.error.astype(float)).all()


def test_decode_deterministic(code411):
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    a = decode(code411, [-1, 1, 1, 1], pri, max_iter=90)
    b = decode(code411, [-1, 1, 1, 1], pri, max_iter=90)
    assert a.error.tolist() == b.error.tolist()
    assert a.converged == b.converged == False
    assert a.iterations == b.iterations == 90


def test_decode_case_study_trajectory(code411):
    # The non-convergent run oscillates; the detected error IYII with
    # syndrome (-1,-1,-1,-1) appears inside the trajectory (first at
    # iteration 8, again at 88) even though iteration 90 reads IIII.
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    seen = {}
    decode(
        code411,
        [-1, 1, 1, 1],
        pri,
        max_iter=90,
        on_iteration=lambda t, b: seen.setdefault(
            gf4.values_to_pauli(hard_decision(b)), t
        ),
        halt=False,
    )
    assert "IYII" in seen
    assert seen["IYII"] == 8
    at_88 = decode(code411, [-1, 1, 1, 1], pri, max_iter=88)
    assert not at_88.converged
    assert at_88.error_pauli == "IYII"
    assert syndrome(code411, code411.embed_sent(at_88.error)).tolist() == [-1, -1, -1, -1]


def test_decode_validates_inputs(code411):
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    with pytest.raises(ValueError):
        decode(code411, [1, 1, 1], pri)
    with pytest.raises(ValueError):
        decode(code411, [1, 1, 1, 2], pri)
    # 1.5 used to be cast to +1 (decoded as the all +1 syndrome, converged)
    # and -1.9 to -1; a bit syndrome's True, since True == 1, to +1 too
    for entries in ([1.5, 1, 1, 1], [-1.9, 1, 1, 1], ["1", "1", "1", "1"],
                    [True] * 4, np.ones(4, bool)):
        with pytest.raises(ValueError, match=r"syndrome entries must be \+1 or -1"):
            decode(code411, entries, pri)
    with pytest.raises(ValueError):
        decode(code411, [1, 1, 1, 1], pri[:3])
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        decode(code411, [1, 1, 1, 1], pri, max_iter=0)
    # a cap of 2.5 used to run 3 iterations and report iterations == 3
    for cap in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"max_iter must be an integer, not {cap!r}"):
            decode(code411, [1, -1, 1, 1], pri, max_iter=cap)
    assert decode(code411, [1, -1, 1, 1], pri, max_iter=np.int64(1)).iterations == 1


@pytest.mark.parametrize("error, last", [("IXII", 1), ("IIZX", 90)])
def test_on_iteration_gets_the_runs_count(code411, error, last):
    # t is the lane's own count: 1, 2, ... up to the outcome's iterations
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    target = syndrome(code411, code411.embed_sent(error))
    seen = []
    outcome = decode(code411, target, pri, on_iteration=lambda t, b: seen.append(t))
    assert outcome.converged == (last == 1) and outcome.iterations == last
    assert seen == list(range(1, last + 1))


def test_decode_takes_each_form_of_a_target(code411):
    # the int list, its float form and syndrome's int8 array are one target
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    signs = syndrome(code411, code411.embed_sent("IIZX"))
    assert signs.dtype == np.int8
    outcomes = [
        decode(code411, target, pri, max_iter=40)
        for target in (signs.tolist(), [float(s) for s in signs], signs)
    ]
    for outcome in outcomes:
        assert outcome.error.tolist() == outcomes[0].error.tolist()
        assert outcome.iterations == outcomes[0].iterations == 40
        assert outcome.frustrated.tolist() == outcomes[0].frustrated.tolist()
    assert outcomes[0].frustrated.any()


# First circulant row of the [[62,2]] Construction-B code of criterion 8.
C62_ROW = [1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)]
N510_ROW = [1 if i in (8, 36, 118, 128, 190, 240) else 0 for i in range(255)]


def _code_with_empty_check():
    """The first 40 rows of the [[62,2]] code, whose qubits then have
    degrees 6 to 10, plus a row on an ebit column only: a check without
    sender entries."""
    rows = construction_b(C62_ROW).checks[:40]
    checks = np.zeros((rows.shape[0] + 1, rows.shape[1] + 1), dtype=np.uint8)
    checks[:-1, :-1] = rows
    checks[-1, -1] = 2
    return StabilizerCode(checks, n_ebits=1)


@pytest.mark.parametrize(
    "code_name, p, seed",
    [
        ("c62", 0.02, 8), ("c62", 0.02, 28), ("c62", 0.09, 7), ("c62", 0.09, 23),
        ("c62", 0.09, 0), ("411", 0.1, None), ("empty-check", 0.06, 5),
    ],
    ids=["0.02-8", "0.02-28", "0.09-7", "0.09-23", "0.09-0", "411-criterion-3", "empty-check"],
)
def test_decode_bit_identical_to_row_major_reference(code_name, p, seed):
    # The log-domain kernel must agree with the frozen probability-domain
    # row-major iteration, iteration by iteration: the same hard decision
    # and beliefs within 1e-9.  (0.09, 0) runs all 90 iterations without
    # converging.  So do the [[4,1;1]] criterion-3 run and the code with a
    # check without sender entries, whose target there is -1; both have
    # checks and qubits of unequal degree, so pad slots on both sides.
    chan = DepolarizingChannel(p)
    if code_name == "411":
        code = build_code_4_1_1()
        target = np.array([-1, 1, 1, 1])
    elif code_name == "c62":
        code = construction_b(C62_ROW)
        error = sample_error(chan, np.random.default_rng(seed).random(code.n_sent))
        target = syndrome(code, error)
    else:
        code = _code_with_empty_check()
        error = sample_error(chan, np.random.default_rng(seed).random(code.n_sent))
        target = syndrome(code, code.embed_sent(error))
        target[-1] = -1
    pri = channel_priors(chan, code.n_sent)
    seen = []
    out = decode(code, target, pri, on_iteration=lambda t, b: seen.append(b))
    if (p, seed) == (0.09, 0) or code_name != "c62":
        assert not out.converged and out.iterations == 90
    reference = row_major_beliefs(code, target, pri, out.iterations)
    assert len(seen) == out.iterations
    for beliefs, expected in zip(seen, reference, strict=True):
        assert beliefs.shape == (code.n_sent, 4)
        assert np.array_equal(hard_decision(beliefs), hard_decision(expected))
        assert np.allclose(beliefs, expected, rtol=0, atol=1e-9)
    assert np.array_equal(out.error, hard_decision(reference[-1]))


def _steane():
    """The Steane code, a CSS code whose checks have X and Z entries only."""
    hamming = np.array(
        [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]],
        dtype=np.uint8,
    )
    return StabilizerCode(np.vstack([hamming, 2 * hamming]))


def _masks_match_counting(code, outcomes, targets) -> None:
    """Each outcome's frustrated mask is the counting oracle's syndrome of
    its error against its target, and it converged iff the mask is clear."""
    for outcome, target in zip(outcomes, targets, strict=True):
        counted = syndrome_by_counting(code, code.embed_sent(outcome.error))
        assert outcome.frustrated.dtype == bool
        assert outcome.frustrated.tolist() == (counted != target).tolist()
        assert outcome.converged == (not outcome.frustrated.any())


def test_syndrome_signs_match_counting_oracle():
    # the [[62,2]] and n=510 Construction-B codes, and the Steane code
    codes = [(construction_b(C62_ROW), 20), (construction_b(N510_ROW), 3), (_steane(), 20)]
    rng = np.random.default_rng(53)
    for code, n_errors in codes:
        for _ in range(n_errors):
            error = rng.integers(0, 4, size=code.n_sent).astype(np.uint8)
            expected = syndrome_by_counting(code, error).tolist()
            assert syndrome(code, error).tolist() == expected


@pytest.mark.parametrize("halt", [True, False])
@pytest.mark.parametrize(
    "code_name, p_values, caps, n_jobs",
    [
        ("4_1_1", (0.02, 0.1, 0.3), (90, 5, 1), 24),
        ("steane", (0.02, 0.1, 0.3), (90, 5, 1), 24),
        ("c62", (0.01, 0.05, 0.09), (90, 6, 2), 18),
        ("n510", (0.005, 0.09), (12, 3), 4),
    ],
)
def test_frustrated_mask_matches_counting_oracle(code_name, p_values, caps, n_jobs, halt):
    # Every finished job, converged or stopped at its cap, carries the mask
    # of the checks its hard decision leaves frustrated; lanes are refilled
    # as they finish, so masks are read from every lane position.
    code = {
        "4_1_1": build_code_4_1_1,
        "steane": _steane,
        "c62": lambda: construction_b(C62_ROW),
        "n510": lambda: construction_b(N510_ROW),
    }[code_name]()
    graph = TannerGraph(code)
    rng = np.random.default_rng(67)
    jobs = []
    for index in range(n_jobs):
        chan = DepolarizingChannel(p_values[index % len(p_values)])
        error = sample_error(chan, rng.random(code.n_sent), n_ebits=code.n_ebits)
        jobs.append((channel_priors(chan, code.n_sent), syndrome(code, error)))
    lanes = Lanes(graph, 3)
    pending = list(range(n_jobs))
    got = {}
    while pending or lanes.busy:
        starts = []
        while pending and lanes.busy + len(starts) < lanes.width:
            index = pending.pop(0)
            pri, target = jobs[index]
            starts.append((index, log_priors(pri), target, caps[index % len(caps)], None))
        got.update(lanes.step(halt, starts))
    outcomes = [got[index] for index in range(n_jobs)]
    _masks_match_counting(code, outcomes, [target for _, target in jobs])
    assert any(o.converged for o in outcomes)
    assert any(not o.converged for o in outcomes)
    if halt:
        assert any(o.converged and o.iterations < caps[0] for o in outcomes)


def test_check_on_ebit_columns_only():
    # Row II|Z touches only the receiver's ebit: no edges, parity 0 for any
    # error on the sent qubits, and decoding still reaches the target.
    code = StabilizerCode(
        np.array([[1, 1, 0], [0, 0, 2]], dtype=np.uint8), n_ebits=1
    )
    graph = TannerGraph(code)
    assert graph.check_deg.tolist() == [2, 0]
    for error in ([0, 0], [1, 0], [2, 3], [3, 3]):
        signs = syndrome(code, code.embed_sent(error))
        assert signs[1] == 1
        assert signs.tolist() == syndrome_by_counting(code, code.embed_sent(error)).tolist()
    pri = channel_priors(DepolarizingChannel(0.1), 2)
    out = decode(code, [1, 1], pri, max_iter=10)
    assert out.converged
    assert out.iterations == 1
    assert out.error_pauli == "II"
    assert out.frustrated.tolist() == [False, False]
    # a -1 on the ebit-only check is never matched: its mask bit is the
    # target's, whatever the decision and with halt on or off
    for target in ([1, -1], [-1, -1]):
        for halt in (True, False):
            out = decode(code, target, pri, max_iter=4, halt=halt)
            assert (out.converged, out.iterations) == (False, 4)
            assert out.frustrated[1]
            _masks_match_counting(code, [out], [np.array(target)])


@pytest.mark.parametrize("width", [1, 3, 16])
def test_lanes_with_refill_match_decode(width):
    # Jobs with mixed iteration caps load into free lanes as others finish,
    # so lanes at unequal counts and caps are packed and refilled mid-run;
    # every fourth job resumes from the bulk iteration at count 1, its G0
    # computed while the lanes run.  Every outcome (error, verdict, count and
    # mask) must equal a lone decode's.
    code = construction_b(C62_ROW)
    graph = TannerGraph(code)
    rng = np.random.default_rng(61)
    jobs = []
    for index in range(40):
        p = (0.02, 0.06, 0.09)[index % 3]
        pri = channel_priors(DepolarizingChannel(p), code.n_sent)
        pri[rng.integers(code.n_sent)] = [0.45, 0.45, 0.05, 0.05]
        error = sample_error(DepolarizingChannel(p), rng.random(code.n_sent))
        jobs.append((pri, syndrome(code, error), (90, 40, 3)[index % 3]))
    lanes = Lanes(graph, width)
    pending = list(range(len(jobs)))
    got, resumed = {}, 0
    while pending or lanes.busy:
        starts = []
        while pending and lanes.busy + len(starts) < width:
            index = pending.pop(0)
            pri, target, cap = jobs[index]
            lp, state = log_priors(pri), None
            if index % 4 == 1:
                first = first_messages(graph, lp, lanes.real)
                (rows, errors, masks), resumes = lanes.first_iteration(lp, first, target[None], cap)
                if len(rows):  # iteration 1 ended it
                    got[index] = DecodeOutcome(errors[0], 1, masks[0])
                    continue
                ((_, state),) = resumes
                resumed += 1
            starts.append((index, lp, target, cap, state))
        for index, outcome in lanes.step(starts=starts):
            got[index] = outcome
    assert resumed and any(o.converged for o in got.values())
    assert any(not o.converged for o in got.values())
    for index, (pri, target, cap) in enumerate(jobs):
        want = decode(code, target, pri, max_iter=cap)
        assert got[index].error.tolist() == want.error.tolist()
        assert got[index].frustrated.tolist() == want.frustrated.tolist()
        assert (got[index].converged, got[index].iterations) == (
            want.converged, want.iterations,
        )


@pytest.mark.parametrize("k", [1, 4, 6])
def test_lanes_loaded_together_are_laid_out_once(monkeypatch, k):
    # k jobs started together in an empty kernel (and later in the free room
    # of a packed one) cost one relayout at that step, not one each; the
    # outcomes equal lone decodes.
    code = construction_b(C62_ROW)
    graph = TannerGraph(code)
    rng = np.random.default_rng(k)
    jobs = []
    for _ in range(2 * k):
        pri = channel_priors(DepolarizingChannel(0.06), code.n_sent)
        error = sample_error(DepolarizingChannel(0.06), rng.random(code.n_sent))
        jobs.append((pri, syndrome(code, error), int(rng.integers(2, 20))))
    relayouts = []
    relayout = Lanes._relayout

    def counted(self, starts):
        relayouts.append(len(starts))
        return relayout(self, starts)

    monkeypatch.setattr(Lanes, "_relayout", counted)
    lanes = Lanes(graph, 6)
    got = {}
    starts = [(i, log_priors(pri), target, cap, None) for i, (pri, target, cap) in enumerate(jobs)]
    got.update(lanes.step(halt=False, starts=starts[:k]))
    assert relayouts == [k] and lanes.busy == k
    while len(got) < k:  # run the first jobs out, then start the rest at once
        got.update(lanes.step(halt=False))
    before = len(relayouts)
    got.update(lanes.step(halt=False, starts=starts[k:]))
    # finished lanes still in the layout are refilled in place
    assert len(relayouts) - before <= 1 and len(lanes.jobs) == k
    while lanes.busy:
        got.update(lanes.step(halt=False))
    for index, (pri, target, cap) in enumerate(jobs):
        want = decode(code, target, pri, max_iter=cap, halt=False)
        assert got[index].error.tolist() == want.error.tolist()
        assert (got[index].converged, got[index].iterations) == (
            want.converged, want.iterations,
        )


def test_starts_fill_non_contiguous_holes_in_place(monkeypatch):
    # Lanes 0, 2 and 5 of 6 finish first; three jobs started at the next
    # step are written into those lanes without a relayout, and every
    # outcome equals a lone decode's.
    code = construction_b(C62_ROW)
    graph = TannerGraph(code)
    rng = np.random.default_rng(5)
    caps = [3, 12, 3, 12, 12, 3, 9, 15, 7]
    jobs = []
    for cap in caps:
        pri = channel_priors(DepolarizingChannel(0.06), code.n_sent)
        pri[rng.integers(code.n_sent)] = [0.4, 0.3, 0.2, 0.1]
        error = sample_error(DepolarizingChannel(0.06), rng.random(code.n_sent))
        jobs.append((pri, syndrome(code, error), cap))
    relayouts = []
    relayout = Lanes._relayout

    def counted(self, starts):
        relayouts.append(len(starts))
        return relayout(self, starts)

    monkeypatch.setattr(Lanes, "_relayout", counted)
    lanes = Lanes(graph, 6)
    starts = [(i, log_priors(pri), target, cap, None) for i, (pri, target, cap) in enumerate(jobs)]
    got = dict(lanes.step(halt=False, starts=starts[:6]))
    for _ in range(2):
        got.update(lanes.step(halt=False))
    assert sorted(got) == [0, 2, 5] and relayouts == [6]
    assert lanes.jobs == [None, 1, None, 3, 4, None]
    got.update(lanes.step(halt=False, starts=starts[6:]))
    assert relayouts == [6]
    assert lanes.jobs == [6, 1, 7, 3, 4, 8]
    while lanes.busy:
        got.update(lanes.step(halt=False))
    for index, (pri, target, cap) in enumerate(jobs):
        want = decode(code, target, pri, max_iter=cap, halt=False)
        assert got[index].error.tolist() == want.error.tolist()
        assert got[index].iterations == want.iterations == cap
        assert got[index].converged == want.converged


def test_lane_on_unreachable_syndrome_runs_to_its_cap():
    # -1 on the ebit-only check II|Z can never be matched
    code = StabilizerCode(
        np.array([[1, 1, 0], [0, 0, 2]], dtype=np.uint8), n_ebits=1
    )
    graph = TannerGraph(code)
    pri = channel_priors(DepolarizingChannel(0.1), 2)
    lanes = Lanes(graph, 2)
    finished = dict(lanes.step(starts=[
        ("reachable", log_priors(pri), np.array([1, 1]), 10, None),
        ("unreachable", log_priors(pri), np.array([1, -1]), 7, None),
    ]))
    while lanes.busy:
        finished.update(lanes.step())
    assert finished["reachable"].converged and finished["reachable"].iterations == 1
    assert not finished["unreachable"].converged
    assert finished["unreachable"].iterations == 7
    out = decode(code, [1, -1], pri, max_iter=7)
    assert (out.converged, out.iterations) == (False, 7)


def test_step_refuses_more_starts_than_free_lanes(code411):
    # A kernel has at least one lane, and a step given more starts than it
    # has free lanes raises before it touches a lane: the jobs, the busy
    # count, the layout and every array a job carries between iterations
    # are as they were, and the running job still ends as a lone decode.
    with pytest.raises(ValueError, match="width must be at least 1"):
        Lanes(TannerGraph(code411), 0)
    graph = TannerGraph(code411)
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    lp, target = log_priors(pri), np.array([1, -1, 1, -1])
    lanes = Lanes(graph, 1)
    with pytest.raises(RuntimeError, match="every lane is busy"):
        lanes.step(starts=[("a", lp, target, 5, None), ("b", lp, target, 5, None)])
    assert (lanes.jobs, lanes.busy) == ([], 0)
    lanes = Lanes(graph, 2)
    assert [job for job, _ in lanes.step(
        halt=False, starts=[("a", lp, target, 1, None), ("b", lp, target, 5, None)]
    )] == ["a"]
    view = lanes._view(2)
    kept = {name: getattr(view, name).tobytes() for name in decoder._KEPT}
    with pytest.raises(RuntimeError, match="every lane is busy"):
        lanes.step(halt=False, starts=[("c", lp, target, 5, None), ("d", lp, target, 5, None)])
    assert (lanes.jobs, lanes.busy) == ([None, "b"], 1)
    assert {name: getattr(view, name).tobytes() for name in decoder._KEPT} == kept
    finished = []
    while not finished:
        finished = lanes.step(halt=False)
    ((job, outcome),) = finished
    want = decode(code411, target, pri, max_iter=5, halt=False)
    assert (job, outcome.iterations) == ("b", want.iterations)
    assert outcome.error.tolist() == want.error.tolist()


def test_run_one_runs_a_lone_job_on_an_idle_kernel(code411):
    # run_one refuses a kernel with a job running, before any lane changes.
    # On an idle kernel whose layout still holds finished lanes it runs the
    # job alone, as decode does: the same outcome and the same beliefs,
    # bit for bit, after every iteration.
    pri = channel_priors(DepolarizingChannel(0.1), 4)
    lp, target = log_priors(pri), np.array([1, -1, 1, -1])
    lanes = Lanes(TannerGraph(code411), 3)
    lanes.step(halt=False, starts=[(job, lp, target, 2, None) for job in "abc"])
    with pytest.raises(RuntimeError, match="idle kernel"):
        lanes.run_one(lp, target, 5)
    assert lanes.jobs == ["a", "b", "c"]
    assert len(lanes.step(halt=False)) == 3 and lanes.busy == 0
    got, want = [], []
    outcome = lanes.run_one(lp, target, 5, False, lambda t, b: got.append((t, b.tobytes())))
    expected = decode(code411, target, pri, 5, lambda t, b: want.append((t, b.tobytes())), False)
    assert got == want and [t for t, _ in got] == [1, 2, 3, 4, 5]
    assert (outcome.converged, outcome.iterations) == (expected.converged, 5)
    assert outcome.error.tolist() == expected.error.tolist()
    assert outcome.frustrated.tolist() == expected.frustrated.tolist()


def test_a_decode_inside_on_iteration_runs_on_a_fresh_kernel(code411):
    # decode runs on the graph's idle width-1 kernel (idle_lanes); a decode
    # called from inside another decode's on_iteration finds that kernel busy
    # and runs on a fresh one.  Each inner decode ends as the same call
    # alone, and the outer one keeps its outcome and per-iteration beliefs.
    target, pri = [-1, 1, 1, 1], channel_priors(DepolarizingChannel(0.1), code411.n_sent)
    want, got, inner = [], [], []
    alone = decode(code411, target, pri, 20, lambda t, b: want.append((t, b.tobytes())))

    def nested(t, beliefs):
        got.append((t, beliefs.tobytes()))
        inner.append(decode(code411, target, pri, 20))

    outer = decode(code411, target, pri, 20, nested)
    assert (alone.error_pauli, alone.iterations, alone.converged) == ("IYII", 20, False)
    assert got == want and len(inner) == 20
    for outcome in [outer, *inner]:
        assert outcome.error.tolist() == alone.error.tolist()
        assert outcome.frustrated.tolist() == alone.frustrated.tolist()
        assert (outcome.converged, outcome.iterations) == (alone.converged, alone.iterations)


def _first_iteration_cases(code_name):
    """(code, p values, syndromes) for the bulk first iteration: every
    syndrome of the 4_1_1 code; on the larger codes the all +1 and all -1
    syndromes, syndromes of sampled errors and uniformly random ones."""
    if code_name == "4_1_1":
        code = build_code_4_1_1()
        signs = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(4)) & 1)
        return code, (0.0, 0.05, 0.3, 1.0), signs
    code, n_sampled, n_random = {
        "c62": (construction_b(C62_ROW), 8, 4),
        "n510": (construction_b(N510_ROW), 2, 1),
        "empty-check": (_code_with_empty_check(), 4, 2),
    }[code_name]
    rng = np.random.default_rng(71)
    signs = [np.ones(code.n_checks, dtype=np.int64), -np.ones(code.n_checks, dtype=np.int64)]
    for _ in range(n_sampled):
        error = sample_error(DepolarizingChannel(0.01), rng.random(code.n_sent))
        signs.append(syndrome(code, code.embed_sent(error)))
    signs.extend(1 - 2 * rng.integers(0, 2, size=(n_random, code.n_checks)))
    return code, (0.01, 0.06), np.array(signs, dtype=np.int64)


_CODE_NAMES = ["4_1_1", "c62", "n510", "empty-check"]
# each code at float64, under its bare name, and at the harness's float32
_FIRST_ITERATION_CASES = pytest.mark.parametrize(
    "code_name, real",
    [(name, real) for real in (np.float64, np.float32) for name in _CODE_NAMES],
    ids=[name + suffix for suffix in ("", "-float32") for name in _CODE_NAMES],
)


def _decode(code, target, pri, max_iter, real, halt=True):
    """decode's outcome at the kernel's dtype: the same job run alone on the
    graph's idle width-1 kernel of that dtype."""
    lanes = idle_lanes(tanner_graph(code), 1, real)
    return lanes.run_one(log_priors(pri, real), target, max_iter, halt)


@_FIRST_ITERATION_CASES
def test_first_iteration_equals_a_lanes_iteration_one(code_name, real):
    # Run between the first and second steps of lanes decoding the same
    # syndromes, the bulk iteration gives the lanes' iteration-1 gammas and
    # log-beliefs bit for bit (-0.0 included), the latter also as the resume
    # states of the runs it does not end at max_iter = 2, and at max_iter = 1
    # it ends every run, handing back the arrays of decode's decisions, masks
    # and verdicts; the lanes' second iteration is decode's at max_iter = 2,
    # so the bulk calls leave them untouched.  The kernel is busy, so the
    # bulk calls use the G0 kept while it was idle.
    code, p_values, targets = _first_iteration_cases(code_name)
    graph = TannerGraph(code)
    k = len(targets)
    verdicts = set()
    for p in p_values:
        pri = channel_priors(DepolarizingChannel(p), code.n_sent)
        lp = log_priors(pri, real)
        lanes = Lanes(graph, k, real)
        first = first_messages(graph, lp, real)
        starts = [(index, lp, target, 2, None) for index, target in enumerate(targets)]
        assert lanes.step(halt=False, starts=starts) == []
        lane = lanes._view(k)
        gammas, beliefs = lane.gamma_cells.tobytes(), lane.bel.tobytes()
        copied = np.moveaxis(lane.bel, -1, 0).copy()
        (rows, _, frustrated), resumes = lanes.first_iteration(lp, first, targets, 2)
        assert rows.tolist() == [
            row for row, target in enumerate(targets)
            if _decode(code, target, pri, 1, real).converged
        ]
        assert not frustrated.any()
        assert sorted(rows.tolist() + [row for row, _ in resumes]) == list(range(k))
        for row, (_, bel) in resumes:
            assert bel.tobytes() == copied[row].tobytes()
        (rows, errors, frustrated), resumes = lanes.first_iteration(lp, first, targets, 1)
        assert resumes == [] and rows.tolist() == list(range(k))
        assert errors.shape == (k, code.n_sent) and errors.dtype == np.uint8
        assert frustrated.shape == (k, code.n_checks)
        bulk = lanes._view(k, first=True)
        assert bulk.gamma_cells.tobytes() == gammas
        assert bulk.bel.tobytes() == beliefs
        for error, mask, target in zip(errors, frustrated, targets, strict=True):
            want = _decode(code, target, pri, 1, real)
            assert error.tolist() == want.error.tolist()
            assert mask.tolist() == want.frustrated.tolist()
            assert want.iterations == 1
            verdicts.add(want.converged)
        _masks_match_counting(
            code, [DecodeOutcome(e, 1, f) for e, f in zip(errors, frustrated)], targets
        )
        second = dict(lanes.step(halt=False))
        for index, target in enumerate(targets):
            want = _decode(code, target, pri, 2, real, halt=False)
            assert second[index].error.tolist() == want.error.tolist()
            assert second[index].frustrated.tolist() == want.frustrated.tolist()
    if code_name in ("4_1_1", "c62"):
        assert verdicts == {True, False}


@_FIRST_ITERATION_CASES
def test_first_runs_continue_from_the_bulk_iteration(code_name, real):
    # A job loaded with the bulk iteration's G0 and log-beliefs starts at
    # iteration 2, so it takes one step less than a fresh job on the same
    # syndrome, and ends as decode does: the same error, verdict, count and
    # mask at max_iter 2 and 90 (both jobs start in the same step and share
    # each layout).  At max_iter 1 the bulk outcome is decode's.
    code, p_values, targets = _first_iteration_cases(code_name)
    graph = TannerGraph(code)
    k = len(targets)
    continued = 0
    for p in p_values:
        pri = channel_priors(DepolarizingChannel(p), code.n_sent)
        lp = log_priors(pri, real)
        lanes, first = Lanes(graph, 2 * k, real), first_messages(graph, lp, real)
        for max_iter in (1, 2, 90):
            wants = [_decode(code, target, pri, max_iter, real) for target in targets]
            (rows, errors, frustrated), resumes = lanes.first_iteration(
                lp, first, targets, max_iter
            )
            got = {
                ("bulk", i): DecodeOutcome(e, 1, f)
                for i, e, f in zip(rows.tolist(), errors, frustrated)
            }
            starts = []
            for i, state in resumes:
                starts.append((("bulk", i), lp, targets[i], max_iter, state))
                starts.append((("fresh", i), lp, targets[i], max_iter, None))
                continued += 1
            steps, step = {}, 0
            while starts or lanes.busy:
                step += 1
                for job, outcome in lanes.step(starts=starts):
                    got[job], steps[job] = outcome, step
                starts = ()
            assert {key for key in got if key[0] == "bulk"} == {("bulk", i) for i in range(k)}
            for (start, i), outcome in got.items():
                want = wants[i]
                if (start, i) in steps:
                    assert steps[start, i] == want.iterations - (start == "bulk")
                assert outcome.error.tolist() == want.error.tolist(), (start, i)
                assert outcome.frustrated.tolist() == want.frustrated.tolist()
                assert (outcome.converged, outcome.iterations) == (
                    want.converged, want.iterations
                )
    assert continued


def test_first_iteration_copies_beliefs_only_for_runs_that_continue(monkeypatch):
    # The bulk iteration builds no outcome: the runs it ends come back as
    # arrays, and it copies the log-beliefs only of the runs it does not
    # end, in one (continuing, 4, n) copy, whose rows are their resume
    # states' beliefs.
    code, _, targets = _first_iteration_cases("c62")
    pri = channel_priors(DepolarizingChannel(0.01), code.n_sent)
    lp = log_priors(pri)
    matched = sum(decode(code, target, pri, max_iter=1).converged for target in targets)
    assert 0 < matched < len(targets)
    built = []

    class Counted(DecodeOutcome):
        def __post_init__(self):
            built.append(self)

    monkeypatch.setattr(decoder, "DecodeOutcome", Counted)
    graph = TannerGraph(code)
    lanes = Lanes(graph, len(targets))
    first = first_messages(graph, lp, lanes.real)  # its two steps build outcomes too
    for max_iter in (90, 1):
        built.clear()
        (rows, _, ended_frustrated), resumes = lanes.first_iteration(lp, first, targets, max_iter)
        assert built == []
        assert not ended_frustrated.any() or max_iter == 1
        beliefs = [bel for _, (_, bel) in resumes]
        if beliefs:
            copy = beliefs[0].base
            assert copy.shape == (len(resumes), 4, code.n_sent)
            assert all(bel.base is copy for bel in beliefs)
            assert not any(np.shares_memory(copy, flat) for flat in lanes._flat.values())
        ended = matched if max_iter == 90 else len(targets)
        assert (len(rows), len(resumes)) == (ended, len(targets) - ended)


def test_first_messages_are_checked_for_odd_symmetry(monkeypatch):
    # G0 is kept only when the all -1 syndrome's iteration-1 gammas are -G0
    # bit for bit; an arctanh that is not odd, by one unit in the last place
    # of the kernel's dtype, makes them differ.
    code = build_code_4_1_1()
    atanh = np.arctanh

    def skewed(x, out):
        atanh(x, out=out)
        return np.nextafter(out, np.inf, out=out)

    for real in (np.float64, np.float32):
        lp = log_priors(channel_priors(DepolarizingChannel(0.1), code.n_sent), real)
        graph = TannerGraph(code)
        monkeypatch.setattr(np, "arctanh", skewed)
        with pytest.raises(ArithmeticError, match="not odd"):
            first_messages(graph, lp, real)
        assert graph._first_messages == {}
        monkeypatch.undo()
        # the graph's width-1 kernel bound the skewed arctanh in its call lists
        graph = TannerGraph(code)
        first = first_messages(graph, lp, real)
        assert first.dtype == real
        assert first_messages(graph, lp, real) is first  # kept per graph and lp


def test_first_messages_are_kept_per_dtype():
    # A float32 kernel given float64 log-priors writes them into float32
    # lanes; the G0 it keeps must not be handed to a float64 kernel.
    code = build_code_4_1_1()
    graph = TannerGraph(code)
    lp = log_priors(channel_priors(DepolarizingChannel(0.1), code.n_sent))
    narrow = first_messages(graph, lp, np.float32)
    wide = first_messages(graph, lp, np.float64)
    assert (narrow.dtype, wide.dtype) == (np.float32, np.float64)
    assert wide.tobytes() == first_messages(TannerGraph(code), lp, np.float64).tobytes()


def test_first_messages_leave_running_jobs_alone():
    # A new G0 is one step of the graph's width-1 kernel, not of the caller's
    # lanes, so it can be computed while a job is running: the job keeps its
    # count and ends as a lone decode does.  A kept G0 is returned whatever
    # the kernel's state, and equals one computed on an idle graph.
    code = construction_b(C62_ROW)
    graph = TannerGraph(code)
    pri = channel_priors(DepolarizingChannel(0.03), code.n_sent)
    lp = log_priors(pri)
    other = log_priors(channel_priors(DepolarizingChannel(0.05), code.n_sent))
    target = 1 - 2 * np.random.default_rng(5).integers(0, 2, code.n_checks)
    lanes = Lanes(graph, 2)
    first = first_messages(graph, lp, lanes.real)
    assert (lanes.busy, lanes.jobs) == (0, [])
    assert lanes.step(starts=[("running", lp, target, 20, None)]) == []
    assert lanes._view(1).iterations.tolist() == [1]
    assert first_messages(graph, other, lanes.real).tobytes() != first.tobytes()  # while running
    assert first_messages(graph, lp, lanes.real) is first
    assert (lanes.busy, lanes.jobs, lanes._view(1).iterations.tolist()) == (1, ["running"], [1])
    finished = []
    while not finished:
        finished = lanes.step()
    ((job, outcome),) = finished
    want = decode(code, target, pri, max_iter=20)
    assert job == "running" and outcome.iterations == want.iterations > 1
    assert outcome.error.tolist() == want.error.tolist()
    assert outcome.frustrated.tolist() == want.frustrated.tolist()
    assert first.tobytes() == first_messages(TannerGraph(code), lp, np.float64).tobytes()
    assert first_messages(graph, lp, np.float64) is first


@pytest.mark.parametrize("real", [np.float64, np.float32])
def test_first_messages_reuse_the_graphs_width_1_kernel(real):
    # Each new G0 is one step of the graph's idle width-1 kernel
    # (idle_lanes), not of a throwaway one: a second log-prior, as a task
    # with two p values has, steps the same kernel again, and each G0 has
    # the bytes of the all +1 syndrome's iteration-1 gammas on a fresh
    # width-1 kernel.
    code = construction_b(C62_ROW)
    graph = TannerGraph(code)
    kernel, lanes = idle_lanes(graph, 1, real), Lanes(graph, 4, real)
    for p in (0.02, 0.03):
        lp = log_priors(channel_priors(DepolarizingChannel(p), code.n_sent), real)
        first = first_messages(graph, lp, real)
        assert idle_lanes(graph, 1, real) is kernel and kernel.jobs == [None]
        fresh = Lanes(graph, 1, real)
        fresh.step(starts=[("all +1", lp, np.full(graph.n_checks, 1), 1, None)])
        assert first.tobytes() == fresh._view(1).gamma_cells[..., 0].tobytes()
    assert len(graph._first_messages) == 2
