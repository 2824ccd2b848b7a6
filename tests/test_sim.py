import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gf4bp
from gf4bp import sim
from gf4bp.channel import DepolarizingChannel, priors as channel_priors
from gf4bp.cli import main
from gf4bp.decoder import DecodeOutcome, TannerGraph, decode
from gf4bp.formats import write_stabilizer_text
from gf4bp.sim import (
    CSV_HEADER,
    ExperimentSpec,
    format_csv,
    load_code,
    run_experiment,
    trace_run,
    wilson_interval,
)
from gf4bp.stabilizer import StabilizerCode, build_code_4_1_1, construction_b, syndrome

from oracles import block_uniforms, classify_outcome, per_cell_experiment

C62_ROW = [1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)]
N510_ROW = [1 if i in (8, 36, 118, 128, 190, 240) else 0 for i in range(255)]


@pytest.fixture
def code411():
    return build_code_4_1_1()


def _outcome(code, pauli, iterations=5):
    from gf4bp import gf4

    # the sampled errors below all have IIZX's syndrome (-1, +1, +1, +1)
    error = gf4.pauli_to_values(pauli)
    frustrated = syndrome(code, code.embed_sent(error)) != [-1, 1, 1, 1]
    return DecodeOutcome(error, iterations, frustrated)


def test_bools_are_not_integers(code411):
    # check_integer accepted True as 1: ExperimentSpec(blocks=True) then failed
    # inside run_experiment, decode(max_iter=True) ran one iteration (seeds of
    # substream and substream_uniforms: test_substream_seed_must_be_an_integer)
    for field in ("blocks", "max_iter", "seed", "workers", "t_pert", "n_a"):
        for value in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"{field} must be an integer, not"):
                ExperimentSpec(
                    code=code411, p_values=(0.1,), strategies=("standard", "enhanced"),
                    **{field: value},
                )
    with pytest.raises(ValueError, match="max_iter must be an integer, not True"):
        decode(code411, [-1, 1, 1, 1], channel_priors(DepolarizingChannel(0.1), 4),
               max_iter=True)


def test_classify_exact(code411):
    error = code411.embed_sent("IIZX")
    assert classify_outcome(code411, error, _outcome(code411, "IIZX")) == "exact"


def test_classify_degenerate(code411):
    # IIZX and YZII differ by the third generator YZZXI
    error = code411.embed_sent("YZII")
    assert (
        classify_outcome(code411, error, _outcome(code411, "IIZX"))
        == "degenerate"
    )


def test_classify_nonequivalent(code411):
    # IYIZ has the same syndrome as IIZX but is not stabilizer-equivalent
    error = code411.embed_sent("IIZX")
    assert (
        classify_outcome(code411, error, _outcome(code411, "IYIZ"))
        == "nonequivalent"
    )


def test_classify_detected(code411):
    error = code411.embed_sent("IIZX")
    assert (
        classify_outcome(code411, error, _outcome(code411, "IYII"))
        == "detected"
    )


def test_classify_unchecked(code411):
    error = code411.embed_sent("YZII")
    assert (
        classify_outcome(
            code411, error, _outcome(code411, "IIZX"), check_membership=False
        )
        == "unchecked"
    )


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.0215, abs=2e-3)
    assert hi == pytest.approx(0.1118, abs=2e-3)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)


def test_load_code_builtin_and_file(tmp_path, code411):
    assert load_code("4_1_1").checks.tolist() == code411.checks.tolist()
    assert load_code(code411) is code411
    path = tmp_path / "code.stab"
    path.write_text("XZXIX\nXXIXZ\nYZZXI\nZXXYI\n!ebits=1\n")
    assert load_code(str(path)).checks.tolist() == code411.checks.tolist()
    with pytest.raises(ValueError):
        load_code("no_such_code")


def test_run_experiment_p_zero(code411):
    spec = ExperimentSpec(code=code411, p_values=(0.0,), blocks=100, seed=1)
    stats, blocks = run_experiment(spec)
    (s,) = stats
    assert s.ber == 0.0
    assert s.anoi == 1.0
    assert s.exact == 100
    assert all(b.outcome == "exact" for b in blocks)


def test_run_experiment_injection_pair(code411):
    # injected IIZX: pinned-seed enhanced decoding recovers it exactly;
    # injected YZII has the same syndrome, so the decoder output is identical
    # and the block classifies as degenerate
    base = dict(
        code=code411, p_values=(0.1,), strategies=("enhanced",), blocks=4,
        seed=3, n_a=12,
    )
    stats_exact, blocks_exact = run_experiment(
        ExperimentSpec(inject="IIZX", **base)
    )
    stats_degen, blocks_degen = run_experiment(
        ExperimentSpec(inject="YZII", **base)
    )
    for be, bd in zip(blocks_exact, blocks_degen):
        assert be.e_out == bd.e_out
        if be.outcome == "exact":
            assert be.e_out == "IIZX"
            assert bd.outcome == "degenerate"
        else:
            assert be.outcome == bd.outcome == "detected"
    assert any(b.outcome == "exact" for b in blocks_exact)


def test_run_experiment_errors_strict_identity(code411):
    spec = ExperimentSpec(
        code=code411, p_values=(0.2,), strategies=("standard",), blocks=200, seed=5
    )
    stats, blocks = run_experiment(spec)
    (s,) = stats
    assert s.errors_strict == s.n_blocks - s.exact
    assert s.exact + s.degenerate + s.nonequivalent + s.detected == s.n_blocks
    assert s.anoi == pytest.approx(
        sum(b.iterations for b in blocks) / len(blocks)
    )


def test_csv_format(code411):
    spec = ExperimentSpec(
        code=code411, p_values=(0.0, 0.1), strategies=("standard",), blocks=20, seed=2
    )
    stats, _ = run_experiment(spec)
    text = format_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0.0,standard,20,")


def test_csv_header_has_a_column_per_stats_field():
    # a row is StrategyStats' fields in order, so the header names each one,
    # and its class columns are OUTCOME_CLASSES in order (unchecked was once
    # left out of a row written field by field)
    columns, names = CSV_HEADER.split(","), [f.name for f in fields(sim.StrategyStats)]
    assert [column.lower() for column in columns] == names
    first = names.index(sim.OUTCOME_CLASSES[0])
    assert tuple(columns[first : first + len(sim.OUTCOME_CLASSES)]) == sim.OUTCOME_CLASSES
    # floats print as their repr, a numpy-integer seed as its digits
    stats = sim.StrategyStats(0.1, "pc08", 3, 1, 1 / 3, 0.0, 0.9, 2.5, 2, 0, 0, 1, 0, np.int64(7))
    assert stats.csv_row() == "0.1,pc08,3,1,0.3333333333333333,0.0,0.9,2.5,2,0,0,1,0,7"


def test_determinism_serial_vs_parallel(code411):
    row = np.zeros(7, dtype=np.uint8)
    row[[0, 1, 3]] = 1
    code = construction_b(row)
    kwargs = dict(
        code=code, p_values=(0.05,), strategies=("standard", "enhanced"),
        blocks=60, seed=11,
    )
    stats_serial, blocks_serial = run_experiment(ExperimentSpec(workers=1, **kwargs))
    stats_parallel, blocks_parallel = run_experiment(ExperimentSpec(workers=2, **kwargs))
    assert format_csv(stats_serial) == format_csv(stats_parallel)
    assert [
        (b.block, b.e_out, b.iterations, b.outcome) for b in blocks_serial
    ] == [(b.block, b.e_out, b.iterations, b.outcome) for b in blocks_parallel]


def test_code_by_name_gives_the_same_bytes(tmp_path):
    # the spec loads a code given by name when it is made; the pool tasks
    # (spec, block_lo, block_hi) then carry the loaded code, its injected
    # error and its channels
    outputs = []
    for code in ("4_1_1", build_code_4_1_1()):
        for inject in (None, "IXII"):
            spec = ExperimentSpec(
                code=code, p_values=(0.05, 0.2), strategies=("standard", "enhanced"),
                blocks=30, seed=5, inject=inject, workers=2,
            )
            assert spec.code.n_sent == 4 and len(spec.channels) == 2
            jsonl = tmp_path / f"{len(outputs)}.jsonl"
            stats, _ = run_experiment(spec, jsonl_path=jsonl)
            outputs.append((format_csv(stats), jsonl.read_bytes()))
    assert outputs[:2] == outputs[2:]
    assert outputs[0] != outputs[1]


def test_rerun_is_byte_identical(code411):
    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), strategies=("pc08",), blocks=50, seed=13
    )
    a, _ = run_experiment(spec)
    b, _ = run_experiment(spec)
    assert format_csv(a) == format_csv(b)


def test_jsonl_log(tmp_path, code411):
    path = tmp_path / "blocks.jsonl"
    spec = ExperimentSpec(code=code411, p_values=(0.1,), blocks=10, seed=4)
    _, blocks = run_experiment(spec, jsonl_path=path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 10
    record = json.loads(lines[0])
    assert set(record) == {
        "p", "strategy", "block", "error", "e_out", "converged", "iterations", "class",
    }
    assert record["block"] == 0


def test_spec_configs_parallel_to_strategies(code411):
    # configs holds None exactly at standard BP's positions, in spec order,
    # and each feedback strategy's FeedbackConfig with the spec's parameters
    # elsewhere (it was a dict keyed by the feedback strategies' names)
    from gf4bp.feedback import FeedbackConfig

    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), strategies=("enhanced", "standard", "pc08"),
        t_pert=7, n_a=3, delta=0.5,
    )
    assert spec.configs == (
        FeedbackConfig("enhanced", 7, 3, 0.5), None, FeedbackConfig("pc08", 7, 3, 0.5),
    )
    assert ExperimentSpec(code=code411, p_values=(0.1,)).configs == (None,)
    with pytest.raises(ValueError, match="'Standard' is not a feedback strategy"):
        ExperimentSpec(code=code411, p_values=(0.1,), strategies=("standard", "Standard"))


def test_spec_validation(code411):
    with pytest.raises(ValueError):
        ExperimentSpec(code=code411, p_values=(1.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(code=code411, p_values=(0.1,), blocks=0)
    with pytest.raises(ValueError):
        ExperimentSpec(code=code411, p_values=(0.1,), strategies=("bogus",))
    with pytest.raises(ValueError):
        ExperimentSpec(code=code411, p_values=(0.1,), workers=0)
    # empty lists used to give a CSV with only a header
    with pytest.raises(ValueError, match="no p values"):
        ExperimentSpec(code=code411, p_values=())
    with pytest.raises(ValueError, match="no strategy values"):
        ExperimentSpec(code=code411, p_values=(0.1,), strategies=())
    # a bare string or number used to be read as its characters ("unknown
    # strategy 'p'", "duplicate strategy values") or to raise a TypeError; a
    # set would order the output cells by the string hash seed
    for changes in ({"strategies": "pc08"}, {"strategies": "standard"},
                    {"strategies": {"standard", "pc08"}}, {"p_values": 0.1},
                    {"p_values": "0.1"}, {"p_values": np.float64(0.1)},
                    {"p_values": np.array(0.1)}):
        (name, value), = changes.items()
        with pytest.raises(ValueError, match=f"^{name} must be a sequence of values"):
            ExperimentSpec(code=code411, **{"p_values": (0.1,), **changes})
    ExperimentSpec(code=code411, p_values=np.array([0.1, 0.2]), strategies=["pc08"])
    # a cap of 0 iterations used to report 1 iteration, converged and exact
    with pytest.raises(ValueError, match="max_iter"):
        ExperimentSpec(code=code411, p_values=(0.1,), inject="IXII", max_iter=0)
    ExperimentSpec(code=code411, p_values=(0.1,), max_iter=1)
    # counts and the seed must be integers: a seed of 1.5 used to run as
    # seed 1 and write 1.5 in the CSV, max_iter=2.5 to cap at 3, blocks=2.5
    # to raise a TypeError, and a negative seed to fail inside a worker
    for changes, message in (
        ({"seed": 1.5}, "seed must be an integer, not 1.5"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"blocks": 2.5}, "blocks must be an integer"),
        ({"blocks": 2.0}, "blocks must be an integer"),
        ({"max_iter": 2.5}, "max_iter must be an integer"),
        ({"workers": 1.5}, "workers must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(code=code411, p_values=(0.1,), **changes)
    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), blocks=np.int64(3), seed=np.uint32(0),
        max_iter=np.int32(5), workers=np.int64(1),
    )
    assert format_csv(run_experiment(spec)[0]).splitlines()[1].endswith(",0")
    # feedback parameters follow FeedbackConfig's rules whatever the
    # strategies: standard alone used to accept every bad one below.  An
    # injected error must be a Pauli string covering the sent qubits.
    for strategies, (changes, message) in product((("standard",), ("standard", "pc08")), (
        ({"t_pert": 0}, "t_pert"),
        ({"n_a": -1}, "n_a"),
        ({"t_pert": 2.5}, "t_pert must be an integer"),
        ({"n_a": 1.5}, "n_a must be an integer"),
        ({"n_a": -3}, "n_a must be nonnegative"),
        ({"n_a": "x"}, "n_a must be an integer, not 'x'"),
        ({"delta": -1.0}, "delta"),
        ({"inject": "IXI"}, "must cover the 4 sent qubits"),
        ({"inject": "IXQI"}, "invalid Pauli symbol"),
        # a NaN delta used to run every pc08 round on NaN priors
        ({"delta": float("nan")}, "delta must be nonnegative and finite"),
        ({"delta": float("inf")}, "delta must be nonnegative and finite"),
    )):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(code=code411, p_values=(0.1,), strategies=strategies, **changes)
    # by name too, the injected error is checked when the spec is made,
    # which loads the code
    for inject, message in (("IXI", "must cover the 4 sent qubits"),
                            ("IXQI", "invalid Pauli symbol")):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(code="4_1_1", p_values=(0.1,), blocks=2, inject=inject)
    ExperimentSpec(code=code411, p_values=(0.1,), t_pert=1, n_a=0, delta=0.0)


def test_spec_rejects_duplicate_cells(code411):
    # a repeated p or strategy used to give repeated rows counting each
    # block twice
    with pytest.raises(ValueError, match="duplicate p"):
        ExperimentSpec(code="4_1_1", p_values=(0.1, 0.1), blocks=50)
    with pytest.raises(ValueError, match="duplicate p"):
        ExperimentSpec(code=code411, p_values=(0.1, 0.05, 0.10))
    with pytest.raises(ValueError, match="duplicate strategy"):
        ExperimentSpec(
            code=code411, p_values=(0.1,), strategies=("pc08", "standard", "pc08")
        )


def test_trace_run_standard(code411):
    spec = ExperimentSpec(code=code411, p_values=(0.1,), max_iter=15, inject="IIZX")
    rows, outcome = trace_run(spec)
    assert not outcome.converged
    assert len(rows) == 15 * 4
    iteration, qubit, beliefs = rows[0]
    assert iteration == 1 and qubit == 0
    assert beliefs.shape == (4,)
    assert abs(beliefs.sum() - 1.0) < 1e-9


def test_trace_run_rows_own_their_beliefs(code411):
    # rows of different iterations never share memory, across a pinned round too
    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), strategies=("enhanced",), max_iter=20, t_pert=40,
        inject="IIZX",
    )
    for rows in (trace_run(replace(spec, strategies=("standard",)))[0],
                 trace_run(spec, check=1, qubit=3)[0]):
        assert {t for t, _, _ in rows} == set(range(1, rows[-1][0] + 1))
        for (t, _, a), (u, _, b) in product(rows, repeat=2):
            assert t == u or not np.shares_memory(a, b)
        assert np.allclose([beliefs.sum() for _, _, beliefs in rows], 1.0, rtol=0, atol=1e-9)


def test_trace_run_pinned_round(code411):
    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), strategies=("enhanced",), max_iter=88, t_pert=40,
        inject="IIZX",
    )
    rows, outcome = trace_run(spec, check=1, qubit=3)
    assert outcome.converged
    assert outcome.error_pauli == "IIZX"
    assert outcome.iterations == 88 + 3
    # iterations are numbered continuously across the standard run and round
    assert rows[-1][0] == 88 + 3


def test_trace_run_pinned_first_run_converges(code411, monkeypatch):
    # IXII's first run converges in one iteration: the pinned round never
    # runs, and the trace is that run's 4 rows
    spec = ExperimentSpec(code=code411, p_values=(0.1,), strategies=("enhanced",), inject="IXII")
    rows, outcome = trace_run(spec, check=1, qubit=0)
    assert outcome.converged and outcome.iterations == 1
    assert outcome.error_pauli == "IXII"
    assert [(t, q) for t, q, _ in rows] == [(1, q) for q in range(4)]
    # qubit 2 is not on check 1: refused before the first run decodes
    monkeypatch.setattr(sim, "decode", lambda *args, **kwargs: pytest.fail("decoded"))
    with pytest.raises(ValueError, match="0-based qubit 2 is not connected to check 1"):
        trace_run(spec, check=1, qubit=2)


def test_trace_run_validates_arguments(code411):
    cell = partial(ExperimentSpec, code=code411, p_values=(0.1,))
    with pytest.raises(ValueError):
        trace_run(cell())
    with pytest.raises(ValueError):
        trace_run(cell(inject="IIZX"), target=[1, 1, 1, 1])
    with pytest.raises(ValueError):
        trace_run(cell(strategies=("enhanced",), inject="IIZX"), check=1)
    # a syndrome entry of 1.5 used to be cast to +1 before decode saw it
    for strategy, pin in (("standard", {}), ("enhanced", {}), ("pc08", {"check": 1, "qubit": 3})):
        with pytest.raises(ValueError, match=r"syndrome entries must be \+1 or -1"):
            trace_run(cell(strategies=(strategy,)), target=[-1, 1.5, 1, 1], **pin)


@pytest.mark.parametrize(
    "cells",
    [{"p_values": (0.1, 0.2)}, {"p_values": (0.1,), "strategies": ("pc08", "enhanced")}],
    ids=["two-p", "two-strategies"],
)
def test_trace_run_takes_one_cell(code411, cells):
    # a trace decodes one instance: a spec of several cells is refused, not
    # cut down to its first
    with pytest.raises(ValueError, match="a trace runs one p and one strategy"):
        trace_run(ExperimentSpec(code=code411, inject="IIZX", **cells))


def test_unpinned_trace_is_block_0_of_its_cell(code62, monkeypatch):
    # trace_run draws its feedback from the key of block 0 of its one-cell
    # spec, so in the harness's kernel at float64 that block, given the same
    # injected error, ends as the trace does.  The errors are three whose
    # standard BP fails and one it decodes to another error.
    cell = partial(ExperimentSpec, code=code62, p_values=(0.03,), max_iter=30, t_pert=10)
    _, sampled = run_experiment(cell(blocks=300, seed=5))
    failed = [b.error for b in sampled if not b.converged]
    errors = failed[:3] + [next(b.error for b in sampled if b.converged and b.e_out != b.error)]
    assert len(errors) == 4
    monkeypatch.setattr(sim, "LANE_REAL", np.float64)
    ends = []
    for strategy, seed, error in product(("standard", "pc08", "enhanced"), (0, 7), errors):
        spec = cell(strategies=(strategy,), blocks=1, seed=seed, inject=error)
        _, (block,) = run_experiment(spec)
        _, outcome = trace_run(spec)
        assert (block.e_out, block.iterations, block.converged) == (
            outcome.error_pauli, outcome.iterations, outcome.converged
        ), (strategy, seed, error)
        ends.append((strategy, block.converged, block.iterations > spec.max_iter))
    assert ("enhanced", True, True) in ends and ("pc08", False, True) in ends


@pytest.fixture(scope="module")
def code62():
    return construction_b(C62_ROW)


@pytest.fixture(scope="module")
def code510():
    return construction_b(N510_ROW)


def _assert_matches_reference(spec, tmp_path):
    """run_experiment with 1 and 2 workers against the frozen per-(p, strategy)
    reference: every BlockResult field, the CSV and the JSONL bytes agree.
    Returns (block results, feedback verdict counts)."""
    reference_path = tmp_path / "reference.jsonl"
    ref_stats, ref_blocks, verdicts = per_cell_experiment(
        spec, jsonl_path=reference_path
    )
    for workers in (1, 2):
        path = tmp_path / f"workers{workers}.jsonl"
        stats, blocks = run_experiment(replace(spec, workers=workers), jsonl_path=path)
        assert blocks == ref_blocks
        assert format_csv(stats) == format_csv(ref_stats)
        assert path.read_bytes() == reference_path.read_bytes()
    return blocks, verdicts


@pytest.mark.parametrize(
    "strategies",
    [("standard", "pc08", "enhanced"), ("enhanced", "pc08")],
    ids=["all", "enhanced-pc08"],
)
def test_shared_first_run_matches_per_cell_reference(code62, tmp_path, strategies):
    # The harness decodes each block's syndrome once and feedback continues
    # from that run; the reference decodes it anew for every strategy.  The
    # second order gives the strategies other decoder substreams.
    spec = ExperimentSpec(
        code=code62, p_values=(0.03, 0.06), strategies=strategies, blocks=40, seed=1
    )
    blocks, verdicts = _assert_matches_reference(spec, tmp_path)
    assert verdicts["restored"] >= 1 and verdicts["check_satisfied"] >= 1
    assert any(
        b.strategy != "standard" and b.converged and b.iterations > spec.max_iter
        for b in blocks
    )


def test_max_iter_one_matches_per_cell_reference(code62, tmp_path):
    # At max_iter = 1 a first run is its bulk iteration 1, matched or not;
    # feedback continues from the unmatched ones.
    spec = ExperimentSpec(
        code=code62, p_values=(0.002, 0.03), strategies=("standard", "pc08", "enhanced"),
        blocks=40, seed=1, max_iter=1, t_pert=5,
    )
    blocks, _ = _assert_matches_reference(spec, tmp_path)
    standard = {(b.converged, b.iterations) for b in blocks if b.strategy == "standard"}
    assert standard == {(True, 1), (False, 1)}


def test_injected_run_matches_per_cell_reference(code411, tmp_path):
    spec = ExperimentSpec(
        code=code411, p_values=(0.1,), strategies=("standard", "pc08", "enhanced"),
        blocks=6, seed=3, n_a=12, inject="IIZX",
    )
    blocks, verdicts = _assert_matches_reference(spec, tmp_path)
    assert sum(verdicts.values()) >= 1


@pytest.fixture(scope="module")
def lane_reference(code62, tmp_path_factory):
    """The [[62,2]] experiment of the invariance tests and its per-cell
    reference run: (spec, stats, block results, JSONL bytes)."""
    spec = ExperimentSpec(
        code=code62, p_values=(0.03, 0.06),
        strategies=("standard", "pc08", "enhanced"), blocks=40, seed=1,
    )
    path = tmp_path_factory.mktemp("reference") / "reference.jsonl"
    stats, blocks, _ = per_cell_experiment(spec, jsonl_path=path)
    return spec, stats, blocks, path.read_bytes()


def _assert_equals_reference(reference, tmp_path, **changes):
    spec, ref_stats, ref_blocks, ref_jsonl = reference
    path = tmp_path / "run.jsonl"
    stats, blocks = run_experiment(replace(spec, **changes), jsonl_path=path)
    assert blocks == ref_blocks
    assert format_csv(stats) == format_csv(ref_stats)
    assert path.read_bytes() == ref_jsonl
    return blocks


def test_block_results_are_read_by_iteration(lane_reference):
    # run_experiment's results are built as they are read from per-cell
    # records: len and iteration follow the spec order of p, strategy and
    # block, they compare equal to a list, they cannot be indexed or
    # assigned to, and a p's equal error strings are handed out as one string.
    spec, _, ref_blocks, _ = lane_reference
    _, blocks = run_experiment(spec)
    assert isinstance(blocks, sim.BlockResults) and not isinstance(blocks, list)
    assert len(blocks) == len(ref_blocks) == 2 * 3 * spec.blocks
    assert blocks == ref_blocks and ref_blocks == blocks and blocks == blocks
    assert list(blocks) == ref_blocks
    assert [(b.p, b.strategy, b.block) for b in blocks] == [
        (p, s, i) for p in spec.p_values for s in spec.strategies for i in range(spec.blocks)
    ]
    with pytest.raises(TypeError):
        blocks[0]
    with pytest.raises(TypeError):
        blocks[0] = ref_blocks[0]
    assert blocks != ref_blocks[:-1] and blocks != ref_blocks[1:] + ref_blocks[:1]
    assert not blocks == 5 and blocks != 5  # neither a list nor results: NotImplemented
    assert ref_blocks[5] in blocks
    for p in spec.p_values:
        errors = [b.error for b in blocks if b.p == p]
        assert len(set(map(id, errors))) == len(set(errors)) < len(errors)


def test_simulate_builds_no_block_result(tmp_path, monkeypatch):
    # The CSV and the JSONL log are written from the result arrays.
    def refuse(*args):
        raise AssertionError("a BlockResult was built")

    monkeypatch.setattr(sim, "BlockResult", refuse)
    jsonl = tmp_path / "blocks.jsonl"
    result = CliRunner().invoke(main, [
        "simulate", "--p", "0.05,0.2", "--strategy", "standard,pc08,enhanced",
        "--blocks", "30", "--out", str(tmp_path / "out.csv"), "--jsonl", str(jsonl),
    ])
    assert result.exit_code == 0, result.output
    assert len(jsonl.read_text().splitlines()) == 2 * 3 * 30


def test_pool_task_result_pickles_small(code62):
    # A pool task returns a record array and joined error strings, not one
    # object per (p, strategy, block): on this [[62,2]] task a result pickles to
    # 57.06 bytes (a block's 62 error characters serve 3 strategies) where a
    # list of BlockResults took 100.8.  Pickled sizes are deterministic.
    import pickle

    spec = ExperimentSpec(
        code=code62, p_values=(0.03, 0.06), strategies=("standard", "pc08", "enhanced"),
        blocks=40, seed=20260808,
    )
    task = sim._run_blocks((spec, 0, spec.blocks))
    assert type(task) in (list, tuple)
    per_result = len(pickle.dumps(list(task))) / (2 * 3 * spec.blocks)
    assert per_result == pytest.approx(57.06, abs=0.5)


@pytest.fixture(scope="module")
def n510_reference(code510, tmp_path_factory):
    """Twenty standard-BP blocks on the n=510 code, more than the widths 8
    (its harness lanes) and 15 that the width test forces, and their per-cell
    reference run."""
    spec = ExperimentSpec(
        code=code510, p_values=(0.09,), strategies=("standard",), blocks=20, seed=1,
    )
    path = tmp_path_factory.mktemp("reference") / "reference.jsonl"
    stats, blocks, _ = per_cell_experiment(spec, jsonl_path=path)
    return spec, stats, blocks, path.read_bytes()


@pytest.mark.parametrize(
    "reference, width",
    [
        ("lane_reference", 1), ("lane_reference", 3), ("lane_reference", 64),
        ("n510_reference", 1), ("n510_reference", 2),
        ("n510_reference", 8), ("n510_reference", 15),
    ],
    ids=["1", "3", "64", "n510-1", "n510-2", "n510-8", "n510-15"],
)
def test_lane_width_does_not_change_outputs(request, tmp_path, monkeypatch, reference, width):
    # The width normally follows from the code; forcing it through the
    # scheduler's width function must leave every output as the reference.
    widths = []

    def forced(graph, real):
        widths.append(width)
        return width

    monkeypatch.setattr(sim, "lane_width", forced)
    blocks = _assert_equals_reference(
        request.getfixturevalue(reference), tmp_path, workers=1
    )
    assert widths == [width]
    if reference == "lane_reference":
        assert any(b.strategy != "standard" and b.iterations > 90 for b in blocks)
    else:
        assert len({b.iterations for b in blocks}) > 1  # lanes finish apart


def test_three_entry_types_match_per_cell_reference(code62, tmp_path, monkeypatch):
    # X and Y swapped on every even qubit of the [[62,2]] code (a phase gate
    # there, so the rows still commute) makes 186 Y edges: the lanes then
    # keep a Y row of entry sums and the decision's XOR row.  Every output
    # equals the per-cell reference at lane widths 1, 3 and the default,
    # and with 2 workers.
    checks = code62.checks.copy()
    even = checks[:, ::2]
    even[even % 2 == 1] ^= 2  # X (1) <-> Y (3)
    code = StabilizerCode(checks, n_ebits=code62.n_ebits)
    graph = TannerGraph(code)
    assert graph.n_types == 3 and (graph.edge_entry == 3).sum() == 186
    spec = ExperimentSpec(
        code=code, p_values=(0.03, 0.06), strategies=("standard", "pc08", "enhanced"),
        blocks=40, seed=1,
    )
    path = tmp_path / "reference.jsonl"
    stats, blocks, _ = per_cell_experiment(spec, jsonl_path=path)
    assert any(b.strategy != "standard" and b.iterations > spec.max_iter for b in blocks)
    reference = spec, stats, blocks, path.read_bytes()
    for width, workers in [(1, 1), (3, 1), (None, 1), (None, 2)]:
        with monkeypatch.context() as patch:
            if width is not None:
                patch.setattr(sim, "lane_width", lambda graph, real, width=width: width)
            _assert_equals_reference(reference, tmp_path, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_does_not_change_outputs(lane_reference, tmp_path, monkeypatch, workers):
    # one task per worker: 40 blocks in ranges of 40, 20 or 14, with the
    # core cap lifted so that a 2-core machine runs 3 tasks too
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    _assert_equals_reference(lane_reference, tmp_path, workers=workers)


def test_pool_is_sized_by_its_tasks(code411, monkeypatch):
    # A run takes one range of blocks per worker (fewer when blocks <
    # workers); the caller decodes the first range and forks one worker for
    # each other one, so k ranges fork k - 1 workers and a single range forks
    # none.  Ranges are at most one per core, so a worker count far above the
    # cores forks at most cores - 1 workers, and a machine whose core count
    # is unknown runs serially.  Without os.fork the caller decodes every
    # range, one after another.  Every output equals the serial run's.
    forks, calls = [], []
    fork, run_blocks = os.fork, sim._run_blocks

    def counted_fork():
        forks.append(None)
        return fork()

    def counted_run_blocks(args):
        calls.append(args[1:])  # kept only by the process that decodes the range
        return run_blocks(args)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(sim, "_run_blocks", counted_run_blocks)
    spec = ExperimentSpec(
        code=code411, p_values=(0.1, 0.3), strategies=("standard", "pc08"), seed=2, n_a=4,
    )
    for cores, blocks, workers, forked in [
        (8, 3, 8, 2), (8, 5, 4, 2), (8, 1, 4, 0), (8, 9, 2, 1), (8, 9, 1, 0),
        (2, 50, 5000, 1), (2, 9, 3, 1), (2, 1, 5000, 0), (None, 9, 4, 0),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        forks.clear()
        calls.clear()
        pooled = run_experiment(replace(spec, blocks=blocks, workers=workers))
        assert len(forks) == forked
        assert calls == [(0, math.ceil(blocks / min(workers, cores or 1)))]
        assert pooled == run_experiment(replace(spec, blocks=blocks))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "fork")
    calls.clear()
    serial = run_experiment(replace(spec, blocks=9, workers=3))
    assert calls == [(0, 3), (3, 6), (6, 9)]
    assert serial == run_experiment(replace(spec, blocks=9))


def _failing_workers(monkeypatch, worker, caller=None, code="4_1_1", **fields):
    """A spec of two ranges of 5 blocks on 2 cores: the caller's range runs
    _run_blocks, or caller if given, and the worker's runs worker."""
    run_blocks = sim._run_blocks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        sim, "_run_blocks", lambda args: ((caller or run_blocks) if args[1] == 0 else worker)(args)
    )
    return ExperimentSpec(code=code, p_values=(0.1,), blocks=10, seed=2, workers=2, **fields)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # The worker sends its traceback's text; the caller raises it, named by
    # the worker's block range, once the worker is reaped.
    def fails(args):
        raise ValueError(f"no decoder for blocks from {args[1]}")

    spec = _failing_workers(monkeypatch, fails)
    with pytest.raises(RuntimeError) as info:
        run_experiment(spec)
    message = str(info.value)
    assert message.startswith("the worker of blocks [5, 10) failed:\nTraceback")
    assert message.endswith("ValueError: no decoder for blocks from 5\n")
    _assert_no_child_left()


@pytest.mark.parametrize("status", [3, 1], ids=["os-exit", "result-unpicklable"])
def test_a_worker_that_exits_without_a_result_is_an_error(monkeypatch, status):
    # A worker that leaves by os._exit(3) sends nothing; one whose result
    # fails to pickle has written part of it when it exits with status 1.
    def leaves(args):
        if status == 3:
            os._exit(3)
        return ["I" * 200_000, lambda: None]

    spec = _failing_workers(monkeypatch, leaves)
    with pytest.raises(RuntimeError, match=(
        rf"^the worker of blocks \[5, 10\) exited with status {status} and no result$"
    )):
        run_experiment(spec)
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError("the caller's range"), KeyboardInterrupt()])
def test_a_failing_caller_leaves_no_worker(monkeypatch, error):
    # The worker would decode for a minute; the caller's own range fails at
    # once, and the caller kills and reaps the worker before the error
    # propagates.
    def fails(args):
        raise error

    spec = _failing_workers(monkeypatch, lambda args: time.sleep(60), caller=fails)
    start = time.perf_counter()
    with pytest.raises(type(error)):
        run_experiment(spec)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_workers_inherit_the_graph_and_lanes(monkeypatch):
    # The caller builds the code's graph and harness lane kernel before it
    # forks, and a worker that built either again would fail the run.  Each
    # process still builds the width-1 kernel that computes G0
    # (Lanes.first_messages) when its range first needs it.
    from gf4bp.decoder import Lanes, TannerGraph, lane_width

    built, run_blocks = [], sim._run_blocks
    for cls in (TannerGraph, Lanes):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built.append((name, *args[1:]))  # a kernel's width and dtype
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    g0_kernel = ("Lanes", 1, sim.LANE_REAL)

    def checked(args):
        before = len(built)
        result = run_blocks(args)
        if built[before:] != [g0_kernel]:
            raise AssertionError(f"a worker built {built[before:]}")
        return result

    code = build_code_4_1_1()  # a fresh code object has no graph yet
    spec = _failing_workers(monkeypatch, checked, code=code, strategies=("standard", "enhanced"))
    _, results = run_experiment(spec)
    width = lane_width(sim.tanner_graph(code), sim.LANE_REAL)
    assert width > 1
    assert built == [("TannerGraph",), ("Lanes", width, sim.LANE_REAL), g0_kernel]  # the caller's
    assert results == run_experiment(replace(spec, workers=1))[1]


def test_a_block_never_written_is_not_classified(code411, monkeypatch):
    # A record that no task wrote keeps the "not decoded" class code through
    # classify_results, and run_experiment refuses the cell.
    run = sim._Chunk.run

    def unwrite_one(self):
        texts, e_outs, records = run(self)
        records[0, 0, 0]["klass"] = sim._UNDECODED
        return texts, e_outs, records

    monkeypatch.setattr(sim._Chunk, "run", unwrite_one)
    spec = ExperimentSpec(code=code411, p_values=(0.1,), blocks=40, seed=2)
    with pytest.raises(RuntimeError, match=r"^39 of 40 blocks decoded in a cell$"):
        run_experiment(spec)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "batch_blocks, key_batches",
    [(1, None), (7, None), (256, None), (7, 1), (7, 2)],
    ids=["1", "7", "256", "7-window1", "7-window2"],
)
def test_batch_size_does_not_change_outputs(
    lane_reference, tmp_path, monkeypatch, batch_blocks, key_batches, workers
):
    # Blocks are sampled and grouped by syndrome a batch at a time, from
    # keys hashed a window of batches at a time (by default one window covers these tasks; 14 blocks divide
    # neither 40 nor 20); a pool worker forks with the patched sizes.
    monkeypatch.setattr(sim, "BATCH_BLOCKS", batch_blocks)
    if key_batches is not None:
        monkeypatch.setattr(sim, "KEY_BATCHES", key_batches)
    _assert_equals_reference(lane_reference, tmp_path, workers=workers)


def test_unchecked_outputs_are_counted(code411, tmp_path, monkeypatch):
    # Above sim.DEGENERACY_LIMIT qubits (here below 4_1_1's 5, one ebit
    # included) a converged output that is not the error is classed
    # unchecked, for first runs and for finished feedback runs alike, with
    # one worker or a pool (the run's own process classifies).  The CSV's
    # class columns, unchecked among them, sum to n_blocks.
    monkeypatch.setattr(sim, "DEGENERACY_LIMIT", code411.n_total - 1)
    spec = ExperimentSpec(
        code=code411, p_values=(0.15, 0.25), strategies=("standard", "pc08", "enhanced"),
        blocks=60, seed=3, n_a=4,
    )
    ref_stats, ref_blocks, _ = per_cell_experiment(spec)
    for workers in (1, 2):
        stats, blocks = run_experiment(replace(spec, workers=workers))
        assert blocks == ref_blocks
        assert stats == ref_stats
        assert format_csv(stats) == format_csv(ref_stats)
    unchecked = [b for b in blocks if b.outcome == "unchecked"]
    assert unchecked and all(b.converged and b.e_out != b.error for b in unchecked)
    standard = {(b.p, b.block): b for b in blocks if b.strategy == "standard"}
    assert any(
        b.strategy != "standard" and not standard[b.p, b.block].converged
        for b in unchecked
    )
    rows = format_csv(stats).splitlines()[1:]
    for s, row in zip(stats, rows, strict=True):
        cell = [b for b in blocks if (b.p, b.strategy) == (s.p, s.strategy)]
        assert s.unchecked == sum(b.outcome == "unchecked" for b in cell)
        assert s.degenerate == s.nonequivalent == 0
        exact, degenerate, nonequivalent, detected, unchecked_column = map(
            int, row.split(",")[8:13]
        )
        assert unchecked_column == s.unchecked
        assert exact + degenerate + nonequivalent + detected + s.unchecked == s.n_blocks
    assert sum(s.unchecked for s in stats) == len(unchecked)


def test_lane_width_follows_the_code(code62, code510, monkeypatch):
    from gf4bp import decoder
    from gf4bp.decoder import LANE_WORKSPACE_BYTES, Lanes, TannerGraph, lane_width

    graph = TannerGraph(code62)
    assert lane_width(graph) == LANE_WORKSPACE_BYTES // Lanes.lane_bytes(graph)
    assert 65 <= lane_width(graph) <= 67  # no Y rows on this CSS code
    # n=510 fits 7 float64 lanes, rounded down to 4; a workspace that grows
    # past a quarter of the budget fails here
    assert lane_width(TannerGraph(code510)) == 4
    # the harness's float32 lanes take half the bytes: twice the lanes
    real = sim.LANE_REAL
    assert lane_width(graph, real) == LANE_WORKSPACE_BYTES // Lanes.lane_bytes(graph, real)
    assert 127 <= lane_width(graph, real) <= 131
    assert lane_width(TannerGraph(code510), real) == 8  # 15 fit: rows of 60 bytes
    # a budget of k lanes: a count whose row of reals is under 64 bytes comes
    # back as the largest power of two up to k, any other as k
    for dtype in (np.float64, real):
        for k in range(1, 21):
            budget = k * Lanes.lane_bytes(graph, dtype)
            power = max(2**j for j in range(5) if 2**j <= k)
            expected = k if k * np.dtype(dtype).itemsize >= 64 else power
            for extra in (0, Lanes.lane_bytes(graph, dtype) - 1):
                monkeypatch.setattr(decoder, "LANE_WORKSPACE_BYTES", budget + extra)
                assert lane_width(graph, dtype) == expected, (dtype, k, extra)


def test_harness_kernel_runs_in_its_dtype(code62, monkeypatch):
    # Every real buffer of the harness's kernel and the log-priors of every
    # bulk first iteration and every start of a step (first runs and
    # feedback restarts) are LANE_REAL, so no lane step mixes float64 into
    # float32; the lanes' iteration counts and caps are integers.
    from gf4bp.decoder import Lanes

    seen = []  # (what, log-prior dtype)
    first_iteration, step = Lanes.first_iteration, Lanes.step

    def counted_bulk(self, lp, targets, max_iter):
        seen.append(("bulk", lp.dtype))
        return first_iteration(self, lp, targets, max_iter)

    def counted_step(self, halt=True, starts=()):
        for _, lp, _, max_iter, _ in starts:
            seen.append(("restart" if max_iter == spec.t_pert else "first", lp.dtype))
        return step(self, halt, starts)

    monkeypatch.setattr(Lanes, "first_iteration", counted_bulk)
    monkeypatch.setattr(Lanes, "step", counted_step)
    spec = ExperimentSpec(
        code=code62, p_values=(0.03, 0.06), strategies=("standard", "pc08", "enhanced"),
        blocks=40, seed=1,
    )
    chunk = sim._Chunk(spec, 0, spec.blocks)
    chunk.run()
    assert chunk.lanes.real is sim.LANE_REAL is np.float32
    dtypes = {name: array.dtype for name, array in chunk.lanes._flat.items()}
    counters = [dtypes.pop(name) for name in ("iterations", "caps")]
    assert all(np.issubdtype(dtype, np.integer) for dtype in counters)
    assert set(dtypes.values()) == {np.dtype(np.float32), np.dtype(np.bool_)}
    assert {what for what, _ in seen} == {"bulk", "first", "restart"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}


# sha256 digests recorded with the log-domain kernel, the experiment's with
# the harness's float32 lanes; a pure refactor of src/ must leave them unchanged.
FIXED_EXPERIMENT_DIGESTS = {
    "csv": "67455fb32ed49ae19345730388c474ca982cedc98dbbfbc12e330e9e9815155d",
    "jsonl": "ce2c2e66e97bd87b7d8c11ec649a9418afe5f7c03d612b508df4ad65a3b79e4b",
    "trace_pc08": "006296c36d1c58e3bbae531334862dd2e94294908e4b327cb20382f66a28bbc5",
    "trace_enhanced": "df14c61e9db76d59cf489b4a8c39091e83b5417b3c186e68c22ef70d023751e1",
    "trace_pc08_loop": "a47c3301bfb758eca4f0ac80ca00348d2e864715cbc64370a664819f97bcd5f1",
    "trace_enhanced_loop": "4c82b19a97871c89c54bf038e02843c373d169e8cdb79d78f982b3575a77fcf9",
}

PINNED_TRACES = {
    "trace_pc08": ["--strategy", "pc08", "--check", "2", "--qubit", "1",
                   "--max-iter", "88", "--delta", "1", "--seed", "3"],
    "trace_enhanced": ["--strategy", "enhanced", "--check", "2", "--qubit", "4",
                       "--max-iter", "88"],
    # the serial feedback loop, 4 rounds each (AUTO gives n_a = 0 on 4 qubits)
    "trace_pc08_loop": ["--strategy", "pc08", "--n-a", "4", "--delta", "1", "--seed", "3"],
    "trace_enhanced_loop": ["--strategy", "enhanced", "--n-a", "4", "--max-iter", "88",
                            "--seed", "3"],
}


def test_fixed_experiment_bytes(code62, tmp_path):
    # A fixed multi-p, multi-strategy experiment, two pinned feedback
    # rounds (pc08 restarts and does not converge, enhanced converges) and
    # two serial feedback loops, compared byte for byte with the recorded
    # outputs.
    jsonl = tmp_path / "blocks.jsonl"
    spec = ExperimentSpec(
        code=code62, p_values=(0.03, 0.06),
        strategies=("standard", "pc08", "enhanced"), blocks=60, seed=11, workers=1,
    )
    stats, blocks = run_experiment(spec, jsonl_path=jsonl)
    assert any(b.strategy != "standard" and b.iterations > spec.max_iter for b in blocks)
    digests = {
        "csv": hashlib.sha256(format_csv(stats).encode()).hexdigest(),
        "jsonl": hashlib.sha256(jsonl.read_bytes()).hexdigest(),
    }
    for name, args in PINNED_TRACES.items():
        out = tmp_path / f"{name}.csv"
        result = CliRunner().invoke(
            main,
            ["trace", "--code", "4_1_1", "--p", "0.1", "--error", "IIZX",
             *args, "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        # the CSV and the closing "# converged=... iterations=..." line
        digests[name] = hashlib.sha256(
            out.read_bytes() + result.output.encode()
        ).hexdigest()
    assert digests == FIXED_EXPERIMENT_DIGESTS


def test_saturated_channels_stay_finite(code62, monkeypatch):
    # p = 0 and p = 1 put log 0 into the priors and drive every message to
    # saturation; no overflow, invalid or divide-by-zero may occur, with the
    # harness's kernel in float32 or float64.
    assert sim.LANE_REAL is np.float32
    for real in (np.float32, np.float64):
        monkeypatch.setattr(sim, "LANE_REAL", real)
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            stats, _ = run_experiment(ExperimentSpec(
                code=code62, p_values=(0.0, 1.0),
                strategies=("standard", "pc08", "enhanced"), blocks=20, seed=1,
            ))
            injected, _ = run_experiment(ExperimentSpec(
                code=code62, p_values=(0.0,), strategies=("standard", "pc08", "enhanced"),
                blocks=3, seed=1, inject="X" + "I" * 61,
            ))
        got = {(s.p, s.strategy): (s.errors_strict, s.anoi) for s in stats}
        assert got == {
            (0.0, "standard"): (0, 1.0), (0.0, "pc08"): (0, 1.0), (0.0, "enhanced"): (0, 1.0),
            (1.0, "standard"): (20, 90.0), (1.0, "pc08"): (20, 570.0),
            (1.0, "enhanced"): (20, 570.0),
        }
        assert [s.n_blocks for s in injected] == [3, 3, 3]
        assert injected[2].errors_strict == 0  # enhanced feedback decodes it


def _count_first_runs(monkeypatch):
    """Record every syndrome given to a bulk first iteration and every
    syndrome a first run is started in a lane for (a start with a resume
    state: every first run the harness starts has one, and restarts never
    do), each as (log-prior bytes, syndrome), and the log-beliefs the bulk
    iterations copy, one per row of the arrays behind their resume states; a
    pool worker forks with the patched methods but its records stay in the
    worker."""
    from gf4bp.decoder import Lanes

    bulk, started, copies = [], [], []
    first_iteration, step = Lanes.first_iteration, Lanes.step

    def counted_bulk(self, lp, targets, max_iter):
        bulk.extend((lp.tobytes(), tuple(t)) for t in targets.tolist())
        finished, resumes = first_iteration(self, lp, targets, max_iter)
        arrays = {id(bel.base): bel.base for _, (_, bel) in resumes}
        copies.extend(row for array in arrays.values() for row in array)
        return finished, resumes

    def counted_step(self, halt=True, starts=()):
        for _, lp, target, _, resume in starts:
            if resume is not None:
                started.append((lp.tobytes(), tuple(target.tolist())))
        return step(self, halt, starts)

    monkeypatch.setattr(Lanes, "first_iteration", counted_bulk)
    monkeypatch.setattr(Lanes, "step", counted_step)
    return bulk, started, copies


def _first_run_rule(code, spec, blocks):
    """The (log-prior bytes, syndrome) of every distinct (p, syndrome) among
    the blocks, and of those whose first BP iteration does not match it, at
    the harness's dtype."""
    from gf4bp.channel import DepolarizingChannel, priors as channel_priors
    from gf4bp.decoder import idle_lanes, log_priors, tanner_graph

    lanes = idle_lanes(tanner_graph(code), 1, sim.LANE_REAL)
    distinct, unmatched = set(), set()
    for p in spec.p_values:
        lp = log_priors(channel_priors(DepolarizingChannel(p), code.n_sent), sim.LANE_REAL)
        key = lp.tobytes()
        for target in {tuple(s) for s in blocks[p]}:
            distinct.add((key, target))
            if not lanes.run_one(lp, np.array(target), 1).converged:
                unmatched.add((key, target))
    return distinct, unmatched


@pytest.mark.parametrize(
    "code_name, p_values, changes, sizes",
    [
        ("c62", (0.0, 0.002), {}, {}),
        ("c62", (0.0, 0.002, 0.8), {"inject": "I" * 62}, {}),
        ("4_1_1", (0.0, 0.8), {"n_a": 2, "max_iter": 30, "t_pert": 10}, {}),
        ("4_1_1", (0.8,), {"inject": "IIII", "n_a": 2, "max_iter": 30, "t_pert": 10}, {}),
        (
            "4_1_1", (0.8,), {"inject": "IIII", "n_a": 2, "max_iter": 30, "t_pert": 10},
            {"BATCH_BLOCKS": 7, "KEY_BATCHES": 1},
        ),
        ("4_1_1", (0.05, 0.2), {"inject": "IXII"}, {}),
    ],
    ids=[
        "c62-sampled", "c62-injected", "411-unconverged", "411-all-quiet",
        "411-all-quiet-batches", "411-injected-loud",
    ],
)
def test_quiet_blocks_share_one_first_run(
    code62, tmp_path, monkeypatch, code_name, p_values, changes, sizes
):
    # Every quiet block (all-+1 syndrome) at a p takes that p's one shared
    # first run.  On the [[62,2]] code at p = 0.8 that run converges to X^62
    # (X, Z and Y tie there; float64 rounding picks Y^62, the harness's
    # float32 X^62), so injected identity errors are nonequivalent against
    # the shared e_out (sampled errors are never quiet there).  On the 4_1_1
    # code at p = 0.8 it does not converge, so pc08 and enhanced continue
    # from the shared outcome, which must stay unchanged.  Each distinct
    # (p, syndrome) gets one bulk first iteration, and only those it does not
    # match get a lane: an injected error that is not quiet is matched by its
    # first iteration at p = 0.05 and not at p = 0.2.  With batches of 7
    # blocks and keys hashed a batch at a time, the all-quiet case's one
    # unconverged first run spans 9 batches and 9 key windows.
    for name, value in sizes.items():
        monkeypatch.setattr(sim, name, value)
    code = code62 if code_name == "c62" else load_code(code_name)
    spec = ExperimentSpec(
        code=code, p_values=p_values, strategies=("standard", "pc08", "enhanced"),
        blocks=60, seed=1, **changes,
    )
    reference_path = tmp_path / "reference.jsonl"
    ref_stats, ref_blocks, _ = per_cell_experiment(spec, jsonl_path=reference_path)
    syndromes = {p: [] for p in p_values}
    for b in ref_blocks:
        if b.strategy == "standard":
            syndromes[b.p].append(syndrome(code, code.embed_sent(b.error)).tolist())
    distinct, unmatched = _first_run_rule(code, spec, syndromes)
    bulk, started, copies = _count_first_runs(monkeypatch)
    for width in (1, 15):
        monkeypatch.setattr(sim, "lane_width", lambda graph, real, width=width: width)
        for workers in (1, 2):
            path = tmp_path / f"run{width}-{workers}.jsonl"
            bulk.clear()
            started.clear()
            copies.clear()
            stats, blocks = run_experiment(replace(spec, workers=workers), jsonl_path=path)
            if workers == 1:
                assert sorted(bulk) == sorted(distinct)
                assert sorted(started) == sorted(unmatched)
                assert len(copies) == len(unmatched)
            assert {s.n_blocks for s in stats} == {spec.blocks}
            assert blocks == ref_blocks
            assert format_csv(stats) == format_csv(ref_stats)
            assert path.read_bytes() == reference_path.read_bytes()
    if changes.get("inject") == "IXII":
        assert len(distinct) == 2 and len(unmatched) == 1
    quiet = [
        b for b in ref_blocks
        if b.p == 0.8 and (syndrome(code, code.embed_sent(b.error)) > 0).all()
    ]
    if code_name == "c62" and "inject" in changes:
        assert {(b.e_out, b.outcome) for b in quiet} == {("X" * 62, "nonequivalent")}
        assert len(quiet) == 3 * spec.blocks
    if code_name == "4_1_1" and changes.get("inject") != "IXII":
        feedback = [b for b in quiet if b.strategy != "standard"]
        assert feedback and all(b.iterations > spec.max_iter for b in feedback)
    if changes.get("inject") == "IXII":
        assert (syndrome(code, code.embed_sent("IXII")) < 0).any()
        assert {(b.converged, b.outcome) for b in ref_blocks} == {(True, "exact")}


def test_quiet_blocks_that_are_not_the_identity(code62, tmp_path, monkeypatch):
    # A generator row's sent part has the all +1 syndrome but is not the
    # identity: every block joins the quiet group, whose shared first run
    # decodes to the identity, so every block is degenerate under every
    # strategy, whatever the lane width and the worker count.
    inject = code62.row_pauli(0)[: code62.n_sent]
    assert (syndrome(code62, code62.embed_sent(inject)) > 0).all() and inject != "I" * 62
    spec = ExperimentSpec(
        code=code62, p_values=(0.002, 0.02), strategies=("standard", "pc08", "enhanced"),
        blocks=20, seed=1, inject=inject,
    )
    reference_path = tmp_path / "reference.jsonl"
    ref_stats, ref_blocks, _ = per_cell_experiment(spec, jsonl_path=reference_path)
    assert {(b.e_out, b.outcome) for b in ref_blocks} == {("I" * 62, "degenerate")}
    for width in (1, 127):
        monkeypatch.setattr(sim, "lane_width", lambda graph, real, width=width: width)
        for workers in (1, 2):
            path = tmp_path / f"run{width}-{workers}.jsonl"
            stats, blocks = run_experiment(replace(spec, workers=workers), jsonl_path=path)
            assert blocks == ref_blocks
            assert format_csv(stats) == format_csv(ref_stats)
            assert path.read_bytes() == reference_path.read_bytes()


def test_quiet_blocks_cost_one_bp_run(code62, monkeypatch):
    # lowp-std's code and p: one bulk first iteration for every distinct
    # syndrome, quiet or not, and a lane (a Lanes.step start) only for those it
    # does not match; blocks that repeat a syndrome share its run.
    from gf4bp.channel import DepolarizingChannel, sample_error

    spec = ExperimentSpec(code=code62, p_values=(0.002,), blocks=300, seed=20260808)
    syndromes = [
        syndrome(code62, sample_error(
            DepolarizingChannel(0.002), block_uniforms(spec.seed, block, code62.n_sent),
        )).tolist()
        for block in range(spec.blocks)
    ]
    quiet = [1] * code62.n_checks
    loud = [tuple(s) for s in syndromes if s != quiet]
    assert 0 < len(set(loud)) < len(loud) < spec.blocks // 4
    distinct, unmatched = _first_run_rule(code62, spec, {0.002: syndromes})
    bulk, started, copies = _count_first_runs(monkeypatch)
    monkeypatch.setattr(sim, "lane_width", lambda graph, real: 1)
    run_experiment(spec)
    assert sorted(bulk) == sorted(distinct) and len(distinct) == 27
    assert sorted(started) == sorted(unmatched) and len(unmatched) == 1
    assert len(copies) == 1  # log-beliefs are copied for that run alone


def _first_runs(chunk, monkeypatch):
    """Run a task; (per p its first runs' (class, iterations, e_out), the
    outcomes handed to feedback_rounds, at most one per first run)."""
    started = {}  # id -> outcome
    rounds = sim.feedback_rounds

    def kept(graph, target, priors, config, first, rng):
        started[id(first)] = first
        return rounds(graph, target, priors, config, first, rng)

    monkeypatch.setattr(sim, "feedback_rounds", kept)
    chunk.run()
    e_outs = list(chunk.e_outs)
    firsts = [
        [(sim.OUTCOME_CLASSES[klass], iterations, e_outs[e_out])
         for klass, iterations, e_out in records.tolist()]
        for records in chunk.firsts
    ]
    return firsts, list(started.values())


def test_unmatched_first_iteration_at_max_iter_one_reports_its_mask(code411, monkeypatch):
    # IXII's syndrome is matched by its bulk first iteration at p = 0.05 and
    # not at p = 0.2; with max_iter = 1 the lane then stops after iteration
    # 1 and reports converged = False with the mask of the checks its
    # decision leaves frustrated.  The matched run keeps only its record;
    # pc08 continues from the unmatched one's outcome.
    spec = ExperimentSpec(
        code=code411, p_values=(0.05, 0.2), strategies=("standard", "pc08"), blocks=3,
        seed=1, inject="IXII", max_iter=1,
    )
    chunk = sim._Chunk(spec, 0, spec.blocks)
    firsts, started = _first_runs(chunk, monkeypatch)
    results = sim.BlockResults(spec, chunk.texts, list(chunk.e_outs), chunk.records)
    target = syndrome(code411, code411.embed_sent("IXII"))
    (matched,), (unmatched,) = firsts
    assert matched == ("exact", 1, "IXII")
    (outcome,) = started
    assert (outcome.converged, outcome.iterations) == (False, 1)
    assert unmatched == ("detected", 1, outcome.error_pauli)
    parity = syndrome(code411, code411.embed_sent(outcome.error))
    assert outcome.frustrated.tolist() == (parity != target).tolist()
    assert outcome.frustrated.any()
    standard = list(results)[2 * spec.blocks : 3 * spec.blocks]  # p = 0.2, standard
    assert [(b.converged, b.iterations, b.outcome) for b in standard] == [
        (False, 1, "detected")
    ] * spec.blocks


def test_shared_first_runs_are_read_only(code411, monkeypatch):
    # A syndrome's first run is kept for every block with that syndrome.  A
    # converged one keeps only its record; from one that did not converge
    # the feedback runs continue, so its error and its frustrated mask
    # cannot be written.  At p = 0.8 on 4_1_1 first runs do not converge.
    spec = ExperimentSpec(
        code=code411, p_values=(0.1, 0.8), strategies=("standard", "pc08", "enhanced"),
        blocks=40, seed=3,
    )
    firsts, kept = _first_runs(sim._Chunk(spec, 0, spec.blocks), monkeypatch)
    classes = [klass for runs in firsts for klass, _, _ in runs]
    assert "exact" in classes
    assert len(kept) == classes.count("detected") > 0
    assert not any(outcome.converged for outcome in kept)
    assert any(outcome.frustrated.any() for outcome in kept)
    for outcome in kept:
        assert not outcome.error.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            outcome.frustrated[0] = True


STARTUP_SCRIPT = """
import io
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import gf4bp
from gf4bp.cli import main

code_path, out_dir = sys.argv[1:3]
gf4bp.TannerGraph(gf4bp.load_code(code_path))
main(["build-code", "construction-b", "--first-row", "110", "--out", f"{out_dir}/b.stab"],
     standalone_mode=False)
helps = []
for command in ("simulate", "trace"):
    with redirect_stdout(io.StringIO()) as text:
        status = main([command, "--help"], standalone_mode=False)
    helps.append(status == 0 and "--t-pert" in text.getvalue())
machinery = ("concurrent.futures", "multiprocessing", "json")
layers = ("gf4bp.sim", "gf4bp.feedback", "gf4bp.channel", "numpy.random")
print(" ".join(name for name in machinery + layers if name in sys.modules))
resolved = [getattr(gf4bp, name) for name in gf4bp.__all__]
print(gf4bp.sim.__name__, gf4bp.ExperimentSpec is gf4bp.sim.ExperimentSpec, len(resolved))
try:
    gf4bp.NoSuchAttribute
except AttributeError as exc:
    print(exc)
spec = gf4bp.ExperimentSpec(
    code=code_path, p_values=(0.03, 0.06), strategies=("standard", "pc08", "enhanced"),
    blocks=40, seed=5,
)
runs = []
for workers in (1, 2):
    path = f"{out_dir}/workers{workers}.jsonl"
    stats, blocks = gf4bp.run_experiment(replace(spec, workers=workers), jsonl_path=path)
    with open(path, "rb") as handle:
        runs.append((stats, blocks, handle.read()))
print(runs[0] == runs[1], len(runs[0][2]) > 0)
print(*helps)
print(" ".join(name for name in machinery if name in sys.modules))
"""


def test_startup_loads_no_pool_or_json(code62, tmp_path):
    # In a fresh interpreter, set-up (import, load a stabilizer file, build its
    # graph), `gf4bp build-code` and `simulate --help` and `trace --help`
    # leave the pool and JSON machinery, the channel, feedback and sim layers
    # and numpy.random unloaded, so the options the two commands share are
    # declared without sim.  Every
    # exported name then resolves on first use, an unknown one raises
    # AttributeError, and a forked run with a JSONL log equals the serial run
    # and loads json, but neither concurrent.futures nor multiprocessing.
    code_path = tmp_path / "c62.stab"
    code_path.write_text(write_stabilizer_text(code62))
    env = dict(os.environ, PYTHONPATH=str(Path(gf4bp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(code_path), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    built, loaded, lazy, unknown, compared, helps, after = done.stdout.split("\n")[:7]
    assert built.startswith(f"wrote {tmp_path}/b.stab: [[6,")
    assert loaded == ""
    assert lazy == f"gf4bp.sim True {len(gf4bp.__all__)}"
    assert unknown == "module 'gf4bp' has no attribute 'NoSuchAttribute'"
    assert compared == "True True"
    assert helps == "True True"
    assert after == "json"  # forking workers loads no process-pool machinery
    assert not hasattr(sim, "NoSuchAttribute")


RANDOM_SCRIPT = """
import sys
import gf4bp

sim = gf4bp.sim
code = sys.argv[1]
run_experiment, ExperimentSpec = sim.run_experiment, sim.ExperimentSpec
run_experiment(ExperimentSpec(code=code, p_values=(0.02,), blocks=64, seed=3))
sim.trace_run(ExperimentSpec(code=code, p_values=(0.02,), inject="XZ" + "I" * 60))
print("numpy.random" in sys.modules)
run_experiment(ExperimentSpec(code=code, p_values=(0.06,), strategies=("pc08",), blocks=40, seed=1))
print("numpy.random" in sys.modules)
"""


def test_numpy_random_loads_with_the_first_generator(code62, tmp_path):
    # Only feedback draws from a Generator, so in a fresh interpreter sim
    # (reached as the package's attribute), a standard [[62,2]] run and a
    # standard trace leave numpy.random unloaded; a pc08 run loads it.
    code_path = tmp_path / "c62.stab"
    code_path.write_text(write_stabilizer_text(code62))
    env = dict(os.environ, PYTHONPATH=str(Path(gf4bp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", RANDOM_SCRIPT, str(code_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


SPANS_SCRIPT = """
import importlib.util, sys
from gf4bp import decoder, feedback, sim
found = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(found)
found.loader.exec_module(spans)
modules = {"decoder": decoder, "feedback": feedback, "sim": sim}
installed = spans.install(spans.Tracer(), modules)
installed.remove()
print("\\n".join(installed.absent))
"""


def test_benchmark_span_targets_absent_are_pinned():
    # perfbench wraps gf4bp functions by name and lists the ones it cannot
    # find.  These six are known blind spots of its per-layer metrics (the
    # executor its TracedPool wrapped is gone: run_experiment forks its
    # workers itself); a change that removes another wrapped name, or mends
    # one, updates this list and says so.  The benchmark's spans.py is read,
    # not written (-B).
    spans_path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    env = dict(os.environ, PYTHONPATH=str(Path(gf4bp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", SPANS_SCRIPT, str(spans_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "gf4bp.sim.parse_stabilizer_text",
        "gf4bp.sim.classify_outcome",
        "gf4bp.feedback.frustrated_checks",
        "gf4bp.decoder.hard_decision",
        "gf4bp.decoder.TannerGraph.syndrome_signs",
        "gf4bp.sim.ProcessPoolExecutor",
    ]
