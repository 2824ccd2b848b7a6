"""Monte-Carlo throughput benchmark for gf4bp.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of workloads.py through the public API (`load_code`,
`ExperimentSpec`, `run_experiment`) from the sources under `src/` next to
this directory, checks every decoded block, and prints one line per metric
followed, as the last line, by a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured without wrappers.
--trace 1 runs every round twice on the same inputs, once plain and once with
the span wrappers of spans.py installed, and reports the per-layer metrics
and the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7  # fresh-interpreter set-ups per run; setup_s is their median
PARSE_REPEATS = 5  # in-process set-ups per traced run

E2E_UNITS = {
    "blocks_per_s": "blocks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "anoi": "iter/block",
}

LAYER_UNITS = {
    "formats.parse_s": "s",
    "decoder.graph_build_s": "s",
    "channel.substream_us": "us",
    "channel.sample_us": "us",
    "stabilizer.syndrome_us": "us",
    "decoder.calls": "count",
    "decoder.iterations": "count",
    "decoder.us_per_iteration": "us",
    "decoder.edge_updates_per_s": "1/s",
    "decoder.bp_update_us_per_iter": "us",
    "decoder.hard_decision_us_per_iter": "us",
    "decoder.syndrome_test_us_per_iter": "us",
    "decoder.block_ms_p50": "ms",
    "decoder.block_ms_p99": "ms",
    "decoder.block_samples": "count",
    "feedback.blocks_entered": "count",
    "feedback.rounds": "count",
    "feedback.rounds_converged": "count",
    "feedback.rounds_check_satisfied": "count",
    "feedback.rounds_restored": "count",
    "feedback.rescue_ratio": "ratio",
    "feedback.round_success_ratio": "ratio",
    "feedback.restart_iterations": "count",
    "feedback.restart_share": "ratio",
    "feedback.bookkeeping_us_per_round": "us",
    "sim.harness_us_per_block": "us",
    "sim.classify_us": "us",
    "sim.worker_cpu_s": "s",
    "sim.parent_cpu_s": "s",
    "sim.parallel_efficiency": "ratio",
    "sim.ipc_bytes_per_block": "B",
    "trace.overhead_frac": "ratio",
}

FEEDBACK_PARENTS = {"feedback.feedback_decode", "feedback.feedback_round"}


def import_gf4bp():
    """Import gf4bp from the checkout's sources, or exit without a result."""
    if not (SRC / "gf4bp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gf4bp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gf4bp
    from gf4bp import decoder, feedback, sim

    return gf4bp, {"decoder": decoder, "feedback": feedback, "sim": sim}


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gf4bp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Round:
    wall: float = 0.0
    blocks: int = 0
    failed: int = 0
    iterations: int = 0
    errors_strict: int = 0
    self_cpu: float = 0.0
    children_cpu: float = 0.0
    rows: list = field(default_factory=list)
    csv: str = ""


def check_blocks(gf4bp, code, spec, stats, results, out: Round):
    """Fill `out` from one run_experiment result and count failed blocks.

    A block fails when its class disagrees with its outputs, when it
    converged to an e_out whose syndrome (recomputed with the public
    `syndrome`) differs from that of the sampled error, or when its cell's
    class counts do not sum to n_blocks.
    """
    bad = set()
    for r in results:
        out.rows.append(
            (r.p, r.strategy, r.block, r.error, r.e_out, r.converged, r.iterations, r.outcome)
        )
        exact = r.converged and r.e_out == r.error
        ok = (r.outcome == "exact") == exact
        if r.converged and not exact:
            ok = ok and np.array_equal(
                gf4bp.syndrome(code, code.embed_sent(r.e_out)),
                gf4bp.syndrome(code, code.embed_sent(r.error)),
            )
        if not ok:
            bad.add((r.p, r.strategy, r.block))
    for s in stats:
        classes = s.exact + s.degenerate + s.nonequivalent + s.detected + s.unchecked
        if classes != s.n_blocks or s.n_blocks != spec.blocks:
            bad.update((s.p, s.strategy, b) for b in range(spec.blocks))
    out.failed = len(bad) + max(0, out.blocks - len(results))
    out.iterations = sum(r.iterations for r in results)
    out.errors_strict = sum(s.errors_strict for s in stats)
    out.csv = gf4bp.sim.format_csv(stats)


def run_round(gf4bp, code, workload, seed, blocks, tracer=None) -> Round:
    spec = gf4bp.ExperimentSpec(
        code=code,
        p_values=workload.p_values,
        strategies=workload.strategies,
        blocks=blocks,
        seed=seed,
        workers=workload.workers,
    )
    out = Round(blocks=blocks * workload.cells)
    self_cpu = cpu_seconds(resource.RUSAGE_SELF)
    children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    frame = tracer.enter("sim.run_experiment") if tracer else None
    start = time.perf_counter()
    try:
        stats, results = gf4bp.run_experiment(spec)
    except Exception:  # a crash fails the round's blocks; the run goes on
        traceback.print_exc()
        out.failed = out.blocks
        return out
    finally:
        out.wall = time.perf_counter() - start
        if tracer:
            tracer.exit(frame)
    out.self_cpu = cpu_seconds(resource.RUSAGE_SELF) - self_cpu
    out.children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu
    check_blocks(gf4bp, code, spec, stats, results, out)
    return out


def output_digest(rounds) -> str:
    digest = hashlib.sha256()
    for r in rounds:
        digest.update(r.csv.encode())
        for row in r.rows:
            digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


def probe_setup(code_file):
    """(numpy import seconds, set-up seconds) from one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(code_file)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    numpy_s, setup_s = done.stdout.split()[-2:]
    return float(numpy_s), float(setup_s)


def plain_run(gf4bp, workload, args):
    """End-to-end metrics; times are scaled to the reference machine speed.

    The reference kernel runs before the first round and after every round;
    each round's wall time is multiplied by REFERENCE_S / (mean of the kernel
    times on either side of it).  Each set-up time is multiplied by
    NUMPY_IMPORT_S / (numpy's import time in the same interpreter).
    """
    kernel = reference.Reference()
    path = workloads.code_path(workload)
    probes = [probe_setup(path) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(
        total * reference.NUMPY_IMPORT_S / numpy_s for numpy_s, total in probes
    )
    print(f"wall_setup_s {statistics.median(total for _, total in probes)!r}")
    print(f"numpy_import_s {statistics.median(numpy_s for numpy_s, _ in probes)!r}")
    speed = [kernel.measure()]
    code = gf4bp.load_code(str(path))
    blocks = workload.blocks_per_cell(args.seconds)
    rounds = []
    for i in range(workload.rounds):
        seed = workloads.round_seed(args.seed, i)
        rounds.append(run_round(gf4bp, code, workload, seed, blocks))
        speed.append(kernel.measure())
    scaled_wall = sum(
        r.wall * reference.REFERENCE_S / ((speed[i] + speed[i + 1]) / 2)
        for i, r in enumerate(rounds)
    )
    n_blocks = sum(r.blocks for r in rounds)
    raw_rate = n_blocks / sum(r.wall for r in rounds)
    print(f"wall_blocks_per_s {raw_rate!r}")
    print(f"machine_slowdown {statistics.mean(speed) / reference.REFERENCE_S!r}")
    metrics = {
        "blocks_per_s": n_blocks / scaled_wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "anoi": sum(r.iterations for r in rounds) / n_blocks,
    }
    return rounds, metrics, E2E_UNITS, []


def traced_setup(gf4bp, modules, path, tracer):
    """Median in-process parse and graph-build times, from the wrappers."""
    installed = spans.install(tracer, modules)
    try:
        for _ in range(PARSE_REPEATS):
            gf4bp.TannerGraph(gf4bp.load_code(str(path)))
    finally:
        installed.remove()
    samples = tracer.log.samples
    parse = samples.get("formats.parse_stabilizer_text", [0.0])
    build = samples.get("decoder.TannerGraph", [0.0])
    tracer.reset()
    return statistics.median(parse), statistics.median(build), installed.absent


def traced_run(gf4bp, modules, workload, args):
    path = workloads.code_path(workload)
    tracer = spans.Tracer()
    parse_s, graph_s, absent = traced_setup(gf4bp, modules, path, tracer)
    code = gf4bp.load_code(str(path))
    n_edges = gf4bp.TannerGraph(code).n_edges
    blocks = workload.blocks_per_cell(args.seconds)
    plain, traced = [], []
    for i in range(workload.rounds):
        seed = workloads.round_seed(args.seed, i)
        # Alternate which side runs first so drift affects both alike.
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if not with_spans:
                plain.append(run_round(gf4bp, code, workload, seed, blocks))
                continue
            installed = spans.install(tracer, modules)
            try:
                traced.append(run_round(gf4bp, code, workload, seed, blocks, tracer))
            finally:
                installed.remove()
    for a, b in zip(plain, traced):
        # The wrappers must not change a single decoded block.
        b.failed += sum(x != y for x, y in zip(a.rows, b.rows))
    log = tracer.log
    n_blocks = sum(r.blocks for r in traced)
    if log.counts.get("decoder.iterations", 0) != sum(r.iterations for r in traced):
        print("note: decoder spans do not cover every iteration (wrappers absent?)")
    metrics = layer_metrics(
        log,
        n_edges=n_edges,
        workers=workload.workers,
        n_blocks=n_blocks,
        plain=plain,
        traced_wall=sum(r.wall for r in traced),
    )
    metrics["formats.parse_s"] = parse_s
    metrics["decoder.graph_build_s"] = graph_s
    return plain + traced, metrics, LAYER_UNITS, absent


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(log, n_edges, workers, n_blocks, plain, traced_wall):
    counts = log.counts
    iterations = counts.get("decoder.iterations", 0)
    decode_s = log.total("decoder.decode")
    in_decode = {"decoder.decode"}
    block_s = log.samples.get("decoder.decode", []) + log.samples.get(
        "feedback.feedback_decode", []
    )
    p50, p99 = np.percentile(block_s, [50, 99]) if block_s else (0.0, 0.0)
    rounds = counts.get("feedback.rounds", 0)
    restart_s = log.total("decoder.decode", parents={"feedback.feedback_round"})
    bookkeeping_s = log.total("feedback.feedback_decode") - log.total(
        "decoder.decode", parents=FEEDBACK_PARENTS
    )
    plain_wall = sum(r.wall for r in plain)
    worker_cpu = sum(r.children_cpu for r in plain)

    def per_call_us(name):
        return 1e6 * _ratio(log.total(name), log.calls(name))

    return {
        "channel.substream_us": per_call_us("channel.substream"),
        "channel.sample_us": per_call_us("channel.sample_error"),
        "stabilizer.syndrome_us": per_call_us("stabilizer.syndrome"),
        "decoder.calls": counts.get("decoder.calls", 0),
        "decoder.iterations": iterations,
        "decoder.us_per_iteration": 1e6 * _ratio(decode_s, iterations),
        "decoder.edge_updates_per_s": _ratio(n_edges * iterations, decode_s),
        "decoder.bp_update_us_per_iter": 1e6
        * _ratio(log.self_time("decoder.decode"), iterations),
        "decoder.hard_decision_us_per_iter": 1e6
        * _ratio(log.total("decoder.hard_decision", parents=in_decode), iterations),
        "decoder.syndrome_test_us_per_iter": 1e6
        * _ratio(log.total("decoder.syndrome_signs", parents=in_decode), iterations),
        "decoder.block_ms_p50": 1e3 * float(p50),
        "decoder.block_ms_p99": 1e3 * float(p99),
        "decoder.block_samples": len(block_s),
        "feedback.blocks_entered": counts.get("feedback.blocks_entered", 0),
        "feedback.rounds": rounds,
        "feedback.rounds_converged": counts.get("feedback.rounds_converged", 0),
        "feedback.rounds_check_satisfied": counts.get(
            "feedback.rounds_check_satisfied", 0
        ),
        "feedback.rounds_restored": counts.get("feedback.rounds_restored", 0),
        "feedback.rescue_ratio": _ratio(
            counts.get("feedback.blocks_rescued", 0),
            counts.get("feedback.blocks_entered", 0),
        ),
        "feedback.round_success_ratio": _ratio(
            counts.get("feedback.rounds_converged", 0), rounds
        ),
        "feedback.restart_iterations": counts.get("feedback.restart_iterations", 0),
        "feedback.restart_share": _ratio(restart_s, workers * traced_wall),
        "feedback.bookkeeping_us_per_round": 1e6 * _ratio(bookkeeping_s, rounds),
        "sim.harness_us_per_block": 1e6
        * _ratio(
            log.self_time("sim.run_experiment") + log.self_time("sim._run_blocks"),
            n_blocks,
        ),
        "sim.classify_us": per_call_us("sim.classify_outcome"),
        "sim.worker_cpu_s": worker_cpu,
        "sim.parent_cpu_s": sum(r.self_cpu for r in plain),
        "sim.parallel_efficiency": _ratio(worker_cpu, workers * plain_wall)
        if workers > 1
        else 0.0,
        "sim.ipc_bytes_per_block": _ratio(
            counts.get("sim.ipc_bytes", 0), counts.get("sim.ipc_blocks", 0)
        ),
        "trace.overhead_frac": _ratio(traced_wall, plain_wall) - 1.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    gf4bp, modules = import_gf4bp()
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}, {workload.rounds} rounds x "
        f"{workload.blocks_per_cell(args.seconds)} blocks x {workload.cells} cells, "
        f"workers {workload.workers}"
    )
    print(
        f"env cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} code_digest={code_digest()}"
    )
    if args.trace:
        rounds, metrics, units, absent = traced_run(gf4bp, modules, workload, args)
    else:
        rounds, metrics, units, absent = plain_run(gf4bp, workload, args)
    attempted = sum(r.blocks for r in rounds)
    failed = sum(r.failed for r in rounds)
    if absent:
        print("absent (not wrapped): " + ", ".join(absent))
    result_rounds = rounds[: workload.rounds]
    print(f"errors_strict {sum(r.errors_strict for r in result_rounds)}")
    print(f"output_digest {output_digest(result_rounds)}")
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:.6g} {unit}")
    print("round_wall_s " + " ".join(f"{r.wall:.3f}" for r in rounds))
    print(f"blocks attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
