"""Command-line interface.

Subcommands: simulate (Monte-Carlo BER/ANoI runs), trace (single-instance
belief trajectories) and build-code (Construction B and the EA construction
from a classical quaternary/binary check matrix).

Check and qubit indices on the command line are 1-based, matching the usual
presentation; library APIs are 0-based. build-code loads only the set-up
layers; simulate and trace import sim, channel and feedback when they run,
and numpy.random with their first feedback Generator (every trace makes one).
"""

from pathlib import Path

import click
import numpy as np

from .decoder import tanner_graph
from .formats import parse_alist, write_stabilizer_text
from .stabilizer import (
    construction_b,
    ea_canonicalize,
    extend_with_ebits,
    quaternary_to_pauli,
)


def _read_config(ctx, param, path):
    """--config: key=value lines ('#' comments) whose keys are flag or
    parameter names (dashes or underscores), each set once, as the command's
    default_map: click converts each value by its flag's type, and explicit
    flags win."""
    if path is None:
        return
    names = {}  # key -> parameter name, dashes as underscores
    for other in ctx.command.params:
        if other is not param:
            for name in [other.name, *(opt.lstrip("-") for opt in other.opts)]:
                names[name.replace("-", "_")] = other.name
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if names.get(key, key) in values:
            raise click.UsageError(f"config key {key!r} given twice")
        values[names.get(key, key)] = value.strip()
    unknown = set(values) - set(names)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    ctx.default_map = values


def _check_out_dir(flag, path):
    """UsageError unless an output file's directory exists: checked before
    decoding, so a run does not end in a traceback after its last block."""
    if path == "-":  # stdout is only trace's, which skips this check for it
        raise click.UsageError(f"{flag} -: this command writes a file, not stdout")
    if path is not None and not Path(path).parent.is_dir():
        raise click.UsageError(f"{flag} {path}: no directory {Path(path).parent}")


def _parse_p_list(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise click.UsageError(f"bad p list {text!r}")


def _parse_strategies(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _one_based(text, name, size):
    """A 1-based index typed on the command line, checked against 1..size."""
    try:
        index = int(text)
    except ValueError:
        raise click.UsageError(f"bad {name} {text!r}: not an integer in 1..{size}")
    if not 1 <= index <= size:
        raise click.UsageError(f"{name} {index} out of range 1..{size}")
    return index


def _parse_n_a(text):
    if str(text).upper() == "AUTO":
        return None
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(f"bad --n-a {text!r} (expected an integer or AUTO)")


def _run_options(command):
    """The options simulate and trace share, as ExperimentSpec takes them."""
    for option in reversed((
        click.option("--code", "code_src", default="4_1_1", show_default=True,
                     help="Built-in code name or stabilizer text file."),
        click.option("--seed", default=0, show_default=True, type=int),
        click.option("--max-iter", default=90, show_default=True, type=int,
                     help="Iteration budget of the initial BP run."),
        click.option("--t-pert", default=40, show_default=True, type=int,
                     help="BP iterations after each feedback adjustment."),
        click.option("--n-a", default="AUTO", show_default=True,
                     help="Feedback budget (integer or AUTO by code length)."),
        click.option("--delta", default=0.1, show_default=True, type=float,
                     help="PC08 perturbation strength."),
    )):
        command = option(command)
    return command


def _spec(p_list, strategy, code_src, n_a, **fields):
    """The command's ExperimentSpec, which checks every option it is given;
    its ValueError is a UsageError."""
    from .sim import ExperimentSpec

    try:
        return ExperimentSpec(
            code=code_src, p_values=_parse_p_list(p_list),
            strategies=_parse_strategies(strategy), n_a=_parse_n_a(n_a), **fields,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Belief-propagation decoding simulator for sparse quantum codes."""


@main.command()
@_run_options
@click.option("--p", "p_list", default="0.1", show_default=True,
              help="Comma-separated channel crossover probabilities.")
@click.option("--strategy", default="standard", show_default=True,
              help="Comma-separated list from standard,pc08,enhanced.")
@click.option("--blocks", default=1000, show_default=True, type=int)
@click.option("--inject", default=None,
              help="Fixed Pauli error on the sent qubits instead of sampling.")
@click.option("--workers", default=1, show_default=True, type=int,
              help="Worker processes, at most one per core; outputs do not depend on it.")
@click.option("--out", default="results.csv", show_default=True,
              type=click.Path(dir_okay=False))
@click.option("--jsonl", default=None, type=click.Path(dir_okay=False),
              help="Optional per-block JSON-lines log.")
@click.option("--config", "config_path", default=None, is_eager=True,
              expose_value=False, callback=_read_config,
              type=click.Path(exists=True, dir_okay=False),
              help="key=value file mirroring these flags; flags win.")
def simulate(p_list, strategy, blocks, inject, workers, out, jsonl, **run):
    """Monte-Carlo decoding experiment; writes one CSV row per (p, strategy)."""
    from .sim import OUTCOME_CLASSES, format_csv, run_experiment

    _check_out_dir("--out", out)
    _check_out_dir("--jsonl", jsonl)
    spec = _spec(p_list, strategy, blocks=blocks, inject=inject, workers=workers, **run)
    stats, _ = run_experiment(spec, jsonl_path=jsonl)
    Path(out).write_text(format_csv(stats))
    for s in stats:
        classes = " ".join(f"{name}={getattr(s, name)}" for name in OUTCOME_CLASSES)
        click.echo(
            f"p={s.p:g} {s.strategy}: BER={s.ber:.6g} "
            f"[{s.ber_lo:.3g}, {s.ber_hi:.3g}] ANoI={s.anoi:.4g} ({classes})"
        )
    click.echo(f"wrote {out}")


@main.command()
@_run_options
@click.option("--p", default="0.1", show_default=True,
              help="Channel crossover probability.")
@click.option("--error", default=None,
              help="Pauli error on the sent qubits, e.g. IIZX.")
@click.option("--syndrome", "syndrome_text", default=None,
              help="Target syndrome as +/- characters, e.g. -+++.")
@click.option("--strategy", default="standard", show_default=True,
              help="One of standard, pc08 and enhanced.")
@click.option("--check", default=None, type=click.IntRange(min=1),
              help="1-based frustrated check to adjust (pins a single round).")
@click.option("--qubit", default=None, type=click.IntRange(min=1),
              help="1-based qubit of that check to adjust.")
@click.option("--out", default="-", show_default=True,
              type=click.Path(dir_okay=False, allow_dash=True),
              help="CSV output path, or - for stdout.")
def trace(p, error, syndrome_text, strategy, check, qubit, out, **run):
    """Emit per-iteration beliefs (iteration,qubit,p_I,p_X,p_Z,p_Y) for one
    decoding instance; qubit numbers in the output are 1-based."""
    from .sim import trace_run

    _check_out_dir("--out", None if out == "-" else out)
    target = None
    if syndrome_text is not None:
        signs = {"+": 1, "-": -1}
        try:
            target = np.array([signs[ch] for ch in syndrome_text.strip()])
        except KeyError:
            raise click.UsageError(f"bad syndrome {syndrome_text!r}; use + and -")
    spec = _spec(p, strategy, inject=error, **run)
    if check is not None and qubit is not None:  # reported 1-based, as typed
        graph = tanner_graph(spec.code)
        _one_based(check, "--check", graph.n_checks)
        on_check = graph.check_qubits(check - 1) + 1
        if qubit not in on_check:
            raise click.UsageError(
                f"--qubit {qubit} is not on check {check}, whose qubits are "
                + ", ".join(map(str, on_check))
            )
    try:
        rows, outcome = trace_run(
            spec, target,
            check=None if check is None else check - 1,
            qubit=None if qubit is None else qubit - 1,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    lines = ["iteration,qubit,p_I,p_X,p_Z,p_Y"]
    for iteration, q, beliefs in rows:
        values = ",".join(repr(float(b)) for b in beliefs)
        lines.append(f"{iteration},{q + 1},{values}")
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
    click.echo(
        f"# converged={outcome.converged} iterations={outcome.iterations} "
        f"e_out={outcome.error_pauli}",
        err=True,
    )


@main.group(name="build-code")
def build_code():
    """Construct stabilizer codes and write them as stabilizer text."""


@build_code.command(name="construction-b")
@click.option("--first-row", required=True,
              help="Bits of the circulant's first row, e.g. 1100101.")
@click.option("--keep", default=None,
              help="Comma-separated 1-based rows of H0 to keep (default: all).")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def construction_b_cmd(first_row, keep, out):
    """Dual-containing CSS code from a circulant C via H0 = [C, C^T]."""
    try:
        bits = np.array([int(ch) for ch in first_row.strip()], dtype=np.uint8)
    except ValueError:
        raise click.UsageError(f"bad first row {first_row!r}; use 0/1 characters")
    rows = None
    if keep is not None:
        rows = [_one_based(tok.strip(), "--keep row", bits.size) - 1
                for tok in keep.split(",") if tok.strip()]
    try:
        code = construction_b(bits, rows_to_keep=rows)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    Path(out).write_text(write_stabilizer_text(code))
    click.echo(
        f"wrote {out}: [[{code.n_sent}, {code.logical_k}]] with "
        f"{code.n_checks} generators (rank {code.rank})"
    )


@build_code.command(name="ea")
@click.option("--alist", "alist_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Classical check matrix (binary or GF(4) alist).")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def ea_cmd(alist_path, out):
    """Entanglement-assisted code from a classical [n, k] check matrix."""
    try:
        h = parse_alist(Path(alist_path).read_text())
        canonical, pair_count = ea_canonicalize(quaternary_to_pauli(h))
        code = extend_with_ebits(canonical, pair_count)
    except ValueError as exc:  # FormatError included
        raise click.UsageError(str(exc))
    Path(out).write_text(write_stabilizer_text(code))
    click.echo(
        f"wrote {out}: [[{code.n_sent}, {code.logical_k}; {code.n_ebits}]] "
        f"from a [{h.shape[1]}, {h.shape[1] - h.shape[0]}] classical code"
    )


if __name__ == "__main__":
    main()
