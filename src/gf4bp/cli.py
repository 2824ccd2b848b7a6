"""Command-line interface.

Subcommands: simulate (Monte-Carlo BER/ANoI runs), trace (single-instance
belief trajectories) and build-code (Construction B and the EA construction
from a classical quaternary/binary check matrix).

Check and qubit indices on the command line are 1-based, matching the usual
presentation; library APIs are 0-based.
"""

from pathlib import Path

import click
import numpy as np

from .decoder import tanner_graph
from .formats import parse_alist, write_stabilizer_text
from .sim import (
    ExperimentSpec,
    format_csv,
    load_code,
    run_experiment,
    trace_run,
)
from .stabilizer import (
    construction_b,
    ea_canonicalize,
    extend_with_ebits,
    quaternary_to_pauli,
)


def _read_config(path):
    """key=value lines; '#' comments; keys match flag names (dashes or not)."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(ctx, config_path):
    """Fill parameters from the config file where flags were not given; a
    key is a flag or parameter name, its value converted by the flag's type."""
    if config_path is None:
        return
    options = {}  # key -> option, dashes as underscores
    for param in ctx.command.params:
        if "--config" not in param.opts:
            for name in [param.name, *(opt.lstrip("-") for opt in param.opts)]:
                options[name.replace("-", "_")] = param
    values = _read_config(config_path)
    unknown = set(values) - set(options)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        param = options[key]
        source = ctx.get_parameter_source(param.name)
        if source is not None and source.name != "DEFAULT":
            continue  # explicit flag wins
        try:
            ctx.params[param.name] = param.type.convert(value, param, ctx)
        except click.BadParameter as exc:
            raise click.UsageError(f"bad config value {key}={value!r}: {exc.message}")


def _check_out_dir(flag, path):
    """UsageError unless an output file's directory exists: checked before
    decoding, so a run does not end in a traceback after its last block."""
    if path is not None and path != "-" and not Path(path).parent.is_dir():
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


@click.group()
def main():
    """Belief-propagation decoding simulator for sparse quantum codes."""


@main.command()
@click.option("--code", "code_src", default="4_1_1", show_default=True,
              help="Built-in code name or stabilizer text file.")
@click.option("--p", "p_list", default="0.1", show_default=True,
              help="Comma-separated channel crossover probabilities.")
@click.option("--strategy", default="standard", show_default=True,
              help="Comma-separated list from standard,pc08,enhanced.")
@click.option("--blocks", default=1000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--max-iter", default=90, show_default=True, type=int,
              help="Iteration budget of the initial BP run.")
@click.option("--t-pert", default=40, show_default=True, type=int,
              help="BP iterations after each feedback adjustment.")
@click.option("--n-a", default="AUTO", show_default=True,
              help="Feedback budget (integer or AUTO by code length).")
@click.option("--delta", default=0.1, show_default=True, type=float,
              help="PC08 perturbation strength.")
@click.option("--inject", default=None,
              help="Fixed Pauli error on the sent qubits instead of sampling.")
@click.option("--workers", default=1, show_default=True, type=int)
@click.option("--out", default="results.csv", show_default=True,
              type=click.Path(dir_okay=False))
@click.option("--jsonl", default=None, type=click.Path(dir_okay=False),
              help="Optional per-block JSON-lines log.")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="key=value file mirroring these flags; flags win.")
@click.pass_context
def simulate(ctx, code_src, p_list, strategy, blocks, seed, max_iter, t_pert,
             n_a, delta, inject, workers, out, jsonl, config_path):
    """Monte-Carlo decoding experiment; writes one CSV row per (p, strategy)."""
    _apply_config(ctx, config_path)
    params = ctx.params
    _check_out_dir("--out", params["out"])
    _check_out_dir("--jsonl", params["jsonl"])
    try:
        spec = ExperimentSpec(
            code=load_code(params["code_src"]),
            p_values=_parse_p_list(params["p_list"]),
            strategies=_parse_strategies(params["strategy"]),
            blocks=params["blocks"],
            seed=params["seed"],
            max_iter=params["max_iter"],
            t_pert=params["t_pert"],
            n_a=_parse_n_a(params["n_a"]),
            delta=params["delta"],
            inject=params["inject"],
            workers=params["workers"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    stats, _ = run_experiment(spec, jsonl_path=params["jsonl"])
    Path(params["out"]).write_text(format_csv(stats))
    for s in stats:
        click.echo(
            f"p={s.p:g} {s.strategy}: BER={s.ber:.6g} "
            f"[{s.ber_lo:.3g}, {s.ber_hi:.3g}] ANoI={s.anoi:.4g} "
            f"(exact={s.exact} degenerate={s.degenerate} "
            f"nonequivalent={s.nonequivalent} detected={s.detected})"
        )
    click.echo(f"wrote {params['out']}")


@main.command()
@click.option("--code", "code_src", default="4_1_1", show_default=True)
@click.option("--p", default=0.1, show_default=True, type=float)
@click.option("--error", default=None,
              help="Pauli error on the sent qubits, e.g. IIZX.")
@click.option("--syndrome", "syndrome_text", default=None,
              help="Target syndrome as +/- characters, e.g. -+++.")
@click.option("--strategy", default="standard", show_default=True,
              type=click.Choice(["standard", "pc08", "enhanced"]))
@click.option("--check", default=None, type=click.IntRange(min=1),
              help="1-based frustrated check to adjust (pins a single round).")
@click.option("--qubit", default=None, type=click.IntRange(min=1),
              help="1-based qubit of that check to adjust.")
@click.option("--max-iter", default=90, show_default=True, type=int)
@click.option("--t-pert", default=40, show_default=True, type=int)
@click.option("--n-a", default="AUTO", show_default=True)
@click.option("--delta", default=0.1, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="-", show_default=True,
              type=click.Path(dir_okay=False, allow_dash=True),
              help="CSV output path, or - for stdout.")
def trace(code_src, p, error, syndrome_text, strategy, check, qubit, max_iter,
          t_pert, n_a, delta, seed, out):
    """Emit per-iteration beliefs (iteration,qubit,p_I,p_X,p_Z,p_Y) for one
    decoding instance; qubit numbers in the output are 1-based."""
    _check_out_dir("--out", out)
    target = None
    if syndrome_text is not None:
        signs = {"+": 1, "-": -1}
        try:
            target = np.array([signs[ch] for ch in syndrome_text.strip()])
        except KeyError:
            raise click.UsageError(f"bad syndrome {syndrome_text!r}; use + and -")
    try:
        code = load_code(code_src)
        if check is not None and qubit is not None:  # reported 1-based, as typed
            graph = tanner_graph(code)
            _one_based(check, "--check", graph.n_checks)
            on_check = graph.check_qubits(check - 1) + 1
            if qubit not in on_check:
                raise click.UsageError(
                    f"--qubit {qubit} is not on check {check}, whose qubits are "
                    + ", ".join(map(str, on_check))
                )
        rows, outcome = trace_run(
            code,
            p,
            error=error,
            target=target,
            strategy=strategy,
            check=None if check is None else check - 1,
            qubit=None if qubit is None else qubit - 1,
            max_iter=max_iter,
            t_pert=t_pert,
            n_a=_parse_n_a(n_a),
            delta=delta,
            seed=seed,
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
