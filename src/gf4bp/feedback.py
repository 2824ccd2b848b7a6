"""Feedback outer loops around the standard decoder.

Two strategies are implemented on top of plain BP:

* pc08: random perturbation of the priors of every qubit touching a chosen
  frustrated check (non-identity entries scaled by 1 + delta * U[0,1] and
  renormalized), then BP is restarted for t_pert iterations.
* enhanced: the prior of one chosen qubit of a frustrated check is replaced
  by a distribution built from the check entry, the frustration pattern and
  the channel, biasing the qubit toward (or away from) anticommuting with
  the check entry.

Each round restarts BP from scratch with the adjusted priors.  A round that
converges ends the procedure (the adjusted prior is not restored).  Any
other round is rolled back bit-exactly: if the chosen check is still
frustrated another qubit of the same check is tried next, and if the check
became satisfied but the full syndrome still mismatches, the round's output
replaces the working output and another frustrated check is chosen.  Every
tried qubit entry counts against the n_a budget.

Frustrated checks, enhanced's frustration pattern and round verdicts come
from the decoder's own syndrome test, the frustrated mask of each outcome;
no parity is computed here.

feedback_rounds is the one round engine, a generator: it yields the
adjusted priors of each config.t_pert-iteration BP restart and is sent
that restart's DecodeOutcome.  feedback_decode (the serial loop) and the
Monte-Carlo harness, whose restarts of many runs share the lane kernel,
drive it; feedback_round (one pinned round, also trace_run's) checks its
pin, then runs adjust and _record around one restart.  A run's random
choices come from its own generator, so interleaving changes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decoder import DecodeOutcome, TannerGraph, decode, tanner_graph
from .stabilizer import StabilizerCode, check_integer

STRATEGIES = ("pc08", "enhanced")


def default_n_a(n_sent: int) -> int:
    """Feedback budget by code length: n/5, n/10 or n/40, rounded down."""
    if n_sent < 300:
        return n_sent // 5
    if n_sent < 1000:
        return n_sent // 10
    return n_sent // 40


@dataclass(frozen=True)
class FeedbackConfig:
    """A feedback strategy (pc08 or enhanced) and its parameters; standard BP has none."""

    strategy: str
    t_pert: int = 40
    n_a: int | None = None  # None: default_n_a(code length)
    delta: float = 0.1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"{self.strategy!r} is not a feedback strategy (pc08 or "
                             "enhanced); the strategies are standard, pc08 and enhanced")
        check_integer("t_pert", self.t_pert, 1)
        if self.n_a is not None:
            check_integer("n_a", self.n_a)
        if not 0 <= self.delta < np.inf:  # NaN fails both
            raise ValueError("delta must be nonnegative and finite")


@dataclass
class AdjustmentRecord:
    """What one feedback round decided (replayable from the run's generator)."""

    check: int
    qubit: int
    outcome: str  # "converged" | "check_satisfied" | "restored"
    iterations: int


def enhanced_reset(entry: int, s_c: int, sc_dot_eout: int, p_identity: float) -> np.ndarray:
    """Reset distribution for a qubit of a frustrated check.

    entry is the check's GF(4) symbol on the qubit (nonzero).  When
    s_c = -1 and the output commutes with the check, the qubit is biased
    toward anticommuting with the entry; in the opposite frustration pattern
    it is biased toward commuting.
    """
    if entry not in (1, 2, 3):
        raise ValueError("check entry on the chosen qubit must be X, Z or Y")
    if (s_c, sc_dot_eout) not in ((-1, 1), (1, -1)):
        raise ValueError(
            f"({s_c}, {sc_dot_eout}) is not a frustrated pattern; "
            "expected (-1, +1) or (+1, -1)"
        )
    if s_c == -1:
        share_identity = (1.0 - p_identity) / 2.0
        share_others = p_identity / 2.0
    else:
        share_identity = p_identity / 2.0
        share_others = (1.0 - p_identity) / 2.0
    reset = np.full(4, share_others)
    reset[0] = share_identity
    reset[entry] = share_identity
    return reset


def pc08_perturb(prior, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Scale the non-identity entries by 1 + delta * U[0,1], renormalize.

    prior is one (4,) prior or (k, 4) priors, perturbed row by row with one
    draw of 3 uniforms each, in row order.
    """
    if not 0 <= delta < np.inf:
        raise ValueError("delta must be nonnegative and finite")
    out = np.array(prior, dtype=float)
    out[..., 1:] *= 1.0 + delta * rng.random(out.shape[:-1] + (3,))
    return out / out.sum(axis=-1, keepdims=True)


def check_slot(graph: TannerGraph, check: int, qubit: int) -> int:
    """Position of a sender qubit among a check's qubits; ValueError if a pin
    is not an integer (check_integer's rule), the check is out of range or
    the qubit is not on it."""
    check_integer("check", check, None)
    check_integer("qubit", qubit, None)
    if not 0 <= check < graph.n_checks:
        raise ValueError(f"0-based check {check} out of range 0..{graph.n_checks - 1}")
    slot = np.nonzero(graph.check_qubits(check) == qubit)[0]
    if slot.size == 0:
        raise ValueError(f"0-based qubit {qubit} is not connected to check {check}")
    return int(slot[0])


def adjust(graph, target, priors, config, current, check: int, slot: int, rng=None):
    """Adjust the priors for a round on the qubit at slot of check, from the
    working outcome current.

    enhanced resets that qubit from current's frustration pattern (its sign
    on the check is the target's, negated if the check is frustrated); pc08
    perturbs every qubit of the check with draws from rng.  Returns the
    adjusted (n, 4) priors; priors is not modified."""
    adjusted = np.array(priors, dtype=float)
    qubits = graph.check_qubits(check)
    if config.strategy == "enhanced":
        qubit, entry = qubits[slot], int(graph.check_entries(check)[slot])
        s_c = int(target[check])
        sc_dot = -s_c if current.frustrated[check] else s_c
        adjusted[qubit] = enhanced_reset(entry, s_c, sc_dot, float(adjusted[qubit, 0]))
    else:
        if rng is None:
            raise ValueError("pc08 rounds need a random stream")
        adjusted[qubits] = pc08_perturb(adjusted[qubits], config.delta, rng)
    return adjusted


def _record(check, qubit, outcome: DecodeOutcome) -> AdjustmentRecord:
    """The round's record: converged, check_satisfied (the chosen check now
    agrees with the target) or restored (it is still frustrated)."""
    if outcome.converged:
        verdict = "converged"
    elif outcome.frustrated[check]:
        verdict = "restored"
    else:
        verdict = "check_satisfied"
    return AdjustmentRecord(int(check), int(qubit), verdict, outcome.iterations)


def feedback_round(
    code: StabilizerCode,
    target,
    priors: np.ndarray,
    check: int,
    qubit: int,
    config: FeedbackConfig,
    current: DecodeOutcome,
    rng: np.random.Generator | None = None,
    on_iteration=None,
):
    """Run one feedback adjustment for (check, qubit) and a fresh BP restart
    on the code's cached Tanner graph (tanner_graph).

    current is the working output, a DecodeOutcome: enhanced reads its
    frustration pattern from current.frustrated.  Returns (outcome,
    record), the outcome's iterations the restart's; priors is not
    modified; a pin off the graph is a ValueError before any draw.
    """
    graph = tanner_graph(code)
    slot = check_slot(graph, check, qubit)
    adjusted = adjust(graph, target, priors, config, current, check, slot, rng)
    outcome = decode(code, target, adjusted, config.t_pert, on_iteration=on_iteration)
    return outcome, _record(check, qubit, outcome)


def feedback_rounds(graph: TannerGraph, target, priors, config, first, rng):
    """The feedback procedure of one (block, strategy) after its first run.

    first is the working outcome on (target, priors) at the start.  Yields
    the adjusted priors of each restart and is sent its DecodeOutcome;
    returns (outcome, records), the outcome's iterations counting the first
    run and every round.
    """
    budget = config.n_a if config.n_a is not None else default_n_a(graph.n_qubits)
    current, iterations, records = first, first.iterations, []
    while not current.converged and len(records) < budget:
        # current did not converge, so some check is frustrated
        frustrated = np.flatnonzero(current.frustrated)
        check = int(frustrated[rng.integers(0, len(frustrated))])  # Generator.choice's draw
        slots = list(range(graph.check_deg[check]))
        if not slots:
            break  # a check with no sender qubits can never be fixed
        rng.shuffle(slots)  # the permutation depends only on the length
        for slot in slots[: budget - len(records)]:
            outcome = yield adjust(graph, target, priors, config, current, check, slot, rng)
            records.append(_record(check, graph.check_qubits(check)[slot], outcome))
            iterations += outcome.iterations
            if records[-1].outcome != "restored":
                current = outcome  # a restored round keeps it for the next qubit
                break
    return replace(current, iterations=iterations), records


def feedback_decode(
    code: StabilizerCode,
    target,
    priors: np.ndarray,
    config: FeedbackConfig,
    max_iter: int = 90,
    rng: np.random.Generator | None = None,
    on_iteration=None,
):
    """Standard BP followed by up to n_a feedback adjustments, on the code's
    cached Tanner graph (tanner_graph).

    Returns (outcome, records).  The outcome's iteration count accumulates
    the initial run and every feedback round; failure (converged=False) is a
    normal result once the budget is exhausted.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    first = decode(code, target, priors, max_iter=max_iter, on_iteration=on_iteration)
    rounds = feedback_rounds(tanner_graph(code), target, priors, config, first, rng)
    try:
        adjusted = next(rounds)
        while True:
            outcome = decode(code, target, adjusted, config.t_pert, on_iteration=on_iteration)
            adjusted = rounds.send(outcome)
    except StopIteration as done:
        return done.value
