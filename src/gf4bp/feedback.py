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

FeedbackRun is the one round engine: it holds one such procedure between
rounds, with its working DecodeOutcome as current.  Three drivers run it,
each restart for config.t_pert iterations on the priors it returns:
feedback_round (one pinned round from a given working outcome, trace_run's
pinned round too), feedback_decode (the serial loop) and the Monte-Carlo
harness, whose restarts of many runs share the lane kernel.  Its random
choices come from its own generator, so interleaving changes none of them.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .decoder import DecodeOutcome, TannerGraph, decode, tanner_graph
from .stabilizer import StabilizerCode

STRATEGIES = ("standard", "pc08", "enhanced")


def default_n_a(n_sent: int) -> int:
    """Feedback budget by code length: n/5, n/10 or n/40, rounded down."""
    if n_sent < 300:
        return n_sent // 5
    if n_sent < 1000:
        return n_sent // 10
    return n_sent // 40


def check_integer(name: str, value, least: int = 0) -> None:
    """ValueError unless value is an integer (int or numpy integer, not a
    float, even an integral one) of at least `least`."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}")


@dataclass(frozen=True)
class FeedbackConfig:
    strategy: str
    t_pert: int = 40
    n_a: int | None = None  # None: default_n_a(code length)
    delta: float = 0.1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        check_integer("t_pert", self.t_pert, 1)
        if self.n_a is not None:
            check_integer("n_a", self.n_a)
        if not 0 <= self.delta < np.inf:  # NaN fails both
            raise ValueError("delta must be nonnegative and finite")


@dataclass
class AdjustmentRecord:
    """Audit trail of one feedback round (replayable)."""

    check: int
    qubit: int
    qubits_touched: np.ndarray
    applied: np.ndarray  # (len(qubits_touched), 4) priors installed this round
    outcome: str  # "converged" | "check_satisfied" | "restored"
    iterations: int = 0


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
    """Position of a sender qubit among a check's qubits; ValueError if the
    check is out of range or the qubit is not on it."""
    if not 0 <= check < graph.n_checks:
        raise ValueError(f"0-based check {check} out of range 0..{graph.n_checks - 1}")
    slot = np.nonzero(graph.check_qubits(check) == qubit)[0]
    if slot.size == 0:
        raise ValueError(f"0-based qubit {qubit} is not connected to check {check}")
    return int(slot[0])


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
    modified.
    """
    run = FeedbackRun(tanner_graph(code), target, priors, config, current, rng)
    adjusted = run.start_round(check, qubit)
    outcome = decode(code, run.target, adjusted, config.t_pert, on_iteration=on_iteration)
    run.finish_round(outcome)
    return outcome, run.records[0]


class FeedbackRun:
    """The feedback procedure of one (block, strategy), a round at a time.

    current is the working outcome on (target, priors): first, the standard
    run's, at the start; a non-converged one must carry its frustrated mask.
    next_round() chooses the next (check, qubit), and start_round(check,
    qubit) draws what the strategy draws; both return the adjusted priors of
    a config.t_pert-iteration BP restart, next_round None once the run is
    over.  finish_round(outcome) applies its verdict.  result() is (outcome,
    records), the outcome's iterations counting the first run and every round.
    """

    def __init__(self, graph, target, priors, config, first, rng):
        if config.strategy not in ("pc08", "enhanced"):
            raise ValueError("feedback rounds need strategy pc08 or enhanced")
        if not first.converged and first.frustrated is None:
            raise ValueError("a non-converged first outcome needs its frustrated-check mask")
        self.graph = graph
        self.target = np.asarray(target, dtype=np.int64)
        self.priors = np.asarray(priors, dtype=float)
        self.config = config
        self.rng = rng
        self.budget = config.n_a if config.n_a is not None else default_n_a(graph.n_qubits)
        self.used = 0
        self.current = first
        self.iterations = first.iterations
        self.records: list[AdjustmentRecord] = []
        self.check = None
        self.candidates = []  # untried qubits of the chosen check
        self._round = None  # (qubit, touched, applied) of the round in flight
        self._over = False

    def next_round(self):
        if self.current.converged or self._over or self.used >= self.budget:
            return None
        if not self.candidates:
            # current did not converge, so some check is frustrated
            self.check = int(self.rng.choice(np.flatnonzero(self.current.frustrated)))
            self.candidates = list(self.graph.check_qubits(self.check))
            if not self.candidates:
                self._over = True  # a check with no sender qubits can never be fixed
                return None
            self.rng.shuffle(self.candidates)
        self.used += 1
        return self.start_round(self.check, int(self.candidates.pop(0)))

    def start_round(self, check: int, qubit: int):
        """Adjust the priors for a round on (check, qubit).

        enhanced resets the one qubit from current's frustration pattern
        (its sign on the check is the target's, negated if the check is
        frustrated); pc08 perturbs every qubit of the check with draws from
        rng.  Returns the adjusted priors; self.priors is not modified."""
        graph, config = self.graph, self.config
        slot = check_slot(graph, check, qubit)
        if config.strategy == "enhanced":
            entry = int(graph.check_entries(check)[slot])
            s_c = int(self.target[check])
            sc_dot = -s_c if self.current.frustrated[check] else s_c
            touched = np.array([qubit])
            applied = enhanced_reset(
                entry, s_c, sc_dot, float(self.priors[qubit, 0])
            )[None, :]
        else:
            if self.rng is None:
                raise ValueError("pc08 rounds need a random stream")
            touched = graph.check_qubits(check).copy()
            applied = pc08_perturb(self.priors[touched], config.delta, self.rng)
        self.check = int(check)
        self._round = (int(qubit), touched, applied)
        adjusted = self.priors.copy()
        adjusted[touched] = applied
        return adjusted

    def finish_round(self, outcome: DecodeOutcome) -> None:
        """Record the round as converged, check_satisfied (the chosen check
        now agrees with the target) or restored (it is still frustrated)."""
        check, (qubit, touched, applied) = self.check, self._round
        if outcome.converged:
            verdict = "converged"
        elif outcome.frustrated[check]:
            verdict = "restored"
        else:
            verdict = "check_satisfied"
        self.records.append(
            AdjustmentRecord(
                check=check,
                qubit=qubit,
                qubits_touched=touched,
                applied=applied,
                outcome=verdict,
                iterations=outcome.iterations,
            )
        )
        self.iterations += outcome.iterations
        if verdict == "restored":
            return  # the next candidate of the same check, from the same output
        self.current = outcome
        self.candidates = []

    def result(self):
        return replace(self.current, iterations=self.iterations), self.records


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
    run = FeedbackRun(tanner_graph(code), target, priors, config, first, rng)
    while (adjusted := run.next_round()) is not None:
        outcome = decode(
            code, run.target, adjusted, config.t_pert, on_iteration=on_iteration
        )
        run.finish_round(outcome)
    return run.result()
