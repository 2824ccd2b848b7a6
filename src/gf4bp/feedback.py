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

FeedbackRun holds the state of one such procedure between rounds, so the
restarts of many runs can share the lane kernel; its random choices come
from its own generator, so interleaving runs changes none of them.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FeedbackConfig:
    strategy: str
    t_pert: int = 40
    n_a: int | None = None  # None: default_n_a(code length)
    delta: float = 0.1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        check_feedback_parameters(self.t_pert, self.n_a, self.delta)


def check_feedback_parameters(t_pert: int, n_a: int | None, delta: float) -> None:
    """Raise ValueError unless t_pert >= 1, n_a is None or >= 0, delta >= 0."""
    if t_pert < 1:
        raise ValueError("t_pert must be at least 1")
    if n_a is not None and n_a < 0:
        raise ValueError("n_a must be nonnegative")
    if delta < 0:
        raise ValueError("delta must be nonnegative")


@dataclass
class AdjustmentRecord:
    """Audit trail of one feedback round (replayable)."""

    check: int
    qubit: int
    qubits_touched: np.ndarray
    applied: np.ndarray  # (len(qubits_touched), 4) priors installed this round
    outcome: str  # "converged" | "check_satisfied" | "restored"
    iterations: int = 0


def frustrated_checks(code: StabilizerCode, target, e_out, graph=None) -> np.ndarray:
    """Indices of checks whose target syndrome disagrees with e_out's."""
    if graph is None:
        graph = tanner_graph(code)
    target = np.asarray(target, dtype=np.int64)
    signs = graph.syndrome_signs(np.asarray(e_out, dtype=np.uint8))
    return np.nonzero(signs != target)[0]


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
    if delta < 0:
        raise ValueError("delta must be nonnegative")
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


def feedback_adjustment(
    graph: TannerGraph,
    target,
    priors: np.ndarray,
    check: int,
    qubit: int,
    config: FeedbackConfig,
    rng: np.random.Generator | None = None,
    current_e_out: np.ndarray | None = None,
):
    """The prior adjustment of a round on (check, qubit).

    Returns (touched, applied): the adjusted qubits and their (len(touched),
    4) new priors.  enhanced resets the one qubit from current_e_out's
    frustration pattern; pc08 perturbs every qubit of the check with draws
    from rng.  priors is not modified.
    """
    if config.strategy not in ("pc08", "enhanced"):
        raise ValueError("feedback rounds need strategy pc08 or enhanced")
    slot = check_slot(graph, check, qubit)
    if config.strategy == "enhanced":
        if current_e_out is None:
            raise ValueError("enhanced rounds need the current decoder output")
        entry = int(graph.check_entries(check)[slot])
        s_c = int(target[check])
        sc_dot = int(graph.syndrome_signs(current_e_out)[check])
        touched = np.array([qubit])
        applied = enhanced_reset(entry, s_c, sc_dot, float(priors[qubit, 0]))[None, :]
    else:
        if rng is None:
            raise ValueError("pc08 rounds need a random stream")
        touched = graph.check_qubits(check).copy()
        applied = pc08_perturb(priors[touched], config.delta, rng)
    return touched, applied


def round_verdict(graph: TannerGraph, target, check: int, outcome: DecodeOutcome) -> str:
    """converged, check_satisfied (the chosen check now agrees with the
    target) or restored (it is still frustrated)."""
    if outcome.converged:
        return "converged"
    if int(graph.syndrome_signs(outcome.error)[check]) != int(target[check]):
        return "restored"
    return "check_satisfied"


def adjusted_priors(priors: np.ndarray, touched: np.ndarray, applied: np.ndarray):
    """A copy of priors with the touched rows replaced."""
    adjusted = priors.copy()
    adjusted[touched] = applied
    return adjusted


def feedback_round(
    code: StabilizerCode,
    target,
    priors: np.ndarray,
    check: int,
    qubit: int,
    config: FeedbackConfig,
    rng: np.random.Generator | None = None,
    graph: TannerGraph | None = None,
    current_e_out: np.ndarray | None = None,
    on_iteration=None,
):
    """Run one feedback adjustment for (check, qubit) and a fresh BP restart.

    Returns (outcome, record); priors is not modified.
    """
    if graph is None:
        graph = tanner_graph(code)
    target = np.asarray(target, dtype=np.int64)
    priors = np.asarray(priors, dtype=float)
    touched, applied = feedback_adjustment(
        graph, target, priors, check, qubit, config, rng, current_e_out
    )
    outcome = decode(
        code,
        target,
        adjusted_priors(priors, touched, applied),
        max_iter=config.t_pert,
        graph=graph,
        on_iteration=on_iteration,
    )
    record = AdjustmentRecord(
        check=int(check),
        qubit=int(qubit),
        qubits_touched=touched,
        applied=applied,
        outcome=round_verdict(graph, target, check, outcome),
        iterations=outcome.iterations,
    )
    return outcome, record


class FeedbackRun:
    """The feedback procedure of one (block, strategy), a round at a time.

    first is the standard run's outcome on (target, priors).  next_round()
    chooses the next (check, qubit), draws what the strategy draws and
    returns (adjusted priors, t_pert) for the BP restart, or None when the
    run is over; finish_round(outcome) applies that restart's verdict.
    result() is (outcome, records), the outcome's iterations counting the
    first run and every round.
    """

    def __init__(self, graph, target, priors, config, first, rng):
        self.graph = graph
        self.target = np.asarray(target, dtype=np.int64)
        self.priors = np.asarray(priors, dtype=float)
        self.config = config
        self.rng = rng
        self.budget = config.n_a if config.n_a is not None else default_n_a(graph.n_qubits)
        self.used = 0
        self.e_out = first.error
        self.converged = first.converged
        self.iterations = first.iterations
        self.records: list[AdjustmentRecord] = []
        self.check = None
        self.candidates = []  # untried qubits of the chosen check
        self._round = None  # (qubit, touched, applied) of the round in flight
        self._over = False

    def next_round(self):
        if self.converged or self._over or self.used >= self.budget:
            return None
        if not self.candidates:
            # e_out never converged, so some check is frustrated
            frustrated = frustrated_checks(None, self.target, self.e_out, graph=self.graph)
            self.check = int(self.rng.choice(frustrated))
            self.candidates = list(self.graph.check_qubits(self.check))
            if not self.candidates:
                self._over = True  # a check with no sender qubits can never be fixed
                return None
            self.rng.shuffle(self.candidates)
        qubit = int(self.candidates.pop(0))
        self.used += 1
        touched, applied = feedback_adjustment(
            self.graph, self.target, self.priors, self.check, qubit, self.config,
            self.rng, self.e_out,
        )
        self._round = (qubit, touched, applied)
        return adjusted_priors(self.priors, touched, applied), self.config.t_pert

    def finish_round(self, outcome: DecodeOutcome) -> None:
        qubit, touched, applied = self._round
        verdict = round_verdict(self.graph, self.target, self.check, outcome)
        self.records.append(
            AdjustmentRecord(
                check=self.check,
                qubit=qubit,
                qubits_touched=touched,
                applied=applied,
                outcome=verdict,
                iterations=outcome.iterations,
            )
        )
        self.iterations += outcome.iterations
        if verdict == "restored":
            return  # the next candidate of the same check, from the same e_out
        self.e_out = outcome.error
        self.converged = verdict == "converged"
        self.candidates = []

    def result(self):
        outcome = DecodeOutcome(
            error=self.e_out, converged=self.converged, iterations=self.iterations
        )
        return outcome, self.records


def feedback_decode(
    code: StabilizerCode,
    target,
    priors: np.ndarray,
    config: FeedbackConfig,
    max_iter: int = 90,
    rng: np.random.Generator | None = None,
    graph: TannerGraph | None = None,
    on_iteration=None,
    first: DecodeOutcome | None = None,
):
    """Standard BP followed by up to n_a feedback adjustments.

    Returns (outcome, records).  The outcome's iteration count accumulates
    the initial run and every feedback round; failure (converged=False) is a
    normal result once the budget is exhausted.  first, if given, is decode's
    outcome on the same target, priors and max_iter, and replaces the initial
    run: no draw precedes the first round, so the result is the same, but
    on_iteration sees only the rounds.
    """
    if config.strategy not in ("pc08", "enhanced"):
        raise ValueError("feedback_decode needs strategy pc08 or enhanced")
    if graph is None:
        graph = tanner_graph(code)
    if rng is None:
        rng = np.random.default_rng(0)
    if first is None:
        first = decode(
            code, target, priors, max_iter=max_iter, graph=graph, on_iteration=on_iteration
        )
    if first.converged:
        return first, []
    run = FeedbackRun(graph, target, priors, config, first, rng)
    while (restart := run.next_round()) is not None:
        adjusted, t_pert = restart
        run.finish_round(
            decode(
                code, run.target, adjusted, max_iter=t_pert, graph=graph,
                on_iteration=on_iteration,
            )
        )
    return run.result()
