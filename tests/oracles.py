"""Independent oracles used by the test suite.

Everything here recomputes quantities by exhaustive enumeration, by direct
formulas or by a frozen reference implementation, never through the
library's decoding or linear-algebra paths.  The GF(4) field operations
(add, mul, conj, trace) are used only by tests, so they live here; they read
the library's tables, which test_gf4 checks entry by entry.
"""

import numpy as np

from gf4bp import gf4
from gf4bp.stabilizer import ANTICOMMUTES, StabilizerCode, group_membership


def pauli_commutation_sign(u, v) -> int:
    """+1/-1 by counting positionwise anticommutations (independent of the
    trace inner product)."""
    anticommute = 0
    for a, b in zip(u, v, strict=True):
        if a != 0 and b != 0 and a != b:
            anticommute += 1
    return 1 if anticommute % 2 == 0 else -1


def poly_mul(a: int, b: int) -> int:
    """GF(4) product in GF(2)[x] / (x^2 + x + 1), with value = c0 + 2*c1."""
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 + 2 * c1


def add(a, b):
    """GF(4) addition (Klein four-group, bitwise XOR on the encoding)."""
    return np.bitwise_xor(a, b)


def mul(a, b):
    """GF(4) multiplication, read from the library's table."""
    return gf4.MUL_TABLE[a, b]


def conj(a):
    """GF(4) conjugation (the Frobenius map x -> x^2), read from the
    library's table."""
    return gf4.CONJ_TABLE[a]


def trace(a):
    """Trace onto GF(2), read from the library's table: 0 for {0, 1}, 1 for
    {omega, omega_bar}."""
    return gf4.TRACE_TABLE[a]


PAULI_TO_VALUE = {symbol: value for value, symbol in enumerate(gf4.PAULI_ORDER)}


def symbols_by_searchsorted(prior, uniforms) -> np.ndarray:
    """Generator.choice(4, p=prior)'s draw from given uniforms: each uniform
    searched in the prior's normalised CDF (side="right")."""
    cdf = np.cumsum(prior)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right").astype(np.uint8)


def pauli_values_by_symbol(pauli: str) -> np.ndarray:
    """GF(4) values of a Pauli string, one symbol at a time (the library's
    conversion before its byte table)."""
    try:
        return np.array([PAULI_TO_VALUE[symbol] for symbol in pauli], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"invalid Pauli symbol {exc.args[0]!r} in {pauli!r}") from None


def anticommutation_words_by_cube(code: StabilizerCode) -> np.ndarray:
    """The packed anticommutation columns built from a (columns, 4, checks)
    byte cube of ANTICOMMUTES entries (the library's construction before it
    packed bit planes of the check matrix)."""
    n_words = -(-code.n_checks // 64)
    bits = np.zeros((code.n_total, 4, 64 * n_words), dtype=np.uint8)
    bits[..., : code.n_checks] = ANTICOMMUTES[
        np.arange(4)[:, None, None], code.checks
    ].transpose(2, 0, 1)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64).reshape(code.n_total * 4, n_words)


def hard_decision(beliefs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Argmax over the symbol axis with deterministic tie-break in the order
    I, X, Z, Y."""
    return beliefs.argmax(axis=axis).astype(np.uint8)


def all_error_patterns(n: int) -> np.ndarray:
    """All 4^n GF(4) vectors of length n (rows)."""
    grids = np.meshgrid(*([np.arange(4)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.uint8)


def syndrome_by_counting(code: StabilizerCode, error) -> np.ndarray:
    return np.array(
        [pauli_commutation_sign(row, error) for row in code.checks], dtype=np.int64
    )


def frustrated_checks(code: StabilizerCode, target, e_out) -> np.ndarray:
    """Indices of the checks whose target sign disagrees with the syndrome
    of e_out, an error on the sent qubits, by counting."""
    signs = syndrome_by_counting(code, code.embed_sent(e_out))
    return np.flatnonzero(signs != np.asarray(target))


def syndrome_by_entries(code: StabilizerCode, error) -> np.ndarray:
    """Syndrome (+1/-1 int8) of an error or of each row of a (B, n_total)
    array, by gathering every check entry's anticommutation bit and XORing
    them row by row (the library's syndrome before packed columns)."""
    values = np.asarray(error, dtype=np.uint8)
    rows, cols = np.nonzero(code.checks)
    positions = cols * 4 + code.checks[rows, cols]
    starts = np.searchsorted(rows, np.arange(code.n_checks))
    # ANTICOMMUTES is symmetric: row v holds v's parity against each symbol
    table = ANTICOMMUTES.take(values, axis=0).reshape(values.shape[:-1] + (-1,))
    bits = table.take(positions, axis=-1)
    return 1 - 2 * np.bitwise_xor.reduceat(bits, starts, axis=-1).astype(np.int8)


def exact_marginals(code: StabilizerCode, target, priors):
    """Posterior marginals P(E_q | syndrome) by enumerating all 4^n errors.

    Returns (marginals, total_mass); total_mass is the probability of the
    syndrome under the prior (zero means the syndrome is infeasible).
    """
    n = code.n_sent
    target = np.asarray(target, dtype=np.int64)
    priors = np.asarray(priors, dtype=float)
    marginals = np.zeros((n, 4))
    total = 0.0
    for pattern in all_error_patterns(n):
        full = np.zeros(code.n_total, dtype=np.uint8)
        full[:n] = pattern
        if not np.array_equal(syndrome_by_counting(code, full), target):
            continue
        weight = float(np.prod(priors[np.arange(n), pattern]))
        total += weight
        marginals[np.arange(n), pattern] += weight
    if total > 0:
        marginals /= total
    return marginals, total


MSG_FLOOR = 1e-30

_XOR_IDX = np.array([[x ^ y for y in range(4)] for x in range(4)])


def _normalize(arr: np.ndarray) -> np.ndarray:
    arr = np.maximum(arr, MSG_FLOOR)
    return arr / arr.sum(axis=-1, keepdims=True)


def klein_convolve(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Convolution of two distributions under GF(4) addition."""
    return (np.asarray(p)[None, :] * np.asarray(t)[_XOR_IDX]).sum(axis=1)


def check_update(target_entry, other_entries, other_messages, s_c) -> np.ndarray:
    """Check-to-qubit message by direct GF(4) convolution.

    Maps each incoming distribution over E_q' to the distribution of
    x_q' = E_q'_hat * conj(S_cq'_hat), convolves them under GF(4) addition
    into the partial-sum distribution p, splits p by syndrome into the
    allowed trace classes and reads the message out through the target
    entry's bijection.
    """
    if s_c not in (1, -1):
        raise ValueError(f"syndrome value must be +1 or -1, got {s_c}")
    if target_entry not in (1, 2, 3):
        raise ValueError("check entry on the target qubit must be nonzero")
    p = np.array([1.0, 0.0, 0.0, 0.0])
    for entry, message in zip(other_entries, other_messages, strict=True):
        if entry not in (1, 2, 3):
            raise ValueError("check entries on neighbor qubits must be nonzero")
        t = np.empty(4)
        t[gf4.MUL_TABLE[np.arange(4), gf4.CONJ_TABLE[entry]]] = np.asarray(message, float)
        p = klein_convolve(p, t)
    comm = (p[0] + p[1]) / 2.0
    anti = (p[2] + p[3]) / 2.0
    if s_c == 1:
        p_q = np.array([comm, comm, anti, anti])
    else:
        p_q = np.array([anti, anti, comm, comm])
    return _normalize(p_q[gf4.MUL_TABLE[np.arange(4), gf4.CONJ_TABLE[target_entry]]])


def qubit_update(prior, incoming) -> np.ndarray:
    """Qubit-to-check message: prior times all other incoming messages."""
    out = np.asarray(prior, float).copy()
    for message in incoming:
        out *= np.asarray(message, float)
    return _normalize(out)


def compute_beliefs(priors, incoming_per_qubit) -> np.ndarray:
    """Beliefs b_q = normalize(prior_q * prod of incoming check messages)."""
    priors = np.asarray(priors, float)
    beliefs = priors.copy()
    for q, incoming in enumerate(incoming_per_qubit):
        for message in incoming:
            beliefs[q] *= np.asarray(message, float)
    return _normalize(beliefs)


def brute_check_message(target_entry, other_entries, other_messages, s_c):
    """Sum-product check-to-qubit message by enumerating joint assignments."""
    other_messages = [np.asarray(m, float) for m in other_messages]
    k = len(other_entries)
    message = np.zeros(4)
    for e_q in range(4):
        acc = 0.0
        for assignment in all_error_patterns(k) if k else [np.array([], dtype=np.uint8)]:
            sign = 1
            if e_q != 0 and e_q != target_entry:
                sign = -sign
            for entry, symbol in zip(other_entries, assignment):
                if symbol != 0 and symbol != entry:
                    sign = -sign
            if sign != s_c:
                continue
            weight = 1.0
            for m, symbol in zip(other_messages, assignment):
                weight *= m[symbol]
            acc += weight
        message[e_q] = acc
    return message / message.sum()


def flooding_hard_decisions(code: StabilizerCode, target, priors, n_iter: int):
    """Per-iteration hard decisions of a flooding sum-product, by enumeration.

    Edges are the nonzero check entries on the sent columns.  Each iteration
    computes every check-to-qubit message with brute_check_message from the
    previous qubit-to-check messages (the priors at the start), then the
    beliefs and the new qubit-to-check messages as plain products, and takes
    the first largest belief per qubit in the order I, X, Z, Y.  Returns an
    (n_iter, n_sent) array, row t-1 being iteration t's decision.
    """
    n = code.n_sent
    priors = np.asarray(priors, dtype=float)
    priors = priors / priors.sum(axis=1, keepdims=True)
    edges = [
        (c, q, int(code.checks[c, q]))
        for c in range(code.n_checks)
        for q in range(n)
        if code.checks[c, q] != 0
    ]
    q2c = {(c, q): priors[q] for c, q, _ in edges}
    decisions = np.zeros((n_iter, n), dtype=np.uint8)
    for t in range(n_iter):
        c2q = {}
        for c, q, entry in edges:
            others = [(q2, e2) for c2, q2, e2 in edges if c2 == c and q2 != q]
            c2q[c, q] = brute_check_message(
                entry,
                [e2 for _, e2 in others],
                [q2c[c, q2] for q2, _ in others],
                int(target[c]),
            )
        for q in range(n):
            belief = priors[q].copy()
            for c, q2, _ in edges:
                if q2 == q:
                    belief = belief * c2q[c, q]
            decisions[t, q] = max(range(4), key=lambda e: (belief[e], -e))
        for c, q, _ in edges:
            message = priors[q].copy()
            for c2, q2, _ in edges:
                if q2 == q and c2 != c:
                    message = message * c2q[c2, q]
            q2c[c, q] = message / message.sum()
    return decisions


def _exclusive_prod(a: np.ndarray) -> np.ndarray:
    """Per-slot product over axis 1 excluding the slot itself."""
    pref = np.ones_like(a)
    suf = np.ones_like(a)
    if a.shape[1] > 1:
        np.cumprod(a[:, :-1], axis=1, out=pref[:, 1:])
        np.cumprod(a[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return pref * suf


def row_major_beliefs(code: StabilizerCode, target, priors, n_iter: int):
    """Per-iteration beliefs of a frozen row-major flooding sum-product.

    Messages are (edges, 4) arrays; the check update uses the parity form
    (1 + s_c * kappa * D) / 4, sums and products reduce numpy's short axes
    (sum over the 4 symbols, cumprod over slots).  This is the decoder's
    earlier probability-domain implementation, kept as the reference the
    log-domain kernel must agree with.  Returns a list of n_iter
    (n_sent, 4) arrays.
    """
    sent = code.checks[:, : code.n_sent]
    n_checks, n_qubits = sent.shape
    edge_check, edge_qubit = np.nonzero(sent)
    entry = sent[edge_check, edge_qubit].astype(np.intp)
    n_edges = entry.size
    kappa = np.array(
        [[float(pauli_commutation_sign([s], [e])) for e in range(4)] for s in entry]
    ).reshape(n_edges, 4)

    def slots(owner, n_owner):
        order = np.argsort(owner, kind="stable")
        degree = np.bincount(owner, minlength=n_owner)
        start = np.concatenate([[0], np.cumsum(degree)])
        position = np.empty(n_edges, dtype=np.intp)
        position[order] = np.arange(n_edges) - start[owner[order]]
        width = int(degree.max(initial=0))
        table = np.full((n_owner, width), n_edges, dtype=np.intp)
        table[owner, position] = np.arange(n_edges)
        return table, owner * width + position

    check_slots, check_pos = slots(edge_check, n_checks)
    qubit_slots, qubit_pos = slots(edge_qubit, n_qubits)
    pri = _normalize(np.asarray(priors, dtype=float))
    sigma = np.asarray(target, dtype=np.int64).astype(float)[edge_check]
    msg = pri[edge_qubit]
    history = []
    for _ in range(n_iter):
        commute_mass = msg[:, 0] + msg[np.arange(n_edges), entry]
        d = 2.0 * commute_mass - msg.sum(axis=1)
        d_excl = _exclusive_prod(np.append(d, 1.0)[check_slots]).reshape(-1)[check_pos]
        c2q = _normalize(0.25 * (1.0 + (sigma * d_excl)[:, None] * kappa))
        gathered = np.concatenate([c2q, np.ones((1, 4))], axis=0)[qubit_slots]
        history.append(_normalize(pri * gathered.prod(axis=1)))
        extrinsic = pri[:, None, :] * _exclusive_prod(gathered)
        msg = _normalize(extrinsic.reshape(-1, 4)[qubit_pos])
    return history


def enumerate_group(code: StabilizerCode):
    """All 2^m products of the generators, as a set of tuples."""
    m = code.n_checks
    elements = set()
    for mask in range(1 << m):
        value = np.zeros(code.n_total, dtype=np.uint8)
        for i in range(m):
            if mask >> i & 1:
                value = np.bitwise_xor(value, code.checks[i])
        elements.add(tuple(int(v) for v in value))
    return elements


def random_tree_code(rng: np.random.Generator, max_qubits: int = 6):
    """A random stabilizer code whose Tanner graph is a forest.

    Checks are added one at a time; a new check may attach to one already
    used qubit, where it must reuse that qubit's established entry so all
    rows commute.  Every cycle-free bipartite layout is reachable this way.
    """
    n = int(rng.integers(2, max_qubits + 1))
    locked = {}
    rows = []
    used = []
    n_checks = int(rng.integers(1, 4))
    free = list(range(n))
    rng.shuffle(free)
    for _ in range(n_checks):
        row = np.zeros(n, dtype=np.uint8)
        if used and rng.random() < 0.7:
            junction = int(rng.choice(used))
            row[junction] = locked[junction]
        take = int(rng.integers(1, 3))
        for _ in range(take):
            if not free:
                break
            q = free.pop()
            entry = int(rng.integers(1, 4))
            row[q] = entry
            locked[q] = entry
            used.append(q)
        if not row.any():
            continue
        rows.append(row)
    if not rows:
        rows = [np.array([1] + [0] * (n - 1), dtype=np.uint8)]
        locked[0] = 1
    return StabilizerCode(np.array(rows), n_sent=n, n_ebits=0)


def classify_outcome(code: StabilizerCode, error, outcome, check_membership=True) -> str:
    """Classify a decode outcome against the sampled error, one block at a
    time: the reference for the harness's classes (sim._Chunk.write).

    exact: e_out equals the error; degenerate: they differ by a stabilizer
    element; nonequivalent: converged but not equivalent; detected: the
    decoder reported failure.  With check_membership=False the degenerate /
    nonequivalent split is not computed and 'unchecked' is returned instead.
    """
    if not outcome.converged:
        return "detected"
    error = np.asarray(error, dtype=np.uint8)
    e_out = code.embed_sent(outcome.error)
    if np.array_equal(error, e_out):
        return "exact"
    if not check_membership:
        return "unchecked"
    if group_membership(np.bitwise_xor(e_out, error), code):
        return "degenerate"
    return "nonequivalent"


def lane_decode(graph, lp, target, max_iter: int, halt: bool = True):
    """The DecodeOutcome of one job run alone on a width-1 Lanes kernel of
    the log-priors' dtype, from iteration 1: at float64 it is decode's."""
    from gf4bp.decoder import Lanes

    lanes = Lanes(graph, 1, lp.dtype.type)
    lanes.load(True, lp, np.asarray(target), max_iter)
    while True:
        finished = lanes.step(halt)
        if finished:
            return finished[0][1]


def per_cell_experiment(spec, jsonl_path=None):
    """A frozen per-(p, strategy) Monte-Carlo harness, the reference for
    gf4bp.sim.run_experiment.

    Each (p, strategy) cell runs on its own: every block's error is sampled,
    its syndrome counted and standard BP run again for every strategy, one
    job at a time on a width-1 kernel of the harness's dtype (sim.LANE_REAL),
    and pc08/enhanced blocks drive the feedback_rounds engine with restarts
    on such a kernel.  The results are sorted and each cell is re-filtered
    from them, as the harness did before it shared work between strategies.
    Returns (stats, block results, verdicts), verdicts counting the outcomes
    of the feedback rounds' AdjustmentRecords.
    """
    import json
    from collections import Counter

    from gf4bp.channel import DepolarizingChannel, priors, sample_error, substream
    from gf4bp.decoder import log_priors, tanner_graph
    from gf4bp.feedback import FeedbackConfig, feedback_rounds
    from gf4bp.sim import (
        DEGENERACY_LIMIT,
        LANE_REAL,
        OUTCOME_CLASSES,
        BlockResult,
        StrategyStats,
        load_code,
        wilson_interval,
    )

    code = load_code(spec.code)
    graph = tanner_graph(code)
    check_membership = code.n_total <= DEGENERACY_LIMIT
    inject = None if spec.inject is None else gf4.pauli_to_values(spec.inject)
    block_results = []
    verdicts = Counter()
    for p_index, p in enumerate(spec.p_values):
        chan = DepolarizingChannel(p)
        base_priors = priors(chan, code.n_sent)
        base_lp = log_priors(base_priors, LANE_REAL)
        for strategy_index, strategy in enumerate(spec.strategies):
            for block in range(spec.blocks):
                if inject is not None:
                    error = code.embed_sent(inject)
                else:
                    uniforms = substream(spec.seed, 0, block).random(code.n_sent)
                    error = sample_error(code.n_sent, chan, uniforms, n_ebits=code.n_ebits)
                target = syndrome_by_counting(code, error)
                outcome = lane_decode(graph, base_lp, target, spec.max_iter)
                if strategy != "standard":
                    config = FeedbackConfig(
                        strategy=strategy,
                        t_pert=spec.t_pert,
                        n_a=spec.n_a,
                        delta=spec.delta,
                    )
                    rng = substream(spec.seed, 1, strategy_index, p_index, block)
                    rounds = feedback_rounds(graph, target, base_priors, config, outcome, rng)
                    try:
                        adjusted = next(rounds)
                        while True:
                            lp = log_priors(adjusted, LANE_REAL)
                            restart = lane_decode(graph, lp, target, config.t_pert)
                            adjusted = rounds.send(restart)
                    except StopIteration as done:
                        outcome, records = done.value
                    verdicts.update(record.outcome for record in records)
                block_results.append(
                    BlockResult(
                        p=p,
                        strategy=strategy,
                        block=block,
                        error=gf4.values_to_pauli(error[: code.n_sent]),
                        e_out=outcome.error_pauli,
                        converged=outcome.converged,
                        iterations=outcome.iterations,
                        outcome=classify_outcome(code, error, outcome, check_membership),
                    )
                )
    block_results.sort(
        key=lambda r: (
            spec.p_values.index(r.p), spec.strategies.index(r.strategy), r.block
        )
    )

    stats = []
    for p in spec.p_values:
        for strategy in spec.strategies:
            cell = [r for r in block_results if r.p == p and r.strategy == strategy]
            counts = {klass: 0 for klass in OUTCOME_CLASSES}
            for r in cell:
                counts[r.outcome] += 1
            errors_strict = len(cell) - counts["exact"]
            lo, hi = wilson_interval(errors_strict, len(cell))
            stats.append(
                StrategyStats(
                    p=p,
                    strategy=strategy,
                    n_blocks=len(cell),
                    errors_strict=errors_strict,
                    ber=errors_strict / len(cell),
                    ber_lo=lo,
                    ber_hi=hi,
                    anoi=sum(r.iterations for r in cell) / len(cell),
                    exact=counts["exact"],
                    degenerate=counts["degenerate"],
                    nonequivalent=counts["nonequivalent"],
                    detected=counts["detected"],
                    unchecked=counts["unchecked"],
                    seed=spec.seed,
                )
            )

    if jsonl_path is not None:
        with open(jsonl_path, "w") as handle:
            for r in block_results:
                record = {
                    "p": r.p,
                    "strategy": r.strategy,
                    "block": r.block,
                    "error": r.error,
                    "e_out": r.e_out,
                    "converged": r.converged,
                    "iterations": r.iterations,
                    "class": r.outcome,
                }
                handle.write(json.dumps(record) + "\n")
    return stats, block_results, verdicts
