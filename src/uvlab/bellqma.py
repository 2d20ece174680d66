"""k-proof verifier restricted to separate, non-adaptive measurements.

Every proof register is measured up front and a classical computation on
the outcomes decides; only per-register outcome distributions are ever
computed, never a joint state.  The tests, the uniformity DP, the conflict
core that exact and Monte-Carlo consistency share, the budget and the caps
are described once, in the README's ``uvlab.bellqma`` bullet.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CapacityError
from .provers import ProofBatch, stack_proofs, uniformity_weights
from .sgraph import SuccinctCircuit, edge_array, expand
from .states import PureState
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

ENUMERATION_BUDGET = 10 ** 7     # 8-byte entries exact consistency may allocate
MC_CONFIDENCE = 0.99
Z_PRIME_THRESHOLD = 1.0 / 12.0
MC_TABLE_BYTES = 2 ** 24     # cap on each Monte-Carlo table and a batch's packed rows
GUIDE_BINS = 2 ** 10        # inverse-CDF guide table bins per register
RUN_CORE_CAP = 10           # core outcomes past which a run of equal registers is drawn one by one


def default_k(n: int) -> int:
    """Proof count 120 n used by the soundness gap arithmetic."""
    return 120 * n


def soundness_bound(n: int) -> float:
    """Rejection floor 4^-n / 12000 at k = 120 n for non-3-colorable
    instances, valid for unentangled proofs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4.0 ** (-n) / 12000.0


def completeness_bound(k: int) -> float:
    """Acceptance floor 1 - 2^(-k/40) of k honest proofs."""
    return 1.0 - 2.0 ** (-k / 40.0)


@dataclass(frozen=True)
class BellReport:
    p_consistency: float
    p_uniformity: float
    p_total: float
    mode: str
    k: int
    samples: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None    # on p_total; only the consistency
    z_tail: float | None = None          # term is estimated, so hw_cons / 2

    def to_dict(self) -> dict:
        return {"p_cons": self.p_consistency, "p_unif": self.p_uniformity,
                "p_total": self.p_total, "mode": self.mode, "k": self.k,
                "samples": self.samples, "seed": self.seed,
                "ci_halfwidth": self.ci_halfwidth, "z_tail": self.z_tail}


def uniformity_stats(state: PureState) -> tuple[float, float, float]:
    """(a, b, c) = Pr[x=1], Pr[x=0, y=0], Pr[x=0, y=1] for one register."""
    return tuple(float(w) for w in uniformity_weights(stack_proofs([state]))[0])


def z_threshold(k: int) -> int:
    """Smallest |Z| that passes the |Z| < k/6 rejection."""
    return math.ceil(k / 6)


def _probability(mass: np.ndarray) -> float:
    """Sum of DP entries (nonnegative), clamped at 1 against their rounding."""
    return min(1.0, float(mass.sum()))


def _uniformity_dps(weights: np.ndarray) -> np.ndarray:
    """Both Poisson-binomial DPs over the (k, 3) weights (a, b, c), which
    leave out the same a: f[r, z] sums, over the register sets S of size z,
    prod_{i in S} counted[r, i] * prod_{i not in S} a_i, where row 0 counts
    b only, as a c outcome rejects outright, and row 1 counts b + c, the
    PMF of |Z|.

    The registers split into blocks of B = isqrt(k), the last padded with
    the factor 1 + 0x.  B vectorized steps build every block's polynomial
    for both rows at once; np.convolve then folds the blocks together.
    Every term is nonnegative, so each entry of at least 2^-1022 is within
    about (products per entry) * 2^-53 <= k * 2^-52 relative of the exact
    value for these weights; a subnormal entry only in absolute terms.
    """
    k = len(weights)
    size = math.isqrt(k)
    pad = np.vstack([weights, np.tile([1.0, 0.0, 0.0], (-k % size, 1))])
    out = pad[:, 0].reshape(-1, size)
    counted = np.stack([pad[:, 1], pad[:, 1] + pad[:, 2]]).reshape(2, -1, size)
    f = np.zeros(counted.shape[:2] + (size + 1,))
    f[..., 0] = 1.0
    head, tail, first = f[..., :-1], f[..., 1:], f[..., 0]      # views, updated in place
    for j in range(size):
        grown = head * counted[..., j, None]   # read before tail, which overlaps head, moves
        tail *= out[:, j, None]
        tail += grown
        first *= out[:, j]
    return np.stack([functools.reduce(np.convolve, row) for row in f])[:, :k + 1]


def uniformity_accept_exact(proofs) -> float:
    """Exact uniformity acceptance via a Poisson-binomial-style DP.

    Register i contributes a_i when left out of Z, b_i when in Z with a
    passing node outcome; any c_i event rejects, so the DP simply drops
    that weight.  Acceptance sums the DP mass at |Z| >= ceil(k/6), clamped
    to [0, 1]: the block DP of :func:`_uniformity_dps` keeps each
    nonnegative entry within about k * 2^-52 relative, so the unclamped
    sum is within about k * 2^-52 of the exact value for the computed weights.
    """
    thr = z_threshold(len(proofs))
    return _probability(_uniformity_dps(uniformity_weights(stack_proofs(proofs)))[0, thr:])


def z_distribution(proofs) -> np.ndarray:
    """Exact PMF of |Z| (the count of color outcomes 0) over the k proofs."""
    return _uniformity_dps(uniformity_weights(stack_proofs(proofs)))[1]


def z_tail_below_threshold(proofs) -> float:
    """Exact Pr[|Z| < k/6]."""
    return _probability(z_distribution(proofs)[: z_threshold(len(proofs))])


def z_prime_set(proofs) -> list[int]:
    """Registers whose color measurement yields 0 with probability >= 1/12."""
    w = uniformity_weights(stack_proofs(proofs))
    return [int(i) for i in np.nonzero(w[:, 1] + w[:, 2] >= Z_PRIME_THRESHOLD)[0]]


def _independent_sets(conflict: np.ndarray, vertex: np.ndarray, p: np.ndarray,
                      budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The independent sets of at most k = p.shape[1] outcomes of an
    m-outcome conflict core and their core sums (vertex[j]: core outcome
    j's vertex, ascending; column m of ``conflict``: False).  A vertex's
    outcomes conflict pairwise, so a set has at most L = min(k, V, m - 1)
    members over the V core vertices.  Returns (drop, sums): drop[s, T] is
    the row of set T without its s-th member, members ascending, and -1 past
    its size; sums[T] is its parent's plus p[j], j its last member.  A step
    per core vertex extends each set with a free slot by each of the
    vertex's outcomes that conflicts with none of its members, so the rows
    come in the order of a step per core outcome.  A set counts k + L + 1 budget entries of 8 bytes: its
    sums, mass and slots, which leaves room for the tables kept across steps.
    A step checks the budget before it allocates for its new sets, and the
    drop table doubles when full, up to the cap."""
    m, k = p.shape
    bounds = [0, *(np.flatnonzero(vertex[1:] != vertex[:-1]) + 1).tolist(), m]
    slots = min(k, len(bounds) - 1, m - 1)
    limit = budget // (k + slots + 1)     # below 2^31 at ENUMERATION_BUDGET: int32 rows fit
    # drop rows, then each set's place in listed: (row, size, members) of sets with a free slot
    drop = np.array([[-1]] * slots + [[0]], dtype=np.int32)
    listed = np.array([0, 0] + [m] * slots, dtype=np.int32)[:, None]
    rows, blocks = 1, []
    for lo, hi in zip(bounds, bounds[1:]):
        free = ~np.take(conflict[lo:hi], listed[2:], axis=1).any(axis=1)  # (outcome, listed)
        total = rows + int(np.count_nonzero(free))
        if total > limit:
            raise BudgetError(f"{total} independent sets of a {m}-outcome conflict core "
                              f"at k={k} exceed the budget {budget}; use Monte-Carlo mode")
        if total > drop.shape[1]:
            grown = np.empty((slots + 1, min(limit, max(total, 2 * drop.shape[1]))), np.int32)
            grown[:, :rows] = drop[:, :rows]
            drop = grown
        color, at = np.nonzero(free)           # the new sets, in creation order
        new = listed.take(at, axis=1)          # the parents' entries, made the new sets'
        parent, last = new[0].copy(), new[1].copy()
        slot = last * len(at) + np.arange(len(at))     # flat index of the new member
        child = np.cumsum(free, dtype=np.int32) + (rows - 1)  # row per (outcome, listed)
        old = drop[:slots].take(parent, axis=1)                # -1 past a parent's size:
        pair = color * listed.shape[1] + drop[slots].take(old)  # no place there; clip, mask
        grown = np.where(old >= 0, child.take(pair, mode="clip"), -1)   # (T - a_s) + j
        grown.put(slot, parent)
        drop[:slots, rows:total] = grown
        new[2:].put(slot, color + lo)
        new[0], new[1] = np.arange(rows, total), last + 1
        new = new.compress(last + 1 < slots, axis=1)
        drop[slots, new[0]] = np.arange(listed.shape[1], listed.shape[1] + new.shape[1])
        listed = np.concatenate([listed, new], axis=1)
        blocks.append((rows, parent, lo, free.sum(axis=1).tolist()))
        rows = total
    del listed
    sums = np.zeros((rows, k))                 # row 0: the empty set
    for start, parent, lo, counts in blocks:
        np.take(sums[:start], parent, axis=0, out=sums[start:start + len(parent)], mode="clip")
        ends = itertools.accumulate(counts, initial=start)
        for j, (a, b) in enumerate(itertools.pairwise(ends), lo):
            sums[a:b] += p[j]
    return drop[:slots, :rows], sums


def _conflict_core(drawn: np.ndarray, edges, size: int, check) -> tuple:
    """The conflict core of the outcomes flagged in ``drawn`` (index
    v * 3 + color), built from the edge list: the flagged outcomes that
    share a vertex with another flagged color, or an edge with the same
    flagged color.  Returns (m, pos, src, dst): ``pos`` maps an outcome to
    its core index j < m, or to m off the core, and the ordered pairs
    (src[i], dst[i]) are the conflicting core pairs (both orders of each).
    ``check(m)`` runs once the core is sized, before any pair is listed,
    so a caller can refuse a core whose table would not fit."""
    drawn = drawn.reshape(size, 3)
    ends = edge_array(edges)
    same_color = drawn[ends[:, 0]] & drawn[ends[:, 1]]       # edge with one color
    hits = [ends[same_color[:, c]] for c in range(3)]
    core = drawn & (drawn.sum(axis=1, keepdims=True) > 1)    # vertex with two colors
    for c, e in enumerate(hits):
        core[e.reshape(-1), c] = True
    m = int(core.sum())
    check(m)
    pos = np.full(3 * size, m, dtype=np.intp)
    pos[np.flatnonzero(core)] = np.arange(m)
    pos2 = pos.reshape(size, 3)
    src, dst = [], []
    for c1, c2 in itertools.permutations(range(3), 2):
        v = np.flatnonzero(core[:, c1] & core[:, c2])
        src.append(pos2[v, c1])
        dst.append(pos2[v, c2])
    for c, e in enumerate(hits):
        a, b = pos2[e[:, 0], c], pos2[e[:, 1], c]
        src += [a, b]
        dst += [b, a]
    return m, pos, np.concatenate(src), np.concatenate(dst)


def _consistency_exact(dists: np.ndarray, counts: np.ndarray, edges, size: int,
                       budget: int) -> float:
    """Exact consistency acceptance: the Moebius sum over the independent
    sets of the conflict core of the support (README).  Row r of ``dists``
    is the outcome distribution of ``counts[r]`` consecutive registers; only
    the core columns and the wildcard masses are repeated to the k
    registers.  The core's conflict table counts m^2 budget entries.  The
    transform makes a pass per member slot s, subtracting from each set T
    the value of T without its s-th member.  Members sit in ascending order,
    so each set gets the subtractions of a pass per core outcome, in the
    same order and from the same values: the same floats.  Each of the S =
    sum_T 2^|T| signed terms reaches the sum with relative error below
    (k + 3m + 24) 2^-53 (sums, product, transform, pairwise sum), so the
    unclamped sum is within (k + 3m + 24) S 2^-53 of the exact value."""
    k = int(counts.sum())

    def check(m):
        if m * m > budget:
            raise BudgetError(f"the conflict table of a {m}-outcome core exceeds the "
                              f"budget {budget}; use Monte-Carlo mode")

    m, pos, src, dst = _conflict_core(dists.max(axis=0) > 0.0, edges, size, check)
    if not m:
        return 1.0
    conflict = np.zeros((m, m + 1), dtype=bool)     # column m: an empty slot
    conflict[src, dst] = True
    core = pos < m
    # each wildcard mass is summed left to right, the order numpy takes for
    # the rows of a slice of two or more registers (one row it sums
    # pairwise), so it does not depend on how many proofs are distinct
    p = np.repeat(dists[:, core].T, counts, axis=1)
    wild = np.repeat(np.cumsum(dists[:, ~core], axis=1)[:, -1:].sum(axis=1), counts)
    drop, mass = _independent_sets(conflict, np.flatnonzero(core) // 3, p, budget)
    mass += wild
    mass = mass.prod(axis=1)                      # Pr[the core outcomes seen lie in T]
    for row in drop:
        rows = np.flatnonzero(row >= 0)
        mass[rows] -= mass[row[rows]]
    return min(1.0, max(0.0, float(mass.sum())))


def _check_mc_table(m: int):
    """Refuse a core whose packed Monte-Carlo tables, marks and conflicts of
    (m + 1) rows of ceil(m / 64) words, would take more than MC_TABLE_BYTES each."""
    need = (m + 1) * -(-m // 64) * 8
    if need > MC_TABLE_BYTES:
        raise CapacityError(f"the Monte-Carlo conflict table of a {m}-outcome core needs "
                            f"{need} bytes, above the cap of {MC_TABLE_BYTES} (2^24)")


def _run_law(dist: np.ndarray, last: int, cols: np.ndarray, c: int) -> np.ndarray:
    """The CDF over the 2^q patterns of core outcomes that c registers with
    outcome distribution ``dist`` show together, bit j of a pattern for
    outcome ``cols[j]``.  A draw lands on outcome o with probability
    dist[o], and on ``last`` also with the mass past the CDF, as the
    per-register draw clips it there; p holds the masses of ``cols`` and w
    the rest.  Pattern S then has probability
    sum_{T <= S} (-1)^|S - T| (w + p(T))^c: the powers over a (2,)*q array,
    then a ``np.diff`` Moebius pass along each axis.  Patterns of more than
    c outcomes get 0, rounding below 0 is clamped, and the CDF is scaled
    to end at exactly 1, so a draw never lands on a pattern of no mass."""
    p = dist[cols]
    p[cols == last] += max(0.0, 1.0 - dist.sum())
    reach, size = np.full(1, max(0.0, 1.0 - p.sum())), np.zeros(1, dtype=np.intp)
    for pj in p:
        reach, size = np.concatenate([reach, reach + pj]), np.concatenate([size, size + 1])
    law = (reach ** c).reshape((2,) * len(p))
    for axis in range(len(p)):
        law = np.diff(law, axis=axis, prepend=0.0)
    cdf = np.cumsum(np.where(size <= c, np.maximum(law.reshape(-1), 0.0), 0.0))
    return cdf / cdf[-1]


def _pattern_rows(rows: np.ndarray) -> np.ndarray:
    """Row S of the result ORs the rows of ``rows`` whose bit is set in S."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        table = np.concatenate([table, table | row])
    return table


def _consistency_monte_carlo(dists: np.ndarray, counts: np.ndarray, edges, size: int,
                             samples: int, seed: int) -> tuple[float, float]:
    """Sample outcome tuples in batches of at most 50,000 rows and count
    the rejected ones.  Row r of ``dists`` is the outcome distribution of
    ``counts[r]`` consecutive registers.  An empty core never rejects and
    returns 1 without drawing.

    The core is built over the outcomes a draw can land on
    (:func:`_conflict_core`).  Two packed ``uint64`` tables hold it: row j
    of ``marks`` sets bit j % 64 of word j // 64 for core outcome j, row j
    of ``conflict`` the bits of the outcomes j conflicts with, and row m of
    both, read by off-core outcomes, is zero.  Each table, and a batch's
    ``seen`` bits (one packed row per sample), takes at most MC_TABLE_BYTES.

    Every step takes one ``random(b)`` per batch and yields, per live row,
    an index ``at`` into a table pair ``(shown, conf)``: it ORs
    ``shown[at]`` into the row's seen bits and rejects the row when they
    meet ``conf[at]``.  A rejected row stays rejected, so it is counted and
    dropped there; when a batch has no live row left, its remaining steps
    are skipped and the generator is advanced past their uniforms, so the
    estimate equals the full draw's for the same seed.

    A register step reads ``(marks, conflict)`` at the core index of
    ``searchsorted(cdf, u, side="right")``, clipped to the register's last
    outcome of nonzero probability.  The search starts at u's bin of a
    guide table of GUIDE_BINS bins, built per distinct distribution when
    one of its registers is first drawn, and steps forward while
    ``u >= cdf[out]``; GUIDE_BINS is a power of two, so ``u * GUIDE_BINS``
    and the bin edges are exact.

    A run of c >= 2 registers of one distinct proof whose draws can land
    on q <= RUN_CORE_CAP core outcomes is one step: ``at`` is the pattern
    S of core outcomes the run shows, searched in the 2^q-pattern CDF of
    :func:`_run_law`, and row S of its table pair ORs the ``marks`` and
    ``conflict`` rows of S, which also catches a conflict inside S.  A run
    with q = 0 draws nothing; a run past the cap, and a register of
    multiplicity 1, is drawn register by register, so a batch of distinct
    proofs keeps the bits of drawing all k registers.  A run's law and
    tables are built when a batch reaches it, so only one run's are held,
    at most 2 * 2^RUN_CORE_CAP * ceil(m / 64) * 8 bytes (3 MB at the
    largest m the table cap allows).  Each power (w + p(T))^c is within
    relative (c q + 1) 2^-53 of its value for the given masses, and the
    Moebius pass spreads an input error over at most 2^(q - |T|)
    patterns; with the rounding of the q difference passes and of the
    CDF's sum, the drawn law is within (3^q (c q + 1) + 2 4^q) 2^-53 of the
    exact one in total variation, to first order: 5e-12 for the near
    cheat's q = 2 run at k = 2400, and 2e-7 for a q = 10 run there."""
    halfwidth = math.sqrt(math.log(2.0 / (1.0 - MC_CONFIDENCE)) / (2.0 * samples))
    g, d = dists.shape
    last = d - 1 - np.argmax(dists[:, ::-1] > 0.0, axis=1)
    lands = dists > 0.0
    lands[np.arange(g), last] = True     # a register with no mass lands on its last
    m, pos, src, dst = _conflict_core(lands.any(axis=0), edges, size, _check_mc_table)
    if not m:
        return 1.0, halfwidth
    conflict = np.zeros((m + 1, -(-m // 64)), dtype=np.uint64)
    np.bitwise_or.at(conflict, (src, dst >> 6), np.uint64(1) << (dst & 63).astype(np.uint64))
    marks = np.zeros_like(conflict)
    j = np.arange(m)
    marks[j, j >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
    steps = []              # (row, None) draws one register, (row, cols) a run
    for r, c in enumerate(counts.tolist()):
        cols = np.flatnonzero(lands[r] & (pos < m)) if c > 1 else None
        if cols is None or len(cols) > RUN_CORE_CAP:
            steps += [(r, None)] * c
        elif len(cols):
            steps.append((r, cols))
    batch = min(50_000, MC_TABLE_BYTES // (8 * conflict.shape[1]))
    cdfs = np.empty((g, d + 1))
    np.cumsum(dists, axis=1, out=cdfs[:, :d])
    cdfs[:, d] = np.inf                       # stepping stops past the last outcome
    bin_starts = np.arange(GUIDE_BINS) / GUIDE_BINS
    guides = [None] * g
    rng = np.random.default_rng(seed)
    rejected = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        seen = np.zeros((b, conflict.shape[1]), dtype=np.uint64)
        live = np.arange(b)
        for i, (r, cols) in enumerate(steps):
            u = rng.random(b)
            if len(live) < b:
                u = u[live]
            if cols is None:
                if guides[r] is None:
                    guides[r] = np.searchsorted(cdfs[r], bin_starts, side="right")
                out = guides[r][(u * GUIDE_BINS).astype(np.intp)]
                step = np.flatnonzero(u >= cdfs[r, out])
                while step.size:
                    out[step] += 1
                    step = step[u[step] >= cdfs[r, out[step]]]
                np.minimum(out, last[r], out=out)
                at, shown, conf = pos[out], marks, conflict
            else:
                at = np.searchsorted(_run_law(dists[r], last[r], cols, counts[r]), u,
                                     side="right")
                shown, conf = _pattern_rows(marks[pos[cols]]), _pattern_rows(conflict[pos[cols]])
            seen |= np.take(shown, at, axis=0)
            bad = (seen & np.take(conf, at, axis=0)).any(axis=1)
            if bad.any():
                rejected += int(bad.sum())
                keep = ~bad
                seen, live = seen[keep], live[keep]
                if not len(live):
                    rng.bit_generator.advance(b * (len(steps) - i - 1))
                    break
        done += b
    return 1.0 - rejected / samples, halfwidth


def consistency_accept(c: SuccinctCircuit, proofs, mode: str = "exact",
                       samples: int | None = None, seed: int | None = None):
    """Consistency-test acceptance probability over all register pairs.

    ``proofs`` is a list of k proofs or their
    :class:`~uvlab.provers.ProofBatch`; each distinct proof's outcome
    distribution is computed once.  Exact mode returns a float;
    Monte-Carlo mode returns (estimate, halfwidth) and requires both a
    sample count and a seed.  Both read the conflict core of the expanded
    edge list.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    if mode == "mc" and (samples is None or samples < 1 or seed is None):
        raise ValueError("Monte-Carlo mode requires a positive number of samples and a seed")
    batch = proofs if isinstance(proofs, ProofBatch) else stack_proofs(proofs, c.n)
    dists = np.abs(batch.amps).reshape(len(batch.amps), -1) ** 2
    edges = expand(c).edges
    if mode == "exact":
        return _consistency_exact(dists, batch.counts, edges, 2 ** c.n, ENUMERATION_BUDGET)
    return _consistency_monte_carlo(dists, batch.counts, edges, 2 ** c.n, samples, seed)


def acceptance(c: SuccinctCircuit, proofs, mode: str = "exact",
               samples: int | None = None, seed: int | None = None) -> BellReport:
    """Half-half mixture of the consistency and uniformity tests, both read
    from one proof batch.  Only Monte-Carlo reports carry samples,
    seed and a half-width."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown acceptance mode {mode!r}")
    k = len(proofs)
    batch = stack_proofs(proofs, c.n)
    if mode == "exact":
        p_cons, mc = consistency_accept(c, batch, "exact"), {}
    else:
        p_cons, hw = consistency_accept(c, batch, "mc", samples=samples, seed=seed)
        mc = {"samples": samples, "seed": seed, "ci_halfwidth": hw / 2.0}
    accept_mass, z_pmf = _uniformity_dps(uniformity_weights(batch))
    thr = z_threshold(k)
    p_unif, ztail = _probability(accept_mass[thr:]), _probability(z_pmf[:thr])
    return BellReport(p_cons, p_unif, (p_cons + p_unif) / 2.0,
                      "exact" if mode == "exact" else "montecarlo", k, z_tail=ztail, **mc)
