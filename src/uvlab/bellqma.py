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
from .sgraph import SuccinctCircuit, expand
from .states import PureState
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

ENUMERATION_BUDGET = 10 ** 7     # 8-byte entries exact consistency may allocate
PRODUCT_CHUNK = 2 ** 16         # products of a series product's pair list taken at a time
MC_CONFIDENCE = 0.99
Z_PRIME_THRESHOLD = 1.0 / 12.0
MC_TABLE_BYTES = 2 ** 24     # cap on each Monte-Carlo table and a batch's packed rows
GUIDE_BINS = 2 ** 10        # inverse-CDF guide table bins per register
RUN_CORE_CAP = 10           # core outcomes past which a run of equal registers is drawn one by one
# cap on Monte-Carlo samples x draw steps x packed row words ceil(m / 64).
# On 2 CPUs 2^30 steps that never reject took 19 s on a 12-outcome core
# (n = 2, k = 240, one word) and 497 s on the widest core the table cap
# admits (6,144 outcomes, n = 11, k = 2, 96 words)
MC_STEP_BUDGET = 2 ** 30


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


def _set_count(sizes: np.ndarray, polys: list, top: int) -> int:
    """sum_{j <= top} [x^j] of prod (1 + s x) over ``sizes`` times ``polys``, in ints:
    equal sizes by binomials."""
    factors = [np.array([math.comb(n, j) * s ** j for j in range(min(n, top) + 1)], dtype=object)
               for s, n in enumerate(np.bincount(sizes, minlength=1).tolist()) if n]
    factors += [np.array(poly, dtype=object) for poly in polys]
    return int(functools.reduce(lambda a, b: np.convolve(a, b)[:top + 1], factors,
                                np.ones(1, dtype=object)).sum())


def _step(table: np.ndarray, listed: np.ndarray, lo: int, hi: int, rows: int, top: int) -> tuple:
    """One per-vertex step over ``listed``, columns of (row, size, members
    padded with the empty slot): returns (free, color, slot, parent, size,
    ``listed`` with the new sets, rows ``rows`` on, of size below ``top``)."""
    free = ~np.take(table[lo:hi], listed[2:], axis=1).any(axis=1)   # (outcome, listed)
    color, at = np.nonzero(free)
    new = listed.take(at, axis=1)
    slot = new[1] * len(at) + np.arange(len(at))
    new[2:].put(slot, color + lo)
    new[1] += 1
    parent, new[0] = new[0].copy(), np.arange(rows, rows + len(at))
    return free, color, slot, parent, new[1].copy(), np.concatenate([listed, new[:, new[1] < top]],
                                                                    axis=1)


def _labels(m: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(label, clique) for the components of the conflict pairs of an
    m-outcome core.  Min-label propagation with pointer jumping gives
    label[j], the smallest core index in j's component; clique[r] is True
    at a label r whose outcomes conflict pairwise, every one-vertex
    component among them, whose sets are the empty one and the singletons."""
    label, last = np.arange(m), -1
    while (label != last).any():
        last = label.copy()
        np.minimum.at(label, src, label[dst])
        label = label[label]
    size = np.bincount(label, minlength=m)
    return label, (size > 0) & (np.bincount(label[src], minlength=m) == size * (size - 1))


def _list_sets(first: np.ndarray, src: np.ndarray, dst: np.ndarray, label: np.ndarray,
               clique: np.ndarray, top: int, limit: int, keep: int) -> tuple:
    """(polys, steps, rows, exact) for the components of :func:`_labels`
    that are not cliques, first[j] True where core outcome j opens a new
    core vertex (a vertex's outcomes conflict pairwise, so they share a
    component).  Each is listed in a table of its own by :func:`_step`, a
    vertex at a time, up to ``top`` members: polys holds its sets by size,
    and steps, per component and vertex, the (parent row, core outcome) of
    each set added, rows in creation order from the empty set's 0.  A
    listing stops past ``limit`` sets (``exact`` False, its polynomial a
    floor); ``rows`` counts the rows listed, empty sets included, and
    steps is None once they pass ``keep``."""
    polys, steps, total = [], [], 0
    for r in np.flatnonzero(~clique & (np.bincount(label, minlength=len(label)) > 0)).tolist():
        own, at = np.flatnonzero(label == r), label[src] == r
        table = np.zeros((len(own), len(own) + 1), dtype=bool)   # column len(own): empty slot
        table[np.searchsorted(own, src[at]), np.searchsorted(own, dst[at])] = True
        cuts = [*np.flatnonzero(first[own]).tolist(), len(own)]
        most = min(top, len(cuts) - 1)          # the most members a set of it can have
        listed = np.array([0, 0] + [len(own)] * most, dtype=np.int32)[:, None]
        kept = None if steps is None else []     # this component's steps
        sets, rows = np.bincount([0], minlength=most + 1), 1
        for lo, hi in zip(cuts, cuts[1:]):
            _, color, _, parent, new, listed = _step(table, listed, lo, hi, rows, top)
            sets += np.bincount(new, minlength=most + 1)
            rows += len(color)
            if rows > limit:
                return [*polys, sets.tolist()], None, total + rows, False
            if kept is not None and total + rows > keep:
                kept = None                     # past keep the series cannot fit
            if kept is not None:
                kept.append((parent, own[color + lo]))
        polys.append(sets.tolist())
        total += rows
        steps = None if kept is None else [*steps, kept]
    return polys, steps, total, True


def _independent_sets(first: np.ndarray, src: np.ndarray, dst: np.ndarray,
                      masses: np.ndarray, counts: np.ndarray,
                      sets: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``sets`` independent sets of at most k = counts.sum() outcomes
    of an m-outcome conflict core and their core sums.  first[j] is True
    where core outcome j opens a new core vertex; (src[i], dst[i]) are the
    conflicting core pairs, both orders (:func:`conflict_core`); row j of
    ``masses`` holds outcome j's mass per distinct proof, repeated
    ``counts`` times to the k registers as p.  A vertex's outcomes conflict
    pairwise, so a set has at most L = min(k, V, m - 1) members over the
    V = first.sum() core vertices, and ``sets`` is their count N
    (:func:`_set_count` over :func:`_list_sets`) or a bound on it that
    sizes the drop table.

    Returns (drop, sums): drop[s, T] is the row of set T without its s-th
    member, members ascending, and -1 past its size; sums[T] is its
    parent's plus p[j], j its last member.  A :func:`_step` per core vertex
    lists the rows in the order that a step per core outcome gives."""
    m, k = len(first), int(counts.sum())
    bounds = [*np.flatnonzero(first).tolist(), m]
    slots = min(k, len(bounds) - 1, m - 1)
    conflict = np.zeros((m, m + 1), dtype=bool)     # column m: an empty slot
    conflict[src, dst] = True
    p = np.repeat(masses, counts, axis=1)
    # drop rows, then each set's place in listed: (row, size, members) of sets with a free slot
    drop = np.empty((slots + 1, sets), dtype=np.int32)
    drop[:, 0] = [-1] * slots + [0]
    listed = np.array([0, 0] + [m] * slots, dtype=np.int32)[:, None]
    rows, blocks = 1, []
    for lo, hi in zip(bounds, bounds[1:]):
        width = listed.shape[1]
        free, color, slot, parent, _, listed = _step(conflict, listed, lo, hi, rows, slots)
        child = np.cumsum(free, dtype=np.int32) + (rows - 1)  # row per (outcome, listed)
        old = drop[:slots].take(parent, axis=1)                # -1 past a parent's size:
        pair = color * width + drop[slots].take(old)           # no place there; clip, mask
        grown = np.where(old >= 0, child.take(pair, mode="clip"), -1)   # (T - a_s) + j
        grown.put(slot, parent)
        drop[:slots, rows:rows + len(color)] = grown        # the new sets, in creation order
        drop[slots, listed[0, width:]] = np.arange(width, listed.shape[1])
        blocks.append((rows, parent, lo, free.sum(axis=1).tolist()))
        rows += len(color)
    del listed
    sums = np.zeros((rows, k))                 # row 0: the empty set
    for start, parent, lo, counts in blocks:
        np.take(sums[:start], parent, axis=0, out=sums[start:start + len(parent)], mode="clip")
        ends = itertools.accumulate(counts, initial=start)
        for j, (a, b) in enumerate(itertools.pairwise(ends), lo):
            sums[a:b] += p[j]
    return drop[:slots, :rows], sums


_FROM, _TO = np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 0, 2, 0, 1])   # ordered color pairs


def conflict_core(drawn: np.ndarray, ends: np.ndarray, size: int, check=lambda m: None) -> tuple:
    """The conflict core of the outcomes flagged in ``drawn`` (index
    v * 3 + color), read from the (|E|, 2) edge array ``ends``: the flagged
    outcomes that share a vertex with another flagged color, or an edge
    with the same flagged color.  Returns (m, pos, src, dst): ``pos`` maps
    an outcome to its core index j < m, or to m off the core, and the
    ordered pairs (src[i], dst[i]) are the conflicting core pairs (both
    orders of each).  ``check(m)`` runs once the core is sized, before any
    pair is listed, so a caller can refuse a core whose table would not fit."""
    drawn = drawn.reshape(size, 3)
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
    pair, v = np.nonzero((core[:, _FROM] & core[:, _TO]).T)   # color pairs, then vertices
    src, dst = [pos2[v, _FROM[pair]]], [pos2[v, _TO[pair]]]
    for c, e in enumerate(hits):
        a, b = pos2[e[:, 0], c], pos2[e[:, 1], c]
        src += [a, b]
        dst += [b, a]
    return m, pos, np.concatenate(src), np.concatenate(dst)


_RATIO_BELOW_32 = np.array([math.factorial(r) / r ** r * math.exp(r) for r in range(32)])


def _stirling_ratio(r: np.ndarray) -> np.ndarray:
    """r! e^r / r^r for whole numbers r >= 0, within 4 ulps: the exact ratio
    times e^r below 32, else sqrt(2 pi r) times the exponential of
    Stirling's series to its r^-7 term, whose next term is below 2^-55."""
    small = _RATIO_BELOW_32[np.minimum(r, 31).astype(np.intp)]
    if r.max() < 32:
        return small
    big = np.maximum(r, 32.0)
    x2 = big ** -2.0
    series = (1 / 12 - x2 * (1 / 360 - x2 * (1 / 1260 - x2 / 1680))) / big
    return np.where(r < 32, small, np.sqrt(2.0 * math.pi * big) * np.exp(series))


def _poisson(lam: np.ndarray, top: int) -> np.ndarray:
    """Rows e^-l l^r / r!, r = 0..top, one per rate l >= 0 of ``lam``.  The
    value at the mode r0 = min(floor(l), top) is exp(r0 log1p((l - r0) / r0)
    - (l - r0)) / (r0! e^r0 / r0^r0), or e^-l at r0 = 0, within 8 ulps; the
    ratios l / r and r / l carry it outward, two roundings a step.  So no
    value of 2^-1022 or more underflows, and each is within (8 + 2 top)
    2^-53 relative."""
    lam = lam[:, None]
    r0 = np.minimum(np.floor(lam), top)
    r = np.arange(top + 1.0)
    mode = np.exp(-lam)
    if r0.any():
        at, gap = np.maximum(r0, 1.0), lam - r0
        mode = np.where(r0 > 0, np.exp(at * np.log1p(gap / at) - gap) / _stirling_ratio(at), mode)
        down = np.where(r < r0, (r + 1.0) / np.maximum(lam, 1.0), 1.0)[:, ::-1].cumprod(axis=1)
        mode = mode * down[:, ::-1]
    return mode * np.where(r > r0, lam / np.maximum(r, 1.0), 1.0).cumprod(axis=1)


@functools.lru_cache(maxsize=8)
def _pairs(box: tuple) -> tuple:
    """(a, b, starts): the pairs of flat indices into series of shape
    ``box`` whose sum a + b stays in the box, where a + b is the flat index
    of the sum, ordered by it, and where each sum's run starts."""
    a = b = np.zeros(1, dtype=np.intp)
    for t in box:
        i, j = np.nonzero(np.add.outer(np.arange(t), np.arange(t)) < t)
        a, b = (a[:, None] * t + i).ravel(), (b[:, None] * t + j).ravel()
    order = np.argsort(a + b, kind="stable")
    out = a[order], b[order], np.flatnonzero(np.diff((a + b)[order], prepend=-1))
    for x in out:
        x.flags.writeable = False               # shared by every caller of the cache
    return out


def _times(a: np.ndarray, ia: np.ndarray, b: np.ndarray, ib: np.ndarray, pairs,
           out: np.ndarray) -> np.ndarray:
    """out[i] = the product of the series a[ia[i]] and b[ib[i]], truncated
    to the box: ``np.convolve`` for one distinct proof (``pairs`` None),
    over each series up to its last nonzero coefficient (a small rate's
    tail underflows to 0), else the pair list.  Rows go in chunks of at
    most max(PRODUCT_CHUNK, C + Q) entries a row, C coefficients and Q
    pairs, so the temporaries take at most 3 max(PRODUCT_CHUNK, C + Q)
    entries."""
    size = a.shape[1]
    step = max(1, PRODUCT_CHUNK // (size + (len(pairs[0]) if pairs else 0)))
    for i in range(0, len(ia), step):
        if pairs is None:
            for row, u, v in zip(out[i:i + step], a[ia[i:i + step]], b[ib[i:i + step]]):
                r = np.convolve(u[:size - np.argmax(u[::-1] != 0)],
                                v[:size - np.argmax(v[::-1] != 0)])[:size]
                row[:len(r)], row[len(r):] = r, 0.0
        else:
            np.add.reduceat(a[ia[i:i + step, None], pairs[0]] * b[ib[i:i + step, None], pairs[1]],
                            pairs[2], axis=1, out=out[i:i + step])
    return out


def _others(c: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(whole, rest) over consecutive segments of ``c`` of the given sizes:
    whole[s] is the product of segment s, rest[j] that of j's segment
    without c[j], both from prefix and suffix products."""
    width = max(sizes)
    pad = np.ones((len(sizes), width + 2))
    keep = np.arange(width) < np.array(sizes)[:, None]
    pad[:, 1:-1][keep] = c
    before, after = pad.cumprod(axis=1), pad[:, ::-1].cumprod(axis=1)[:, ::-1]
    return before[:, -1], (before[:, :width] * after[:, 2:])[keep].ravel()


def _series(lam: np.ndarray, counts: np.ndarray, first: np.ndarray, label: np.ndarray,
            clique: np.ndarray, steps: list) -> float:
    """Exact consistency by the exponential formula for labelled products
    (Flajolet-Sedgewick, Analytic Combinatorics, ch. II): p_cons = prod_r
    m_r! [x^m] e^{sum_r w_r x_r} prod_c F_c(x), m_r = counts[r], with
    F_c = sum_{T in c independent} prod_{j in T} (e^{sum_r p_rj x_r} - 1)
    over the components c of :func:`_labels`.  ``lam`` holds the rates
    m_r p_rj per distinct proof r, core outcomes j first and the wildcard
    w_r last; first[j] is True where core outcome j opens a new core
    vertex.  A series is an array of C = prod_r (m_r + 1) coefficients,
    flat in C order.

    Each factor is scaled to Poisson pmfs: E_j at r is prod_r e^{-m_r p_rj}
    (m_r p_rj)^{r_r} / r_r! (:func:`_poisson`, outer products over the
    proofs) with its constant term c_j set to exactly 0, and an outcome j
    left out of T gives c_j.  So every coefficient lies in [0, 1], and the
    scale back is prod_r m_r! e^{m_r} / m_r^{m_r} times e^{sum of rates - k},
    the sum exactly rounded.  A clique gives prod_c c_j + sum_j E_j
    prod_{i != j} c_i.  A listed set T gets the product of its members'
    E_j, built from its parent's, and the weight prod_{j in c - T} c_j, a
    vertex at a time.  The factors are multiplied in halves, the last
    product only at [x^m].  The E_j are built PRODUCT_CHUNK / C rows at a
    time.

    Every term is nonnegative, so a rounding moves a value by at most
    2^-53 relative, and the result is within R 2^-53 relative of the exact
    value for the given masses, to first order, R the roundings on any path
    to it: at most C a truncated product along a chain of at most
    d = L + log2 F + 1 of them (L members, F the factors), S for a
    component's S sets, 4V + 3s for the weights (V core vertices, cliques
    of at most s outcomes), 2k + 8G for the Poisson values and their outer
    products over G distinct proofs, k for the rates (a relative change of
    2^-53 in each mass moves the degree-k value by at most k 2^-53) and
    4G + 2 for the scale (:func:`_stirling_ratio`): R <= d C + S + 4V + 3s
    + 3k + 12G + 6.  Values below 2^-1022 times the scale may be lost, in
    absolute terms."""
    k, m, top = int(counts.sum()), lam.shape[1] - 1, int(counts.max())
    box = math.prod(c + 1 for c in counts.tolist())
    pairs = _pairs(tuple((counts + 1).tolist())) if len(counts) > 1 else None
    # e holds the factors E_j of the clique outcomes, a clique at a time, then
    # of the listed components' outcomes, then the wildcard's
    in_clique = clique[label]
    members = np.flatnonzero(in_clique)
    members = members[np.argsort(label[members], kind="stable")]
    wide = np.flatnonzero(~in_clique)
    order = np.concatenate([members, wide, [m]]).astype(np.intp)
    e = np.empty((len(order), box))
    step = max(1, PRODUCT_CHUNK // box)
    for i in range(0, len(order), step):        # in chunks, to keep the temporaries small
        pmf = _poisson(lam[:, order[i:i + step]].ravel(), top).reshape(len(counts), -1, top + 1)
        f = pmf[0, :, :counts[0] + 1]
        for r, c in enumerate(counts[1:].tolist(), 1):   # a rate m_r p is at most m_r: same values
            f = (f[:, :, None] * pmf[r, :, None, :c + 1]).reshape(len(f), -1)
        e[i:i + step] = f
    absent = e[:-1, 0].copy()                   # the constant terms c_j
    e[:-1, 0] = 0.0
    factors, cliques = [e[-1].copy()], len(members)
    if cliques:
        sizes = np.bincount(label, minlength=m)[clique]     # in label order, as members
        whole, rest = _others(absent[:cliques], sizes)
        e[:cliques] *= rest[:, None]
        f = np.add.reduceat(e[:cliques], np.cumsum([0, *sizes[:-1]]))
        f[:, 0] = whole
        factors += list(f)
    if steps:                                   # the listed outcomes, in core order
        e, at = e[cliques:], np.empty(m, dtype=np.intp)
        at[wide] = np.arange(len(wide))
        vseg = np.cumsum(first[wide]) - 1       # a listed outcome's vertex
        whole, rest = _others(absent[cliques:], np.bincount(vseg))
    for comp in steps:
        sets = np.zeros((1 + sum(len(out) for _, out in comp), box))
        sets[0, 0] = 1.0
        weight = np.ones(len(sets))
        rows = 1
        for parent, out in comp:
            out = at[out]
            _times(sets, parent, e, out, pairs, sets[rows:rows + len(out)])
            weight[rows:rows + len(out)] = weight[parent] * rest[out]
            weight[:rows] *= whole[vseg[out[0]]]
            rows += len(out)
        factors.append(weight @ sets)
    del e
    f = np.array(factors)
    while len(f) > 2:
        half = np.arange(len(f) // 2)
        f = np.concatenate([_times(f, half, f, half + len(half), pairs,
                                   np.empty((len(half), f.shape[1]))), f[2 * len(half):]])
    value = f[0] @ f[-1][::-1] if len(f) == 2 else f[0, -1]
    return float(value * np.prod(_stirling_ratio(counts.astype(float)))
                 * math.exp(math.fsum([*lam.ravel().tolist(), -k])))


def _mobius(dists: np.ndarray, counts: np.ndarray, core: np.ndarray, first: np.ndarray,
            src: np.ndarray, dst: np.ndarray, sets: int) -> float:
    """Exact consistency by the Moebius sum over the independent sets of
    the conflict core (README), ``sets`` of them at most, first[j] True
    where core outcome j opens a new core vertex.  Only the core
    columns and the wildcard masses are repeated to the k registers.  Each
    wildcard mass is summed left to right, the order numpy takes for the
    rows of a slice of two or more registers (one row it sums pairwise),
    so it does not depend on how many proofs are distinct.  The
    transform makes a pass per member slot s, subtracting from each set T
    the value of T without its s-th member.  Members sit in ascending
    order, so each set gets the subtractions of a pass per core outcome, in
    the same order and from the same values: the same floats.  Each of the
    S = sum_T 2^|T| signed terms reaches the sum with relative error below
    (k + 3m + 24) 2^-53 (sums, product, transform, pairwise sum), so the
    unclamped sum is within (k + 3m + 24) S 2^-53 of the exact value."""
    drop, mass = _independent_sets(first, src, dst, dists[:, core].T, counts, sets)
    mass += np.repeat(np.cumsum(dists[:, ~core], axis=1)[:, -1:].sum(axis=1), counts)
    mass = mass.prod(axis=1)                      # Pr[the core outcomes seen lie in T]
    for row in drop:
        rows = np.flatnonzero(row >= 0)
        mass[rows] -= mass[row[rows]]
    return min(1.0, max(0.0, float(mass.sum())))


def _consistency_exact(dists: np.ndarray, counts: np.ndarray, edges, size: int,
                       budget: int) -> float:
    """Exact consistency acceptance over the conflict core of the support
    (README).  Row r of ``dists`` is the outcome distribution of
    ``counts[r]`` consecutive registers.  The core's m^2 entries, which
    bound its conflict pairs and the Moebius sum's table, must fit the
    budget.  Sizes then choose the path before either allocates:

    * the Moebius sum of :func:`_mobius` at once, when some component of
      :func:`_labels` is not a clique and prod_v (1 + c_v), c_v the core
      colors at vertex v, bounds its N sets of L members by entries
      (k + L + 1) prod_v (1 + c_v) that fit and are at most the series'
      work estimate, Q prod_v (1 + c_v) over the vertices of those
      components (Q as below, C(k + 2, 2) for one distinct proof): no
      listing is needed, and the drop table takes prod_v (1 + c_v) sets;
    * else, with those components listed (:func:`_list_sets`), the series
      of :func:`_series`, if C (S + m + 4U + 4) + 2Q + 5 max(PRODUCT_CHUNK,
      C + Q) entries fit: C = prod_r (counts[r] + 1) coefficients, S sets
      listed in the U components, and at two or more distinct proofs
      Q = prod_r C(counts[r] + 2, 2) pairs (else Q = 0);
    * else the Moebius sum, if N (k + L + 1) entries fit, N counted exactly
      (:func:`_set_count`);
    * else BudgetError, naming both counts."""
    def check(m):
        if m * m > budget:
            raise BudgetError(f"the conflict table of a {m}-outcome core exceeds the "
                              f"budget {budget}; use Monte-Carlo mode")

    m, pos, src, dst = conflict_core(dists.max(axis=0) > 0.0, edges, size, check)
    if not m:
        return 1.0
    core = pos < m
    vertex = np.flatnonzero(core) // 3
    first = np.r_[True, vertex[1:] != vertex[:-1]]    # a core vertex's first outcome
    k, box = int(counts.sum()), math.prod(c + 1 for c in counts.tolist())
    top = min(k, int(first.sum()), m - 1)
    per = k + top + 1
    pairs = math.prod(math.comb(c + 2, 2) for c in counts.tolist()) if len(counts) > 1 else 0
    extra = 2 * pairs + 5 * max(PRODUCT_CHUNK, min(box, budget) + pairs)
    label, clique = _labels(m, src, dst)
    listed = ~clique[label]                     # the outcomes of components to list
    if listed.any():
        colors = np.bincount(np.cumsum(first) - 1)
        bound = math.prod((colors + 1).tolist())
        # work: the Moebius sum's N (k + L + 1) entries, N <= prod_v (1 + c_v), against
        # products of Q pairs (C^2 / 2 for one proof) over at most prod_v (1 + c_v)
        # sets, v the vertices to list; the Moebius sum needs no listing
        if per * bound <= min(budget, (pairs or math.comb(k + 2, 2))
                              * math.prod((colors[listed[first]] + 1).tolist())):
            return _mobius(dists, counts, core, first, src, dst, bound)
    polys, steps, rows, exact = _list_sets(first, src, dst, label, clique, top,
                                           budget // min(box, per), (budget - extra) // box - m - 4)
    need = box * (rows + m + 4 * (len(polys) + int(clique.sum())) + 4) + extra
    if exact and need <= budget:
        lam = np.empty((len(counts), m + 1))      # Poisson rates m_r p, the wildcard's last
        lam[:, :m], lam[:, m] = dists[:, core], dists[:, ~core].sum(axis=1)
        lam *= counts[:, None]
        return min(1.0, max(0.0, _series(lam, counts, first, label, clique, steps)))
    sets = _set_count(np.bincount(label, minlength=m)[clique], polys, top)
    if exact and sets * per <= budget:
        return _mobius(dists, counts, core, first, src, dst, sets)
    series = (f"so do the {need} entries of its series" if box <= budget else
              f"so does its series of more than {budget} coefficients")
    count = str(sets)   # N past 15 digits as 9.215e615, cut from its digits: float(N) overflows
    if len(count) > 15:
        count = f"{count[0]}.{count[1:4]}e{len(count) - 1}"
    raise BudgetError(f"{'' if exact else 'at least '}{count} independent sets of a {m}-outcome "
                      f"conflict core at k={k} exceed the budget {budget}, and {series}; "
                      f"use Monte-Carlo mode")


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
    per-register draw stops there; p holds the masses of ``cols`` and w
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


def _draw(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for uniforms u in [0, 1):
    start at u's bin of ``guide``, the same search of the bin starts
    b / GUIDE_BINS, and step forward while ``u >= cdf[out]``.  ``cdf``
    must end above every u: at 1, or at ``inf`` from the last outcome on."""
    out = guide.take((u * GUIDE_BINS).astype(np.intp))
    step = np.flatnonzero(u >= cdf.take(out))
    while step.size:
        out[step] += 1
        step = step[u[step] >= cdf.take(out[step])]
    return out


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
    returns 1 without drawing; samples times the draw steps listed below
    times the packed row words ceil(m / 64) past MC_STEP_BUDGET raise
    CapacityError before the first draw.

    The core is built over the outcomes a draw can land on
    (:func:`conflict_core`).  Two packed ``uint64`` tables hold it: row j
    of ``marks`` sets bit j % 64 of word j // 64 for core outcome j, row j
    of ``conflict`` the bits of the outcomes j conflicts with, and row m of
    both, read by off-core outcomes, is zero.  Each table, and a batch's
    ``seen`` bits (one packed row per sample), takes at most MC_TABLE_BYTES.

    Every step draws one uniform per live row of the batch and yields, per
    live row, an index ``at`` into a table pair ``(shown, conf)``: it ORs
    ``shown[at]`` into the row's seen bits and rejects the row when they
    meet ``conf[at]``.  A rejected row stays rejected, so it is counted and
    compressed out there and draws nothing more; a batch with no live row
    left skips its remaining steps.

    Both kinds of step draw through :func:`_draw`, which starts at u's bin
    of a guide table of GUIDE_BINS bins and steps forward while
    ``u >= cdf[out]``; GUIDE_BINS is a power of two, so ``u * GUIDE_BINS``
    and the bin edges are exact.  A register step reads ``(marks,
    conflict)`` at the core index of the outcome drawn from its CDF, which
    is ``inf`` from the register's last outcome of nonzero probability on,
    so a draw past the summed mass lands there.  A register's guide table
    is built per distinct distribution when one of its registers is first
    drawn, and a run's with its law.

    A run of c >= 2 registers of one distinct proof whose draws can land
    on q <= RUN_CORE_CAP core outcomes is one step: ``at`` is the pattern
    S of core outcomes the run shows, drawn from the 2^q-pattern CDF of
    :func:`_run_law`, and row S of its table pair ORs the ``marks`` and
    ``conflict`` rows of S, which also catches a conflict inside S.  A run
    with q = 0 draws nothing; a run past the cap, and a register of
    multiplicity 1, is drawn register by register, so a batch of distinct
    proofs draws its k registers one by one for the rows still live.  A
    run's law and tables are built when a batch reaches it, so only one
    run's are held, at most 2 * 2^RUN_CORE_CAP * ceil(m / 64) * 8 bytes
    (3 MB at the largest m the table cap allows).  Each power (w + p(T))^c
    is within relative (c q + 1) 2^-53 of its value for the given masses,
    and the Moebius pass spreads an input error over at most 2^(q - |T|)
    patterns; with the rounding of the q difference passes and of the
    CDF's sum, the drawn law is within (3^q (c q + 1) + 2 4^q) 2^-53 of the
    exact one in total variation, to first order: 5e-12 for the near
    cheat's q = 2 run at k = 2400, and 2e-7 for a q = 10 run there."""
    halfwidth = math.sqrt(math.log(2.0 / (1.0 - MC_CONFIDENCE)) / (2.0 * samples))
    g, d = dists.shape
    last = d - 1 - np.argmax(dists[:, ::-1] > 0.0, axis=1)
    lands = dists > 0.0
    lands[np.arange(g), last] = True     # a register with no mass lands on its last
    m, pos, src, dst = conflict_core(lands.any(axis=0), edges, size, _check_mc_table)
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
    if samples * max(len(steps), 1) * conflict.shape[1] > MC_STEP_BUDGET:
        raise CapacityError(f"--samples {samples} times {len(steps)} draw steps of "
                            f"{conflict.shape[1]}-word rows exceeds the Monte-Carlo budget "
                            f"of {MC_STEP_BUDGET} (2^30) row-word steps")
    batch = min(50_000, MC_TABLE_BYTES // (8 * conflict.shape[1]))
    cdfs = np.cumsum(dists, axis=1)
    cdfs[np.arange(d) >= last[:, None]] = np.inf      # a draw stops at the last outcome
    bin_starts = np.arange(GUIDE_BINS) / GUIDE_BINS
    guides = [None] * g
    rng = np.random.default_rng(seed)
    rejected = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        seen = np.zeros((b, conflict.shape[1]), dtype=np.uint64)
        for r, cols in steps:
            u = rng.random(len(seen))
            if cols is None:
                if guides[r] is None:
                    guides[r] = np.searchsorted(cdfs[r], bin_starts, side="right")
                at, shown, conf = pos.take(_draw(cdfs[r], guides[r], u)), marks, conflict
            else:
                law = _run_law(dists[r], last[r], cols, counts[r])
                at = _draw(law, np.searchsorted(law, bin_starts, side="right"), u)
                shown, conf = _pattern_rows(marks[pos[cols]]), _pattern_rows(conflict[pos[cols]])
            seen |= shown.take(at, axis=0)
            bad = (seen & conf.take(at, axis=0)).any(axis=1)
            if bad.any():
                live = seen.compress(~bad, axis=0)
                rejected += len(seen) - len(live)
                seen = live
                if not len(seen):
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
    edge array.
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
