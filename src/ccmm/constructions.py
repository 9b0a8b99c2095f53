"""Configuration builders: group schemes, Schurian configurations from
actions, group association schemes, direct products, fusions, and symmetric
powers. Every builder funnels its class matrix through
CoherentConfiguration.from_class_matrix with the full check, so the output
is proved rather than trusted by construction and reports verification
"full"; no builder takes a check mode. Builders also hand it point
permutations that the construction makes automorphisms: left translations,
rows of the action table, lifts of the factors' or the base's
automorphisms. Each is checked exactly against the built matrix, and the
axiom-3 sweep runs over one row per orbit of the group they generate, which
still proves the axiom for every pair."""

from __future__ import annotations

import math

import numpy as np

from .configuration import POINT_CAP, CoherentConfiguration, orbit_minima
from .groups import conjugation_action

MAX_POWER = 64  # numpy's limit on array dimensions, one per coordinate
RANK_CHUNK = 64  # rows of Sym^k class ids formed at once


def trivial_configuration(n):
    """Every ordered pair its own class: rank n**2, n fibers. The adjacency
    algebra is the full n x n matrix algebra."""
    if n < 1:
        raise ValueError("need at least one point")
    if n > POINT_CAP:
        raise ValueError("point count %d exceeds cap %d" % (n, POINT_CAP))
    M = np.arange(n * n, dtype=np.int64).reshape(n, n)
    return CoherentConfiguration.from_class_matrix(M)


def _orbit_generators(table):
    """Rows of an action table that generate its point orbits: in table
    order, a row is kept when it merges two orbits of the group the rows
    kept before it generate, until the orbit count equals that of the whole
    table (point x is least in its orbit iff it is least in column x). The
    rows after the last kept one are read in windows of 1, 2, 4, ... rows."""
    points = np.arange(table.shape[1])
    target = np.count_nonzero(table.min(axis=0) == points)
    lab, gens, at = points, [], 0
    while np.count_nonzero(lab == points) > target:
        width = 1
        while not (merges := (lab[table[at : at + width]] != lab).any(axis=1)).any():
            at, width = at + width, 2 * width
        at += int(np.argmax(merges))
        gens.append(table[at])
        lab = orbit_minima(np.array(gens, dtype=np.int64), lab)
    return gens


def group_scheme(G):
    """Classes R_g = {(h, hg)}: the class of (h, k) is h^-1 k. Association
    scheme on |G| points of rank |G|, commutative iff G is abelian."""
    if G.order > POINT_CAP:
        raise ValueError("group order %d exceeds point cap" % G.order)
    T = G.table()
    inv = G.inverse_vector()
    M = T[inv]  # M[h, k] = (h^-1) k
    labels = list(range(G.order))
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, automorphisms=_orbit_generators(T)
    )


def schurian(action):
    """Orbits of the diagonal action of the group on ordered point pairs,
    numbered in row-major order of their least pairs, the class labels.
    The rows of T form a group, so T.min(axis=0) is the least point x0 of
    each point's orbit. For any g with g.x0 = x, the least pair of the
    class of (x, y) is (x0, v), v the least point of the orbit of g^-1.y
    under the stabilizer of x0: one pass over the orbit representatives
    numbers the cells (x0, u) and one scatter of the rows g^-1 reads every
    cell from them. X <= POINT_CAP keeps the ids in int32."""
    X = action.n_points
    if X > POINT_CAP:
        raise ValueError("point count %d exceeds cap" % X)
    T = action.table
    rep = T.min(axis=0)
    reps = np.flatnonzero(rep == np.arange(X))
    g = np.empty(X, dtype=np.intp)
    g[T[:, reps]] = np.arange(len(T))[:, None]  # g[x].rep[x] = x; any such row does
    U = np.empty((X, X), dtype=np.int32)  # U[x, y] = g[x]^-1.y
    np.put_along_axis(U, T[g], np.arange(X, dtype=np.int32), axis=1)
    ids = np.empty((len(reps), X), dtype=np.int32)  # class of (x0, u), row per x0
    labels = []
    for o, x0 in enumerate(reps.tolist()):
        low = T[T[:, x0] == x0].min(axis=0)  # least point of each Stab(x0)-orbit
        least = low == np.arange(X)
        ids[o] = (np.cumsum(least, dtype=np.int32) + (len(labels) - 1))[low]
        labels += [(x0, u) for u in np.flatnonzero(least).tolist()]
    U += (np.searchsorted(reps, rep).astype(np.int32) * X)[:, None]
    M = ids.ravel().take(U)
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, automorphisms=_orbit_generators(T)
    )


def group_association_scheme(G):
    """The scheme on G whose classes are {(g,h) : g h^-1 in C_i} for the
    conjugacy classes C_i. Commutative regardless of G; identical to
    schurian(conjugation_action(G))."""
    if G.order > POINT_CAP:
        raise ValueError("group order %d exceeds point cap" % G.order)
    cmap = G.class_map()
    T = G.table()
    inv = G.inverse_vector()
    M = cmap[T[:, inv]]  # class of g h^-1
    labels = [tuple(c) for c in G.conjugacy_classes()]
    # left translation by a keeps the class: (a g)(a h)^-1 = a (g h^-1) a^-1
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, automorphisms=_orbit_generators(T)
    )


def direct_product(c1, c2):
    """Points are pairs, the class of ((x1,x2),(y1,y2)) is the pair of
    coordinate classes. Rank r1*r2. The factors' automorphisms act on their
    coordinate: g x id and id x g."""
    n1, n2 = c1.n_points, c2.n_points
    n = n1 * n2
    if n > POINT_CAP:
        raise ValueError("product on %d points exceeds cap" % n)
    m1 = c1.matrix.astype(np.int64)
    m2 = c2.matrix.astype(np.int64)
    M = (m1[:, None, :, None] * c2.rank + m2[None, :, None, :]).reshape(n, n)

    def lab(cfg, i):
        return cfg.class_labels[i] if cfg.class_labels is not None else i

    labels = [
        (lab(c1, i1), lab(c2, i2))
        for i1 in range(c1.rank)
        for i2 in range(c2.rank)
    ]
    gens = np.concatenate(
        [
            (c1.automorphisms[:, :, None] * n2 + np.arange(n2)).reshape(-1, n),
            (np.arange(n1)[:, None] * n2 + c2.automorphisms[:, None, :]).reshape(-1, n),
        ]
    )
    return CoherentConfiguration.from_class_matrix(M, class_labels=labels, automorphisms=gens)


def fusion(config, blocks):
    """Merge classes along a partition of [r]. Raises ValueError for a
    malformed partition; a well-formed partition whose merged matrix breaks
    an axiom raises AxiomViolation from re-verification, which is the
    expected rejection path for invalid fusions. The base's automorphisms
    keep every merged class, so they are passed on."""
    r = config.rank
    blockmap = np.full(r, -1, dtype=np.int64)
    for b, block in enumerate(blocks):
        block = list(block)
        if not block:
            raise ValueError("empty fusion block")
        for c in block:
            if not 0 <= c < r:
                raise ValueError("class id %d out of range" % c)
            if blockmap[c] >= 0:
                raise ValueError("class %d appears in two blocks" % c)
            blockmap[c] = b
    uncovered = np.flatnonzero(blockmap < 0)
    if len(uncovered):
        raise ValueError("classes not covered: %s" % uncovered.tolist())
    M = blockmap[config.matrix]
    return CoherentConfiguration.from_class_matrix(M, automorphisms=config.automorphisms)


def _power_points(n, k):
    """The k coordinate arrays of the n**k points of a k-fold power, in
    lexicographic order with coordinate 0 most significant; more than
    POINT_CAP points are refused before anything is allocated."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if n >= 2 and k > POINT_CAP.bit_length():  # so n**k >= 2**k > POINT_CAP
        raise ValueError("%d**%d points exceeds cap %d" % (n, k, POINT_CAP))
    if k > MAX_POWER:
        raise ValueError("power %d exceeds numpy's %d array dimensions" % (k, MAX_POWER))
    N = n**k
    if N > POINT_CAP:
        raise ValueError("%d**%d = %d points exceeds cap %d" % (n, k, N, POINT_CAP))
    return np.unravel_index(np.arange(N), (n,) * k)


def _sorted_rows(coords):
    """Indices of the C(n+k-1, k) points with non-decreasing coordinates."""
    return np.flatnonzero(np.all(np.diff(np.stack(coords), axis=0) >= 0, axis=0))


def colex_table(r, k):
    """The k x r int64 table binom[c, v] = C(v + c, c + 1). A multiset of k
    classes in [0, r), sorted as t_0 <= ... <= t_(k-1), has colexicographic
    rank sum_c binom[c, t_c] (the combinatorial number system), so the
    ranks are exactly [0, C(r+k-1, k)). Row c is the running sum of row
    c - 1 (the hockey-stick identity), and every entry is below
    C(r+k-1, k)."""
    rows = [np.arange(r, dtype=np.int64)]
    for _ in range(1, k):
        rows.append(np.cumsum(rows[-1]))
    return np.stack(rows)


def multisets(ids, binom):
    """The sorted classes of each colex rank in ids, as a new last axis:
    the inverse of the ranking by colex_table binom, peeling the largest
    coordinate first."""
    rest = np.asarray(ids, dtype=np.int64)
    out = np.empty(rest.shape + (len(binom),), dtype=np.int64)
    for c in reversed(range(len(binom))):
        out[..., c] = np.searchsorted(binom[c], rest, side="right") - 1
        rest = rest - binom[c, out[..., c]]
    return out


def _class_ids(M, coords, rows, binom):
    """The colex rank of the class of every cell of the points rows (an
    index into coords) against every point, as an int32 array of shape
    (len(rows), N). Coordinate c's classes are the rows M[coords[c][rows]]
    broadcast along axis c of the (n,)*k point grid; a network of k(k-1)/2
    compare-exchanges sorts them elementwise. int32 fits: on N <= POINT_CAP
    points there are fewer than 2**31 classes, and every table entry is
    below their number."""
    k, n = len(coords), len(M)
    s = [M[c[rows]].reshape((-1,) + (1,) * i + (n,) + (1,) * (k - 1 - i)) for i, c in enumerate(coords)]
    for top in range(k - 1, 0, -1):
        for a in range(top):
            s[a], s[a + 1] = np.minimum(s[a], s[a + 1]), np.maximum(s[a], s[a + 1])
    binom = binom.astype(np.int32)
    ids = np.take(binom[0], s[0])
    for c in range(1, k):
        ids += np.take(binom[c], s[c])
    return ids.reshape(len(ids), -1)


def symmetric_power(config, k):
    """Fuse the k-fold direct power under coordinate permutations. Points
    are all k-tuples of source points (lexicographic); classes are multisets
    of source classes, so the rank is C(r+k-1, k). The count and the axioms
    are both verified, never assumed. Automorphisms: the base's acting on
    coordinate 0, and for k >= 2 the transposition of coordinates 0 and 1
    and (for k >= 3) the cyclic shift of the coordinates."""
    r, n = config.rank, config.n_points
    coords = _power_points(n, k)
    N = n**k
    binom = colex_table(r, k)
    expected_rank = math.comb(r + k - 1, k)
    matrix = np.empty((N, N), dtype=np.int32)
    seen = np.zeros(expected_rank, dtype=bool)
    for lo in range(0, N, RANK_CHUNK):
        ids = _class_ids(config.matrix, coords, slice(lo, lo + RANK_CHUNK), binom)
        matrix[lo : lo + RANK_CHUNK] = ids
        seen[ids] = True
    found = int(np.count_nonzero(seen))
    if found != expected_rank:
        raise AssertionError(
            "fused class count %d differs from C(%d+%d-1,%d) = %d"
            % (found, r, k, k, expected_rank)
        )
    labels = [tuple(t) for t in multisets(np.arange(expected_rank), binom).tolist()]
    rest = n ** (k - 1)
    gens = list(config.automorphisms[:, coords[0]] * rest + np.arange(N) % rest)
    shuffles = [(1, 0) + tuple(range(2, k))] if k >= 2 else []
    shuffles += [tuple(range(1, k)) + (0,)] if k >= 3 else []
    gens += [np.ravel_multi_index([coords[i] for i in s], (n,) * k) for s in shuffles]
    return CoherentConfiguration.from_class_matrix(matrix, class_labels=labels, automorphisms=gens)


def symmetric_power_rank(config, k):
    """Number of classes of Sym^k C, counted without materializing the
    N x N class matrix. Permuting the coordinates of both points keeps a
    cell's class, so only the C(n+k-1, k) sorted rows are swept, in chunks,
    marking each cell's colex class id in a bitmap of C(r+k-1, k) flags,
    at most N**2 bytes."""
    coords = _power_points(config.n_points, k)
    binom = colex_table(config.rank, k)
    rows = _sorted_rows(coords)
    seen = np.zeros(math.comb(config.rank + k - 1, k), dtype=bool)
    for lo in range(0, len(rows), RANK_CHUNK):
        seen[_class_ids(config.matrix, coords, rows[lo : lo + RANK_CHUNK], binom)] = True
    return int(np.count_nonzero(seen))
