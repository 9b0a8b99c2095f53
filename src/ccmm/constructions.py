"""Configuration builders: group schemes, Schurian configurations from
actions, group association schemes, direct products, fusions, and symmetric
powers. Every builder funnels its class matrix through
CoherentConfiguration.from_class_matrix, so the output is re-verified from
scratch rather than trusted by construction."""

from __future__ import annotations

import math

import numpy as np

from .configuration import POINT_CAP, CoherentConfiguration
from .groups import conjugation_action


def trivial_configuration(n, check="full"):
    """Every ordered pair its own class: rank n**2, n fibers. The adjacency
    algebra is the full n x n matrix algebra."""
    M = np.arange(n * n, dtype=np.int64).reshape(n, n)
    return CoherentConfiguration.from_class_matrix(M, check=check)


def group_scheme(G, check="full"):
    """Classes R_g = {(h, hg)}: the class of (h, k) is h^-1 k. Association
    scheme on |G| points of rank |G|, commutative iff G is abelian."""
    if G.order > POINT_CAP:
        raise ValueError("group order %d exceeds point cap" % G.order)
    T = G.table()
    inv = G.inverse_vector()
    M = T[inv]  # M[h, k] = (h^-1) k
    labels = list(range(G.order))
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, check=check
    )


def schurian(action, check="full"):
    """Orbits of the diagonal action of the group on ordered point pairs.
    Class labels are representative pairs."""
    X = action.n_points
    if X > POINT_CAP:
        raise ValueError("point count %d exceeds cap" % X)
    T = action.table
    M = np.full((X, X), -1, dtype=np.int64)
    labels = []
    for x in range(X):
        row = M[x]
        for y in range(X):
            if row[y] >= 0:
                continue
            M[T[:, x], T[:, y]] = len(labels)
            labels.append((x, y))
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, check=check
    )


def group_association_scheme(G, check="full"):
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
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, check=check
    )


def direct_product(c1, c2, check="full"):
    """Points are pairs, the class of ((x1,x2),(y1,y2)) is the pair of
    coordinate classes. Rank r1*r2."""
    n = c1.n_points * c2.n_points
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
    return CoherentConfiguration.from_class_matrix(
        M, class_labels=labels, check=check
    )


def fusion(config, blocks, check="full"):
    """Merge classes along a partition of [r]. Raises ValueError for a
    malformed partition; a well-formed partition whose merged matrix breaks
    an axiom raises AxiomViolation from re-verification, which is the
    expected rejection path for invalid fusions."""
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
    return CoherentConfiguration.from_class_matrix(M, check=check)


def _power_points(n, k, point_cap):
    """The k coordinate arrays of the n**k points of a k-fold power, in
    lexicographic order with coordinate 0 most significant."""
    if k < 1:
        raise ValueError("power must be >= 1")
    N = n**k
    if N > point_cap:
        raise ValueError("%d**%d = %d points exceeds cap %d" % (n, k, N, point_cap))
    coords = []
    rem = np.arange(N)
    for _ in range(k):
        rem, digit = np.divmod(rem, n)
        coords.append(digit)
    return coords[::-1]


def _sorted_classes(M, coords, rows):
    """For the points rows (as an index into coords) against every point,
    the k coordinate classes of each cell in ascending order: k arrays of
    shape (len(rows), N), sorted elementwise by a network of k(k-1)/2
    compare-exchanges."""
    s = [M[np.ix_(c[rows], c)] for c in coords]
    for top in range(len(s) - 1, 0, -1):
        for a in range(top):
            lo = np.minimum(s[a], s[a + 1])
            np.maximum(s[a], s[a + 1], out=s[a + 1])
            s[a] = lo
    return s


def symmetric_power(config, k, check="full", point_cap=POINT_CAP):
    """Fuse the k-fold direct power under coordinate permutations. Points
    are all k-tuples of source points (lexicographic); classes are multisets
    of source classes, so the rank is C(r+k-1, k). The count and the axioms
    are both verified, never assumed."""
    r = config.rank
    coords = _power_points(config.n_points, k, point_cap)
    N = len(coords[0])
    stack = _sorted_classes(config.matrix.astype(np.int64), coords, slice(None))
    flat = np.stack(stack).reshape(k, -1).T
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    expected_rank = math.comb(r + k - 1, k)
    if len(uniq) != expected_rank:
        raise AssertionError(
            "fused class count %d differs from C(%d+%d-1,%d) = %d"
            % (len(uniq), r, k, k, expected_rank)
        )
    Msym = inverse.reshape(N, N)
    labels = [tuple(int(v) for v in row) for row in uniq]
    return CoherentConfiguration.from_class_matrix(
        Msym, class_labels=labels, check=check
    )


def symmetric_power_rank(config, k, point_cap=POINT_CAP, chunk=64, bitmap_cap=1 << 26):
    """Number of classes of Sym^k C, counted without materializing the
    N x N class matrix: rows are processed in chunks, each cell's sorted
    k-tuple of coordinate classes is encoded in base r and marked. Usable
    where symmetric_power itself would not fit in memory."""
    r = config.rank
    coords = _power_points(config.n_points, k, point_cap)
    N = len(coords[0])
    codes = r**k
    if codes > 1 << 62:
        raise ValueError("class encoding does not fit 63 bits")
    M = config.matrix.astype(np.int64)
    use_bitmap = codes <= bitmap_cap
    seen_bitmap = np.zeros(codes, dtype=bool) if use_bitmap else None
    seen_set = set() if not use_bitmap else None
    for lo in range(0, N, chunk):
        stack = _sorted_classes(M, coords, slice(lo, lo + chunk))
        enc = stack[0]
        for c in range(1, k):
            enc = enc * r + stack[c]
        if use_bitmap:
            seen_bitmap[enc.ravel()] = True
        else:
            seen_set.update(np.unique(enc).tolist())
    return int(seen_bitmap.sum()) if use_bitmap else len(seen_set)
