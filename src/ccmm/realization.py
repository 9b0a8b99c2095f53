"""Realizations of (weighted) matrix multiplication inside coherent
configurations: realization verification, triple product properties,
action-based realizations, the diagonal-action family, symmetric-power
realizations, and wreath-product conjugation realizations.

Conventions: a realization of <l,m,n> is three injective maps alpha (l x m),
beta (m x n), gamma (n x l) into class ids such that alpha(a,b'), beta(b,c'),
gamma(c,a') form a triangle iff a = a', b = b', c = c'. (i,j,k) is a
triangle iff p^{k*}_{i,j} > 0.

verify_realization and verify_simultaneous (one component or several) run
the same checks, _verify, which builds the intersection tensor (checking a
second representative of every class) before the sweep, _sweep. The sweep
reads the triangles between the alpha, beta and gamma images through
config.triangles: a configuration reads one row of n composition classes
per starred gamma class, at its representative pair, not every nonzero of
the tensor; a SymmetricPowerView, the default for Sym^k C, builds them from
its base tensor. The view numbers each class of Sym^k C, a sorted k-tuple
of base classes, by its colexicographic rank (constructions.colex_table,
the numbering symmetric_power and symmetric_power_rank build their
classes with), so Sym^k class ids are the same in every view and session.
Each triangle is decoded to its positions (a, b'), (b, c') and (c, a'),
and the sweep demands that they are exactly the matched triples. A
failure is reported at the first position in the order of the pair loop
(a, b') x (b, c'), as the exhaustive loop over all (lm)(mn) pairs would
find it."""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .configuration import POINT_CAP, named_ints, text_file, text_lines
from .constructions import colex_table, multisets, schurian, symmetric_power
from .groups import WreathGroup, conjugation_action, count_conjugacy_wreath


class RealizationInvalid(Exception):
    """Verification failure. witness is ("injective", map_name, idx1, idx2)
    for an injectivity break, ("disjoint", ...) for overlapping image sets,
    or ("triangle", a, a2, b, b2, c, c2, kind) for the first violating
    6-tuple, kind "extra" (unexpected triangle) or "missing"."""

    def __init__(self, witness, message):
        super().__init__(message)
        self.witness = witness


class HypothesisViolation(Exception):
    """The action-realization hypothesis failed; witness is (f,g,h,a,b,c)
    with f g h = 1 where the fixed-point conclusion breaks."""

    def __init__(self, witness, message):
        super().__init__(message)
        self.witness = witness


class Realization:
    """Three injective maps into class ids, stored as integer arrays of
    shapes (l, m), (m, n) and (n, l). record is None, or the intersection
    data the realization last passed verification against together with
    copies of its maps at that time."""

    def __init__(self, alpha, beta, gamma):
        self.alpha = np.asarray(alpha, dtype=np.int64)
        self.beta = np.asarray(beta, dtype=np.int64)
        self.gamma = np.asarray(gamma, dtype=np.int64)
        if self.alpha.ndim != 2 or self.beta.ndim != 2 or self.gamma.ndim != 2:
            raise ValueError("maps must be two-dimensional")
        l, m = self.alpha.shape
        m2, n = self.beta.shape
        n2, l2 = self.gamma.shape
        if m2 != m or n2 != n or l2 != l:
            raise ValueError(
                "map shapes %s %s %s are inconsistent"
                % (self.alpha.shape, self.beta.shape, self.gamma.shape)
            )
        self.dims = (l, m, n)
        self.record = None

    def maps(self):
        return self.alpha, self.beta, self.gamma

    def __repr__(self):
        return "<realization %d,%d,%d>" % self.dims


def _check_injective(name, arr):
    flat = arr.reshape(-1)
    vals, first = np.unique(flat, return_index=True)
    if len(vals) != flat.size:
        seen = {}
        for idx, v in enumerate(flat.tolist()):
            if v in seen:
                raise RealizationInvalid(
                    ("injective", name, seen[v], idx),
                    "%s repeats class %d at flat indices %d and %d"
                    % (name, v, seen[v], idx),
                )
            seen[v] = idx


def check_class_ids(reals, rank):
    """Every entry of every map is a class id in [0, rank); else ValueError
    naming the map (with its component index when there are several), the
    entry and the id."""
    for slot in ("alpha", "beta", "gamma"):
        for ci, real in enumerate(reals):
            arr = getattr(real, slot)
            bad = np.argwhere((arr < 0) | (arr >= rank))
            if len(bad):
                name = slot if len(reals) == 1 else "%s[%d]" % (slot, ci)
                row, col = (int(v) for v in bad[0])
                raise ValueError(
                    "%s entry (%d,%d) is class %d, outside [0,%d)"
                    % (name, row, col, int(arr[row, col]), rank)
                )


def _decode(flat, offsets, cols):
    """Flat position -> (component, row, column) as Python ints."""
    ci = int(np.searchsorted(offsets, flat, side="right")) - 1
    row, col = divmod(int(flat - offsets[ci]), cols[ci])
    return ci, row, col


def _sweep(config, reals):
    """The triangle condition of the components reals, whose images must be
    injective and pairwise disjoint, in config (a configuration or a
    symmetric-power view) in one pass. Positions are flat indices in
    lexicographic order: x over (component, a, b') of the alpha images, y
    over (component, b, c') of beta, z over (component, c, a') of gamma.
    config.triangles reads the triangles (x, y, z), p^{G[z]*}_{A[x], B[y]}
    > 0; each must be a matched triple (one component, b = b', c = c',
    a = a'), and each matched triple must appear. Returns None, or
    the first failing sweep position (x, y) with the z of its least
    unexpected triangle, else of its missing matched one, each decoded to
    (component, row, column), and the kind "extra" or "missing"."""
    check_class_ids(reals, config.rank)
    slots = [[getattr(real, s) for real in reals] for s in ("alpha", "beta", "gamma")]
    # per map: the offset of each component's flat positions, and row length
    layout = [
        (np.cumsum([0] + [a.size for a in arrs]), [a.shape[1] for a in arrs])
        for arrs in slots
    ]
    A, B, G = (np.concatenate([a.ravel() for a in arrs]) for arrs in slots)
    # matched triples, ascending in the sweep key x * |B| + y
    parts = []
    for real, oa, ob, og in zip(reals, *(o for o, _ in layout)):
        l, m, n = real.dims
        a, b, c = np.indices((l, m, n)).reshape(3, -1)
        parts.append((oa + a * m + b, ob + b * n + c, og + c * l + a))
    ex, ey, ez = (np.concatenate(p) for p in zip(*parts))
    if not len(ex):
        return None
    ekey = ex * len(B) + ey
    x, y, z = config.triangles(A, B, G)
    key = x * len(B) + y
    pos = np.minimum(np.searchsorted(ekey, key), len(ekey) - 1)
    matched = (ekey[pos] == key) & (ez[pos] == z)
    present = np.zeros(len(ekey), dtype=bool)
    present[pos[matched]] = True
    extra = np.flatnonzero(~matched)
    missing = np.flatnonzero(~present)
    if len(extra) and (not len(missing) or key[extra].min() <= ekey[missing[0]]):
        at = key[extra].min()
        kind, owner = "extra", z[extra][key[extra] == at].min()
    elif len(missing):
        at, kind, owner = ekey[missing[0]], "missing", ez[missing[0]]
    else:
        return None
    return (
        _decode(at // len(B), *layout[0]),
        _decode(at % len(B), *layout[1]),
        _decode(owner, *layout[2]),
        kind,
    )


def _verify(config, reals, name):
    """The checks both verifiers run, in order: each map of each component
    is injective (name(slot, ci) names the map in the witness), map by map
    the images of the components are pairwise disjoint, then the sweep.
    Both checks read one np.unique of each map's concatenated images.
    Returns the sweep's failure, or None after recording on every
    component the intersection data and copies of its maps."""
    for slot in ("alpha", "beta", "gamma"):
        arrs = [getattr(real, slot) for real in reals]
        flat = np.concatenate([a.ravel() for a in arrs])
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        if len(first) == len(flat):
            continue  # every map injective, the images disjoint
        comp = np.repeat(np.arange(len(arrs)), [a.size for a in arrs])
        owner = comp[first][inverse]  # the first component holding each value
        shared = np.flatnonzero(owner < comp)
        last = comp[shared[0]] if len(shared) else len(arrs) - 1
        for ci in range(last + 1):
            _check_injective(name(slot, ci), arrs[ci])
        if len(shared):
            e = shared[0]
            wit = ("disjoint", slot, int(owner[e]), int(comp[e]), int(flat[e]))
            raise RealizationInvalid(wit, "%s images of components %d and %d share class %d" % wit[1:])
    t = config.intersection()  # checks a second representative of every class
    fail = _sweep(config, reals)
    if fail is None:
        for real in reals:
            real.record = (t,) + tuple(a.copy() for a in real.maps())
    return fail


def is_verified(config, real):
    """real passed verification against config.intersection() and its maps
    are unchanged since."""
    rec = real.record
    return (
        rec is not None
        and rec[0] is config.intersection()
        and all(np.array_equal(a, b) for a, b in zip(rec[1:], real.maps()))
    )


def verify_realization(config, real):
    """Exhaustive check of the realization conditions: injectivity of the
    three maps, then the triangle-iff-matched sweep over all pairs of map
    values ((a,b') x (b,c')), reading triangles from the intersection data.
    Raises RealizationInvalid with the first violating witness in sweep
    order (a, b', b, c')."""
    fail = _verify(config, [real], lambda slot, ci: slot)
    if fail is None:
        return True
    (_, a, bp), (_, b, cp), (_, c, ap), kind = fail
    message = "unexpected triangle for" if kind == "extra" else "matched triple is not a triangle for"
    raise RealizationInvalid(
        ("triangle", a, ap, b, bp, c, cp, kind),
        "%s a=%d a'=%d b=%d b'=%d c=%d c'=%d" % (message, a, ap, b, bp, c, cp),
    )


def verify_simultaneous(config, reals):
    """Simultaneous realization check: per-component injectivity, pairwise
    disjoint alpha images (likewise beta, gamma), and the sweep demanding a
    triangle exactly for matched indices within one component. The witness
    is the first failure in sweep order (ia, a, b', ib, b, c')."""
    fail = _verify(config, list(reals), lambda slot, ci: "%s[%d]" % (slot, ci))
    if fail is None:
        return True
    (ia, a, bp), (ib, b, cp), owner, _ = fail
    raise RealizationInvalid(
        ("triangle", (ia, a), (ib, b, bp), (cp,), owner),
        "simultaneous triangle condition fails between components %d and %d "
        "at a=%d b'=%d b=%d c'=%d" % (ia, ib, a, bp, b, cp),
    )


def fibers_realization(config):
    """<f,f,f>, verified, from one representative point per fiber: alpha(a,b)
    is the class of (x_a, x_b), and the same matrix serves beta and gamma."""
    fs = config.fibers()
    reps = [int(part[0]) for part in fs.parts]
    R = config.matrix[np.ix_(reps, reps)].astype(np.int64)
    real = Realization(R, R, R)
    verify_realization(config, real)
    return real


# ---------------------------------------------------------------------------
# triple product properties


@dataclass
class TripleFamily:
    """n triples of non-empty subsets of a finite group, elements as codes."""

    group: object
    triples: tuple

    def __post_init__(self):
        triples = []
        order = self.group.order
        for abc in self.triples:
            if len(abc) != 3:
                raise ValueError("each entry must be a triple of subsets")
            sets = []
            for part in abc:
                part = tuple(sorted(set(int(x) for x in part)))
                if not part:
                    raise ValueError("subsets must be non-empty")
                if part[0] < 0 or part[-1] >= order:
                    raise ValueError("element out of range")
                sets.append(part)
            triples.append(tuple(sets))
        self.triples = tuple(triples)

    def __len__(self):
        return len(self.triples)


def tpp_verify(group, S, T, U):
    """Triple product property: s^-1 s' t^-1 t' u^-1 u' = 1 only for s = s',
    t = t', u = u'. The one-triple case of simultaneous_tpp_verify; an
    element outside the group raises ValueError."""
    return simultaneous_tpp_verify(TripleFamily(group, ((S, T, U),)))


TPP_CHUNK = 1 << 20  # table cells read at once by simultaneous_tpp_verify


def simultaneous_tpp_verify(family):
    """Simultaneous triple product property of a TripleFamily: the product
    a_i^-1 a_j' b_j^-1 b_k' c_k^-1 c_i' is trivial only when i = j = k and
    all three pairs match. Exhaustive over index triples and elements, counted
    with multiplicity: with x = a_i^-1 a_j', y = b_j^-1 b_k' and
    z = c_k^-1 c_i', the product is trivial iff z = (xy)^-1, so the trivial
    products number the sum over distinct x, y of #x * #y * #((xy)^-1). For
    i = j = k the |A_i||B_i||C_i| choices with matching pairs are trivial, so
    the property fails when the count exceeds that, and otherwise when it
    exceeds 0. Rows are read TPP_CHUNK table cells at a time and the sweep
    stops once the count passes the allowance, so memory stays bounded and a
    failing family is refused early."""
    g = family.group
    Tb = g.table()
    inv = g.inverse_vector()
    A, B, C = ([np.asarray(t[p]) for t in family.triples] for p in range(3))

    def row_chunks(rows, n_cols):
        step = max(1, TPP_CHUNK // n_cols)
        return (rows[s:s + step] for s in range(0, len(rows), step))

    def quotients(X, Y):  # multiplicity of each x^-1 y, x in X, y in Y
        return sum(
            np.bincount(Tb[x[:, None], Y].ravel(), minlength=g.order)
            for x in row_chunks(inv[X], len(Y))
        )

    for i, j, k in itertools.product(range(len(family)), repeat=3):
        allowance = len(A[i]) * len(B[i]) * len(C[i]) if i == j == k else 0
        nx, ny = quotients(A[i], A[j]), quotients(B[j], B[k])
        nz = quotients(C[k], C[i])[inv]  # nz[w] = #(z = w^-1)
        ys = np.flatnonzero(ny)
        count = 0
        for x in row_chunks(np.flatnonzero(nx), len(ys)):
            count += int(nx[x] @ nz[Tb[x[:, None], ys]] @ ny[ys])
            if count > allowance:
                return False
    return True


# ---------------------------------------------------------------------------
# action realizations


# schurian(action) of each live action, built once: a caller that tries
# many subset triples on one action shares its configuration and tensor
_SCHEMES = weakref.WeakKeyDictionary()


def action_realization(action, A, B, C):
    """Realization of <|A|,|B|,|C|> inside schurian(action), after verifying
    the fixed-point hypothesis: for every f, g, h in the acting group with
    f g h = 1, if fa lands in A, gb in B and hc in C (a in A etc.), then all
    three are fixed. Quantifying over f g h = 1 pairs (f, g) is exhaustive
    since h is determined. Raises HypothesisViolation with a witness.
    Returns schurian(action), built once per action, and the realization."""
    A, B, C = ([int(x) for x in part] for part in (A, B, C))
    if not A or not B or not C:
        raise ValueError("subsets must be non-empty")
    for name, part in (("A", A), ("B", B), ("C", C)):
        if len(set(part)) != len(part):
            raise ValueError("repeated point in %s" % name)
        if min(part) < 0 or max(part) >= action.n_points:
            raise ValueError("point out of range in %s" % name)
    g = action.group
    Tact = action.table
    Tg = g.table()
    inv = g.inverse_vector()
    order = g.order

    def prof(part):
        cols = np.asarray(part)
        img = Tact[:, cols]  # img[f, idx] = f . part[idx]
        inside = np.zeros(action.n_points, dtype=bool)
        inside[cols] = True
        hit = inside[img]
        moved = img != cols[None, :]
        return hit.any(axis=1), (hit & moved).any(axis=1), img, inside

    QA, badA, imgA, inA = prof(A)
    QB, badB, imgB, inB = prof(B)
    QC, badC, imgC, inC = prof(C)
    for f in range(order):
        if not QA[f]:
            continue
        hrow = inv[Tg[f]]  # h with f g h = 1 for each g
        viol = QB & QC[hrow] & (badA[f] | badB | badC[hrow])
        bad_g = np.flatnonzero(viol)
        if len(bad_g):
            gg = int(bad_g[0])
            hh = int(hrow[gg])

            def pick(part, img, inside, frow, prefer_moved):
                row = img[frow]
                inside_row = inside[row]
                if prefer_moved:
                    cand = np.flatnonzero(inside_row & (row != np.asarray(part)))
                    if len(cand):
                        return part[int(cand[0])]
                return part[int(np.flatnonzero(inside_row)[0])]

            a = pick(A, imgA, inA, f, bool(badA[f]))
            b = pick(B, imgB, inB, gg, not badA[f] and bool(badB[gg]))
            c = pick(C, imgC, inC, hh, not badA[f] and not badB[gg])
            raise HypothesisViolation(
                (f, gg, hh, a, b, c),
                "hypothesis fails at f=%d g=%d h=%d a=%d b=%d c=%d"
                % (f, gg, hh, a, b, c),
            )
    config = _SCHEMES.get(action)
    if config is None:
        config = _SCHEMES[action] = schurian(action)
    M = config.matrix
    alpha = M[np.ix_(A, B)]
    beta = M[np.ix_(B, C)]
    gamma = M[np.ix_(C, A)]
    real = Realization(alpha, beta, gamma)
    verify_realization(config, real)
    return config, real


def diagonal_action(n):
    """Z/nZ acting on (Z/nZ)^2 by simultaneous translation. Point code of
    (x1, x2) is x1*n + x2."""
    from .groups import CyclicGroup, GroupAction

    G = CyclicGroup(n)  # refuses n < 1
    pts = n * n
    if pts > POINT_CAP:
        raise ValueError("point count %d exceeds cap %d" % (pts, POINT_CAP))
    x1, x2 = np.divmod(np.arange(pts), n)
    tab = np.empty((n, pts), dtype=np.int32)
    for gg in range(n):
        tab[gg] = ((x1 + gg) % n) * n + (x2 + gg) % n
    return GroupAction(G, tab, "diagonal-translation")


def diagonal_example(n, S=None):
    """The diagonal-action configuration on n^2 points (rank n^3) with one
    <n,n,n> component per member of a 3AP-free set S in Z/nZ:
    alpha_i(x,y) = class (x, i-x, y), beta_i(y,z) = (y, i-y, z),
    gamma_i(z,x) = (z, -2i-z, x). Triangles across components need
    i + j = 2k, which the 3AP-free condition pins to i = j = k."""
    from .sets import APFreeSet, greedy_ap_free

    action = diagonal_action(n)  # refuses sizes beyond the point cap first
    if S is None:
        S = greedy_ap_free(n)
    elif not isinstance(S, APFreeSet):
        S = APFreeSet(n, tuple(S))  # raises if a progression exists
    if S.n != n:
        raise ValueError("S lives in Z/%d, expected Z/%d" % (S.n, n))
    if len(S) == 0:
        raise ValueError("need a non-empty 3AP-free set")
    cfg = schurian(action)
    xs = np.arange(n)  # the points (0, x), codes x; (u, v) has code u*n + v

    def grid(u, v):
        return cfg.matrix[np.ix_(xs, (u % n) * n + v % n)].astype(np.int64)

    reals = []
    for i in S.elements:
        alpha = grid(i, i + xs)  # beta_i(y,z) = (y, i-y, z) reads the same grid
        reals.append(Realization(alpha, alpha.copy(), grid(-2 * i, xs - 2 * i)))
    verify_simultaneous(cfg, reals)
    return cfg, reals


# ---------------------------------------------------------------------------
# symmetric-power realizations


SYM_CHUNK = 1 << 18  # products formed at once by SymmetricPowerView.triangles


class SymmetricPowerView:
    """Intersection data of Sym^k C computed from C's tensor without
    materializing the point set. A class of Sym^k C is a multiset of k base
    classes; sorted as t_0 <= ... <= t_(k-1), its id is the colexicographic
    rank sum_c C(t_c + c, c + 1) (the combinatorial number system of
    colex_table, which symmetric_power and symmetric_power_rank use too),
    so the ids are exactly [0, C(r+k-1, k)) in every view and the view
    keeps no state. slice() sums coordinate-product counts over all
    alignments of the two multisets, divided by the orbit size of the
    result multiset. The view is its own intersection data."""

    def __init__(self, base_tensor, k):
        r = base_tensor.rank
        self.base = base_tensor
        self.k = k
        self.rank = math.comb(r + k - 1, k)
        if self.rank >= 1 << 62:
            raise ValueError("Sym^%d of rank %d is too large for 64-bit class ids" % (k, r))
        self._binom = colex_table(r, k)

    def intersection(self):
        return self

    def class_ids(self, tuples):
        """The id of each multiset of base classes, given as the last axis
        of tuples in any order."""
        t = np.sort(np.asarray(tuples, dtype=np.int64), axis=-1)
        return self._binom[np.arange(self.k), t].sum(axis=-1)

    def tuples(self, ids):
        """The sorted base classes of each id in [0, rank), as a new last
        axis: the inverse of class_ids."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.rank):
            raise ValueError("Sym^%d class ids lie in [0,%d)" % (self.k, self.rank))
        return multisets(ids, self._binom)

    def star(self, cid):
        return int(self.class_ids(self.base.star_vector[self.tuples(cid)]))

    def slice(self, i, j):
        ti, tj = self.tuples(i).tolist(), self.tuples(j).tolist()
        acc = {}
        for pi in set(itertools.permutations(ti)):
            for pj in set(itertools.permutations(tj)):
                parts = []
                for c in range(self.k):
                    s = self.base.slice(pi[c], pj[c])
                    if not s:
                        break
                    parts.append(list(s.items()))
                else:
                    for combo in itertools.product(*parts):
                        key = tuple(sorted(kc for kc, _ in combo))
                        w = 1
                        for _, pc in combo:
                            w *= pc
                        acc[key] = acc.get(key, 0) + w
        out = {}
        for key, total in acc.items():
            orbit = len(set(itertools.permutations(key)))
            if total % orbit:
                raise AssertionError(
                    "count %d not divisible by orbit size %d" % (total, orbit)
                )
            out[int(self.class_ids(key))] = total // orbit
        return out

    def triangles(self, A, B, C):
        """Same contract as CoherentConfiguration.triangles: a triple may
        repeat. Up to a common reordering of coordinates, a triangle
        (I, J, C*) of Sym^k C is k base triangles (I_c, j_c, k_c) whose j_c
        form J and whose k_c form C*, the base stars of C's coordinates:
        every alignment count is nonnegative, so a product of positive base
        counts is a positive count. Only base nonzeros between coordinate
        classes of the images are gathered; their k-fold products along each
        alpha tuple are formed in chunks of about SYM_CHUNK products, and
        each product's j and k coordinates are looked up by their class
        ids."""
        r = self.base.rank
        ta, tb = self.tuples(A), self.tuples(B)
        tk = self.base.star_vector[self.tuples(C)]
        K = self.class_ids(tk)
        i, j, k, _ = self.base.arrays()
        keep = np.ones(len(i), dtype=bool)
        for coords, c in ((ta, i), (tb, j), (tk, k)):
            member = np.zeros(r, dtype=bool)
            member[coords.ravel()] = True
            keep &= member[c]
        i, j, k = i[keep], j[keep], k[keep]  # still sorted by i
        first = np.searchsorted(i, np.arange(r))
        count = np.bincount(i, minlength=r)
        total = count[ta].prod(axis=1)
        ends = np.cumsum(total)
        out = []
        lo = 0
        while lo < len(ta):
            cut = ends[lo] - total[lo] + SYM_CHUNK
            hi = max(lo + 1, int(np.searchsorted(ends, cut, "right")))
            sizes = total[lo:hi]
            rows = np.repeat(np.arange(lo, hi), sizes)
            local = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            idx = np.empty((len(rows), self.k), dtype=np.int64)
            for c in reversed(range(self.k)):
                cls = ta[rows, c]
                local, idx[:, c] = np.divmod(local, count[cls])
                idx[:, c] += first[cls]
            y = _position_of(B, self.class_ids(j[idx]))
            z = _position_of(K, self.class_ids(k[idx]))
            hit = (y >= 0) & (z >= 0)
            out.append((rows[hit], y[hit], z[hit]))
            lo = hi
        return tuple(np.concatenate(a) for a in zip(*out))


def _position_of(codes, values):
    """Index of each value in the array of distinct codes, or -1."""
    order = np.argsort(codes)
    pos = np.minimum(np.searchsorted(codes, values, sorter=order), len(codes) - 1)
    return np.where(codes[order[pos]] == values, order[pos], -1)


def _product_maps(reals, class_ids):
    """Coordinate-wise product of the maps of k realizations. Rows and
    columns run over index tuples in lexicographic order; a cell holds the
    class id of its k base classes, class_ids mapping every cell of a map
    in one call (the base classes along the last axis)."""

    def build(arrs):
        rows, cols = (np.indices([a.shape[d] for a in arrs]).reshape(len(arrs), -1) for d in (0, 1))
        return class_ids(np.stack([a[x][:, y] for a, x, y in zip(arrs, rows, cols)], axis=-1))

    return Realization(*(build([getattr(r, s) for r in reals]) for s in ("alpha", "beta", "gamma")))


def sympow_realization(config, reals, materialize=False):
    """Realization of the product dims inside Sym^k C, built coordinate-wise
    from a verified simultaneous realization (one map triple per coordinate)
    and verified against the staged view of Sym^k C, or with materialize
    against Sym^k C built by symmetric_power. POINT_CAP bounds its points,
    not the N^2 cells of its class matrix, so materialize is meant for
    small powers. Returns (view or configuration, realization)."""
    reals = list(reals)
    k = len(reals)
    if k < 1:
        raise ValueError("need at least one component")
    verify_simultaneous(config, reals)
    view = SymmetricPowerView(config.intersection(), k)
    if materialize:
        power = symmetric_power(config, k)
        lookup = np.empty(view.rank, dtype=np.int64)  # view id -> power id
        lookup[view.class_ids(power.class_labels)] = np.arange(power.rank)
        real = _product_maps(reals, lambda cells: lookup[view.class_ids(cells)])
    else:
        power = view
        real = _product_maps(reals, view.class_ids)
    verify_realization(power, real)
    return power, real


# ---------------------------------------------------------------------------
# wreath-product conjugation realizations


def grp_as_realization(family):
    """From a TripleFamily with the simultaneous triple product property in
    an abelian group H: embed the product sets into G = S_n lx H^n, take the
    group association scheme of G (the two-sided conjugation action), and
    realize <prod |A_i|, prod |B_i|, prod |C_i|>. The ambient rank equals
    count_conjugacy_wreath(n, |H|)."""
    H = family.group
    if not H.is_abelian():
        raise ValueError("base group must be abelian")
    if not simultaneous_tpp_verify(family):
        raise ValueError("family fails the simultaneous triple product property")
    n = len(family.triples)
    G = WreathGroup(n, H)
    ident = tuple(range(n))

    A, B, C = (
        [G.encode(vec, ident) for vec in itertools.product(*(t[p] for t in family.triples))]
        for p in range(3)
    )
    cfg, real = action_realization(conjugation_action(G), A, B, C)
    expected_rank = count_conjugacy_wreath(n, H.order)
    if cfg.rank != expected_rank:
        raise AssertionError(
            "ambient rank %d, expected %d conjugacy classes"
            % (cfg.rank, expected_rank)
        )
    return cfg, real


# ---------------------------------------------------------------------------
# real file format


def write_real(real, path):
    """Write "real 1" text: dims line then alpha/beta/gamma blocks of
    "a b -> class" lines."""
    with text_file(path, "w") as fh:
        fh.write("real 1\n")
        fh.write("dims %d %d %d\n" % real.dims)
        for name, arr in zip(("alpha", "beta", "gamma"), real.maps()):
            fh.write("%s\n" % name)
            for x, row in enumerate(arr.tolist()):
                fh.write("".join("%d %d -> %d\n" % (x, y, v) for y, v in enumerate(row)))


def read_real(path):
    """Parse a "real 1" file back into a Realization (no configuration
    context, so verification happens at the call site)."""
    numbered = text_lines(path)
    lines = [line for _, line in numbered]
    if not lines or lines[0].split() != ["real", "1"]:
        raise ValueError("not a real 1 file")
    if len(lines) < 2:
        raise ValueError("real file ends before its dims line")
    head = lines[1].split()
    if len(head) != 4 or head[0] != "dims":
        raise ValueError("bad dims line %r" % lines[1])
    l, m, n = named_ints("real line %d" % numbered[1][0], head[1:])
    shapes = {"alpha": (l, m), "beta": (m, n), "gamma": (n, l)}
    arrays = {}
    pos = 2
    for name in ("alpha", "beta", "gamma"):
        if pos >= len(lines):
            raise ValueError("real file ends before its %s block" % name)
        if lines[pos] != name:
            raise ValueError("real line %d: expected %r block" % (numbered[pos][0], name))
        pos += 1
        rows, cols = shapes[name]
        if pos + rows * cols > len(lines):
            raise ValueError("truncated %s block" % name)
        arr = np.full((rows, cols), -1, dtype=np.int64)
        for number, line in numbered[pos : pos + rows * cols]:
            parts = line.split()
            if len(parts) != 4 or parts[2] != "->":
                raise ValueError("bad map line %r" % line)
            x, y, cls = named_ints("real line %d" % number, parts[:2] + parts[3:])
            if not (0 <= x < rows and 0 <= y < cols):
                raise ValueError("index out of range in %r" % line)
            if cls < 0:
                raise ValueError("negative class id in %r" % line)
            if cls >> 63:
                raise ValueError("class id in %r does not fit in 64 bits" % line)
            arr[x, y] = cls
        pos += rows * cols
        if (arr < 0).any():
            raise ValueError("missing entries in %s block" % name)
        arrays[name] = arr
    if pos != len(lines):
        raise ValueError("trailing content after gamma block")
    return Realization(arrays["alpha"], arrays["beta"], arrays["gamma"])
