"""Coherent configurations: class-matrix representation, axiom verification,
intersection numbers, star involution, fibers, and the ccfg text format.

A configuration on n points is stored as a C-ordered n x n int32 matrix of
class ids in [0, r). Class ids are normalized: classes appearing on the
diagonal come first (ordered by their smallest point), the rest follow in
row-major order of first occurrence. One pass over the cells in blocks of
KEY_BLOCK finds each class's size and first pair by scatters, with no sort,
and the axiom-2 and automorphism checks read the matrix in row blocks of
the same size. Verification is a full sweep of axiom 3 by default;
check="trusted" skips that sweep for known-good input and the result
reports itself unchecked. Constructions in other modules pass their output
through from_class_matrix with the default check, together with point
permutations they know to be automorphisms; each is checked exactly
against the class matrix, and the axiom-3 sweep then covers one row per
orbit of the group they generate. An automorphism maps every pair to a pair
of the same class and composition profile, so this is still a proof for
every pair, and the first failing row is an orbit minimum: witnesses are
those of the sweep over all rows. A ccfg file carries the automorphisms of
the configuration written to it, and reading it checks them the same way.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass

import numpy as np

POINT_CAP = 20000
CHECKS = ("full", "trusted")  # the verification modes of outside matrices and files
KEY_BLOCK = 1 << 20  # composition keys sorted per block by the axiom-3 sweep and the row read


class AxiomViolation(Exception):
    """A defining axiom fails. axiom is 1, 2 or 3; witness is a tuple of
    points/classes pinpointing the failure."""

    def __init__(self, axiom, witness, message):
        self.axiom = axiom
        self.witness = witness
        self.message = message
        super().__init__("axiom (%d): %s; witness %s" % (axiom, message, witness))


def _scan_classes(flat, r, second):
    """One pass over the row-major cells flat in blocks of KEY_BLOCK: the
    size of each class of [0, r) and the flat index of its first cell, the
    least one, found by a scatter-min with no sort. When second is true,
    also the flat index of its second cell (the first again for a class of
    one cell), else None. Each class met in a block has met its first cell
    there or before, so a second scatter-min over the block with its first
    cells pushed past the end finds the second ones in the same pass. A
    class not met has size 0."""
    end = len(flat)
    sizes = np.zeros(r, dtype=np.int64)
    first = np.full(r, end, dtype=np.int64)
    later = first.copy() if second else None
    for lo in range(0, end, KEY_BLOCK):
        block = flat[lo : lo + KEY_BLOCK]
        cells = np.arange(lo, lo + len(block))
        np.add.at(sizes, block, 1)
        np.minimum.at(first, block, cells)
        if later is not None:
            cells[first[(first >= lo) & (first < lo + len(block))] - lo] = end
            np.minimum.at(later, block, cells)
    if later is not None:
        later = np.where(sizes > 1, later, first)
    return sizes, first, later


def _normalization_order(matrix, first):
    """New id -> old id: diagonal classes first by smallest point, then the
    rest by first row-major occurrence. first[c] is the row-major flat
    index of the first pair of class c, for every class."""
    diag_classes, diag_first = np.unique(np.diagonal(matrix), return_index=True)
    off = np.ones(len(first), dtype=bool)
    off[diag_classes] = False
    rest = np.flatnonzero(off)
    return np.concatenate([diag_classes[np.argsort(diag_first)], rest[np.argsort(first[rest])]])


def _check_axiom1(matrix, sizes):
    diag = np.diagonal(matrix)
    on_diag = np.bincount(diag, minlength=len(sizes))
    for c in np.unique(diag):
        c = int(c)
        if sizes[c] != on_diag[c]:
            pos = np.argwhere(matrix == c)
            for x, y in pos:
                if x != y:
                    raise AxiomViolation(
                        1,
                        (int(x), int(y), c),
                        "class %d meets the diagonal but contains (%d,%d)"
                        % (c, int(x), int(y)),
                    )


def _check_axiom2(matrix, r, x0, y0):
    """The transpose of every pair of class c lies in star[c], the class of
    the transpose of c's first pair. Rows x of star[matrix] are compared
    with columns x of the matrix in bands of about KEY_BLOCK cells, top
    down, so the first failing band holds the row-major least failure."""
    n = matrix.shape[0]
    star = matrix[y0, x0]  # transpose class of each first pair
    step = max(1, KEY_BLOCK // n)
    for lo in range(0, n, step):
        bad = star.take(matrix[lo : lo + step]) != matrix[:, lo : lo + step].T
        if bad.any():
            x, y = divmod(int(np.argmax(bad)), n)
            x += lo
            c = int(matrix[x, y])
            raise AxiomViolation(
                2,
                (x, y, c, int(star[c]), int(matrix[y, x])),
                "transpose of class %d is split between classes %d and %d"
                % (c, int(star[c]), int(matrix[y, x])),
            )
    assert np.array_equal(star[star], np.arange(r)), "star not an involution"


def _key_arrays(matrix, r):
    """left[x, z] = class(x,z)*r and right[y, z] = class(z,y), contiguous,
    in the narrowest dtype that holds every composition key below r*r:
    int32 when r*r < 2**31, else int64. The composition keys of a pair
    (x, y) are then left[x] + right[y]."""
    dtype = np.int32 if r * r < 1 << 31 else np.int64
    M = matrix.astype(dtype, copy=False)
    return M * dtype(r), np.ascontiguousarray(M.T)


def _sorted_keys(left, right):
    """Sorted composition keys, one row per pair: the broadcast sum of rows
    of the left and right key arrays, as rows of length n, each sorted."""
    keys = (left + right).reshape(-1, left.shape[-1])
    keys.sort(axis=1)
    return keys


def _check_axiom3(matrix, r, x0, y0, sizes, rows=None):
    """Raise the failure _axiom3_witness returns. It is raised here, once the
    sweep has freed its key blocks, so that a kept traceback does not pin them."""
    wit = _axiom3_witness(matrix, r, x0, y0, sizes, rows)
    if wit is not None:
        msg = "pairs (%d,%d) and (%d,%d) of class %d disagree on the count for composition (%d,%d): %d vs %d"
        raise AxiomViolation(3, wit, msg % (wit[:4] + (int(matrix[wit[0], wit[1]]),) + wit[4:]))


def _axiom3_witness(matrix, r, x0, y0, sizes, rows=None):
    """Sweep pairs (x, y) for x in rows (default: all rows), ascending,
    comparing every pair's composition profile against the profile of the
    first pair of its class. The profile of (x,y) is the multiset over z of
    (class(x,z), class(z,y)), encoded as one key per z and compared in
    sorted order. A first pair is row-major least in its class, so its row
    is least in its orbit: the sweep meets it first and keeps its keys as
    the class's profile. A class of sizes[c] = 1 pair is only compared with
    itself, so it gets none. Blocks holding no pair of a larger class are
    skipped, and once their profiles are kept, so are blocks whose such
    pairs are all first pairs. Each block sorts about KEY_BLOCK keys: whole
    rows for small n, else runs of y within one row. Returns the witness
    (x, y, x0, y0, i, j, count at (x,y), count at (x0,y0)) or None."""
    n = matrix.shape[0]
    multi = sizes > 1
    if not multi.any():
        return None
    # ref rows of the classes of two or more pairs (-1: one pair), or None
    # when every class has two or more and ids index ref directly
    slot = None if multi.all() else np.where(multi, np.cumsum(multi) - 1, -1)
    first = x0 * n + y0  # flat index of each class's first pair
    last = int(first[multi].max())  # no block past it holds a first pair
    left, right = _key_arrays(matrix, r)
    ref = np.empty((np.count_nonzero(multi), n), dtype=left.dtype)
    step = max(1, KEY_BLOCK // n)
    xs = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    # blocks of 1, 2, 4, ... rows, so a failure in an early row is found
    # after at most twice the rows it needs
    lo, per = 0, 1
    while lo < len(xs):
        xb = xs[lo : lo + per]
        lo, per = lo + len(xb), min(2 * per, max(1, step // n))
        for ys in range(0, n, step):
            ye = min(n, ys + step)
            classes = matrix[xb, ys:ye].ravel()
            at, live = classes, None
            if slot is not None:
                at = slot[classes]
                live = at >= 0
                if not live.any():
                    continue
            keys = _sorted_keys(left[xb, None], right[None, ys:ye])
            if xb[0] * n + ys <= last:
                # a pair of a one-pair class is its first pair too
                own = first[classes] == (xb[:, None] * n + np.arange(ys, ye)).ravel()
                keep = own if live is None else own & live
                ref[at[keep]] = keys[keep]
                if own.all():
                    continue
            bad = (keys != ref[at]).any(axis=1)
            if live is not None:
                bad &= live
            if not bad.any():
                continue
            e = int(np.argmax(bad))
            x, y = divmod(e, ye - ys)
            x, y = int(xb[x]), ys + y
            c = int(matrix[x, y])
            # the sorted rows agree before their first difference, so the
            # smaller key there is the least key whose counts differ
            here, there = keys[e], ref[at[e]]
            d = np.argmax(here != there)
            key = min(here[d], there[d])
            counts = [int(np.searchsorted(a, key, "right") - np.searchsorted(a, key)) for a in (here, there)]
            return (x, y, int(x0[c]), int(y0[c])) + divmod(int(key), r) + tuple(counts)
    return None


def _is_permutation(g, n):
    """Whether the array g lists every point of range(n) once: n entries,
    none negative, that mark n distinct points (an entry past n raises
    IndexError)."""
    if g.shape != (n,) or g.dtype.kind not in "iu":
        return False
    hit = np.zeros(n, dtype=bool)
    try:
        hit[g] = True
    except IndexError:
        return False
    return np.count_nonzero(hit) == n and g.min() >= 0


def _verified_automorphisms(matrix, automorphisms):
    """The permutations as rows of a read-only int64 array, each checked to
    be a permutation g of range(n) with matrix[g][:, g] == matrix, in row
    blocks of about KEY_BLOCK cells."""
    n = matrix.shape[0]
    step = max(1, KEY_BLOCK // n)
    rows = []
    for idx, g in enumerate(automorphisms):
        g = np.asarray(g)
        if not _is_permutation(g, n):
            raise ValueError("automorphism %d is not a permutation of range(%d)" % (idx, n))
        g = g.astype(np.int64)
        for lo in range(0, n, step):
            if not (matrix.take(g[lo : lo + step], 0).take(g, 1) == matrix[lo : lo + step]).all():
                raise ValueError("automorphism %d does not preserve the class matrix" % idx)
        rows.append(g)
    out = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    out.flags.writeable = False
    return out


def orbit_minima(gens, lab):
    """The least point of every point's orbit under the group generated by
    the permutation rows gens. lab[x] is a point of x's orbit at most x
    (np.arange(n) at the start); labels are lowered along every generator
    in both directions and by pointer jumping until nothing changes."""
    moves = np.concatenate([np.arange(len(lab))[None], gens, np.argsort(gens, axis=1)])
    while True:
        new = lab[moves].min(axis=0)
        new = new[new]
        if (new == lab).all():
            return lab
        lab = new


class CoherentConfiguration:
    """Immutable after construction. Build through from_class_matrix (or the
    constructions module); direct __init__ expects normalized input.
    automorphisms holds the verified point permutations (read-only rows)."""

    def __init__(self, matrix, rank, verification, class_labels, reps, sizes, automorphisms):
        self.matrix = matrix
        self.n_points = matrix.shape[0]
        self.rank = rank
        self.verification = verification  # one of CHECKS
        self.class_labels = class_labels
        self.automorphisms = automorphisms
        # (x0[c], y0[c]): row-major first pair of class c. (x1[c], y1[c]): its
        # second where axiom 3 is unproven (check "trusted"; the first again
        # when the class has one pair), else the first pair, as nothing reads it
        self._x0, self._y0, self._x1, self._y1 = reps
        self._sizes = sizes  # pairs per class
        self._star = None
        self._tensor = None
        self._fibers = None
        self._commutative = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_class_matrix(cls, matrix, rank=None, class_labels=None, check="full", automorphisms=()):
        """Normalize class ids, verify the three axioms, return the verified
        configuration. check: "full" (default) proves axiom 3, "trusted"
        skips its sweep and the configuration reports itself unchecked; any
        other value is a ValueError. automorphisms: point permutations, each
        checked to be a permutation of range(n) that keeps every class (else
        ValueError); with check "full" and at least one of them, axiom 3 is
        swept over the least point of every orbit of the group they
        generate."""
        if check not in CHECKS:
            raise ValueError("check must be %s" % " or ".join(CHECKS))
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("class matrix must be square")
        n = matrix.shape[0]
        if n < 1:
            raise ValueError("need at least one point")
        if n > POINT_CAP:
            raise ValueError("point count %d exceeds cap %d" % (n, POINT_CAP))
        if not np.issubdtype(matrix.dtype, np.integer):
            if not np.array_equal(matrix, matrix.astype(np.int64)):
                raise ValueError("class ids must be integers")
        if matrix.min() < 0:
            raise ValueError("negative class id")
        top = int(matrix.max())
        r = top + 1 if rank is None else rank
        if top >= r:
            outside = np.unique(matrix[matrix >= r]).tolist()
            raise ValueError("class ids %s outside [0,%d)" % (outside, r))
        # each class holds a pair: refusing r > n*n keeps every id in int32
        if r > n * n:
            raise ValueError("%d classes exceed the %d pairs of %d points" % (r, n * n, n))
        # row-major int32 cells, so that every pass reads contiguous blocks
        matrix = matrix.astype(np.int32, order="C", copy=False)
        sizes, first, second = _scan_classes(matrix.reshape(-1), r, check == "trusted")
        if not sizes.all():
            raise ValueError("class ids not onto [0,%d): missing %s" % (r, np.flatnonzero(sizes == 0).tolist()))
        back = _normalization_order(matrix, first)  # new id -> old id
        perm = np.empty(r, dtype=np.int32)  # r <= n*n < 2**31 ids
        perm[back] = np.arange(r)
        matrix = perm[matrix]
        gens = _verified_automorphisms(matrix, automorphisms)
        if class_labels is not None:
            relabeled = [None] * r
            for old, lab in enumerate(class_labels):
                relabeled[perm[old]] = lab
            class_labels = relabeled
        # the pairs of new class perm[c] are those of old class c
        x0, y0 = np.divmod(first[back], n)
        reps = (x0, y0) + ((x0, y0) if second is None else np.divmod(second[back], n))
        sizes = sizes[back]
        _check_axiom1(matrix, sizes)
        _check_axiom2(matrix, r, x0, y0)
        if check == "full":
            rows = None
            if len(gens):
                rows = np.flatnonzero(orbit_minima(gens, np.arange(n)) == np.arange(n))
            _check_axiom3(matrix, r, x0, y0, sizes, rows=rows)
        return cls(matrix, r, check, class_labels, reps, sizes, gens)

    # -- basic structure ----------------------------------------------

    def rep_pair(self, i):
        """Row-major first pair of class i."""
        return int(self._x0[i]), int(self._y0[i])

    def star_vector(self):
        if self._star is None:
            self._star = self.matrix[self._y0, self._x0].astype(np.int64)
        return self._star

    def star(self, i):
        return int(self.star_vector()[i])

    def class_sizes(self):
        return self._sizes

    def adjacency_matrix(self, i):
        if not 0 <= i < self.rank:
            raise IndexError("class id %d out of range" % i)
        return (self.matrix == i).astype(np.int64)

    def fibers(self):
        if self._fibers is None:
            diag = np.diagonal(self.matrix)
            fiber_classes = sorted(int(c) for c in np.unique(diag))
            point_fiber = np.searchsorted(fiber_classes, diag)
            parts = [np.flatnonzero(diag == c) for c in fiber_classes]
            self._fibers = FiberSet(fiber_classes, point_fiber, parts)
        return self._fibers

    @property
    def n_fibers(self):
        return len(self.fibers().fiber_classes)

    # -- predicates -----------------------------------------------------

    def is_association_scheme(self):
        return self.n_fibers == 1

    def is_symmetric(self):
        return bool(np.array_equal(self.star_vector(), np.arange(self.rank)))

    def is_commutative(self):
        """p^k_{i,j} = p^k_{j,i} throughout: the nonzeros sorted by
        (j, i, k) read as (i, j, k, p) are the nonzeros themselves."""
        if self._commutative is None:
            i, j, k, p = self.intersection().arrays()
            swap = np.lexsort((k, i, j))
            self._commutative = all(
                np.array_equal(a[swap], b)
                for a, b in ((j, i), (i, j), (k, k), (p, p))
            )
        return self._commutative

    def intersection(self):
        if self._tensor is None:
            self._tensor = _build_tensor(self)
        return self._tensor

    def intersection_rows(self, I, J=None):
        """The nonzeros p^k_{i,j} with i in the class ids I (and j in J, if
        given) as an IntersectionTensor, read in blocks of about KEY_BLOCK
        cells. Both sides of |R_k| p^k_{i,j} = |R_i| p^i_{k,j*} count the
        same triangles, so row i is read at i's representative pair (x, y):
        the sorted keys class(y,w)*r + class(x,w) over all points w are runs
        (j, k) of length p^i_{k,j*}, and rows taken in ascending i come out
        sorted by (i, j, k). Where axiom 3 is unproven (check "trusted") the
        row at i's second pair must be the same, and every count must divide
        by |R_k|; else AxiomViolation. I and J are arrays of ids in [0, r)."""
        n, r, M, sizes = self.n_points, self.rank, self.matrix, self.class_sizes()
        I = np.unique(np.asarray(I, dtype=np.int64))
        if J is not None:
            inJ = np.zeros(r, dtype=bool)
            inJ[J] = True
        dtype = np.int32 if r * r < 1 << 31 else np.int64
        step = max(1, KEY_BLOCK // n)
        parts = [(np.zeros(0, np.int64),) * 4]
        for lo in range(0, len(I), step):
            i = I[lo : lo + step]
            rows = _sorted_keys(M[self._y0[i]].astype(dtype) * dtype(r), M[self._x0[i]])
            if self.verification == "trusted":
                bad = (rows != _sorted_keys(M[self._y1[i]].astype(dtype) * dtype(r), M[self._x1[i]])).any(axis=1)
                if bad.any():
                    c = int(i[np.argmax(bad)])
                    wit = tuple(int(v[c]) for v in (self._x0, self._y0, self._x1, self._y1)) + (c,)
                    raise AxiomViolation(3, wit, "intersection numbers differ between representatives of class %d" % c)
            new = np.ones(rows.shape, dtype=bool)
            np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
            run = np.flatnonzero(new)  # run starts, row-major; each row starts one
            i = np.repeat(i, np.count_nonzero(new, axis=1))
            tri = sizes[i] * np.diff(run, append=rows.size)  # |R_i| p^i_{k,j*}, the triangles of a run
            j, k = np.divmod(rows.ravel()[run], dtype(r), out=(np.empty_like(run), np.empty_like(run)))
            if J is not None:
                keep = inJ[j]
                i, j, k, tri = i[keep], j[keep], k[keep], tri[keep]
            sk = sizes[k]
            p = tri // sk
            if (p * sk != tri).any():
                e = np.argmax(p * sk != tri)
                msg = "|R_%d| p^%d_{%d,%d*} = %d is not a multiple of |R_%d| = %d" % (
                    i[e], i[e], k[e], j[e], tri[e], k[e], sk[e])
                raise AxiomViolation(3, (int(i[e]), int(j[e]), int(k[e])), msg)
            parts.append((i, j, k, p))
        i, j, k, p = parts[1] if len(parts) == 2 else (np.concatenate(a) for a in zip(*parts))
        return IntersectionTensor(r, self.star_vector(), (i, j, k, p))

    def triangles(self, A, B, C):
        """Index triples (x, y, z) with p^{C[z]*}_{A[x], B[y]} > 0 for arrays
        A, B, C of distinct class ids, C holding gamma classes, read in
        blocks of about KEY_BLOCK cells from the class matrix: one triple
        per point w with class(x0, w) = A[x] and class(w, y0) = B[y], where
        (x0, y0) is the representative pair of C[z]*. Ids outside [0, r)
        are in no triangle."""
        r, n = self.rank, self.n_points
        C = np.asarray(C, dtype=np.int64)
        posA, posB = _positions(A, r), _positions(B, r)
        zs = np.flatnonzero((C >= 0) & (C < r))
        K = self.star_vector()[C[zs]]
        step = max(1, KEY_BLOCK // n)
        out = [(np.zeros(0, np.int64),) * 3]
        for lo in range(0, len(zs), step):
            z, k = zs[lo : lo + step], K[lo : lo + step]
            x = posA[self.matrix[self._x0[k]]]
            y = posB[self.matrix[:, self._y0[k]]].T
            zi, w = np.nonzero((x >= 0) & (y >= 0))
            out.append((x[zi, w], y[zi, w], z[zi]))
        return tuple(np.concatenate(a) for a in zip(*out))

    def __repr__(self):
        return "<configuration points=%d rank=%d %s>" % (
            self.n_points,
            self.rank,
            self.verification,
        )


@dataclass
class FiberSet:
    """Diagonal classes and the point partition they induce."""

    fiber_classes: list
    point_fiber: np.ndarray
    parts: list

    def __len__(self):
        return len(self.fiber_classes)


class IntersectionTensor:
    """The nonzero intersection numbers p^k_{i,j} as four int64 arrays
    i, j, k, p sorted by (i, j, k), with a CSR index on the (i, j) pairs:
    the q-th pair present has key _pairs[q] = i*r + j and its nonzeros at
    _starts[q]:_starts[q+1], and a last key r*r, past every pair, has none.
    p, slice and iter_nonzero are views of them."""

    def __init__(self, rank, star, nonzeros):
        self.rank = rank
        self.star_vector = star
        for a in nonzeros:
            a.flags.writeable = False
        self._nz = nonzeros
        key = nonzeros[0] * rank + nonzeros[1]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][: len(key)])
        self._pairs = np.r_[key[first], rank * rank]
        self._starts = np.r_[first, len(key), len(key)]

    def star(self, i):
        return int(self.star_vector[i])

    def arrays(self):
        """The nonzero entries as four read-only int64 arrays i, j, k, p,
        sorted by (i, j, k)."""
        return self._nz

    def iter_nonzero(self):
        return zip(*(a.tolist() for a in self._nz))

    def pair_nonzeros(self, i, j):
        """The nonzeros of the pairs (i, j), elementwise over broadcast
        integer arrays, fetched with one search of the CSR keys: arrays
        pair, k, p, where pair is the flat index of the pair in the
        broadcast shape, ascending. A pair with a class id outside [0, r)
        has no nonzeros."""
        r = self.rank
        i, j = np.broadcast_arrays(np.asarray(i, np.int64), np.asarray(j, np.int64))
        key = np.where((i >= 0) & (i < r) & (j >= 0) & (j < r), i * r + j, -1).ravel()
        q = np.searchsorted(self._pairs, key)
        start = self._starts[q]
        size = np.where(self._pairs[q] == key, self._starts[q + 1] - start, 0)
        pair = np.repeat(np.arange(len(key)), size)
        idx = np.arange(len(pair)) + np.repeat(start - np.cumsum(size) + size, size)
        return pair, self._nz[2][idx], self._nz[3][idx]

    def p(self, i, j, k):
        return self.slice(i, j).get(k, 0)

    def slice(self, i, j):
        """{k: p^k_{i,j}} over the nonzero entries of one pair."""
        r = self.rank
        s = e = 0
        if 0 <= i < r and 0 <= j < r:
            q = int(self._pairs.searchsorted(i * r + j))
            if self._pairs[q] == i * r + j:
                s, e = self._starts[q], self._starts[q + 1]
        return dict(zip(self._nz[2][s:e].tolist(), self._nz[3][s:e].tolist()))


def _positions(ids, r):
    """pos[c] = the index of class c in the array ids, or -1."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = np.full(r, -1, dtype=np.int64)
    ok = (ids >= 0) & (ids < r)
    pos[ids[ok]] = np.flatnonzero(ok)
    return pos


def _build_tensor(config):
    """Every row of the row read, refused before anything is allocated when
    r^3 (n+1) reaches 2^63: at that size the tensor cannot fit in memory."""
    n, r = config.n_points, config.rank
    if r**3 * (n + 1) >= 1 << 63:
        raise ValueError("intersection tensor of rank %d on %d points exceeds 64-bit codes" % (r, n))
    return config.intersection_rows(np.arange(r))


# ---------------------------------------------------------------------------
# text files and the ccfg format


def text_file(path, mode="r"):
    """path opened in mode, for a with block: a filename is opened there and
    closed on exit, an open text handle is used as is and left open."""
    if hasattr(path, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path)
    return open(path, mode)


def text_lines(path):
    """The lines of a text file (filename or handle), each cut at its first
    "#" and stripped, blank ones dropped, as (number, text) pairs numbered
    from 1 as in the file: the line source of every format."""
    with text_file(path) as fh:
        return [(k, line) for k, line in enumerate((raw.split("#", 1)[0].strip() for raw in fh), 1) if line]


def decimal_labels(A):
    """str(v) for every entry v of the integer array A, as an object array
    of A's shape. str() runs once per label of a table that the entries
    index: the range of values from min(A, 0) to max(A) when it holds no
    more values than A has entries, as class ids and points do, else the
    distinct values of A, so the table never outgrows A."""
    A = np.asarray(A)
    lo, hi = int(A.min(initial=0)), int(A.max(initial=0))
    if hi - lo < A.size:
        values, index = range(lo, hi + 1), A - lo
    else:
        values, index = np.unique(A, return_inverse=True)
        values, index = values.tolist(), index.reshape(A.shape)
    return np.array(list(map(str, values)), dtype=object)[index]


def write_ccfg(config, path):
    """Write "ccfg 1" text: header, points/classes line, the normalized class
    matrix one row per line, then any automorphisms of config as an
    "automorphisms G" line and G permutation rows. path may be a filename or
    a text handle."""
    with text_file(path, "w") as fh:
        fh.write("ccfg 1\n")
        fh.write("points %d classes %d\n" % (config.n_points, config.rank))
        fh.writelines(" ".join(row) + "\n" for row in decimal_labels(config.matrix).tolist())
        gens = config.automorphisms
        if len(gens):
            fh.write("automorphisms %d\n" % len(gens))
            fh.writelines(" ".join(g) + "\n" for g in decimal_labels(gens).tolist())


def named_ints(source, tokens):
    """The tokens as ints; a ValueError names the source and the first bad
    token, as in "matrix line 1: 'x' is not an integer"."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        pass
    for t in tokens:
        try:
            int(t)
        except ValueError:
            raise ValueError("%s: %r is not an integer" % (source, t)) from None


DIGIT_LINE = re.compile(r"[0-9 ]*")


def _ccfg_rows(lines, width, name):
    """(number, text) lines of width integers each, as an int64 array. Lines
    of ASCII digits and spaces only, as write_ccfg writes them, are parsed
    by one np.loadtxt call, kept only if it returns one row of width
    entries per line. Any other text, a ragged block or an entry past int64
    (loadtxt raises ValueError for both) is read token by token with int(),
    which accepts what int() accepts and names the line of a bad token or
    row length and the entry that does not fit in 64 bits."""
    texts = [text for _, text in lines]
    if texts and all(map(DIGIT_LINE.fullmatch, texts)):
        try:
            rows = np.loadtxt(texts, dtype=np.int64, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape == (len(texts), width):
                return rows
    rows = []
    for number, text in lines:
        row = named_ints("ccfg line %d" % number, text.split())
        if len(row) != width:
            raise ValueError("ccfg line %d: expected %d entries, found %d" % (number, width, len(row)))
        rows.append(row)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        x, y, v = next(
            (x, y, v) for x, row in enumerate(rows) for y, v in enumerate(row) if not -(1 << 63) <= v < 1 << 63
        )
        raise ValueError("%s entry (%d,%d) = %d does not fit in 64 bits" % (name, x, y, v)) from None


def read_ccfg(path, check="full"):
    """Parse and re-verify a ccfg file (filename or text handle), handing the
    rows of its automorphisms block, if any, and check, one of CHECKS, to
    from_class_matrix: "trusted" skips the axiom 3 sweep for known-good
    files, and the result then reports itself unchecked."""
    lines = text_lines(path)
    if not lines or lines[0][1].split() != ["ccfg", "1"]:
        raise ValueError("not a ccfg 1 file")
    if len(lines) < 2:
        raise ValueError("ccfg file ends before its points/classes line")
    head = lines[1][1].split()
    if len(head) != 4 or head[0] != "points" or head[2] != "classes":
        raise ValueError("bad header line %r" % lines[1][1])
    n, r = named_ints("ccfg line %d" % lines[1][0], head[1::2])
    end = next((i for i, (_, t) in enumerate(lines) if t.startswith("automorphisms")), len(lines))
    if end != 2 + n:
        raise ValueError("expected %d matrix rows, found %d" % (n, end - 2))
    matrix = _ccfg_rows(lines[2:end], n, "ccfg")
    if end < len(lines):
        number, text = lines[end]
        head, count = text.split(), len(lines) - end - 1
        if head[0] != "automorphisms" or named_ints("ccfg line %d" % number, head[1:]) != [count]:
            raise ValueError(
                "ccfg line %d: expected 'automorphisms %d' for the rows that follow, found %r" % (number, count, text)
            )
    gens = _ccfg_rows(lines[end + 1 :], n, "automorphism")
    return CoherentConfiguration.from_class_matrix(matrix, rank=r, check=check, automorphisms=gens)
