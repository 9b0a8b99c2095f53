"""Coherent configurations: class-matrix representation, axiom verification,
intersection numbers, star involution, fibers, and the ccfg text format.

A configuration on n points is stored as an n x n matrix of class ids in
[0, r). Class ids are normalized: classes appearing on the diagonal come
first (ordered by their smallest point), the rest follow in row-major order
of first occurrence. Verification is a full sweep by default. Constructions
in other modules pass their output through from_class_matrix together with
point permutations they know to be automorphisms; each is checked exactly
against the class matrix, and the axiom-3 sweep then covers one row per
orbit of the group they generate. An automorphism maps every pair to a pair
of the same class and composition profile, so this is still a proof for
every pair, and the first failing row is an orbit minimum: witnesses are
those of the sweep over all rows. A ccfg file carries the automorphisms of
the configuration written to it, and reading it checks them the same way.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

POINT_CAP = 20000
KEY_BLOCK = 1 << 20  # composition keys sorted per block by the axiom-3 sweep and the tensor build


class AxiomViolation(Exception):
    """A defining axiom fails. axiom is 1, 2 or 3; witness is a tuple of
    points/classes pinpointing the failure."""

    def __init__(self, axiom, witness, message):
        self.axiom = axiom
        self.witness = witness
        self.message = message
        super().__init__("axiom (%d): %s; witness %s" % (axiom, message, witness))


def _normalization_perm(matrix, first):
    """Old id -> new id permutation: diagonal classes first by smallest
    point, then the rest by first row-major occurrence. first[c] is the
    row-major flat index of the first pair of class c, for every class."""
    diag_classes, diag_first = np.unique(np.diagonal(matrix), return_index=True)
    off = np.ones(len(first), dtype=bool)
    off[diag_classes] = False
    rest = np.flatnonzero(off)
    order = np.concatenate(
        [diag_classes[np.argsort(diag_first)], rest[np.argsort(first[rest])]]
    )
    perm = np.empty(len(first), dtype=np.int64)
    perm[order] = np.arange(len(first))
    return perm


def _check_axiom1(matrix, r):
    diag = np.diagonal(matrix)
    on_diag = np.bincount(diag, minlength=r)
    everywhere = np.bincount(matrix.ravel(), minlength=r)
    for c in np.unique(diag):
        c = int(c)
        if everywhere[c] != on_diag[c]:
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
    star = matrix[y0, x0].astype(np.int64)  # transpose class of each first pair
    transposed = star[matrix]
    if not np.array_equal(transposed, matrix.T):
        bad = np.argwhere(transposed != matrix.T)
        x, y = int(bad[0][0]), int(bad[0][1])
        c = int(matrix[x, y])
        raise AxiomViolation(
            2,
            (x, y, c, int(star[c]), int(matrix[y, x])),
            "transpose of class %d is split between classes %d and %d"
            % (c, int(star[c]), int(matrix[y, x])),
        )
    assert np.array_equal(star[star], np.arange(r)), "star not an involution"
    return star


def _profile_mismatch_witness(matrix, r, x, y, xr, yr):
    """Locate a composition pair (i,j) whose z-count differs between the
    pairs (x,y) and (xr,yr) of the same class."""
    m64 = matrix.astype(np.int64)
    keys_here = m64[x] * r + m64[:, y]
    keys_ref = m64[xr] * r + m64[:, yr]
    uh, ch = np.unique(keys_here, return_counts=True)
    here = dict(zip(uh.tolist(), ch.tolist()))
    ur, cr = np.unique(keys_ref, return_counts=True)
    ref = dict(zip(ur.tolist(), cr.tolist()))
    for key in sorted(set(here) | set(ref)):
        if here.get(key, 0) != ref.get(key, 0):
            i, j = divmod(key, r)
            return (
                int(x),
                int(y),
                int(xr),
                int(yr),
                int(i),
                int(j),
                here.get(key, 0),
                ref.get(key, 0),
            )
    raise AssertionError("no differing composition count found")


def _key_arrays(matrix, r):
    """left[x, z] = class(x,z)*r and right[y, z] = class(z,y), contiguous,
    in the narrowest dtype that holds every composition key below r*r:
    int32 when r*r < 2**31, else int64. The composition keys of a pair
    (x, y) are then left[x] + right[y]."""
    dtype = np.int32 if r * r < 1 << 31 else np.int64
    M = matrix.astype(dtype)
    return M * dtype(r), np.ascontiguousarray(M.T)


def _sorted_keys(left, right):
    """Sorted composition keys, one row per pair: the broadcast sum of rows
    of the left and right key arrays, as rows of length n, each sorted."""
    keys = (left + right).reshape(-1, left.shape[-1])
    keys.sort(axis=1)
    return keys


def _check_axiom3(matrix, r, x0, y0, rows=None):
    """Sweep pairs (x, y) for x in rows (default: all rows), ascending,
    comparing every pair's composition profile against the profile of the
    first pair of its class. The profile of (x,y) is the multiset over z of
    (class(x,z), class(z,y)), encoded as one key per z and compared in
    sorted order; the r x n reference profiles are sorted the same way.
    Each block sorts about KEY_BLOCK keys: whole rows for small n, else
    runs of y within one row."""
    n = matrix.shape[0]
    left, right = _key_arrays(matrix, r)
    step = max(1, KEY_BLOCK // n)
    ref = np.concatenate(
        [
            _sorted_keys(left[x0[lo : lo + step]], right[y0[lo : lo + step]])
            for lo in range(0, r, step)
        ]
    )
    xs = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    # blocks of 1, 2, 4, ... rows, so a failure in an early row is found
    # after at most twice the rows it needs
    lo, per = 0, 1
    while lo < len(xs):
        xb = xs[lo : lo + per]
        lo, per = lo + len(xb), min(2 * per, max(1, step // n))
        for ys in range(0, n, step):
            ye = min(n, ys + step)
            keys = _sorted_keys(left[xb, None], right[None, ys:ye])
            classes = matrix[xb, ys:ye].ravel()
            bad = (keys != ref[classes]).any(axis=1)
            if not bad.any():
                continue
            x, y = divmod(int(np.argmax(bad)), ye - ys)
            x, y = int(xb[x]), ys + y
            c = int(matrix[x, y])
            wit = _profile_mismatch_witness(matrix, r, x, y, int(x0[c]), int(y0[c]))
            raise AxiomViolation(
                3,
                wit,
                "pairs (%d,%d) and (%d,%d) of class %d disagree on the "
                "count for composition (%d,%d): %d vs %d"
                % ((wit[0], wit[1], wit[2], wit[3], c) + wit[4:]),
            )


def _verified_automorphisms(matrix, automorphisms):
    """The permutations as rows of a read-only int64 array, each checked to
    be a permutation g of range(n) with matrix[g][:, g] == matrix."""
    n = matrix.shape[0]
    points = np.arange(n)
    rows = []
    for idx, g in enumerate(automorphisms):
        g = np.asarray(g)
        if (
            g.shape != (n,)
            or g.dtype.kind not in "iu"
            or not (np.sort(g) == points).all()
        ):
            raise ValueError("automorphism %d is not a permutation of range(%d)" % (idx, n))
        if not (matrix[g[:, None], g] == matrix).all():
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

    def __init__(self, matrix, rank, verification, class_labels, x0, y0, automorphisms):
        self.matrix = matrix
        self.n_points = matrix.shape[0]
        self.rank = rank
        self.verification = verification  # "full", "sampled", or "trusted"
        self.class_labels = class_labels
        self.automorphisms = automorphisms
        self._x0, self._y0 = x0, y0  # (x0[c], y0[c]): row-major first pair of class c
        self._star = None
        self._sizes = None
        self._tensor = None
        self._fibers = None
        self._commutative = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_class_matrix(cls, matrix, rank=None, class_labels=None, check="full", automorphisms=()):
        """Normalize class ids, verify the three axioms, return the verified
        configuration. check: "full" (default), "sampled" (spot-check axiom 3,
        configuration reports itself unchecked), or "trusted" (skip axiom 3).
        automorphisms: point permutations, each checked to be a permutation
        of range(n) that keeps every class (else ValueError); with check
        "full" and at least one of them, axiom 3 is swept over the least
        point of every orbit of the group they generate."""
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
        matrix = matrix.astype(np.int32)
        present, first = np.unique(matrix, return_index=True)
        if len(present) != r:
            missing = sorted(set(range(r)) - set(present.tolist()))
            raise ValueError("class ids not onto [0,%d): missing %s" % (r, missing))
        perm = _normalization_perm(matrix, first)
        matrix = perm[matrix].astype(np.int32)
        gens = _verified_automorphisms(matrix, automorphisms)
        if class_labels is not None:
            relabeled = [None] * r
            for old, lab in enumerate(class_labels):
                relabeled[perm[old]] = lab
            class_labels = relabeled
        # the first pair of new class perm[c] is that of old class c
        x0, y0 = np.divmod(first[np.argsort(perm)], n)
        _check_axiom1(matrix, r)
        _check_axiom2(matrix, r, x0, y0)
        if check == "full":
            rows = None
            if len(gens):
                rows = np.flatnonzero(orbit_minima(gens, np.arange(n)) == np.arange(n))
            _check_axiom3(matrix, r, x0, y0, rows=rows)
            verification = "full"
        elif check == "sampled":
            sample = sorted(set(x0.tolist()) | set(range(0, n, max(1, n // 8))))
            _check_axiom3(matrix, r, x0, y0, rows=sample)
            verification = "sampled"
        elif check == "trusted":
            verification = "trusted"
        else:
            raise ValueError("check must be full, sampled or trusted")
        return cls(matrix, r, verification, class_labels, x0, y0, gens)

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
        if self._sizes is None:
            self._sizes = np.bincount(self.matrix.ravel(), minlength=self.rank)
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

    def label_index(self):
        """Map class label -> class id (labels must be present and hashable)."""
        if self.class_labels is None:
            raise ValueError("configuration has no class labels")
        return {lab: i for i, lab in enumerate(self.class_labels)}

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
    _starts[q]:_starts[q+1]. p, slice and iter_nonzero are views of them.
    The builder hands over the pair key i*r + j of every nonzero with them."""

    def __init__(self, rank, star, nonzeros, key):
        self.rank = rank
        self.star_vector = star
        for a in nonzeros:
            a.flags.writeable = False
        self._nz = nonzeros
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self._pairs = key[first]
        self._starts = np.r_[first, len(key)]

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
        q = np.minimum(np.searchsorted(self._pairs, key), len(self._pairs) - 1)
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
            if q < len(self._pairs) and self._pairs[q] == i * r + j:
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
    """Intersection numbers from one representative pair (x, y) per class k:
    row k holds the keys class(x,z)*r + class(z,y) over all z, sorted, and
    each run of equal keys i*r + j is one nonzero p^k_{i,j}. The sorted row
    of a second representative, where the class has one, must be equal.
    Rows are built in chunks of classes to bound memory; each nonzero is
    packed as the int64 code ((i*r + j)*r + k)*(n+1) + p, and one sort of
    the codes orders them by (i, j, k). A configuration whose codes would
    reach 2**63 is refused before anything is allocated."""
    n = config.n_points
    r = config.rank
    if r**3 * (n + 1) >= 1 << 63:
        raise ValueError("intersection tensor of rank %d on %d points exceeds 64-bit codes" % (r, n))
    x0, y0 = config._x0, config._y0
    left, right = _key_arrays(config.matrix, r)
    flat = config.matrix.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=r), out=starts[1:])
    # the second row-major pair of each class, or its first if it has one
    x1, y1 = np.divmod(order[np.minimum(starts[:-1] + 1, starts[1:] - 1)], n)
    chunk = max(1, KEY_BLOCK // n)
    codes = []
    for lo in range(0, r, chunk):
        ks = np.arange(lo, min(r, lo + chunk))
        rows = _sorted_keys(left[x0[ks]], right[y0[ks]])
        bad = (rows != _sorted_keys(left[x1[ks]], right[y1[ks]])).any(axis=1)
        if bad.any():
            k = int(ks[np.argmax(bad)])
            raise AxiomViolation(
                3,
                (int(x0[k]), int(y0[k]), int(x1[k]), int(y1[k]), k),
                "intersection numbers differ between representatives of "
                "class %d" % k,
            )
        new = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
        run = np.flatnonzero(new)  # run starts, row-major; each row starts one
        code = rows.ravel()[run].astype(np.int64)
        code *= r * (n + 1)
        code += np.repeat(ks * (n + 1), np.count_nonzero(new, axis=1))
        code += np.diff(run, append=rows.size)  # p, the run length
        codes.append(code)
    code, p = np.divmod(np.sort(np.concatenate(codes)), n + 1)
    key, k = np.divmod(code, r)
    i, j = np.divmod(key, r)
    return IntersectionTensor(r, config.star_vector(), (i, j, k, p), key)


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


def write_ccfg(config, path):
    """Write "ccfg 1" text: header, points/classes line, the normalized class
    matrix one row per line, then any automorphisms of config as an
    "automorphisms G" line and G permutation rows. path may be a filename or
    a text handle."""
    with text_file(path, "w") as fh:
        fh.write("ccfg 1\n")
        fh.write("points %d classes %d\n" % (config.n_points, config.rank))
        fh.writelines(" ".join(map(str, row)) + "\n" for row in config.matrix.tolist())
        gens = config.automorphisms
        if len(gens):
            fh.write("automorphisms %d\n" % len(gens))
            fh.writelines(" ".join(map(str, g)) + "\n" for g in gens.tolist())


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


def _ccfg_rows(lines, width, name):
    """(number, text) lines of width integers each, as an int64 array."""
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
    rows of its automorphisms block, if any, to from_class_matrix. check=
    "trusted" skips the axiom 3 sweep for known-good files; the result then
    reports itself unchecked."""
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
