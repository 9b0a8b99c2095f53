"""Exact sparse trilinear forms and the executable bilinear algorithms.

Everything here is exact except jminusi_demo, where complex roots of unity
force numerics (ranks via singular values at a stated tolerance). The
embedded product runs on integer numerators (int64 under an overflow bound,
Python ints above it) with a remainder certificate at every weight
division; Fraction appears only at its input and output."""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .realization import check_class_ids, verify_realization
from .sets import TriangleFreeSet, simplex_slice, triangle_free_set

UNWEIGHT_CAP = 3  # the substitution sweep touches n^9 monomials
EXPONENT_CAP = 4300  # a matrix entry like 1e9999999999 would build a huge integer


class SparseTensor:
    """A trilinear form over three finite labeled variable domains.
    Coefficients are nonzero rationals; zero terms are never stored."""

    def __init__(self, x_domain, y_domain, z_domain, coeffs):
        self.x_domain = tuple(x_domain)
        self.y_domain = tuple(y_domain)
        self.z_domain = tuple(z_domain)
        xs, ys, zs = set(self.x_domain), set(self.y_domain), set(self.z_domain)
        if len(xs) < len(self.x_domain) or len(ys) < len(self.y_domain) or len(
            zs
        ) < len(self.z_domain):
            raise ValueError("duplicate variable labels in a domain")
        clean = {}
        for key, val in coeffs.items():
            xi, yi, zi = key
            if xi not in xs or yi not in ys or zi not in zs:
                raise ValueError("coefficient key %r outside domains" % (key,))
            val = Fraction(val)
            if val:
                clean[(xi, yi, zi)] = val
        self.coeffs = clean

    def support(self):
        return frozenset(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.x_domain == other.x_domain
            and self.y_domain == other.y_domain
            and self.z_domain == other.z_domain
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "<tensor %dx%dx%d, %d terms>" % (
            len(self.x_domain),
            len(self.y_domain),
            len(self.z_domain),
            len(self.coeffs),
        )


def matmul_tensor(l, m, n):
    """The matrix multiplication form <l,m,n>: sum over x_(a,b) y_(b,c)
    z_(c,a), all coefficients 1."""
    if l < 1 or m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    xd = [(a, b) for a in range(l) for b in range(m)]
    yd = [(b, c) for b in range(m) for c in range(n)]
    zd = [(c, a) for c in range(n) for a in range(l)]
    coeffs = {
        ((a, b), (b, c), (c, a)): Fraction(1)
        for a in range(l)
        for b in range(m)
        for c in range(n)
    }
    return SparseTensor(xd, yd, zd, coeffs)


def structural_tensor(config):
    """Multiplication form of the adjacency algebra in the starred
    convention: coefficient of (i, j, k) is p^{k*}_{i,j}. Its support is
    exactly the triangle relation of the configuration."""
    t = config.intersection()
    dom = range(config.rank)
    coeffs = {}
    for i, j, k, p in t.iter_nonzero():
        coeffs[(i, j, t.star(k))] = Fraction(p)
    return SparseTensor(dom, dom, dom, coeffs)


def tensor_product(t1, t2):
    """Kronecker product; variable labels become pairs."""
    xd = [(u, v) for u in t1.x_domain for v in t2.x_domain]
    yd = [(u, v) for u in t1.y_domain for v in t2.y_domain]
    zd = [(u, v) for u in t1.z_domain for v in t2.z_domain]
    coeffs = {}
    for (x1, y1, z1), c1 in t1.coeffs.items():
        for (x2, y2, z2), c2 in t2.coeffs.items():
            coeffs[((x1, x2), (y1, y2), (z1, z2))] = c1 * c2
    return SparseTensor(xd, yd, zd, coeffs)


def direct_sum(t1, t2):
    """Disjoint union of variables; labels are tagged to remove overlap."""
    xd = [(0, u) for u in t1.x_domain] + [(1, u) for u in t2.x_domain]
    yd = [(0, u) for u in t1.y_domain] + [(1, u) for u in t2.y_domain]
    zd = [(0, u) for u in t1.z_domain] + [(1, u) for u in t2.z_domain]
    coeffs = {}
    for tag, t in ((0, t1), (1, t2)):
        for (x, y, z), c in t.coeffs.items():
            coeffs[((tag, x), (tag, y), (tag, z))] = c
    return SparseTensor(xd, yd, zd, coeffs)


def support_equal(t1, t2):
    return t1.support() == t2.support()


# -- weighted matrix multiplication from a realization ----------------------


class WeightedMatMul:
    """A verified realization packaged with its weight table
    lambda_{a,b,c} = p^{gamma(c,a)*}_{alpha(a,b), beta(b,c)}; the triangle
    condition makes every weight a positive integer.

    The structure constants of every (alpha(a,b), beta(b,c)) pair are kept
    as int64 arrays ab (= a*m + b), bc (= b*n + c) and p, sorted by the key
    (b, k) and cut into runs beginning at starts. run[a, b, c] is the run
    of (b, gamma(c,a)*), where the product reads out entry (a, c);
    run_mass is the largest sum of p over one run."""

    def __init__(self, config, real, check=True):
        if check:
            verify_realization(config, real)
        check_class_ids([real], config.rank)
        self.config = config
        self.real = real
        self.dims = real.dims
        l, m, n = real.dims
        t = config.intersection()
        pair, k, p = t.pair_nonzeros(real.alpha[:, :, None], real.beta[None, :, :])
        a, b, c = np.unravel_index(pair, (l, m, n))
        readout = t.star_vector[real.gamma].T  # readout[a, c] = star(gamma(c, a))
        hit = k == readout[a, c]
        w = np.zeros((l, m, n), dtype=np.int64)
        w[a[hit], b[hit], c[hit]] = p[hit]
        if (w <= 0).any():
            raise AssertionError(
                "nonpositive weight despite verified realization"
            )
        self.weights = w
        key = b * config.rank + k
        order = np.argsort(key, kind="stable")
        key = key[order]
        self.ab = (a * m + b)[order]
        self.bc = (b * n + c)[order]
        self.p = p[order]
        self.starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        self.run = np.searchsorted(
            key[self.starts], np.arange(m)[:, None] * config.rank + readout[:, None, :]
        )
        self.run_mass = int(np.add.reduceat(self.p, self.starts).max())


def _ratio(v):
    """(numerator, denominator) of the rational number Fraction(v)."""
    try:
        return v.as_integer_ratio()
    except AttributeError:
        return Fraction(v).as_integer_ratio()


def _numerators(M, rows, cols, name):
    """M scaled by the lcm d of its entries' denominators: (integer rows, d)."""
    M = [[_ratio(v) for v in row] for row in M]
    if len(M) != rows or any(len(row) != cols for row in M):
        raise ValueError("%s must be %dx%d" % (name, rows, cols))
    d = math.lcm(*(q for row in M for _, q in row))
    return [[p * (d // q) for p, q in row] for row in M], d


def _integer_product(W, A, B):
    """sum_b of the (b, gamma(c,a)*) coefficient of the algebra product
    divided by lambda_{a,b,c}, for integer rows A (l x m) and B (m x n): an
    l x n integer array equal to A @ B. Every nonzero of every pair is
    accumulated into its (b, k) run; a readout that is not a multiple of
    its weight raises AssertionError. int64 while the bound on the run sums
    and on the sum over b stays below 2^62, Python ints above it."""
    m = W.dims[1]
    # each factor at least 1, so an entry beyond int64 takes the Python-int
    # path even when the other matrix is zero
    top = (max(abs(v) for row in A for v in row) or 1) * (
        max(abs(v) for row in B for v in row) or 1
    )
    wide = top * W.run_mass * m >= 1 << 62
    dtype = object if wide else np.int64
    A = np.array(A, dtype=dtype).ravel()
    B = np.array(B, dtype=dtype).ravel()
    p, w = (W.p.astype(object), W.weights.astype(object)) if wide else (W.p, W.weights)
    acc = np.add.reduceat(A[W.ab] * B[W.bc] * p, W.starts)[W.run]
    rem = acc % w
    if rem.any():
        a, b, c = (int(v) for v in np.argwhere(rem != 0)[0])
        raise AssertionError(
            "readout %d at (a,b,c) = (%d,%d,%d) is not a multiple of its weight %d"
            % (acc[a, b, c], a, b, c, w[a, b, c])
        )
    return (acc // w).sum(axis=1)


def embedded_matmul(W, A, B):
    """Exact product A @ B computed inside the adjacency algebra. A and B
    are scaled to integer numerators by the lcm of their own denominators;
    the b-th column of A and row of B are embedded on the alpha/beta
    classes, multiplied via structure constants, the gamma(c,a)*
    coefficient is read out and divided by the known weight. Splitting over
    b keeps the division exact even when weights vary with b, and a
    nonzero remainder is a certificate failure (AssertionError). Fraction
    appears only at the output."""
    l, m, n = W.dims
    A, dA = _numerators(A, l, m, "A")
    B, dB = _numerators(B, m, n, "B")
    d = dA * dB
    return [[Fraction(v, d) for v in row] for row in _integer_product(W, A, B).tolist()]


def boolean_matmul(W, A, B, seed=None, repetitions=20, deterministic=True):
    """Boolean matrix product through the weighted algorithm. Deterministic
    mode lifts 0/1 entries as-is: positive weights make the result exact.
    Randomized mode lifts nonzero entries to seeded values in {1, 2} and
    ORs the nonzero patterns over repetitions; a zero Boolean entry can
    never come out nonzero (one-sided error)."""
    l, m, n = W.dims
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != (l, m) or B.shape != (m, n):
        raise ValueError("matrix shapes do not match the realization dims")
    if not (np.isin(A, (0, 1)).all() and np.isin(B, (0, 1)).all()):
        raise ValueError("entries must be 0 or 1")
    A = (A != 0).astype(np.int64).tolist()
    B = (B != 0).astype(np.int64).tolist()
    if deterministic:
        return (_integer_product(W, A, B) != 0).astype(np.int64)
    if seed is None:
        raise ValueError("randomized mode requires a seed")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rnd = random.Random(seed)
    out = np.zeros((l, n), dtype=np.int64)
    for _ in range(repetitions):
        LA = [[rnd.randint(1, 2) if v else 0 for v in row] for row in A]
        LB = [[rnd.randint(1, 2) if v else 0 for v in row] for row in B]
        out[_integer_product(W, LA, LB) != 0] = 1
    return out


# -- support-rank gap demo ---------------------------------------------------


@dataclass
class JMinusIReport:
    n: int
    rank_plain: int
    rank_weighted: int
    support_match: bool

    @property
    def ok(self):
        return self.support_match and self.rank_weighted == 2


def jminusi_demo(n, tolerance=1e-8):
    """The all-ones-minus-identity support gap: J - I on n points has rank
    n, while M - J with M_{i,j} = zeta^{i-j} (zeta a primitive n-th root
    of unity) has the same support and rank 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    idx = np.arange(n)
    zeta = np.exp(2j * np.pi / n)
    M = zeta ** ((idx[:, None] - idx[None, :]) % n)
    J = np.ones((n, n))
    I = np.eye(n)

    def numrank(mat):
        sv = np.linalg.svd(mat, compute_uv=False)
        return int((sv > tolerance * max(float(sv[0]), 1.0)).sum())

    support_match = bool(
        np.array_equal(np.abs(M - J) > tolerance, np.abs(J - I) > tolerance)
    )
    return JMinusIReport(
        n=n,
        rank_plain=numrank(J - I),
        rank_weighted=numrank(M - J),
        support_match=support_match,
    )


# -- the unweighting substitution check --------------------------------------


@dataclass
class UnweightingReport:
    ok: bool
    n: int
    set_size: int
    monomials: int
    witness: tuple = None


def unweighting_check(n, S=None, seed=0):
    """Constructive core of the weighted-to-unweighted exponent transfer:
    give the n x n matrix multiplication form seeded random nonzero
    rational weights, cube it, and apply the triangle-free-set variable
    substitution. Passes iff the substituted cube is exactly the sum of
    |S| unit-coefficient n^2 x n^2 matrix multiplication forms.

    S may be a TriangleFreeSet or any iterable of 1-based triples from the
    simplex slice; sets that are not triangle-free fail with a witness."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > UNWEIGHT_CAP:
        raise ValueError("n > %d is too large for the full sweep" % UNWEIGHT_CAP)
    if S is None:
        S = triangle_free_set(n)
    triples = set()
    for t in S:
        t = tuple(int(v) for v in t)
        if len(t) != 3 or not all(1 <= v <= n for v in t) or sum(t) != n + 2:
            raise ValueError("%r is not in the simplex slice" % (t,))
        triples.add(t)
    if not triples:
        raise ValueError("empty set")

    rnd = random.Random(seed)
    rng = range(1, n + 1)
    lam = {
        key: Fraction(rnd.randint(1, 97))
        for key in itertools.product(rng, rng, rng)
    }

    expected = {}
    for s in sorted(triples):
        for i in itertools.product(rng, rng):
            for j in itertools.product(rng, rng):
                for k in itertools.product(rng, rng):
                    expected[((s, i, j), (s, j, k), (s, k, i))] = Fraction(1)

    got = {}
    for a, b, c in itertools.product(
        itertools.product(rng, rng, rng),
        itertools.product(rng, rng, rng),
        itertools.product(rng, rng, rng),
    ):
        # x_{a,b} is kept iff a = (i1, i2, s3), b = (s1, j1, j2) for s in S
        s = (b[0], n + 2 - b[0] - a[2], a[2])
        if s not in triples:
            continue
        # y_{b,c} is kept iff b = (t1, j1, j2), c = (k1, t2, k2) for t in S
        t = (b[0], c[1], n + 2 - b[0] - c[1])
        if t not in triples:
            continue
        # z_{c,a} is kept iff c = (k1, u2, k2), a = (i1, i2, u3) for u in S
        u = (n + 2 - c[1] - a[2], c[1], a[2])
        if u not in triples:
            continue
        coeff = (
            lam[(a[0], b[0], c[0])]
            * lam[(a[1], b[1], c[1])]
            * lam[(a[2], b[2], c[2])]
        )
        # scalings attached to the substituted variables
        coeff /= lam[(a[1], b[1], s[1])]  # x side
        coeff /= lam[(t[2], b[2], c[2])]  # y side
        coeff /= lam[(a[0], u[0], c[0])]  # z side
        i = (a[0], a[1])
        j = (b[1], b[2])
        k = (c[0], c[2])
        key = ((s, i, j), (t, j, k), (u, k, i))
        got[key] = got.get(key, Fraction(0)) + coeff

    got = {k: v for k, v in got.items() if v}
    size = len(triples)
    if got == expected:
        return UnweightingReport(True, n, size, len(got))
    for key, val in got.items():
        if expected.get(key) != val:
            return UnweightingReport(False, n, size, len(got), (key, val))
    missing = next(iter(set(expected) - set(got)))
    return UnweightingReport(
        False, n, size, len(got), (missing, Fraction(0))
    )


# -- matrix files -------------------------------------------------------------


def write_matrix(M, path):
    """First line `rows cols`, then rows of entries, integers or p/q. Every
    line is formatted before the file is opened, so an entry that cannot be
    printed leaves no partial file."""
    rows = [[Fraction(v) for v in row] for row in M]
    lines = ["%d %d\n" % (len(rows), len(rows[0]) if rows else 0)]
    lines += [" ".join(str(v) for v in row) + "\n" for row in rows]
    if hasattr(path, "write"):
        path.writelines(lines)
    else:
        with open(path, "w") as fh:
            fh.writelines(lines)


def read_matrix(path):
    def collect(fh):
        return fh.read()

    if hasattr(path, "read"):
        text = collect(path)
    else:
        with open(path) as fh:
            text = collect(fh)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be `rows cols`")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) != rows + 1:
        raise ValueError("expected %d data rows, got %d" % (rows, len(lines) - 1))
    out = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError("row has %d entries, expected %d" % (len(parts), cols))
        out.append([_entry(p) for p in parts])
    return out


def _entry(text):
    exp = re.search(r"[eE]([-+]?\d[\d_]*)\s*$", text)
    if exp and abs(int(exp.group(1))) > EXPONENT_CAP:
        raise ValueError("matrix entry %r has an exponent beyond %d" % (text, EXPONENT_CAP))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("matrix entry %r has a zero denominator" % text) from None
