"""The executable bilinear algorithms: the embedded product of a verified
realization, its Boolean form, the unweighting substitution check, the
J - I demo and the matrix file format.

Everything here is exact except jminusi_demo, where complex roots of unity
force numerics (ranks via singular values at a stated tolerance). The
embedded product runs on integer numerators (int64 under an overflow bound,
Python ints above it) with a remainder certificate at every weight
division; Fraction appears only at its input and output."""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configuration import named_ints, text_file, text_lines
from .realization import check_class_ids, is_verified, verify_realization
from .sets import triangle_free_set
from .spectrum import SPECTRAL_CAP

UNWEIGHT_CAP = 3  # the substitution sweep touches n^9 monomials
EXPONENT_CAP = 4300  # a matrix entry like 1e9999999999 would build a huge integer


# -- weighted matrix multiplication from a realization ----------------------


class WeightedMatMul:
    """A verified realization packaged with its weight table
    lambda_{a,b,c} = p^{gamma(c,a)*}_{alpha(a,b), beta(b,c)}; the triangle
    condition makes every weight a positive integer.

    The structure constants of every (alpha(a,b), beta(b,c)) pair are kept
    as int64 arrays ab (= a*m + b), bc (= b*n + c) and p, sorted by the key
    (b, k) and cut into runs beginning at starts. run[a, b, c] is the run
    of (b, gamma(c,a)*), where the product reads out entry (a, c);
    run_mass is the largest sum of p over one run. check=True sweeps the
    realization unless its record shows it passed against this
    configuration's intersection data with the maps it has now."""

    def __init__(self, config, real, check=True):
        if check and not is_verified(config, real):
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
    of unity) has the same support and rank 2. The tolerance must be a
    finite number in (0, 1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > SPECTRAL_CAP:
        raise ValueError("n %d exceeds cap %d" % (n, SPECTRAL_CAP))
    if not (math.isfinite(tolerance) and 0 < tolerance < 1):
        raise ValueError("tolerance must be a finite number in (0, 1), got %r" % tolerance)
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
    integer weights, cube it, and apply the triangle-free-set variable
    substitution. Passes iff the substituted cube is exactly the sum of
    |S| unit-coefficient n^2 x n^2 matrix multiplication forms.

    A monomial's substituted key holds all nine of its coordinates, so no
    two monomials share a coefficient: one integer sweep over the n**9
    monomials checks that each kept one lands on a unit term (s = t = u)
    with numerator equal to denominator, and that |S| n**6 are kept.

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
    size = len(triples)

    # 1-based tables, index 0 standing for a coordinate outside the slice:
    # the weights in draw order (products stay below 97**3) and S
    rnd = random.Random(seed)
    lam = np.zeros((n + 1,) * 3, dtype=np.int64)
    lam[1:, 1:, 1:] = np.array([rnd.randint(1, 97) for _ in range(n**3)]).reshape(n, n, n)
    member = np.zeros((n + 1,) * 3, dtype=bool)
    member[tuple(zip(*triples))] = True

    # the monomials x_{a,b} y_{b,c} z_{c,a} of the cube
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = np.indices((n,) * 9).reshape(9, -1) + 1
    # x_{a,b} is kept iff a = (i1, i2, s3), b = (s1, j1, j2) for s in S
    s2 = np.maximum(n + 2 - b1 - a3, 0)
    # y_{b,c} is kept iff b = (t1, j1, j2), c = (k1, t2, k2) for t in S
    t3 = np.maximum(n + 2 - b1 - c2, 0)
    # z_{c,a} is kept iff c = (k1, u2, k2), a = (i1, i2, u3) for u in S
    u1 = np.maximum(n + 2 - c2 - a3, 0)
    kept = member[b1, s2, a3] & member[b1, c2, t3] & member[u1, c2, a3]
    # s1 = t1, t2 = u2 and u3 = s3 hold by construction, so s = t = u iff
    # b1 + c2 + a3 = n + 2, that is s2 = c2: the key is a unit term
    unit = s2 == c2
    num = lam[a1, b1, c1] * lam[a2, b2, c2] * lam[a3, b3, c3]
    # scalings attached to the substituted x, y and z variables
    den = lam[a2, b2, s2] * lam[t3, b3, c3] * lam[a1, u1, c1]
    count = int(kept.sum())

    def witness(m, coeff):
        """The key ((s,i,j),(t,j,k),(u,k,i)) of monomial m, with coeff."""
        cols = ((b1, s2, a3), (b1, c2, t3), (u1, c2, a3), (a1, a2), (b2, b3), (c1, c3))
        s, t, u, i, j, k = (tuple(int(x[m]) for x in xs) for xs in cols)
        return UnweightingReport(False, n, size, count, (((s, i, j), (t, j, k), (u, k, i)), coeff))

    bad = np.flatnonzero(kept & ~(unit & (num == den)))
    if bad.size:
        return witness(bad[0], Fraction(int(num[bad[0]]), int(den[bad[0]])))
    if count < size * n**6:  # a unit term whose monomial was not kept
        return witness(np.flatnonzero(unit & member[b1, s2, a3] & ~kept)[0], Fraction(0))
    return UnweightingReport(True, n, size, count)


# -- matrix files -------------------------------------------------------------


def write_matrix(M, path):
    """First line `rows cols`, then rows of entries, integers or p/q. Every
    line is formatted before the file is opened, so an entry past Python's
    int-to-str digit limit raises ValueError naming it and leaves no
    partial file."""
    rows = [[Fraction(v) for v in row] for row in M]
    lines = ["%d %d\n" % (len(rows), len(rows[0]) if rows else 0)]
    for a, row in enumerate(rows):
        try:
            lines.append(" ".join(map(str, row)) + "\n")
        except ValueError:
            limit = sys.get_int_max_str_digits()
            big = 10**limit
            c = next(c for c, v in enumerate(row) if max(abs(v.numerator), v.denominator) >= big)
            raise ValueError("matrix entry (%d,%d) has more than %d digits" % (a, c, limit)) from None
    with text_file(path, "w") as fh:
        fh.writelines(lines)


def read_matrix(path):
    """A matrix file as rows of Fractions: the `rows cols` line, then one
    line of entries per row."""
    lines = text_lines(path)
    if not lines:
        raise ValueError("empty matrix file")
    number, head = lines[0][0], lines[0][1].split()
    if len(head) != 2:
        raise ValueError("first line must be `rows cols`")
    rows, cols = named_ints("matrix line %d" % number, head)
    if len(lines) != rows + 1:
        raise ValueError("expected %d data rows, got %d" % (rows, len(lines) - 1))
    out = []
    for number, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError("row has %d entries, expected %d" % (len(parts), cols))
        out.append([_entry(number, p) for p in parts])
    return out


def _entry(number, text):
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if exp and abs(int(exp.group(1))) > EXPONENT_CAP:
        raise ValueError("matrix entry %r has an exponent beyond %d" % (text, EXPONENT_CAP))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("matrix entry %r has a zero denominator" % text) from None
    except ValueError:
        raise ValueError("matrix line %d: %r is not a number" % (number, text)) from None
