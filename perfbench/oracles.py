"""Reference answers that do not go through the ccmm code being timed.

Products are recomputed by schoolbook arithmetic, realizations and axioms are
re-checked densely from the class matrix alone (never from the intersection
tensor), and degree profiles and class counts come from group theory.
"""

import math
from fractions import Fraction

import numpy as np

ASSUMED_OMEGA = 2.3727  # exponent.DEFAULT_ASSUMED_OMEGA, restated


def naive_product(A, B):
    """Exact schoolbook product of two Fraction matrices given as lists."""
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in A]


def boolean_product(A, B):
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    return ((A @ B) > 0).astype(np.int64)


def sym_power_rank(r, k):
    return math.comb(r + k - 1, k)


# -- character degrees -----------------------------------------------------

# Irreducible character degrees of the non-abelian groups in the batch, from
# their character tables: S3; S4; Z2 wr S2 (dihedral of order 8);
# Z3 wr S2 = (Z3 x Z3) x| Z2 (six linear characters, three of degree 2).
GROUP_DEGREES = {
    "sym:3": (1, 1, 2),
    "sym:4": (1, 1, 2, 3, 3),
    "wreath:2:cyclic:2": (1, 1, 1, 1, 2),
    "wreath:2:cyclic:3": (1,) * 6 + (2,) * 3,
}


def group_order(desc):
    kind, _, rest = desc.partition(":")
    if kind == "cyclic":
        return int(rest)
    if kind == "abelian":
        return math.prod(int(m) for m in rest.split("x"))
    if kind == "sym":
        return math.factorial(int(rest))
    if kind == "wreath":
        n, _, base = rest.partition(":")
        return group_order(base) ** int(n) * math.factorial(int(n))
    raise ValueError(desc)


def group_scheme_degrees(desc):
    """Degrees of the group algebra: the group's irreducible degrees."""
    if desc in GROUP_DEGREES:
        return GROUP_DEGREES[desc]
    if desc.startswith(("cyclic:", "abelian:")):
        return (1,) * group_order(desc)
    raise KeyError(desc)


def _partition_count(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def class_count(desc):
    """Number of conjugacy classes: |G| for abelian groups, p(n) for S_n,
    and for Z_m wr S_n the number of m-coloured multipartitions of n."""
    kind, _, rest = desc.partition(":")
    if kind in ("cyclic", "abelian"):
        return group_order(desc)
    if kind == "sym":
        return _partition_count(int(rest))
    if kind == "wreath":
        n, _, base = rest.partition(":")
        n, m = int(n), group_order(base)
        # distribute n over m colours, each colour carrying a partition
        ways = [1] + [0] * n
        for _ in range(m):
            nxt = [0] * (n + 1)
            for used in range(n + 1):
                if ways[used]:
                    for extra in range(n + 1 - used):
                        nxt[used + extra] += ways[used] * _partition_count(extra)
            ways = nxt
        return ways[n]
    raise ValueError(desc)


def omega_noncommutative(l, m, n, degrees):
    raw = 3 * math.log(sum(d**ASSUMED_OMEGA for d in degrees)) / math.log(l * m * n)
    return min(3.0, max(2.0, raw))


def omega_family(m):
    raw = (3 * math.log(m) - math.log(27 / 4)) / math.log(m - 2)
    return min(3.0, max(2.0, raw))


def omega_convert(omega_s):
    return min(3.0, max(2.0, (3 * omega_s - 2) / 2))


# -- realizations ----------------------------------------------------------


class TriangleOracle:
    """Triangle test read off the class matrix: classes (i, j, k) form a
    triangle when some x, y, z have M[x,y] = i, M[y,z] = j, M[z,x] = k.
    Fixing one pair (z, x) of class k suffices in a coherent configuration."""

    def __init__(self, matrix):
        self.M = np.asarray(matrix, dtype=np.int64)
        n = self.M.shape[0]
        classes, first = np.unique(self.M, return_index=True)
        self.rank = int(classes[-1]) + 1
        self.z0 = np.zeros(self.rank, dtype=np.int64)
        self.x0 = np.zeros(self.rank, dtype=np.int64)
        self.z0[classes], self.x0[classes] = np.divmod(first, n)

    def table(self, alpha, beta, gamma):
        """T[p, q, s]: alpha.flat[p], beta.flat[q], gamma.flat[s] form a
        triangle. Maps must be injective."""
        r = self.rank
        fa, fb, fg = alpha.reshape(-1), beta.reshape(-1), gamma.reshape(-1)
        ia = np.full(r, -1, dtype=np.int64)
        ib = np.full(r, -1, dtype=np.int64)
        ia[fa] = np.arange(fa.size)
        ib[fb] = np.arange(fb.size)
        X = self.M[self.x0[fg], :]  # row s: classes M[x, y] over y
        Z = self.M[:, self.z0[fg]].T  # row s: classes M[y, z] over y
        pa, qb = ia[X], ib[Z]
        keep = (pa >= 0) & (qb >= 0)
        s = np.broadcast_to(np.arange(fg.size)[:, None], X.shape)
        T = np.zeros((fa.size, fb.size, fg.size), dtype=bool)
        T[pa[keep], qb[keep], s[keep]] = True
        return T

    def verdict(self, alpha, beta, gamma):
        """Whether the maps are injective and form a triangle exactly on the
        matched triples (a, b, c) -> alpha(a,b), beta(b,c), gamma(c,a)."""
        for arr in (alpha, beta, gamma):
            if len(np.unique(arr)) != arr.size:
                return False
        l, m = alpha.shape
        n = beta.shape[1]
        T = self.table(alpha, beta, gamma)
        a, b, c = (g.ravel() for g in np.meshgrid(np.arange(l), np.arange(m), np.arange(n), indexing="ij"))
        matched = T[a * m + b, b * n + c, c * l + a]
        return bool(matched.all()) and int(T.sum()) == l * m * n

    def witness_holds(self, witness, alpha, beta, gamma):
        """Whether a RealizationInvalid witness names a real violation."""
        if not witness:
            return False
        if witness[0] == "injective":
            arr = {"alpha": alpha, "beta": beta, "gamma": gamma}[witness[1]]
            i, j = witness[2], witness[3]
            return i != j and int(arr.flat[i]) == int(arr.flat[j])
        if witness[0] == "triangle" and len(witness) == 8:
            _, a, ap, b, bp, c, cp, kind = witness
            T = self.table(
                alpha[a : a + 1, bp : bp + 1],
                beta[b : b + 1, cp : cp + 1],
                gamma[c : c + 1, ap : ap + 1],
            )
            matched = a == ap and b == bp and c == cp
            if kind == "extra":
                return bool(T[0, 0, 0]) and not matched
            return matched and not bool(T[0, 0, 0])
        return False


# -- class matrices --------------------------------------------------------


def coherent(matrix):
    """Coherence from a dense recount: diagonal classes stay on the
    diagonal, transposes of classes are classes, and every A_i A_j is
    constant on each class."""
    M = np.unique(np.asarray(matrix), return_inverse=True)[1].reshape(np.shape(matrix))
    n = M.shape[0]
    r = int(M.max()) + 1
    diag = np.unique(np.diagonal(M))
    off = M[~np.eye(n, dtype=bool)]
    if np.isin(off, diag).any():
        return False
    rep = np.unique(M.ravel(), return_index=True)[1]  # first pair of each class
    if not np.array_equal(M.T, M.T.ravel()[rep][M]):
        return False
    X = np.zeros((n, n, r))
    X[np.arange(n)[:, None], np.arange(n)[None, :], M] = 1.0
    A = X.transpose(0, 2, 1).reshape(n * r, n)  # [(x,i), z]
    C = (A @ X.reshape(n, n * r)).reshape(n, r, n, r).transpose(0, 2, 1, 3)
    C = C.reshape(n * n, r * r)
    if not np.array_equal(C, C[rep][M.ravel()]):
        return False
    return True


def axiom3_witness_holds(matrix, witness):
    """Witness (x, y, xr, yr, ...) of an axiom 3 failure: both pairs share a
    class but their (class(x,z), class(z,y)) multisets differ."""
    M = np.asarray(matrix, dtype=np.int64)
    x, y, xr, yr = (int(v) for v in witness[:4])
    if M[x, y] != M[xr, yr]:
        return False
    r = int(M.max()) + 1
    here = np.sort(M[x, :] * r + M[:, y])
    there = np.sort(M[xr, :] * r + M[:, yr])
    return not np.array_equal(here, there)
