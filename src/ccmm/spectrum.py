"""Adjacency-algebra decomposition: exact rational center and character
degrees d_1..d_t with sum of squares exactly r.

Every reported degree is exact and independent of the seed. The center is
the kernel of the commutator system of two random algebra elements, solved
modulo 31-bit primes and lifted to rationals by rational reconstruction.
A lifted basis is returned only after an exact check against every
generator. The degrees come from two Gram matrices on the center
basis b_1..b_t: T_ab = tau(b_a b_b), with tau the trace of the regular
representation, and E_ab = the trace of multiplication by b_a b_b on the
center. The number of components of degree d is t - rank(T - d^2 E).
These ranks are taken modulo a prime, which can only undercount them, so
the counts are certified by summing to t (and their squares to r).

Three certificates skip work. A commutative algebra (p^k_{i,j} = p^k_{j,i},
checked exactly on the intersection tensor) is its own center, so its class
basis is the center basis. A center of dimension t = r has every degree 1,
since r positive squares that sum to r are all 1. The count walks d upward
and stops at the first d where the counts sum to t and their c * d^2 to r:
if the counts up to d overcount by x components, the true components above
d number x and take at most d^2 x of r, yet each needs more than d^2, so
x = 0.

Floating point is only a cross-check that reports its residual. One seeded
generic Hermitian central element H is diagonalized; its eigenvalues,
clustered at 1e-8 * norm, are its values lambda_s on the components s, and
d_s^2 is the multiplicity of lambda_s in the regular representation of H,
read from one r x r eigvalsh (one complex r x r array, 64 MB at
SPECTRAL_CAP, less than the n x n H). For a cluster of eigenvectors V,
e = V V^H, and the residual, at most 1e-6, is the larger of
max|V (V^H V - I) V^H| = max|e e - e| and |vecs vecs^H - I| = |sum e - I|.
The element is Hermitian rather than real symmetric: a real symmetric
central element takes equal values on complex-conjugate character pairs
(already for the Z/5 scheme), so it could never separate them, while
generic Hermitian elements do."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SPECTRAL_CAP = 2000
CLUSTER_TOL = 1e-8  # relative eigenvalue gap that separates two clusters
IDEM_TOL = 1e-6  # largest idempotent residual the cross-check accepts
# 31-bit primes: products of two residues fit in int64. Attempt a of the
# center and of the degree count works modulo PRIMES[a].
PRIMES = (2**31 - 1, 2147483629, 2147483587, 2147483579)


class DegreeComputationError(Exception):
    """Decomposition failed validation; carries the residual diagnostics.
    The adjacency algebra is always semisimple, so reaching this is
    evidence of a bug, or of a center basis whose reduced echelon entries
    are fractions beyond the reconstruction bound of about 2^61."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


# -- exact integer and modular linear algebra --------------------------------


def _max_abs(A):
    return int(np.abs(A).max(initial=0))


def _int_array(rows):
    """Integer rows as int64 when safely below overflow, Python ints
    otherwise."""
    A = np.array(rows, dtype=object)
    return A.astype(np.int64) if _max_abs(A) < 2**62 else A


def _exact_matmul(A, B):
    """A @ B in exact integers: int64 when no partial sum can overflow,
    Python ints otherwise."""
    if A.shape[-1] * _max_abs(A) * _max_abs(B) < 2**62:
        return A.astype(np.int64) @ B.astype(np.int64)
    return A.astype(object) @ B.astype(object)


def _rref_mod(M, prime):
    """Reduced row echelon form of an integer matrix over F_prime: the
    nonzero rows and their pivot columns."""
    M = (np.asarray(M) % prime).astype(np.int64)
    rows, cols = M.shape
    pivots = []
    for c in range(cols):
        row = len(pivots)
        if row == rows:
            break
        hits = np.flatnonzero(M[row:, c])
        if hits.size == 0:
            continue
        piv = row + int(hits[0])
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        # columns left of c are zero in this row, so only c: changes
        M[row, c:] = M[row, c:] * pow(int(M[row, c]), -1, prime) % prime
        col = M[:, c].copy()
        col[row] = 0
        hits = np.flatnonzero(col)
        if hits.size:
            M[hits, c:] = (M[hits, c:] - col[hits, None] * M[row, c:]) % prime
        pivots.append(c)
    return M[: len(pivots)], pivots


def _crt(residues, modulus, R, prime):
    """The residues modulo modulus * prime that are residues modulo modulus
    and R modulo prime (Chinese remainder theorem), as Python ints."""
    step = (R.astype(object) - residues) % prime * pow(modulus, -1, prime) % prime
    return residues + modulus * step


def _lift(u, m):
    """The fraction a/b = u (mod m) with |a|, b <= sqrt(m/2), or None.
    Such a fraction is unique when it exists."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _integerize(vec):
    """Scale a Fraction vector to coprime integers (exact)."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _kernel_vectors(R, pivots, width, modulus):
    """Integer kernel basis of the RREF matrix R modulo modulus, lifted to
    the rationals entry by entry and scaled to coprime integers; None when
    an entry has no small rational lift. Vector f has its last nonzero entry
    in free column f and zeros in the other free columns."""
    pivot_set = set(pivots)
    lifts = {}
    basis = []
    for f in (c for c in range(width) if c not in pivot_set):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, pc in enumerate(pivots):
            u = -int(R[row, f]) % modulus
            if u not in lifts:
                lifts[u] = _lift(u, modulus)
            if lifts[u] is None:
                return None
            vec[pc] = lifts[u]
        basis.append(_integerize(vec))
    return basis


# -- center ------------------------------------------------------------------


def _class_products(nz, r, n, B, left):
    """Products of each basis row b with every class: entry [i*r + k, b] is
    the A_k coefficient of A_i b when left, and of b A_i otherwise."""
    i, j, k, p = nz
    if not left:
        i, j = j, i
    # entries are at most max|b| * sum_j p^k_{i,j} <= max|b| * n
    dtype = np.int64 if _max_abs(B) * n < 2**62 else object
    Y = np.zeros((r * r, B.shape[0]), dtype=dtype)
    np.add.at(Y, i * r + k, B.T.astype(dtype)[j] * p[:, None].astype(dtype))
    return Y


def _free_columns(B):
    """The last nonzero column of each row of B, or None unless those
    columns are distinct and B is zero in them off the diagonal (which
    makes the rows independent)."""
    free = []
    for row in B:
        hits = np.flatnonzero(row)
        if hits.size == 0:
            return None
        free.append(int(hits[-1]))
    sub = B[:, free]
    if not np.array_equal(sub, np.diag(np.diagonal(sub))):
        return None
    return free


def _commutator_system(nz, r, x, y, prime):
    """Rows [D_x; D_y] over F_prime, with D_a[k, i] the A_k coefficient of
    A_i a - a A_i; central vectors lie in its kernel. One add.at pass."""
    i, j, k, p = nz
    rows = np.concatenate([k, k, k + r, k + r])
    cols = np.concatenate([i, j, i, j])
    vals = np.concatenate([x[j] * p, -x[i] * p, y[j] * p, -y[i] * p])
    D = np.zeros((2 * r, r), dtype=np.int64)
    np.add.at(D, (rows, cols), vals % prime)
    return D % prime


def center_basis(config):
    """Exact basis of the center of the adjacency algebra, as integer
    coefficient vectors over the class basis.

    Attempt a solves the commutator system of two elements drawn from
    random.Random(a) modulo PRIMES[a]. Attempts with the same pivot columns
    are combined by the Chinese remainder theorem, so the rational lift
    recovers entries up to about 2^15 after one attempt and 2^61 after
    four. An attempt with more pivots starts the combination afresh and
    one with fewer is skipped: its elements or its prime were unlucky. A
    lift is returned only when it is certified complete: its vectors are
    independent, each commutes exactly with every class, and their number
    equals the kernel dimension modulo the primes, which is at least the
    center's dimension. A commutative algebra is its own center (see the
    module docstring)."""
    r = config.rank
    if config.is_commutative():
        return [[int(a == b) for b in range(r)] for a in range(r)]
    nz = config.intersection().arrays()
    best, residues, modulus = None, None, 1
    for attempt, prime in enumerate(PRIMES):
        rnd = random.Random(attempt)
        xy = np.array([rnd.randrange(prime) for _ in range(2 * r)], dtype=np.int64)
        R, pivots = _rref_mod(_commutator_system(nz, r, xy[:r], xy[r:], prime), prime)
        if pivots == best:
            residues, modulus = _crt(residues, modulus, R, prime), modulus * prime
        elif best is None or len(pivots) >= len(best):
            best, residues, modulus = pivots, R, prime
        else:
            continue
        basis = _kernel_vectors(residues, pivots, r, modulus)
        if basis is None or len(basis) != r - len(pivots):
            continue
        B = _int_array(basis)
        if _free_columns(B) is None:
            continue
        if np.array_equal(
            _class_products(nz, r, config.n_points, B, left=True),
            _class_products(nz, r, config.n_points, B, left=False),
        ):
            return basis
    raise DegreeComputationError(
        "no certified center basis in %d attempts" % len(PRIMES), None
    )


# -- degrees -----------------------------------------------------------------


@dataclass
class DegreeProfile:
    degrees: tuple
    residual: float

    def __iter__(self):
        return iter(self.degrees)


def _degree_counts(T, G, s, r, prime):
    """Components per degree d from t - rank(T - d^2 E) over F_prime, where
    E_ab = sum_c gamma^c_ab w_c, gamma^c_ab = G[a, c, b] / s_c and
    w_c = sum_d gamma^d_cd. None when the prime divides a scale s_c.
    d stops at the first value where the counts sum to t and c * d^2 sums
    to r (see the module docstring), else at isqrt(r)."""
    if any(v % prime == 0 for v in s):
        return None
    inv = np.array([pow(int(v), -1, prime) for v in s], dtype=np.int64)
    Gp = np.array(G % prime, dtype=np.int64)
    t = len(s)
    w = (np.diagonal(Gp, axis1=1, axis2=2) * inv % prime).sum(axis=1) % prime
    E = (Gp * (w * inv % prime)[None, :, None] % prime).sum(axis=1) % prime
    Tp = np.array(T % prime, dtype=np.int64)
    counts, found, squares = {}, 0, 0
    for d in range(1, math.isqrt(r) + 1):
        counts[d] = t - len(_rref_mod((Tp - d * d * E) % prime, prime)[1])
        found += counts[d]
        squares += counts[d] * d * d
        if found == t and squares == r:
            break
    return counts


def _gram_matrices(config, basis):
    """The Gram matrix T, the coordinates G of the products b_a b_b on the
    free columns of the basis (times the scales s) and the scales s that
    _degree_counts reads (see the module docstring)."""
    r = config.rank
    nz = config.intersection().arrays()
    i, j, k, p = nz
    B = _int_array(basis)
    t = len(basis)
    free = _free_columns(B)
    Y = _class_products(nz, r, config.n_points, B, left=True)
    # prods[a, k, b]: the A_k coefficient of b_a b_b
    prods = _exact_matmul(B, Y.reshape(r, r * t)).reshape(t, r, t)
    tau = np.zeros(r, dtype=np.int64)  # tau_i = trace of L_i
    np.add.at(tau, i[j == k], p[j == k])
    T = _exact_matmul(prods.transpose(0, 2, 1).reshape(t * t, r), tau[:, None])
    G = prods[:, free, :]  # coordinates of b_a b_b, times s_c
    s = [int(B[c, f]) for c, f in enumerate(free)]
    return T.reshape(t, t), G, s


def _exact_degrees(config, basis):
    """Sorted character degrees from a certified center basis, by ranks of
    the Gram matrices T and E (see the module docstring) modulo a prime.
    A rank modulo a prime never exceeds the rational rank, so every count
    is at least the true one; counts that sum to t are therefore exact."""
    r, t = config.rank, len(basis)
    if t == r:  # r positive squares that sum to r are all 1
        return (1,) * r
    T, G, s = _gram_matrices(config, basis)
    for prime in PRIMES:
        counts = _degree_counts(T, G, s, r, prime)
        if counts is None:
            continue
        if sum(counts.values()) == t:
            if sum(c * d * d for d, c in counts.items()) != r:
                raise DegreeComputationError(
                    "degree counts %s miss rank %d" % (counts, r), None
                )
            return tuple(d for d in sorted(counts) for _ in range(counts[d]))
    raise DegreeComputationError(
        "degree counts did not certify modulo any of %d primes" % len(PRIMES),
        None,
    )


def _idempotent_residual(vecs, groups):
    """max(|e^2 - e|, |sum e - I|) over the clusters e = V V^H, V the
    columns of vecs in a group, read as e^2 - e = V (V^H V - I) V^H (n^2 k
    for a cluster of k columns) and sum e = vecs vecs^H."""
    n = vecs.shape[0]
    residual = float(np.abs(vecs @ vecs.conj().T - np.eye(n)).max())
    for grp in groups:
        V = vecs[:, grp]
        Vh = V.conj().T
        defect = Vh @ V - np.eye(len(grp))
        residual = max(residual, float(np.abs(V @ defect @ Vh).max()))
    return residual


def _regular_eigenvalues(config, h, tol):
    """Eigenvalues of L_H[k, j] = sum_i h_i p^k_{i,j}, the regular
    representation of H = h[M], by one eigvalsh of the similar matrix
    K = D^{1/2} L_H D^{-1/2}, D = diag(class sizes). K is Hermitian when
    h_{i*} = conj(h_i), as |R_k| p^k_{i,j} = |R_j| p^j_{i*,k}; None unless
    that holds within tol."""
    r = config.rank
    i, j, k, p = config.intersection().arrays()
    root = np.sqrt(config.class_sizes())
    q = p * root[k] / root[j]
    K = np.empty((r, r), dtype=np.complex128)
    K.real = np.bincount(k * r + j, weights=h.real[i] * q, minlength=r * r).reshape(r, r)
    K.imag = np.bincount(k * r + j, weights=h.imag[i] * q, minlength=r * r).reshape(r, r)
    if max(np.abs(K.real - K.real.T).max(), np.abs(K.imag + K.imag.T).max()) > tol:
        return None
    return np.linalg.eigvalsh(K)


def _float_degrees(config, basis, seed):
    """Floating-point degree profile for cross-checking: sorted degrees (or
    None) and the residual from _idempotent_residual. d_s^2 is the number of
    eigenvalues of the regular representation of H in the span of cluster s
    widened by CLUSTER_TOL * scale; None when that representation is not
    Hermitian, one of its eigenvalues lies outside every cluster or a count
    is no square."""
    n = config.n_points
    rnd = random.Random(seed)
    coef = np.array(
        [[rnd.randint(1, 1 << 20) for _ in range(2)] for _ in basis],
        dtype=np.float64,
    ) / (1 << 10)
    Bf = np.array(basis, dtype=np.float64)
    sym = coef[:, 0] @ Bf
    skew = coef[:, 1] @ Bf
    star = config.star_vector()
    h = (sym + sym[star]) + 1j * (skew - skew[star])  # H = h[M]
    scale = max(float(np.abs(h).max()), 1.0)
    tol = CLUSTER_TOL * scale
    lam = _regular_eigenvalues(config, h, tol)
    vals, vecs = np.linalg.eigh(h[config.matrix])
    cuts = np.flatnonzero(np.diff(vals) > tol) + 1
    groups = np.split(np.arange(n), cuts)
    residual = _idempotent_residual(vecs, groups)
    if lam is None:
        return None, residual
    g = np.searchsorted(vals[np.r_[cuts, n] - 1] + tol, lam)  # first cluster reaching lam
    if g.max() == len(groups) or (lam < vals[np.r_[0, cuts]][g] - tol).any():
        return None, residual
    dims = np.bincount(g, minlength=len(groups)).tolist()
    degrees = [math.isqrt(dim) for dim in dims]
    if any(d == 0 or d * d != dim for d, dim in zip(degrees, dims)):
        return None, residual
    return tuple(sorted(degrees)), residual


def character_degrees(config, seed=0, cap=SPECTRAL_CAP):
    """Character degrees of the adjacency algebra, exact and certified
    (see the module docstring), then cross-checked in floating point. The
    seed steers the random central element of the cross-check; the degrees
    do not depend on it. A cross-check that disagrees, as when two
    eigenvalues of that element fall within CLUSTER_TOL of each other, is
    repeated once with seed + 1. Fails hard unless the cross-check agrees
    and its residual stays within IDEM_TOL."""
    r = config.rank
    if r > cap:
        raise ValueError("rank %d exceeds spectral cap %d" % (r, cap))
    if config.n_points > 2 * cap:
        raise ValueError(
            "point count %d too large for the dense spectral path"
            % config.n_points
        )
    basis = center_basis(config)
    degrees = _exact_degrees(config, basis)
    for s in (seed, seed + 1):
        check, residual = _float_degrees(config, basis, s)
        if check == degrees:
            break
    else:
        raise DegreeComputationError(
            "floating-point cross-check %s disagrees with exact degrees %s"
            % (check, degrees),
            residual,
        )
    if residual > IDEM_TOL:
        raise DegreeComputationError(
            "idempotent residual %.3e exceeds %.1e" % (residual, IDEM_TOL),
            residual,
        )
    return DegreeProfile(degrees, residual)
