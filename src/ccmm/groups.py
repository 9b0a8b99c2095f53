"""Finite groups with contiguous integer element codes.

Every element of a group of order N is identified with an integer in
range(N), and 0 is always the identity. Four public kinds can be built
from descriptor strings:

    cyclic:M            Z/MZ, codes are residues
    abelian:M1xM2x...   Z/M1 x Z/M2 x ..., mixed-radix codes
    sym:N               symmetric group S_N, factorial-base (Lehmer) codes
    wreath:N:BASE       S_N acting on BASE^N by permuting coordinates,
                        BASE an abelian descriptor; semidirect product

Two further kinds exist as plumbing only (not parseable from descriptors):
explicit multiplication tables, used by corruption oracles in tests, and
direct products, used for two-sided actions such as conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TABLE_CAP = 4096  # largest order for which a multiplication table is materialized
VERIFY_CAP = 1024  # largest order for which verify_group runs the exhaustive sweep


# ---------------------------------------------------------------------------
# permutation codecs, factorial base; identity permutation has code 0


def perm_rank(p):
    """Code of a permutation tuple in lexicographic (Lehmer) order."""
    n = len(p)
    pool = list(range(n))
    r = 0
    for i, x in enumerate(p):
        j = pool.index(x)
        r += j * math.factorial(n - 1 - i)
        pool.pop(j)
    return r


def perm_unrank(r, n):
    """Permutation tuple with code r among the n! permutations of range(n)."""
    pool = list(range(n))
    out = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        j, r = divmod(r, f)
        out.append(pool.pop(j))
    return tuple(out)


def perm_compose(p, q):
    """[p.q](i) = p(q(i)), so q is applied first."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_cycles(p):
    """Cycles of p as tuples of positions, each starting at its minimum."""
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


# ---------------------------------------------------------------------------


class FiniteGroup:
    """Base class. Subclasses set .kind, .order, .descriptor and implement
    mult / inverse on integer codes."""

    kind = "?"
    descriptor = "?"
    order = 0
    identity = 0

    def __init__(self):
        self._table = None
        self._inv = None
        self._classes = None

    def mult(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def table(self):
        """Full multiplication table T[a, b] = a*b, cached. Orders above
        TABLE_CAP are refused so memory stays bounded."""
        if self._table is None:
            if self.order > TABLE_CAP:
                raise ValueError(
                    "order %d exceeds table cap %d" % (self.order, TABLE_CAP)
                )
            T = np.empty((self.order, self.order), dtype=np.int32)
            for a in range(self.order):
                for b in range(self.order):
                    T[a, b] = self.mult(a, b)
            self._table = T
        return self._table

    def inverse_vector(self):
        if self._inv is None:
            self._inv = np.array(
                [self.inverse(a) for a in range(self.order)], dtype=np.int32
            )
        return self._inv

    def conjugacy_classes(self):
        """List of conjugacy classes, each a sorted tuple of element codes,
        ordered by smallest member. Computed by direct orbit enumeration."""
        if self._classes is None:
            T = self.table()
            inv = self.inverse_vector()
            assigned = np.full(self.order, -1, dtype=np.int32)
            classes = []
            for g in range(self.order):
                if assigned[g] >= 0:
                    continue
                orbit = np.unique(T[T[:, g], inv])  # x g x^-1 over all x
                assigned[orbit] = len(classes)
                classes.append(tuple(int(v) for v in orbit))
            self._classes = classes
        return self._classes

    def class_map(self):
        """Array mapping element code -> conjugacy class id."""
        classes = self.conjugacy_classes()
        cmap = np.empty(self.order, dtype=np.int32)
        for cid, cls in enumerate(classes):
            cmap[list(cls)] = cid
        return cmap

    def is_abelian(self):
        T = self.table()
        return bool(np.array_equal(T, T.T))

    def __repr__(self):
        return "<group %s order %d>" % (self.descriptor, self.order)


class CyclicGroup(FiniteGroup):
    kind = "cyclic"

    def __init__(self, m):
        super().__init__()
        if m < 1:
            raise ValueError("modulus must be positive")
        self.m = m
        self.order = m
        self.descriptor = "cyclic:%d" % m

    def mult(self, a, b):
        return (a + b) % self.m

    def inverse(self, a):
        return (-a) % self.m


class AbelianGroup(FiniteGroup):
    """Direct product of cyclic groups, mixed-radix codes with the first
    modulus most significant."""

    kind = "abelian"

    def __init__(self, moduli):
        super().__init__()
        moduli = tuple(int(m) for m in moduli)
        if not moduli or any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        self.moduli = moduli
        self.order = math.prod(moduli)
        self.descriptor = "abelian:" + "x".join(str(m) for m in moduli)

    def decode(self, a):
        out = []
        for m in reversed(self.moduli):
            a, d = divmod(a, m)
            out.append(d)
        return tuple(reversed(out))

    def encode(self, vec):
        a = 0
        for d, m in zip(vec, self.moduli):
            a = a * m + d % m
        return a

    def mult(self, a, b):
        va, vb = self.decode(a), self.decode(b)
        return self.encode([x + y for x, y in zip(va, vb)])

    def inverse(self, a):
        return self.encode([-x for x in self.decode(a)])


class SymmetricGroup(FiniteGroup):
    kind = "sym"

    def __init__(self, n):
        super().__init__()
        if n < 1:
            raise ValueError("degree must be positive")
        self.n = n
        self.order = math.factorial(n)
        self.descriptor = "sym:%d" % n

    def mult(self, a, b):
        return perm_rank(perm_compose(perm_unrank(a, self.n), perm_unrank(b, self.n)))

    def inverse(self, a):
        return perm_rank(perm_inverse(perm_unrank(a, self.n)))


class WreathGroup(FiniteGroup):
    """S_n acting on H^n for abelian H. Elements are pairs (h, p) with
    h in H^n and p a permutation; the code is perm_rank(p) * |H|^n + code(h),
    where code(h) is base-|H| with coordinate 0 most significant.

    Multiplication follows (h1, p1)(h2, p2) = (h1 + p1.h2, p1 p2) where
    (p.h)[i] = h[p^-1(i)], so the identity is code 0 and the permutation
    part acts on coordinate places.
    """

    kind = "wreath"

    def __init__(self, n, base):
        super().__init__()
        if n < 1:
            raise ValueError("degree must be positive")
        if base.kind not in ("cyclic", "abelian"):
            raise ValueError("wreath base must be abelian (cyclic or abelian kind)")
        self.n = n
        self.base = base
        self.h_order = base.order
        self.vec_order = base.order**n
        self.order = math.factorial(n) * self.vec_order
        self.descriptor = "wreath:%d:%s" % (n, base.descriptor)

    def decode(self, a):
        pcode, hcode = divmod(a, self.vec_order)
        h = []
        for _ in range(self.n):
            hcode, d = divmod(hcode, self.h_order)
            h.append(d)
        h.reverse()
        return tuple(h), perm_unrank(pcode, self.n)

    def encode(self, h, p):
        hcode = 0
        for d in h:
            hcode = hcode * self.h_order + d
        return perm_rank(p) * self.vec_order + hcode

    def mult(self, a, b):
        h1, p1 = self.decode(a)
        h2, p2 = self.decode(b)
        p1inv = perm_inverse(p1)
        h = tuple(
            self.base.mult(h1[i], h2[p1inv[i]]) for i in range(self.n)
        )
        return self.encode(h, perm_compose(p1, p2))

    def inverse(self, a):
        h, p = self.decode(a)
        pinv = perm_inverse(p)
        hi = tuple(self.base.inverse(h[p[i]]) for i in range(self.n))
        return self.encode(hi, pinv)

    def class_key(self, a):
        """Conjugacy invariant: multiset of (cycle length, cycle sum) pairs,
        the sum taken in the base group over the coordinates of each cycle
        of the permutation part. Two elements are conjugate iff keys match."""
        h, p = self.decode(a)
        parts = []
        for cyc in perm_cycles(p):
            s = 0
            for i in cyc:
                s = self.base.mult(s, h[i])
            parts.append((len(cyc), s))
        return tuple(sorted(parts))


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table. Plumbing for oracle
    tests; verify_group is the guard against corrupted tables."""

    kind = "table"

    def __init__(self, table, descriptor="table"):
        super().__init__()
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("table must be square")
        self.order = table.shape[0]
        self.descriptor = descriptor
        self._table = table

    def mult(self, a, b):
        return int(self._table[a, b])

    def inverse(self, a):
        row = np.flatnonzero(self._table[a] == 0)
        if len(row) != 1:
            raise ValueError("element %d has no unique inverse" % a)
        return int(row[0])


class ProductGroup(FiniteGroup):
    """Direct product, plumbing for two-sided actions. Code = a * |G2| + b."""

    kind = "product"

    def __init__(self, g1, g2):
        super().__init__()
        self.g1 = g1
        self.g2 = g2
        self.order = g1.order * g2.order
        self.descriptor = "product(%s, %s)" % (g1.descriptor, g2.descriptor)

    def split(self, a):
        return divmod(a, self.g2.order)

    def join(self, a1, a2):
        return a1 * self.g2.order + a2

    def mult(self, a, b):
        a1, a2 = self.split(a)
        b1, b2 = self.split(b)
        return self.join(self.g1.mult(a1, b1), self.g2.mult(a2, b2))

    def inverse(self, a):
        a1, a2 = self.split(a)
        return self.join(self.g1.inverse(a1), self.g2.inverse(a2))

    def table(self):
        if self._table is None:
            if self.order > TABLE_CAP:
                raise ValueError(
                    "order %d exceeds table cap %d" % (self.order, TABLE_CAP)
                )
            t1 = self.g1.table().astype(np.int64)
            t2 = self.g2.table().astype(np.int64)
            o2 = self.g2.order
            T = (t1[:, None, :, None] * o2 + t2[None, :, None, :]).reshape(
                self.order, self.order
            )
            self._table = T.astype(np.int32)
        return self._table


def make_group(descriptor):
    """Build a group from a descriptor string, one of
    cyclic:M, abelian:M1xM2x..., sym:N, wreath:N:BASE."""
    parts = descriptor.strip().split(":", 1)
    kind = parts[0]
    if kind == "cyclic":
        return CyclicGroup(int(parts[1]))
    if kind == "abelian":
        return AbelianGroup(int(m) for m in parts[1].split("x"))
    if kind == "sym":
        return SymmetricGroup(int(parts[1]))
    if kind == "wreath":
        n, base = parts[1].split(":", 1)
        return WreathGroup(int(n), make_group(base))
    raise ValueError("unknown group descriptor %r" % descriptor)


# ---------------------------------------------------------------------------
# verification


@dataclass
class GroupCheck:
    status: str  # "passed", "failed", or "unchecked"
    witness: tuple = ()
    reason: str = ""


def verify_group(group, cap=VERIFY_CAP):
    """Exhaustively check the group axioms on the multiplication table:
    closure, identity 0, two-sided inverses, associativity. Orders above
    cap are reported unchecked rather than silently trusted."""
    n = group.order
    if n > cap:
        return GroupCheck("unchecked", reason="order %d exceeds cap %d" % (n, cap))
    T = group.table()
    if T.min() < 0 or T.max() >= n:
        bad = np.argwhere((T < 0) | (T >= n))[0]
        return GroupCheck(
            "failed", (int(bad[0]), int(bad[1])), "entry out of range (closure)"
        )
    ar = np.arange(n)
    if not np.array_equal(T[0], ar):
        b = int(np.flatnonzero(T[0] != ar)[0])
        return GroupCheck("failed", (0, b), "identity fails on the left")
    if not np.array_equal(T[:, 0], ar):
        a = int(np.flatnonzero(T[:, 0] != ar)[0])
        return GroupCheck("failed", (a, 0), "identity fails on the right")
    for a in range(n):
        hits = np.flatnonzero(T[a] == 0)
        if len(hits) != 1 or T[hits[0], a] != 0:
            return GroupCheck("failed", (a,), "no two-sided inverse")
    for a in range(n):
        # (a*b)*c vs a*(b*c), whole b,c plane at once
        if not np.array_equal(T[T[a]], T[a][T]):
            diff = np.argwhere(T[T[a]] != T[a][T])[0]
            return GroupCheck(
                "failed", (a, int(diff[0]), int(diff[1])), "associativity fails"
            )
    return GroupCheck("passed")


# ---------------------------------------------------------------------------
# actions


class GroupAction:
    """A left action given by its table: g sends point x to table[g, x],
    and act(g, act(h, x)) = act(gh, x)."""

    def __init__(self, group, table, name="action"):
        table = np.asarray(table, dtype=np.int32)
        if table.shape[0] != group.order:
            raise ValueError("one row per group element required")
        self.group = group
        self.table = table
        self.n_points = table.shape[1]
        self.name = name

    @classmethod
    def from_function(cls, group, n_points, f, name="action"):
        T = np.empty((group.order, n_points), dtype=np.int32)
        for g in range(group.order):
            for x in range(n_points):
                T[g, x] = f(g, x)
        return cls(group, T, name)

    def act(self, g, x):
        return int(self.table[g, x])


def verify_action(action):
    """Check identity row and the compatibility law on all pairs of group
    elements. Raises ValueError with a witness on failure."""
    T = action.table
    G = action.group
    if not np.array_equal(T[0], np.arange(action.n_points)):
        x = int(np.flatnonzero(T[0] != np.arange(action.n_points))[0])
        raise ValueError("identity moves point %d" % x)
    GT = G.table()
    for g in range(G.order):
        # act(g, act(h, x)) for all h, x
        lhs = T[g][T]
        rhs = T[GT[g]]
        if not np.array_equal(lhs, rhs):
            h, x = map(int, np.argwhere(lhs != rhs)[0])
            raise ValueError(
                "compatibility fails at g=%d h=%d x=%d" % (g, h, x)
            )


def left_translation_action(group):
    """The group acting on itself by left multiplication."""
    return GroupAction(group, group.table(), name="left-translation")


def conjugation_action(group):
    """G x G acting on G by (x, y): g -> x g y^-1. Transitive, and the
    stabilizer structure makes the pair orbits correspond to conjugacy
    classes of quotients g h^-1."""
    big = ProductGroup(group, group)
    T = group.table()
    inv = group.inverse_vector()
    n = group.order
    # row for code x*n + y maps g to (x g) y^-1
    tab = np.empty((big.order, n), dtype=np.int32)
    for x in range(n):
        tab[x * n : (x + 1) * n, :] = T[T[x]][:, inv].T
    return GroupAction(big, tab, name="conjugation")


# ---------------------------------------------------------------------------
# conjugacy class counting for wreath products


def _partitions(n, largest=None):
    """Partitions of n as multiplicity dicts {part: count}."""
    if largest is None:
        largest = n
    if n == 0:
        yield {}
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            out = dict(rest)
            out[part] = out.get(part, 0) + 1
            yield out


def count_conjugacy_wreath(n, h_order):
    """Number of conjugacy classes of the wreath product S_n on H^n with
    |H| = h_order, H abelian. Classes correspond to a cycle type of S_n
    together with, for each part length, a multiset of base elements, one
    per cycle of that length; summing the product of multiset counts over
    all partitions of n gives the total."""
    total = 0
    for part in _partitions(n):
        term = 1
        for _, count in part.items():
            term *= math.comb(h_order + count - 1, count)
        total += term
    return total


def wreath_conjugacy_bound_check(n, h_order):
    """Check the growth estimate count <= (4 e^3 |H| / n)^n, valid for
    n <= |H|. Returns (count, bound). Raises if n > |H|."""
    if n > h_order:
        raise ValueError("estimate requires n <= |H|")
    count = count_conjugacy_wreath(n, h_order)
    bound = (4.0 * math.e**3 * h_order / n) ** n
    if count > bound:
        raise AssertionError(
            "conjugacy count %d exceeds estimate %.3f" % (count, bound)
        )
    return count, bound
