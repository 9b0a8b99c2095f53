"""Finite groups with contiguous integer element codes.

Every element of a group of order N is identified with an integer in
range(N), and 0 is always the identity. Four public kinds can be built
from descriptor strings:

    cyclic:M            Z/MZ, codes are residues
    abelian:M1xM2x...   Z/M1 x Z/M2 x ..., mixed-radix codes
    sym:N               symmetric group S_N, factorial-base (Lehmer) codes
    wreath:N:BASE       S_N acting on BASE^N by permuting coordinates,
                        BASE an abelian descriptor; semidirect product

One further kind exists as plumbing only (not parseable from descriptors):
direct products, used for two-sided actions such as conjugation.

Each kind has one product formula, written on integer arrays (_product).
The multiplication table is built from it in row blocks, and scalar mult
evaluates the same formula on two codes. Symmetric and wreath products
compose rows of the cached array of all n! permutations and rank the
results with a vectorized Lehmer code.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .configuration import named_ints

TABLE_CAP = 4096  # largest order for which a multiplication table is materialized
PERM_CAP = 40320  # largest n! for which the array of all permutations is built
TABLE_BLOCK = 1 << 18  # table entries computed per array product


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


@functools.lru_cache(maxsize=None)
def permutation_array(n):
    """Read-only (n!, n) array whose row r is perm_unrank(r, n), built once
    per n. Refused when n! exceeds PERM_CAP."""
    count = math.factorial(n)
    if count > PERM_CAP:
        raise ValueError("%d! permutations exceed cap %d" % (n, PERM_CAP))
    P = np.array([perm_unrank(r, n) for r in range(count)], dtype=np.int8)
    P.flags.writeable = False
    return P


def _rank_rows(q):
    """perm_rank of each permutation along the last axis: the Lehmer digit
    of place i counts the later entries below q[i]."""
    n = q.shape[-1]
    r = np.zeros(q.shape[:-1], dtype=np.int64)
    for i in range(n - 1):
        r = r * (n - i) + (q[..., i + 1 :] < q[..., i, None]).sum(axis=-1)
    return r


def _compose_rank(a, b, n):
    """Codes of the composites p_a . p_b (p_b applied first) for arrays of
    codes a, b."""
    P = permutation_array(n)
    return _rank_rows(np.take_along_axis(P[a], P[b], axis=-1))


# ---------------------------------------------------------------------------


class FiniteGroup:
    """Base class. Subclasses set .kind, .order, .descriptor and implement
    _product (elementwise on equal-shape integer arrays, or on two codes).
    Inverses are read from the multiplication table."""

    kind = "?"
    descriptor = "?"
    order = 0
    identity = 0

    def __init__(self):
        self._table = None
        self._inv = None
        self._classes = None

    def _product(self, a, b):
        raise NotImplementedError

    def mult(self, a, b):
        return int(self._product(a, b))

    def inverse(self, a):
        return int(self.inverse_vector()[a])

    def table(self):
        """Full multiplication table T[a, b] = a*b, cached, filled in row
        blocks of about TABLE_BLOCK entries by one _product call each.
        Orders above TABLE_CAP are refused so memory stays bounded."""
        if self._table is None:
            n = self.order
            if n > TABLE_CAP:
                raise ValueError("order %d exceeds table cap %d" % (n, TABLE_CAP))
            T = np.empty((n, n), dtype=np.int32)
            rows = max(1, TABLE_BLOCK // n)
            for lo in range(0, n, rows):
                hi = min(n, lo + rows)
                a, b = np.divmod(np.arange(lo * n, hi * n), n)
                T[lo:hi] = self._product(a, b).reshape(hi - lo, n)
            self._table = T
        return self._table

    def inverse_vector(self):
        """inv[a] is the column of the identity in row a of the table; a row
        without exactly one identity is refused."""
        if self._inv is None:
            hits = self.table() == self.identity
            bad = np.flatnonzero(hits.sum(axis=1) != 1)
            if len(bad):
                raise ValueError("element %d has no unique inverse" % bad[0])
            self._inv = hits.argmax(axis=1).astype(np.int32)
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

    def _product(self, a, b):
        return (a + b) % self.m


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

    def _product(self, a, b):
        out, place = 0, 1
        for m in reversed(self.moduli):
            a, da = divmod(a, m)
            b, db = divmod(b, m)
            out = out + (da + db) % m * place
            place *= m
        return out


class SymmetricGroup(FiniteGroup):
    kind = "sym"

    def __init__(self, n):
        super().__init__()
        if n < 1:
            raise ValueError("degree must be positive")
        self.n = n
        self.order = math.factorial(n)
        self.descriptor = "sym:%d" % n

    def _product(self, a, b):
        return _compose_rank(a, b, self.n)


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

    def _product(self, a, b):
        pa, ha = divmod(a, self.vec_order)
        pb, hb = divmod(b, self.vec_order)
        place = self.h_order ** np.arange(self.n - 1, -1, -1)
        da, db = ((np.asarray(h)[..., None] // place) % self.h_order for h in (ha, hb))
        # (p1.h2)[p1(j)] = h2[j]
        moved = np.empty_like(db)
        np.put_along_axis(moved, permutation_array(self.n)[pa], db, axis=-1)
        h = self.base.table()[da, moved] @ place
        return _compose_rank(pa, pb, self.n) * self.vec_order + h


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

    def _product(self, a, b):
        a1, a2 = self.split(a)
        b1, b2 = self.split(b)
        return self.join(self.g1._product(a1, b1), self.g2._product(a2, b2))

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
    """Build a group from a descriptor string, one of cyclic:M,
    abelian:M1xM2x..., sym:N, wreath:N:BASE; else ValueError naming it."""
    kind, _, size = descriptor.strip().partition(":")
    base = None
    if kind == "wreath":
        size, _, base = size.partition(":")
    if kind not in ("cyclic", "abelian", "sym", "wreath") or not size or base == "":
        raise ValueError("group descriptor %r: want cyclic:M, abelian:M1xM2x..., sym:N or wreath:N:BASE" % descriptor)
    sizes = named_ints("group descriptor %r" % descriptor, size.split("x") if kind == "abelian" else [size])
    if kind == "cyclic":
        return CyclicGroup(sizes[0])
    if kind == "abelian":
        return AbelianGroup(sizes)
    if kind == "sym":
        return SymmetricGroup(sizes[0])
    return WreathGroup(sizes[0], make_group(base))


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

    def act(self, g, x):
        return int(self.table[g, x])


def natural_action(n):
    """S_n permuting range(n): g sends x to perm_unrank(g, n)[x], so the
    table is the permutation array."""
    return GroupAction(SymmetricGroup(n), permutation_array(n), name="natural:%d" % n)


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
