"""Progression-free subsets of Z/nZ and triangle-free index sets.

A 3AP in Z/nZ is i + j = 2k mod n with (i, j, k) not all equal. The triangle
sets live inside the 1-based slice Delta_n = {(s1,s2,s3) in {1..n}^3 :
s1+s2+s3 = n+2}; three members s, t, u form a triangle when s1 = t1,
t2 = u2 and u3 = s3, and the set is triangle-free when every such triangle
is degenerate (s = t = u). Both constructors validate what they return."""

from __future__ import annotations

from dataclasses import dataclass, field


def ap_witness(elements, n):
    """First (i, j, k) with i + j = 2k mod n, not all equal, all in the set.
    None if the set is 3AP-free."""
    s = sorted(set(int(x) % n for x in elements))
    member = set(s)
    for i in s:
        for j in s:
            t = (i + j) % n
            if n % 2 == 1:
                ks = [t * ((n + 1) // 2) % n]
            elif t % 2 == 0:
                ks = [t // 2, t // 2 + n // 2]
            else:
                ks = []
            for k in ks:
                if k in member and not (i == j == k):
                    return (i, j, k)
    return None


@dataclass(frozen=True)
class APFreeSet:
    """3AP-free subset of Z/nZ. Rejects any set with a progression."""

    n: int
    elements: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be >= 1")
        elems = tuple(sorted(set(int(x) % self.n for x in self.elements)))
        object.__setattr__(self, "elements", elems)
        w = ap_witness(elems, self.n)
        if w is not None:
            raise ValueError(
                "progression %s + %s = 2*%s mod %d inside the set"
                % (w[0], w[1], w[2], self.n)
            )

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements


def greedy_ap_free(n):
    """Deterministic greedy sweep 0..n-1, keeping every element that leaves
    the set 3AP-free."""
    chosen = []
    for x in range(n):
        if ap_witness(chosen + [x], n) is None:
            chosen.append(x)
    return APFreeSet(n, tuple(chosen))


# ---------------------------------------------------------------------------
# triangle-free sets in the simplex slice


def simplex_slice(n):
    """All of Delta_n: 1-based triples summing to n + 2, lexicographic."""
    out = []
    for s1 in range(1, n + 1):
        for s2 in range(1, n + 1):
            s3 = n + 2 - s1 - s2
            if 1 <= s3 <= n:
                out.append((s1, s2, s3))
    return out


def triangle_witness(triples, n):
    """First (s, t, u), not all equal, with s1 = t1, t2 = u2, u3 = s3. The
    straightforward cubic scan; sets here are tiny. None when triangle-free."""
    ts = list(triples)
    for s in ts:
        for t in ts:
            if s[0] != t[0]:
                continue
            for u in ts:
                if t[1] == u[1] and u[2] == s[2] and not (s == t == u):
                    return (s, t, u)
    return None


@dataclass(frozen=True)
class TriangleFreeSet:
    """Triangle-free subset of Delta_n. Every member must lie in the slice
    and every triangle must be degenerate; violations raise."""

    n: int
    triples: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("side must be >= 1")
        seen = tuple(sorted(set(tuple(int(v) for v in t) for t in self.triples)))
        for t in seen:
            if len(t) != 3 or any(not 1 <= v <= self.n for v in t):
                raise ValueError("triple %s outside {1..%d}^3" % (t, self.n))
            if sum(t) != self.n + 2:
                raise ValueError(
                    "triple %s does not sum to %d" % (t, self.n + 2)
                )
        object.__setattr__(self, "triples", seen)
        w = triangle_witness(seen, self.n)
        if w is not None:
            raise ValueError("triangle %s inside the set" % (w,))

    def __len__(self):
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __contains__(self, t):
        return tuple(t) in self.triples


def triangle_free_set(n):
    """Greedy-maximal triangle-free subset of Delta_n: deterministic sweep
    in lexicographic order, keeping what stays triangle-free."""
    chosen = []
    for cand in simplex_slice(n):
        if triangle_witness(chosen + [cand], n) is None:
            chosen.append(cand)
    return TriangleFreeSet(n, tuple(chosen))
