"""Numeric exponent bounds from realizations and degree profiles.

Every bound carries a replayable provenance chain: the first entry names
the producing formula with its inputs, later entries are transforms. All
omega_s producers clamp to [2, 3] with an explicit provenance note when
the raw formula value falls outside (a value below 2 can never be claimed
and a value above 3 is vacuous); omega conversion clamps the same way.

Displayed values are cut to 4 decimal places toward zero; the full float
is what provenance replay reproduces."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

BISECTION_ITERS = 200
DEFAULT_ASSUMED_OMEGA = 2.3727


@dataclass(frozen=True)
class ExponentBound:
    kind: str  # "omega_s" or "omega"
    value: float
    assumptions: tuple = ()
    provenance: tuple = ()

    def __post_init__(self):
        if self.kind not in ("omega_s", "omega"):
            raise ValueError("kind must be omega_s or omega")
        if not self.value >= 2:
            raise ValueError("exponent bounds live in [2, oo)")
        if not self.provenance:
            raise ValueError("provenance must be non-empty")


def format_bound(value):
    """4 decimal places, truncated toward zero."""
    return "%.4f" % (math.floor(value * 10**4) / 10**4)


def _clamp(raw, provenance):
    """Clamp a raw omega_s formula value into [2, 3], noting the raw value
    in the provenance when clamping changes it."""
    if raw < 2:
        return 2.0, provenance + (("clamp", 2.0, "raw value %r below 2" % raw),)
    if raw > 3:
        return 3.0, provenance + (
            ("clamp", 3.0, "raw value %r above 3 is vacuous" % raw),
        )
    return raw, provenance


def _bound(step, raw, assumptions=()):
    """An omega_s bound from a closed-form producer: step records the
    formula and its inputs, raw is its value before clamping."""
    value, prov = _clamp(raw, (step,))
    return ExponentBound("omega_s", value, assumptions, prov)


def _check_dims(l, m, n):
    if l < 1 or m < 1 or n < 1:
        raise ValueError("dimensions must be positive")


def omega_s_commutative(l, m, n, r):
    """From an <l,m,n> realization in a commutative configuration of rank
    r: omega_s <= 3 ln r / ln(lmn)."""
    _check_dims(l, m, n)
    if l * m * n < 2:
        raise ValueError("need lmn >= 2")
    if r < 1:
        raise ValueError("rank must be positive")
    return _bound(("commutative", l, m, n, r), 3 * math.log(r) / math.log(l * m * n))


def _normalize_blocks(blocks):
    out = []
    for blk in blocks:
        l, m, n = (int(v) for v in blk)
        _check_dims(l, m, n)
        out.append((l, m, n))
    if not out:
        raise ValueError("need at least one block")
    return tuple(out)


def _bisect(f, lo=2.0, hi=3.0, iters=BISECTION_ITERS):
    """Root of increasing f in [lo, hi]; returns the upper bracket end so
    the result stays a valid upper bound."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return hi


def _root_bound(op, blocks, r, equation):
    """The largest tau in [2, 3] with equation(prods, tau) <= r, where prods
    are the block volumes l m n and equation increases in tau; found by
    bisection, clamped at 2 and 3 with a provenance note."""
    blocks = _normalize_blocks(blocks)
    if r < 1:
        raise ValueError("rank must be positive")
    if len(blocks) > r:
        raise ValueError("more blocks than rank")
    prods = [l * m * n for l, m, n in blocks]
    prov = ((op, blocks, r),)
    if all(p == 1 for p in prods):
        prov += (("note", "all blocks are <1,1,1>; no information"),)
        return ExponentBound("omega_s", 3.0, (), prov)

    def f(tau):
        return equation(prods, tau) - r

    if f(2.0) > 0:
        prov += (("clamp", 2.0, "root below 2; instance cannot be realized"),)
        return ExponentBound("omega_s", 2.0, (), prov)
    if f(3.0) < 0:
        prov += (("clamp", 3.0, "root above 3 is vacuous"),)
        return ExponentBound("omega_s", 3.0, (), prov)
    return ExponentBound("omega_s", _bisect(f), (), prov)


def solve_asi(blocks, r):
    """The simultaneous-components inequality sum_i (l_i m_i n_i)^{tau/3}
    <= r, solved for the largest admissible tau in [2, 3] by bisection."""
    return _root_bound(
        "asi", blocks, r, lambda prods, tau: sum(p ** (tau / 3) for p in prods)
    )


def geometric_mean_bound(blocks, r):
    """Geometric-mean form: k * (prod_i l_i m_i n_i)^{tau/(3k)} <= r."""

    def equation(prods, tau):
        logg = sum(math.log(p) for p in prods) / len(prods)
        return len(prods) * math.exp(logg * tau / 3)

    return _root_bound("geometric-mean", blocks, r, equation)


def omega_s_noncommutative(l, m, n, degrees, assumed=DEFAULT_ASSUMED_OMEGA):
    """From an <l,m,n> realization in a configuration with character
    degrees d_1..d_t: omega_s <= 3 ln(sum d_i^w) / ln(lmn), where w is an
    assumed upper bound on omega (recorded, since the inequality mixes the
    two exponents)."""
    _check_dims(l, m, n)
    if l * m * n < 2:
        raise ValueError("need lmn >= 2")
    degrees = tuple(int(d) for d in degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("need a non-empty list of positive degrees")
    if not 2 <= assumed <= 3:
        raise ValueError("assumed omega must lie in [2, 3]")
    raw = 3 * math.log(sum(d**assumed for d in degrees)) / math.log(l * m * n)
    return _bound(
        ("noncommutative", l, m, n, degrees, assumed),
        raw,
        ("assumed omega <= %r" % assumed,),
    )


def omega_from_omega_s(bound):
    """omega <= (3 omega_s - 2) / 2, clamped into [2, 3]."""
    if bound.kind != "omega_s":
        raise ValueError("input bound must be on omega_s")
    raw = (3 * bound.value - 2) / 2
    value, prov = _clamp(raw, bound.provenance + (("convert",),))
    return ExponentBound("omega", value, bound.assumptions, prov)


def construction_family_bound(m):
    """The published family bound omega_s <= (3 log m - log(27/4)) /
    log(m - 2), minimized at m = 10. Needs m - 2 > 1 for a meaningful
    denominator."""
    if not (math.isfinite(m) and m > 3):
        raise ValueError(
            "need a finite m > 3 (denominator log(m-2) must be positive), got %r" % m
        )
    return _bound(
        ("family", m), (3 * math.log(m) - math.log(27 / 4)) / math.log(m - 2)
    )


def given_bound(value):
    """A stated omega_s bound, taken as is (for conversion)."""
    return ExponentBound("omega_s", value, (), (("given", value),))


def reference_conversion_checks():
    """The three published omega_s values and the omega values they convert
    to; each computed omega must not exceed the published (2-decimal,
    rounded-up) target."""
    table = ((2.48, 2.72), (2.41, 2.62), (2.376, 2.564))
    out = []
    for omega_s, target in table:
        b = omega_from_omega_s(given_bound(omega_s))
        out.append(
            {
                "omega_s": omega_s,
                "omega": b.value,
                "target": target,
                "ok": b.value <= target + 1e-9,
            }
        )
    return out


# -- provenance replay --------------------------------------------------------

# A chain's first step names its producer: step[1:] are the arguments.
PRODUCERS = {
    "commutative": omega_s_commutative,
    "asi": solve_asi,
    "geometric-mean": geometric_mean_bound,
    "noncommutative": omega_s_noncommutative,
    "family": construction_family_bound,
    "given": given_bound,
}


def replay(provenance):
    """Re-execute a provenance chain; the result's value must equal the
    original bit-for-bit."""
    bound = None
    for step in provenance:
        op, args = (step[0], step[1:]) if step else (None, ())
        if op in PRODUCERS:
            try:
                inspect.signature(PRODUCERS[op]).bind(*args)
            except TypeError:
                raise ValueError("provenance step %r: wrong number of arguments" % (step,)) from None
            bound = PRODUCERS[op](*args)
        elif op == "convert":
            if bound is None:
                raise ValueError("provenance step %r: no producer step before it" % (step,))
            bound = omega_from_omega_s(bound)
        elif op not in ("clamp", "note"):  # recorded by the producing op
            raise ValueError("unknown provenance step %r" % (step,))
    if bound is None:
        raise ValueError("provenance chain produced nothing")
    return bound


def describe(step):
    """One provenance step as text, e.g. `asi([5x5x5, 5x5x5], r=125)`."""
    op, args = step[0], step[1:]
    if op in ("asi", "geometric-mean"):
        blocks = ", ".join("%dx%dx%d" % b for b in args[0])
        return "%s([%s], r=%d)" % (op, blocks, args[1])
    if op == "commutative":
        return "commutative(%dx%dx%d, r=%d)" % args
    if op == "noncommutative":
        l, m, n, degrees, assumed = args
        return "noncommutative(%dx%dx%d, degrees=%s, assumed=%r)" % (
            l, m, n, list(degrees), assumed
        )
    if op == "family":
        return "family(m=%r)" % args
    if op == "given":
        return "given(%r)" % args
    if op == "convert":
        return "convert"
    if op == "clamp":
        return "clamp(%s)" % args[1]
    if op == "note":
        return "note(%s)" % args[0]
    return repr(step)
