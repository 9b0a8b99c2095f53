"""Command line entry point. Verbs cover construction, inspection,
realization, decomposition, the demos, bilinear products, and exponent
arithmetic. Exit codes: 0 success, 1 verification failure (witness on
stderr), 2 usage or input error. Runs are deterministic: randomized verbs
demand an explicit --seed."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .configuration import AxiomViolation, named_ints, read_ccfg, text_lines, write_ccfg
from .constructions import (
    direct_product,
    fusion,
    group_association_scheme,
    group_scheme,
    schurian,
    symmetric_power,
    trivial_configuration,
)
from .exponent import (
    construction_family_bound,
    describe,
    format_bound,
    geometric_mean_bound,
    given_bound,
    omega_from_omega_s,
    omega_s_commutative,
    reference_conversion_checks,
    solve_asi,
)
from .groups import (
    conjugation_action,
    left_translation_action,
    make_group,
    natural_action,
)
from .realization import (
    HypothesisViolation,
    RealizationInvalid,
    TripleFamily,
    diagonal_action,
    diagonal_example,
    fibers_realization,
    grp_as_realization,
    read_real,
    sympow_realization,
    verify_realization,
    write_real,
)
from .spectrum import SPECTRAL_CAP, DegreeComputationError, character_degrees
from .tensors import (
    WeightedMatMul,
    boolean_matmul,
    embedded_matmul,
    jminusi_demo,
    read_matrix,
    unweighting_check,
    write_matrix,
)


def _parse_action(desc):
    kind, _, rest = desc.partition(":")
    if kind == "translation" and rest:
        return left_translation_action(make_group(rest))
    if kind == "conjugation" and rest:
        return conjugation_action(make_group(rest))
    if kind == "diagonal" and rest:
        return diagonal_action(*named_ints("action %r" % desc, [rest]))
    if kind == "natural" and rest.startswith("sym:"):
        return natural_action(*named_ints("action %r" % desc, [rest.split(":", 1)[1]]))
    raise ValueError(
        "unknown action %r (want translation:G, conjugation:G, diagonal:N,"
        " natural:sym:N)" % desc
    )


def _read_partition(path):
    blocks = [named_ints("partition line %d" % number, line.split()) for number, line in text_lines(path)]
    if not blocks:
        raise ValueError("partition file %s has no blocks" % path)
    return blocks


def _read_blocks(path):
    out = []
    for number, line in text_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("block line needs three dimensions: %r" % line)
        out.append(tuple(named_ints("blocks line %d" % number, parts)))
    if not out:
        raise ValueError("blocks file %s is empty" % path)
    return out


def _read_family(path, group):
    triples = []
    for number, line in text_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError("family line needs three subsets: %r" % line)
        triples.append(tuple(tuple(named_ints("family line %d" % number, p.split(","))) for p in parts))
    return TripleFamily(group, tuple(triples))


def _print_bound(bound):
    prov = " -> ".join(describe(s) for s in bound.provenance)
    line = "%s <= %s (provenance: %s)" % (bound.kind, format_bound(bound.value), prov)
    print(line)
    for a in bound.assumptions:
        print("assumption: %s" % a)


# -- verb handlers -----------------------------------------------------------


BUILD_SPECS = {
    "group-scheme": "GROUP",
    "gas": "GROUP",
    "trivial": "N",
    "schurian": "ACTION",
    "product": "CCFG CCFG",
    "sympow": "CCFG K",
    "fuse": "CCFG PARTITION",
}


def cmd_build(args):
    check = args.check
    usage = BUILD_SPECS[args.what]
    if len(args.spec) != len(usage.split()):
        raise ValueError("usage: ccmm build %s %s" % (args.what, usage))
    if args.what == "group-scheme":
        cfg = group_scheme(make_group(args.spec[0]), check=check)
    elif args.what == "gas":
        cfg = group_association_scheme(make_group(args.spec[0]), check=check)
    elif args.what == "trivial":
        cfg = trivial_configuration(*named_ints("build trivial N", args.spec), check=check)
    elif args.what == "schurian":
        cfg = schurian(_parse_action(args.spec[0]), check=check)
    elif args.what == "product":
        c1 = read_ccfg(args.spec[0], check=check)
        c2 = read_ccfg(args.spec[1], check=check)
        cfg = direct_product(c1, c2, check=check)
    elif args.what == "sympow":
        base = read_ccfg(args.spec[0], check=check)
        cfg = symmetric_power(base, *named_ints("build sympow CCFG K", args.spec[1:]), check=check)
    else:
        base = read_ccfg(args.spec[0], check=check)
        cfg = fusion(base, _read_partition(args.spec[1]), check=check)
    write_ccfg(cfg, args.out or sys.stdout)
    return 0


def cmd_info(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    print(
        "points %d classes %d commutative %s scheme %s"
        % (
            cfg.n_points,
            cfg.rank,
            "true" if cfg.is_commutative() else "false",
            "true" if cfg.is_association_scheme() else "false",
        )
    )
    return 0


def cmd_degrees(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    prof = character_degrees(cfg, seed=args.seed, cap=args.cap)
    print(
        "degrees: %s ; residual: %.3e"
        % (" ".join(str(d) for d in prof.degrees), prof.residual)
    )
    return 0


def cmd_realize_verify(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    real = read_real(args.real)
    verify_realization(cfg, real)
    print("realization %d,%d,%d OK" % real.dims)
    return 0


def cmd_realize_fibers(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    real = fibers_realization(cfg)
    write_real(real, args.out or sys.stdout)
    if args.out:
        print("realization %d,%d,%d -> %s" % (real.dims + (args.out,)))
    return 0


def cmd_realize_diagonal(args):
    S = None
    if args.set is not None:
        S = tuple(named_ints("--set", args.set.split(",")))
    cfg, reals = diagonal_example(args.n, S=S)
    print(
        "points %d rank %d components %d"
        % (cfg.n_points, cfg.rank, len(reals))
    )
    if args.out_prefix:
        path = args.out_prefix + ".ccfg"
        write_ccfg(cfg, path)
        print("config -> %s" % path)
        for i, real in enumerate(reals):
            rp = "%s.%d.real" % (args.out_prefix, i)
            write_real(real, rp)
            print("component %d -> %s" % (i, rp))
    return 0


def cmd_realize_grp_as(args):
    group = make_group(args.group)
    family = _read_family(args.family, group)
    cfg, real = grp_as_realization(family)
    print(
        "points %d rank %d realization %d,%d,%d"
        % ((cfg.n_points, cfg.rank) + real.dims)
    )
    if args.out_prefix:
        write_ccfg(cfg, args.out_prefix + ".ccfg")
        write_real(real, args.out_prefix + ".real")
        print("config -> %s.ccfg" % args.out_prefix)
        print("realization -> %s.real" % args.out_prefix)
    return 0


def cmd_realize_sympow(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    reals = [read_real(p) for p in args.real]
    power, real = sympow_realization(cfg, reals)
    rank = power.rank
    print(
        "sym^%d realization %d,%d,%d in rank %d OK"
        % ((len(reals),) + real.dims + (rank,))
    )
    return 0


def cmd_demo_unweight(args):
    if args.seed is None:
        raise ValueError("demo unweight requires --seed")
    rep = unweighting_check(args.n, seed=args.seed)
    if rep.ok:
        print("PASS")
        return 0
    print("FAIL %r" % (rep.witness,), file=sys.stderr)
    return 1


def cmd_demo_jminusi(args):
    rep = jminusi_demo(args.n, tolerance=args.tolerance)
    print("n %d" % rep.n)
    print("rank_full %d" % rep.rank_plain)
    print("rank_weighted %d" % rep.rank_weighted)
    print("support_match %s" % ("true" if rep.support_match else "false"))
    return 0 if rep.ok else 1


def _load_weighted(args):
    cfg = read_ccfg(args.ccfg, check=args.check)
    real = read_real(args.real)
    return WeightedMatMul(cfg, real)


def cmd_matmul(args):
    W = _load_weighted(args)
    A = read_matrix(args.a)
    B = read_matrix(args.b)
    write_matrix(embedded_matmul(W, A, B), args.out or sys.stdout)
    return 0


def cmd_boolmm(args):
    W = _load_weighted(args)
    A = read_matrix(args.a)
    B = read_matrix(args.b)
    if args.randomized:
        if args.seed is None:
            raise ValueError("randomized boolmm requires --seed")
        C = boolean_matmul(
            W, A, B, seed=args.seed, repetitions=args.reps, deterministic=False
        )
    else:
        C = boolean_matmul(W, A, B)
    write_matrix([[Fraction(int(v)) for v in row] for row in C], args.out or sys.stdout)
    return 0


def cmd_exponent(args):
    if args.form == "commutative":
        dims = named_ints("--dims", args.dims.split(","))
        if len(dims) != 3:
            raise ValueError("--dims needs three sizes l,m,n, not %r" % args.dims)
        _print_bound(omega_s_commutative(*dims, args.rank))
    elif args.form == "asi":
        _print_bound(solve_asi(_read_blocks(args.blocks), args.rank))
    elif args.form == "gm":
        _print_bound(geometric_mean_bound(_read_blocks(args.blocks), args.rank))
    elif args.form == "family":
        _print_bound(construction_family_bound(args.m))
    elif args.form == "convert":
        if args.omega_s is not None:
            value = args.omega_s
        else:
            line = sys.stdin.readline()
            parts = line.split()
            if len(parts) < 3 or parts[0] != "omega_s" or parts[1] != "<=":
                raise ValueError("stdin must carry a line `omega_s <= X ...`")
            try:
                value = float(parts[2])
            except ValueError:
                raise ValueError("stdin line 1: %r is not a number" % parts[2]) from None
        bound = omega_from_omega_s(given_bound(value))
        print("omega <= %s" % format_bound(bound.value))
    elif args.form == "check-conversions":
        ok = True
        for row in reference_conversion_checks():
            status = "ok" if row["ok"] else "FAIL"
            ok = ok and row["ok"]
            print(
                "omega_s %.4g -> omega %s (target %.4g) %s"
                % (row["omega_s"], format_bound(row["omega"]), row["target"], status)
            )
        return 0 if ok else 1
    else:
        raise ValueError("unknown exponent form %r" % args.form)
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, like input errors, exit 2 with one `error:` line."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser():
    """Each verb takes only the options it reads: --check where it reads a
    ccfg file or builds a configuration, --seed, --cap and --tolerance
    where its computation takes them."""
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument(
        "--check",
        choices=["full", "sampled", "trusted"],
        default="full",
        help="verification mode for configuration inputs",
    )

    p = _Parser(prog="ccmm", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", parents=[check], help="construct a configuration")
    b.add_argument("what", choices=list(BUILD_SPECS))
    b.add_argument("spec", nargs="+")
    b.add_argument("-o", "--out", default=None)
    b.set_defaults(func=cmd_build)

    i = sub.add_parser("info", parents=[check], help="summarize a configuration file")
    i.add_argument("ccfg")
    i.set_defaults(func=cmd_info)

    d = sub.add_parser("degrees", parents=[check], help="character degrees")
    d.add_argument("ccfg")
    d.add_argument("--seed", type=int, default=0, help="seed of the floating-point cross-check")
    d.add_argument("--cap", type=int, default=SPECTRAL_CAP, help="largest rank (points up to twice it)")
    d.set_defaults(func=cmd_degrees)

    r = sub.add_parser("realize", help="build and verify realizations")
    rs = r.add_subparsers(dest="mode", required=True)
    rv = rs.add_parser("verify", parents=[check])
    rv.add_argument("--ccfg", required=True)
    rv.add_argument("--real", required=True)
    rv.set_defaults(func=cmd_realize_verify)
    rf = rs.add_parser("fibers", parents=[check])
    rf.add_argument("--ccfg", required=True)
    rf.add_argument("-o", "--out", default=None)
    rf.set_defaults(func=cmd_realize_fibers)
    rd = rs.add_parser("diagonal-example")
    rd.add_argument("--n", type=int, required=True)
    rd.add_argument("--set", default=None, help="comma-separated 3AP-free set")
    rd.add_argument("--out-prefix", default=None)
    rd.set_defaults(func=cmd_realize_diagonal)
    rg = rs.add_parser("grp-as")
    rg.add_argument("--group", required=True)
    rg.add_argument("--family", required=True, help="file: one `A B C` line per triple")
    rg.add_argument("--out-prefix", default=None)
    rg.set_defaults(func=cmd_realize_grp_as)
    rp = rs.add_parser("sympow", parents=[check])
    rp.add_argument("--ccfg", required=True)
    rp.add_argument("--real", action="append", required=True)
    rp.set_defaults(func=cmd_realize_sympow)

    dm = sub.add_parser("demo", help="constructive demonstrations")
    ds = dm.add_subparsers(dest="which", required=True)
    du = ds.add_parser("unweight")
    du.add_argument("--n", type=int, required=True)
    du.add_argument("--seed", type=int, default=None, help="random seed (required)")
    du.set_defaults(func=cmd_demo_unweight)
    dj = ds.add_parser("jminusi")
    dj.add_argument("--n", type=int, required=True)
    dj.add_argument("--tolerance", type=float, default=1e-8, help="singular-value tolerance")
    dj.set_defaults(func=cmd_demo_jminusi)

    operands = argparse.ArgumentParser(add_help=False, parents=[check])
    for flag in ("--ccfg", "--real", "--a", "--b"):
        operands.add_argument(flag, required=True)
    operands.add_argument("-o", "--out", default=None)
    mm = sub.add_parser("matmul", parents=[operands], help="exact product via a realization")
    mm.set_defaults(func=cmd_matmul)
    bm = sub.add_parser("boolmm", parents=[operands], help="Boolean product via a realization")
    bm.add_argument("--randomized", action="store_true")
    bm.add_argument("--seed", type=int, default=None, help="random seed (required with --randomized)")
    bm.add_argument("--reps", type=int, default=20)
    bm.set_defaults(func=cmd_boolmm)

    e = sub.add_parser("exponent", help="exponent bounds")
    es = e.add_subparsers(dest="form", required=True)
    ec = es.add_parser("commutative")
    ec.add_argument("--dims", required=True, help="l,m,n")
    ec.add_argument("--rank", type=int, required=True)
    ec.set_defaults(func=cmd_exponent)
    ea = es.add_parser("asi")
    ea.add_argument("--blocks", required=True, help="file: one `l m n` line per block")
    ea.add_argument("--rank", type=int, required=True)
    ea.set_defaults(func=cmd_exponent)
    eg = es.add_parser("gm")
    eg.add_argument("--blocks", required=True)
    eg.add_argument("--rank", type=int, required=True)
    eg.set_defaults(func=cmd_exponent)
    ef = es.add_parser("family")
    ef.add_argument("--m", type=float, required=True)
    ef.set_defaults(func=cmd_exponent)
    ev = es.add_parser("convert")
    ev.add_argument("--omega-s", type=float, default=None, dest="omega_s")
    ev.set_defaults(func=cmd_exponent)
    ek = es.add_parser("check-conversions")
    ek.set_defaults(func=cmd_exponent)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        AxiomViolation,
        RealizationInvalid,
        HypothesisViolation,
        DegreeComputationError,
    ) as exc:
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print("witness: %r" % (witness,), file=sys.stderr)
        print("verification failed: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
