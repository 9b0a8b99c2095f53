"""The three benchmark workloads: degrees, realize and build.

Each workload generates its inputs from the seed when it is constructed,
then runs any number of passes. A pass is a closed loop over the public API
of ccmm, one operation at a time. Every operation is timed on its own and
belongs to one phase of the workload; its result is checked against an
oracle from oracles.py outside the timed region. Each pass starts with the
same probe: one minimal call into every traced layer, so that every layer
metric is measured on every workload and per-call fixed cost stays visible.

summarize() turns the passes of a run into metrics. Each operation counts
with its fastest repetition in the run: interference from other tenants of
the host only ever adds time, and comes in bursts of seconds that a single
repetition of a short operation can miss.
"""

import contextlib
import io
import math
import os
import random
import shutil
import tempfile
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

import oracles

clock = time.perf_counter


class Checks:
    """Counts checks attempted and failed; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def unexpected(self, what, exc):
        self.check(False, "%s raised %s: %s" % (what, type(exc).__name__, exc))


class NoTrace:
    """Stand-in for spans.Tracer in untraced passes."""

    def operation(self, name):
        return contextlib.nullcontext()


# The reference kernel: a fixed mix of the work ccmm does (Fraction
# elimination, dict-of-dict counting, numpy unique). It is timed between the
# operations of every pass so that its fastest time in a run measures the
# speed of the host during that run. It must never change: every
# normalized metric is a raw time scaled by KERNEL_REF_S / kernel time.
KERNEL_REF_S = 0.010
KERNEL_EVERY_S = 0.25
_KRNG = random.Random(7)
_KERNEL_MATRIX = [[Fraction(_KRNG.randint(-50, 50), _KRNG.randint(1, 9)) for _ in range(10)] for _ in range(10)]
_KERNEL_KEYS = np.random.default_rng(7).integers(0, 50_000, 200_000)


def reference_kernel():
    M = [row[:] for row in _KERNEL_MATRIX]
    n = len(M)
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c])
        M[c], M[piv] = M[piv], M[c]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    slices = {}
    for t in range(6000):
        d = slices.setdefault((t % 97, t % 89), {})
        d[t % 83] = d.get(t % 83, 0) + t
    total = sum(v for d in slices.values() for v in d.values())
    _, counts = np.unique(_KERNEL_KEYS, return_counts=True)
    return total + int(counts.max())


class Pass:
    """Operation times of one pass: name -> [phase, seconds, items], and
    the reference kernel's times between them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = {}
        self.kernel = []
        self._kernel_at = -1e9
        self.stats = {"cfg_attempted": 0, "cfg_rejected": 0, "real_attempted": 0, "real_rejected": 0, "products": 0}

    @contextlib.contextmanager
    def op(self, phase, name, items=1):
        """Time the block as one operation; the block may set rec[2], the
        number of items the operation completed."""
        if name in self.ops:
            raise KeyError("operation %s timed twice in one pass" % name)
        if clock() - self._kernel_at > KERNEL_EVERY_S:
            t0 = clock()
            reference_kernel()
            self._kernel_at = clock()
            self.kernel.append(self._kernel_at - t0)
        rec = [phase, 0.0, items]
        with self.tracer.operation(name):
            t0 = clock()
            try:
                yield rec
            finally:
                rec[1] = clock() - t0
        self.ops[name] = rec


def summarize(passes, report):
    """Metrics of a run from its passes. report lists (metric, phase, kind):
    kind "s" is the phase's seconds, kind "rate" its items per second.
    wall_s is the sum over every operation; host_factor is the fastest
    reference kernel time of the run over KERNEL_REF_S."""
    best = {}
    for p in passes:
        for name, rec in p.ops.items():
            if name not in best or rec[1] < best[name][1]:
                best[name] = rec
    seconds = defaultdict(float)
    items = defaultdict(int)
    for phase, sec, n in best.values():
        seconds[phase] += sec
        items[phase] += n
    out = {"wall_s": sum(seconds.values())}
    out["host_factor"] = min(t for p in passes for t in p.kernel) / KERNEL_REF_S
    for metric, phase, kind in report:
        if kind == "s":
            out[metric] = seconds[phase]
        else:
            out[metric] = items[phase] / seconds[phase] if seconds[phase] else 0.0
    return out


def _rationals(rng, rows, cols):
    return [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(cols)] for _ in range(rows)]


def _bits(rng, rows, cols):
    return [[1 if rng.random() < 0.35 else 0 for _ in range(cols)] for _ in range(rows)]


def _strata(rng, size, k):
    """k indices in [0, size), one drawn from each of k equal strata, so the
    mix of early and late positions is the same for every seed."""
    k = min(k, size)
    return [rng.randrange(s * size // k, (s + 1) * size // k) for s in range(k)]


class Workload:
    name = None
    REPORT = []  # (metric, phase, kind) as in summarize()

    def __init__(self, lib, seed, size, fault):
        self.lib = lib
        self.tiny = size == "tiny"
        self.fault = fault  # flip one oracle answer, for the self-test
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.probe_inputs = {
            "A": _rationals(self.rng, 2, 2),
            "B": _rationals(self.rng, 2, 2),
            "seed": self.rng.randrange(1 << 16),
        }

    def expect(self, value, wrong):
        """The oracle answer, or a wrong one when a fault is injected."""
        if self.fault:
            self.fault = False
            return wrong
        return value

    def run_pass(self, tracer, ck):
        p = Pass(tracer)
        self.probe(p, ck)
        self.body(p, ck)
        return p

    # -- probe --------------------------------------------------------------

    def probe(self, p, ck):
        """One minimal call into every traced layer."""
        L = self.lib
        P = self.probe_inputs
        with p.op("probe", "probe"):
            cfg = L.constructions.trivial_configuration(2)
            prof = L.spectrum.character_degrees(cfg)
            real = L.realization.fibers_realization(cfg)
            W = L.tensors.WeightedMatMul(cfg, real)
            C = L.tensors.embedded_matmul(W, P["A"], P["B"])
            bm = L.tensors.boolean_matmul(W, [[1, 0], [1, 1]], [[0, 1], [1, 0]], seed=P["seed"], repetitions=1, deterministic=False)
            dcfg, dreals = L.realization.diagonal_example(2)
            _, vreal = L.realization.sympow_realization(dcfg, dreals[:1], materialize=False)
            big = L.constructions.symmetric_power(cfg, 2)
            sp_rank = L.constructions.symmetric_power_rank(cfg, 2)
            gas = L.constructions.group_association_scheme(L.groups.make_group("cyclic:3"))
            act = L.groups.left_translation_action(L.groups.make_group("cyclic:2"))
            _, areal = L.realization.action_realization(act, [0], [0], [0])
            conj = L.constructions.schurian(L.groups.conjugation_action(L.groups.make_group("cyclic:2")))
            buf = io.StringIO()
            L.configuration.write_ccfg(gas, buf)
            back = L.configuration.read_ccfg(io.StringIO(buf.getvalue()))
            unweight = L.tensors.unweighting_check(1, seed=P["seed"])
            tfs = L.sets.triangle_free_set(2)
            asi = L.exponent.solve_asi([(2, 2, 2)], 6)
            om = L.exponent.omega_s_noncommutative(2, 2, 2, prof.degrees)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = L.cli.main(["exponent", "family", "--m", "10"])
        p.stats["products"] += 1
        ck.check(prof.degrees == (2,), "probe degrees")
        ck.check(C == oracles.naive_product(P["A"], P["B"]), "probe product")
        ck.check(np.array_equal(bm, [[0, 1], [1, 1]]), "probe boolean product")
        ck.check(vreal.dims == (2, 2, 2), "probe staged symmetric power")
        ck.check(big.rank == oracles.sym_power_rank(4, 2) == sp_rank, "probe symmetric power")
        ck.check((gas.rank, areal.dims, conj.rank) == (3, (1, 1, 1), 2), "probe group constructions")
        ck.check(np.array_equal(back.matrix, gas.matrix), "probe ccfg round trip")
        ck.check(unweight.ok and len(tfs) > 0, "probe unweighting")
        ck.check(abs(asi.value - 3 * math.log(6) / math.log(8)) < 1e-9, "probe asi %r" % asi.value)
        ck.check(abs(om.value - oracles.omega_noncommutative(2, 2, 2, (2,))) < 1e-12, "probe omega")
        ck.check(rc == 0 and out.getvalue().startswith("omega_s <= "), "probe cli")
        # one rejected corruption of each kind
        mat = gas.matrix.copy()
        mat[0, 1] = mat[0, 0]  # a diagonal class off the diagonal
        self.reject_matrix(p, ck, "probe", mat, phase="probe")
        bad = L.realization.Realization(real.alpha, real.beta, real.gamma.copy())
        bad.gamma[0, 0] = bad.gamma[1, 1]
        self.reject_realization(p, ck, "probe", cfg, oracles.TriangleOracle(cfg.matrix), bad, phase="probe")

    # -- rejections -------------------------------------------------------------

    def reject_matrix(self, p, ck, name, mat, phase="reject"):
        """from_class_matrix must reject exactly the incoherent matrices,
        each with a witness."""
        L = self.lib
        p.stats["cfg_attempted"] += 1
        outcome = None
        with p.op(phase, "reject-matrix:" + name, items=0) as rec:
            try:
                L.configuration.CoherentConfiguration.from_class_matrix(mat)
            except L.configuration.AxiomViolation as exc:
                outcome = exc
                rec[2] = 1
            except Exception as exc:  # any other exception fails the check
                outcome = exc
        if outcome is not None and not isinstance(outcome, L.configuration.AxiomViolation):
            ck.unexpected("from_class_matrix on corrupted matrix %s" % name, outcome)
            return
        want = self.expect(oracles.coherent(mat), None)
        ck.check(want == (outcome is None), "corrupted matrix %s: verdict %r, coherent %r" % (name, outcome, want))
        if outcome is not None:
            p.stats["cfg_rejected"] += 1
            ok = bool(outcome.witness)
            if outcome.axiom == 3:
                ok = ok and oracles.axiom3_witness_holds(mat, outcome.witness)
            ck.check(ok, "axiom %d witness %r" % (outcome.axiom, outcome.witness))

    def reject_realization(self, p, ck, name, cfg, oracle, real, phase="reject"):
        """verify_realization must reject exactly the invalid realizations,
        each with a witness that names a real violation."""
        L = self.lib
        p.stats["real_attempted"] += 1
        outcome = None
        with p.op(phase, "reject-realization:" + name, items=0) as rec:
            try:
                L.realization.verify_realization(cfg, real)
            except L.realization.RealizationInvalid as exc:
                outcome = exc
                rec[2] = 1
            except Exception as exc:  # any other exception fails the check
                outcome = exc
        if outcome is not None and not isinstance(outcome, L.realization.RealizationInvalid):
            ck.unexpected("verify_realization on corrupted realization %s" % name, outcome)
            return
        valid = oracle.verdict(real.alpha, real.beta, real.gamma)
        ck.check(valid == (outcome is None), "corrupted realization %s: verdict %r, valid %r" % (name, outcome, valid))
        if outcome is not None:
            p.stats["real_rejected"] += 1
            ck.check(
                oracle.witness_holds(outcome.witness, real.alpha, real.beta, real.gamma),
                "realization witness %r" % (outcome.witness,),
            )


# ---------------------------------------------------------------------------


class Degrees(Workload):
    """Certify degree profiles: a ladder of growing rank plus a batch of
    small configurations."""

    name = "degrees"
    REPORT = [("profile_s", "ladder", "s"), ("small_profiles_per_s", "batch", "rate")]
    # exact center on the diagonal rungs, floating-point degree path on the
    # commutative wreath rungs (many points per class)
    LADDER = [("diagonal", 3), ("diagonal", 4), ("gas", "wreath:2:cyclic:6"), ("gas", "wreath:2:cyclic:7")]
    GROUPS = ["cyclic:%d" % m for m in range(1, 13)] + [
        "abelian:2x2",
        "abelian:4x2",
        "abelian:2x2x2",
        "abelian:3x3",
        "abelian:6x2",
        "sym:3",
        "sym:4",
        "wreath:2:cyclic:2",
        "wreath:2:cyclic:3",
    ]

    def __init__(self, lib, seed, size, fault):
        super().__init__(lib, seed, size, fault)
        if self.tiny:
            ladder = [("diagonal", 2), ("diagonal", 3), ("gas", "sym:3")]
            groups = ["cyclic:2", "sym:3"]
            trivials = [2]
        else:
            ladder = list(self.LADDER)
            groups = list(self.GROUPS)
            trivials = [2, 3, 4, 5, 6]
        batch = [("gs", g) for g in groups] + [("gas", g) for g in groups] + [("trivial", n) for n in trivials]
        self.rng.shuffle(ladder)
        self.rng.shuffle(batch)
        self.ladder = [(kind, arg, self.rng.randrange(1 << 16)) for kind, arg in ladder]
        self.batch = [(kind, arg, self.rng.randrange(1 << 16)) for kind, arg in batch]

    def _expected(self, kind, arg):
        if kind == "diagonal":
            return (arg,) * arg
        if kind == "gas":
            return (1,) * oracles.class_count(arg)
        if kind == "trivial":
            return (arg,)
        return tuple(sorted(oracles.group_scheme_degrees(arg)))

    def _build(self, kind, arg):
        L = self.lib
        if kind == "diagonal":
            return L.constructions.schurian(L.realization.diagonal_action(arg))
        if kind == "gas":
            return L.constructions.group_association_scheme(L.groups.make_group(arg))
        if kind == "gs":
            return L.constructions.group_scheme(L.groups.make_group(arg))
        return L.constructions.trivial_configuration(arg)

    def _profile(self, p, ck, phase, kind, arg, seed):
        """Build with the full check, certify the degree profile and, on
        diagonal rungs, bound omega_s."""
        L = self.lib
        bound = None
        try:
            with p.op(phase, "%s:%s:%s" % (phase, kind, arg)):
                cfg = self._build(kind, arg)
                prof = L.spectrum.character_degrees(cfg, seed=seed)
                if kind == "diagonal":
                    bound = L.exponent.omega_s_noncommutative(arg, arg, arg, prof.degrees)
        except Exception as exc:  # a failed operation fails its checks
            ck.unexpected("%s %s" % (kind, arg), exc)
            return
        want = self.expect(self._expected(kind, arg), ())
        ck.check(tuple(sorted(prof.degrees)) == want, "%s %s degrees %s" % (kind, arg, prof.degrees))
        ck.check(sum(d * d for d in prof.degrees) == cfg.rank, "%s %s sum of squares" % (kind, arg))
        ck.check(prof.residual < 1e-6, "%s %s residual %g" % (kind, arg, prof.residual))
        if bound is not None:
            want_om = oracles.omega_noncommutative(arg, arg, arg, want)
            ck.check(abs(bound.value - want_om) < 1e-12, "omega_s for diagonal %d" % arg)

    def body(self, p, ck):
        for rung in self.ladder:
            self._profile(p, ck, "ladder", *rung)
        for item in self.batch:
            self._profile(p, ck, "batch", *item)


# ---------------------------------------------------------------------------


class Realize(Workload):
    """Build verified realizations, multiply through them, and reject
    corrupted copies."""

    name = "realize"
    REPORT = [
        ("realize_s", "realize", "s"),
        ("matmul_per_s", "matmul", "rate"),
        ("boolmm_per_s", "boolmm", "rate"),
        ("reject_per_s", "reject", "rate"),
    ]

    def __init__(self, lib, seed, size, fault):
        super().__init__(lib, seed, size, fault)
        rng = self.rng
        if self.tiny:
            self.diagonals = [(3, 2)]  # (n, components)
            self.trivials = [2]
            self.families = []
            self.sympow = []
            self.products, self.corruptions, self.bool_pairs, self.unweights = 1, 1, 1, 1
            self.bool_n = 2
        else:
            self.diagonals = [(5, 2), (7, 3), (9, 4), (11, 4)]
            self.trivials = [4, 8]
            self.families = [
                ("cyclic:8", (((0, 1), (0, 2), (0, 4)),), (2, 2, 2)),
                ("cyclic:4", (((0,), (0,), (0,)), ((0,), (1,), (2,))), (1, 1, 1)),
            ]
            # (diagonal n, materialize): Sym^2 of two components of each
            self.sympow = [(5, False), (4, True)]
            self.products, self.corruptions, self.bool_pairs, self.unweights = 3, 2, 4, 3
            self.bool_n = 8
        dims = [(n, n, n) for n, comps in self.diagonals for _ in range(comps)]
        dims += [(n, n, n) for n in self.trivials]
        dims += [d for _, _, d in self.families]
        dims += [(n * n,) * 3 for n, mat in self.sympow if mat]
        # inputs per realization, in build order
        self.inputs = []
        for l, m, n in dims:
            corrupt = []
            for which, count in (("alpha", l * m), ("beta", m * n), ("gamma", n * l)):
                corrupt += [(which, idx, rng.random()) for idx in _strata(rng, count, self.corruptions)]
            products = [(_rationals(rng, l, m), _rationals(rng, m, n)) for _ in range(self.products)]
            self.inputs.append({"products": products, "corrupt": corrupt})
        b = self.bool_n
        self.bool_inputs = [(_bits(rng, b, b), _bits(rng, b, b), rng.randrange(1 << 16)) for _ in range(self.bool_pairs)]
        self.unweight_seeds = [rng.randrange(1 << 16) for _ in range(self.unweights)]

    def _realizations(self, p, ck):
        """Build every realization; returns [(configuration, realization)]
        for those that live in a configuration."""
        L = self.lib
        R = L.realization
        built = []
        diag = {}
        for n, comps in self.diagonals:
            with p.op("realize", "diagonal:%d" % n):
                cfg, reals = R.diagonal_example(n)
                asi = L.exponent.solve_asi([r.dims for r in reals], cfg.rank)
            diag[n] = (cfg, reals)
            ck.check(len(reals) == comps and cfg.rank == n**3, "diagonal %d shape" % n)
            want = 3 - math.log(len(reals)) / math.log(n)
            ck.check(abs(asi.value - want) < 1e-9, "asi bound for diagonal %d" % n)
            built += [(cfg, r) for r in reals]
        for n in self.trivials:
            with p.op("realize", "fibers:%d" % n):
                cfg = L.constructions.trivial_configuration(n)
                real = R.fibers_realization(cfg)
            built.append((cfg, real))
        for desc, triples, dims in self.families:
            with p.op("realize", "grp-as:%s" % desc):
                cfg, real = R.grp_as_realization(R.TripleFamily(L.groups.make_group(desc), triples))
            ck.check(real.dims == dims, "grp-as %s dims" % desc)
            built.append((cfg, real))
        for n, mat in self.sympow:
            with p.op("realize", "sympow:%d:%s" % (n, "materialized" if mat else "staged")):
                cfg, reals = diag[n] if n in diag else R.diagonal_example(n)
                power, real = R.sympow_realization(cfg, reals[:2], materialize=mat)
            ck.check(real.dims == (n * n,) * 3, "sympow %d dims" % n)
            ck.check(power.rank == oracles.sym_power_rank(cfg.rank, 2), "sympow %d rank" % n)
            if mat:
                built.append((power, real))
        return built

    def body(self, p, ck):
        L = self.lib
        built = self._realizations(p, ck)
        for r, ((cfg, real), inp) in enumerate(zip(built, self.inputs)):
            oracle = oracles.TriangleOracle(cfg.matrix)
            ck.check(oracle.verdict(real.alpha, real.beta, real.gamma), "built realization %d valid" % r)
            with p.op("matmul", "matmul:%d" % r, items=len(inp["products"])):
                W = L.tensors.WeightedMatMul(cfg, real)
                got = [L.tensors.embedded_matmul(W, A, B) for A, B in inp["products"]]
            p.stats["products"] += len(got)
            for k, ((A, B), C) in enumerate(zip(inp["products"], got)):
                want = oracles.naive_product(A, B)
                want = self.expect(want, want[1:])
                ck.check(C == want, "embedded product %d of realization %d" % (k, r))
            for which, idx, pick in inp["corrupt"]:
                maps = {"alpha": real.alpha.copy(), "beta": real.beta.copy(), "gamma": real.gamma.copy()}
                arr = maps[which]
                old = int(arr.flat[idx])
                new = int(pick * (cfg.rank - 1))
                arr.flat[idx] = new + (new >= old)
                bad = L.realization.Realization(maps["alpha"], maps["beta"], maps["gamma"])
                self.reject_realization(p, ck, "%d:%s:%d" % (r, which, idx), cfg, oracle, bad)
        with p.op("boolmm", "boolmm:weights", items=0):
            cfg = L.constructions.trivial_configuration(self.bool_n)
            W = L.tensors.WeightedMatMul(cfg, L.realization.fibers_realization(cfg))
        for k, (A, B, seed) in enumerate(self.bool_inputs):
            with p.op("boolmm", "boolmm:%d" % k):
                got = L.tensors.boolean_matmul(W, A, B, seed=seed, repetitions=20, deterministic=False)
            ck.check(np.array_equal(got, oracles.boolean_product(A, B)), "boolean product %d" % k)
        for k, seed in enumerate(self.unweight_seeds):
            with p.op("unweight", "unweight:%d" % k):
                rep = L.tensors.unweighting_check(2 if self.tiny else 3, seed=seed)
            ck.check(rep.ok, "unweighting seed %d" % seed)


# ---------------------------------------------------------------------------


class Build(Workload):
    """Certified constructions, text round trips, symmetric-power counts,
    rejected corruptions and the command-line verbs."""

    name = "build"
    REPORT = [
        ("build_s", "build", "s"),
        ("reverify_s", "reverify", "s"),
        ("sympow_rank_s", "sympow_rank", "s"),
        ("cli_s", "cli", "s"),
        ("reject_per_s", "reject", "rate"),
    ]
    GROUPS = ["wreath:2:cyclic:8", "wreath:3:cyclic:4", "sym:5", "abelian:4x4", "cyclic:12"]
    SYMPOW_RANKS = [("cyclic:12", 3), ("abelian:4x4", 3), ("sym:4", 2), ("cyclic:5", 2)]
    # built class matrices that receive corruptions; small enough for the
    # dense coherence oracle
    CORRUPT = ["gs:abelian:4x4", "gs:cyclic:12", "fusion", "conjugation:wreath:2:cyclic:4", "gas:sym:5"]

    def __init__(self, lib, seed, size, fault):
        super().__init__(lib, seed, size, fault)
        rng = self.rng
        if self.tiny:
            self.groups = ["cyclic:4", "sym:3"]
            self.conj = "cyclic:3"
            self.fuse, self.powers = "cyclic:4", [("cyclic:3", 3), ("cyclic:4", 2)]
            self.sympow_ranks = [("cyclic:3", 2), ("sym:3", 2)]
            self.corrupt_targets = ["gs:cyclic:4", "fusion"]
            self.per_target = 2
            self.cli_gas, self.cli_n = "sym:3", 3
        else:
            self.groups = list(self.GROUPS)
            self.conj = "wreath:2:cyclic:4"
            self.fuse, self.powers = "cyclic:12", [("cyclic:4", 3), ("cyclic:12", 2)]
            self.sympow_ranks = list(self.SYMPOW_RANKS)
            self.corrupt_targets = list(self.CORRUPT)
            self.per_target = 24
            self.cli_gas, self.cli_n = "wreath:2:cyclic:8", 9
        self.sample_seed = rng.randrange(1 << 30)
        self.corruptions = {
            target: [(s, rng.random(), rng.random()) for s in range(self.per_target)] for target in self.corrupt_targets
        }
        n = self.cli_n
        self.cli_inputs = {
            "A": _rationals(rng, n, n),
            "B": _rationals(rng, n, n),
            "BA": _bits(rng, n, n),
            "BB": _bits(rng, n, n),
            "seed": rng.randrange(1 << 16),
        }

    def _constructions(self, p, ck):
        """Build every configuration and its intersection numbers."""
        L = self.lib
        C = L.constructions
        out = {}

        def timed(name, fn):
            with p.op("build", "build:" + name):
                cfg = fn()
                cfg.intersection()
            out[name] = cfg
            return cfg

        for desc in self.groups:
            with p.op("build", "build:table:" + desc):
                G = L.groups.make_group(desc)
                G.table()
            gs = timed("gs:" + desc, lambda: C.group_scheme(G))
            gas = timed("gas:" + desc, lambda: C.group_association_scheme(G))
            ck.check(gs.rank == oracles.group_order(desc), "group scheme %s rank" % desc)
            ck.check(gas.rank == oracles.class_count(desc), "gas %s rank %d" % (desc, gas.rank))
        conj = timed(
            "conjugation:" + self.conj,
            lambda: C.schurian(L.groups.conjugation_action(L.groups.make_group(self.conj))),
        )
        ck.check(conj.rank == oracles.class_count(self.conj), "conjugation scheme rank")
        small = [d for d in self.groups if oracles.group_order(d) <= 16]
        a, b = out["gs:" + small[0]], out["gs:" + small[-1]]
        prod = timed("product", lambda: C.direct_product(a, b))
        ck.check(prod.rank == a.rank * b.rank, "direct product rank")
        # symmetrization of an abelian group scheme: merge each class with
        # its transpose
        base = out["gs:" + self.fuse]
        blocks = sorted({tuple(sorted({i, base.star(i)})) for i in range(base.rank)})
        fused = timed("fusion", lambda: C.fusion(base, blocks))
        ck.check(fused.rank == len(blocks) and oracles.coherent(fused.matrix), "fusion")
        for desc, k in self.powers:
            power = timed("sympow:%s:%d" % (desc, k), lambda: C.symmetric_power(C.group_scheme(L.groups.make_group(desc)), k))
            want = oracles.sym_power_rank(oracles.group_order(desc), k)
            ck.check(power.rank == want, "symmetric power %s^%d rank" % (desc, k))
        return out

    def _check_tensors(self, ck, built):
        """Sampled intersection numbers against point-level counts."""
        rng = random.Random(self.sample_seed)
        for name, cfg in built.items():
            M = cfg.matrix.astype(np.int64)
            n = len(M)
            t = cfg.intersection()
            ok = True
            for _ in range(8):
                x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                i, j, k = M[x, z], M[z, y], M[x, y]
                count = int(((M[x, :] == i) & (M[:, y] == j)).sum())
                ok = ok and t.p(int(i), int(j), int(k)) == count
            ck.check(ok, "intersection numbers of %s" % name)

    def _round_trips(self, p, ck, built, tmp):
        L = self.lib
        for idx, (name, cfg) in enumerate(built.items()):
            path = os.path.join(tmp, "c%d.ccfg" % idx)
            with p.op("reverify", "roundtrip:" + name):
                L.configuration.write_ccfg(cfg, path)
                back = L.configuration.read_ccfg(path, check="full")
            same = back.rank == cfg.rank and np.array_equal(back.matrix, cfg.matrix)
            ck.check(same, "ccfg round trip of %s" % name)

    def _sympow_ranks(self, p, ck):
        L = self.lib
        for desc, k in self.sympow_ranks:
            with p.op("sympow_rank", "sympow-rank:%s:%d" % (desc, k)):
                cfg = L.constructions.group_scheme(L.groups.make_group(desc))
                got = L.constructions.symmetric_power_rank(cfg, k)
            want = self.expect(oracles.sym_power_rank(oracles.group_order(desc), k), -1)
            ck.check(got == want, "sympow rank %s^%d: %d" % (desc, k, got))

    def _rejects(self, p, ck, built):
        for target in self.corrupt_targets:
            cfg = built[target]
            M = cfg.matrix.astype(np.int64)
            n, r = len(M), cfg.rank
            for stratum, u, v in self.corruptions[target]:
                x = (stratum * n) // self.per_target
                y = (x + 1 + int(u * (n - 1))) % n
                old = int(M[x, y])
                new = int(v * (r - 1))
                new += new >= old
                bad = M.copy()
                bad[x, y] = new
                bad[y, x] = cfg.star(new)
                self.reject_matrix(p, ck, "%s:%d" % (target, stratum), bad)

    def _cli(self, p, ck, tmp):
        L = self.lib
        P = self.cli_inputs
        n = self.cli_n

        def f(name):
            return os.path.join(tmp, name)

        for name in ("A", "B", "BA", "BB"):
            rows = P[name]
            with open(f(name + ".mat"), "w") as fh:
                fh.write("%d %d\n" % (len(rows), len(rows[0])))
                fh.writelines(" ".join(str(v) for v in row) + "\n" for row in rows)
        gas_points = oracles.group_order(self.cli_gas)
        gas_rank = oracles.class_count(self.cli_gas)
        family = oracles.omega_family(10)
        dfiles = ["--ccfg", f("d.ccfg"), "--real", f("d.0.real")]
        verbs = [
            (["build", "gas", self.cli_gas, "-o", f("g.ccfg")], ""),
            (["info", f("g.ccfg")], "points %d classes %d commutative true scheme true\n" % (gas_points, gas_rank)),
            (["realize", "diagonal-example", "--n", str(n), "--out-prefix", f("d")], "points %d rank %d " % (n * n, n**3)),
            (["realize", "verify"] + dfiles, "realization %d,%d,%d OK\n" % (n, n, n)),
            (["matmul"] + dfiles + ["--a", f("A.mat"), "--b", f("B.mat"), "-o", f("C.mat")], ""),
            (
                ["boolmm"] + dfiles + ["--a", f("BA.mat"), "--b", f("BB.mat"), "--randomized", "--seed", str(P["seed"]), "-o", f("D.mat")],
                "",
            ),
            (["exponent", "family", "--m", "10"], "omega_s <= %.4f " % (math.floor(family * 1e4) / 1e4)),
            (
                ["exponent", "convert", "--omega-s", repr(family)],
                "omega <= %.4f\n" % (math.floor(oracles.omega_convert(family) * 1e4) / 1e4),
            ),
        ]
        for argv, want in verbs:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                with p.op("cli", "cli:" + " ".join(argv[:2])):
                    rc = L.cli.main(argv)
            text = out.getvalue()
            ck.check(rc == 0 and text.startswith(want), "ccmm %s -> %r %r" % (" ".join(argv[:2]), rc, text[:80]))
        with open(f("g.ccfg")) as fh:
            head = fh.read().split("\n", 2)[:2]
        ck.check(head == ["ccfg 1", "points %d classes %d" % (gas_points, gas_rank)], "built ccfg header")
        ck.check(_read_matrix(f("C.mat")) == oracles.naive_product(P["A"], P["B"]), "cli matmul output")
        ck.check(_read_matrix(f("D.mat")) == oracles.boolean_product(P["BA"], P["BB"]).tolist(), "cli boolmm output")

    def body(self, p, ck):
        built = self._constructions(p, ck)
        self._check_tensors(ck, built)
        root = os.environ["PERFBENCH_SCRATCH"]
        os.makedirs(root, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=root)
        try:
            self._round_trips(p, ck, built, tmp)
            self._sympow_ranks(p, ck)
            self._rejects(p, ck, built)
            self._cli(p, ck, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _read_matrix(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    return [[Fraction(v) for v in ln.split()] for ln in lines[1:] if ln.strip()]


WORKLOADS = {w.name: w for w in (Degrees, Realize, Build)}
