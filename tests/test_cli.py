"""Command line surface: exact output lines, exit codes, determinism,
and the documented pipelines."""

import argparse
import io
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ccmm import cli, configuration
from ccmm.cli import build_parser, main
from ccmm.configuration import CoherentConfiguration, read_ccfg, write_ccfg
from ccmm.constructions import group_scheme
from ccmm.groups import make_group
from ccmm.realization import Realization, read_real, write_real
from ccmm.spectrum import SPECTRAL_CAP
from ccmm.tensors import read_matrix


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# -- build / info ------------------------------------------------------------


def test_info_line_for_cyclic_five(tmp_path, capsys):
    path = str(tmp_path / "c5.ccfg")
    rc, out, err = run(capsys, "build", "group-scheme", "cyclic:5", "-o", path)
    assert rc == 0
    rc, out, err = run(capsys, "info", path)
    assert rc == 0
    assert out == "points 5 classes 5 commutative true scheme true\n"


def test_info_noncommutative_s3(tmp_path, capsys):
    path = str(tmp_path / "s3.ccfg")
    run(capsys, "build", "group-scheme", "sym:3", "-o", path)
    rc, out, err = run(capsys, "info", path)
    assert rc == 0
    assert out == "points 6 classes 6 commutative false scheme true\n"


def test_build_to_stdout_roundtrips(tmp_path, capsys):
    rc, out, err = run(capsys, "build", "trivial", "3")
    assert rc == 0
    path = tmp_path / "t3.ccfg"
    path.write_text(out)
    rc, out2, err = run(capsys, "info", str(path))
    assert rc == 0
    assert out2 == "points 3 classes 9 commutative false scheme false\n"


def test_build_product_and_sympow(tmp_path, capsys):
    a = str(tmp_path / "a.ccfg")
    run(capsys, "build", "gas", "sym:3", "-o", a)
    p = str(tmp_path / "p.ccfg")
    rc, out, err = run(capsys, "build", "product", a, a, "-o", p)
    assert rc == 0
    rc, out, err = run(capsys, "info", p)
    assert out == "points 36 classes 9 commutative true scheme true\n"
    s = str(tmp_path / "s.ccfg")
    rc, out, err = run(capsys, "build", "sympow", a, "2", "-o", s)
    assert rc == 0
    rc, out, err = run(capsys, "info", s)
    assert out.startswith("points 36 classes 6 ")


def test_build_fuse_with_partition_file(tmp_path, capsys):
    a = str(tmp_path / "a.ccfg")
    run(capsys, "build", "gas", "sym:3", "-o", a)
    part = tmp_path / "part.txt"
    part.write_text("0\n1 2\n")
    f = str(tmp_path / "f.ccfg")
    rc, out, err = run(capsys, "build", "fuse", a, str(part), "-o", f)
    assert rc == 0
    rc, out, err = run(capsys, "info", f)
    assert out == "points 6 classes 2 commutative true scheme true\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["product", "{a}", "{a}"], "points 36 classes 9 commutative true scheme true\n"),
        (["sympow", "{a}", "2"], "points 36 classes 6 commutative true scheme true\n"),
        (["fuse", "{a}", "{part}"], "points 6 classes 2 commutative true scheme true\n"),
    ],
)
def test_built_from_files_carries_automorphisms(tmp_path, capsys, argv, line):
    a = str(tmp_path / "a.ccfg")
    run(capsys, "build", "gas", "sym:3", "-o", a)
    part = tmp_path / "part.txt"
    part.write_text("0\n1 2\n")
    out_path = tmp_path / "out.ccfg"
    argv = [w.format(a=a, part=part) for w in argv]
    rc, out, err = run(capsys, "build", *argv, "-o", str(out_path))
    assert (rc, err) == (0, "")
    block = out_path.read_text().split("automorphisms ")[1].splitlines()
    assert int(block[0]) == len(block) - 1 > 0
    assert run(capsys, "info", str(out_path)) == (0, line, "")


def test_build_trivial_writes_no_automorphisms(capsys):
    text = "ccfg 1\npoints 3 classes 9\n0 3 4\n5 1 6\n7 8 2\n"
    assert run(capsys, "build", "trivial", "3") == (0, text, "")


def _fuse_c5(tmp_path, capsys, *check):
    """cyclic:5 fused along 0 / 1 4 / 2 / 3, which breaks axiom 3."""
    c5 = str(tmp_path / "c5.ccfg")
    run(capsys, "build", "group-scheme", "cyclic:5", "-o", c5)
    part = tmp_path / "part.txt"
    part.write_text("0\n1 4\n2\n3\n")
    return run(capsys, "build", "fuse", c5, str(part), *check)


def test_build_fuse_trusted_check_still_proves_axiom_three(tmp_path, capsys):
    # --check trusted reads the input unchecked; the built output is proved
    assert _fuse_c5(tmp_path, capsys, "--check", "trusted") == _fuse_c5(tmp_path, capsys)


def test_trusted_read_skips_only_the_sweep(tmp_path, capsys):
    """The incoherent fusion of cyclic:5, written unchecked: a full read
    fails the axiom-3 sweep, a trusted read skips it and fails later, when
    info builds the intersection numbers and compares two representatives."""
    c5 = group_scheme(make_group("cyclic:5"))
    merged = np.array([0, 1, 2, 3, 1])[c5.matrix]
    path = str(tmp_path / "bad.ccfg")
    write_ccfg(CoherentConfiguration.from_class_matrix(merged, check="trusted", automorphisms=c5.automorphisms), path)
    rc, out, err = run(capsys, "info", path)
    assert (rc, out) == (1, "")
    assert "axiom (3): pairs (0,4) and (0,1) of class 1 disagree" in err
    rc, out, err = run(capsys, "info", "--check", "trusted", path)
    assert (rc, out) == (1, "")
    assert "axiom (3): intersection numbers differ between representatives of class" in err


def test_trusted_realize_verify_compares_representatives_first(tmp_path, capsys):
    """Verifying in a trusted configuration still builds its intersection
    numbers, comparing two representatives of every class, before the
    sweep: the incoherent fusion of cyclic:5 fails there, at class 1."""
    c5 = group_scheme(make_group("cyclic:5"))
    merged = np.array([0, 1, 2, 3, 1])[c5.matrix]
    cc, rr = str(tmp_path / "bad.ccfg"), str(tmp_path / "one.real")
    write_ccfg(CoherentConfiguration.from_class_matrix(merged, check="trusted", automorphisms=c5.automorphisms), cc)
    write_real(Realization([[0]], [[0]], [[0]]), rr)
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", rr, "--check", "trusted")
    assert (rc, out) == (1, "")
    assert err == (
        "witness: (0, 1, 0, 4, 1)\n"
        "verification failed: axiom (3): intersection numbers differ between representatives of class 1; "
        "witness (0, 1, 0, 4, 1)\n"
    )


def test_verify_and_matmul_on_a_full_file_build_no_tensor(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "diag")
    run(capsys, "realize", "diagonal-example", "--n", "5", "--out-prefix", prefix)
    a = tmp_path / "a.mat"
    a.write_text("5 5\n" + "1 2 0 -1 3/2\n" * 5)

    def refuse(config):
        raise AssertionError("the whole intersection tensor was built")

    monkeypatch.setattr(configuration, "_build_tensor", refuse)
    files = ["--ccfg", prefix + ".ccfg", "--real", prefix + ".1.real"]
    assert run(capsys, "realize", "verify", *files) == (0, "realization 5,5,5 OK\n", "")
    rc, out, err = run(capsys, "matmul", *files, "--a", str(a), "--b", str(a))
    assert (rc, err) == (0, "")
    assert out == "5 5\n" + "7/2 7 0 -7/2 21/4\n" * 5  # each row of A sums to 7/2


def test_check_sampled_is_a_usage_error(tmp_path, capsys):
    rc, out, err = run(capsys, "info", "--check", "sampled", _c5(tmp_path, capsys))
    assert (rc, out) == (2, "")
    assert err.startswith("error: argument --check: invalid choice: 'sampled'")
    assert "'full', 'trusted'" in err and err.count("\n") == 1


def test_build_fuse_full_check_rejects_with_witness(tmp_path, capsys):
    rc, out, err = _fuse_c5(tmp_path, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("witness: (")
    assert "axiom (3)" in err


def test_build_schurian_descriptors(tmp_path, capsys):
    for desc, line in [
        ("translation:cyclic:4", "points 4 classes 4 commutative true scheme true\n"),
        ("natural:sym:3", "points 3 classes 2 commutative true scheme true\n"),
        ("diagonal:2", "points 4 classes 8 commutative false scheme false\n"),
    ]:
        path = str(tmp_path / "x.ccfg")
        rc, out, err = run(capsys, "build", "schurian", desc, "-o", path)
        assert rc == 0, (desc, err)
        rc, out, err = run(capsys, "info", path)
        assert out == line, desc


def test_build_rejects_unknown_action(capsys):
    rc, out, err = run(capsys, "build", "schurian", "sideways:7")
    assert rc == 2
    assert "unknown action" in err


# -- degrees -----------------------------------------------------------------


def test_degrees_commutative_line(tmp_path, capsys):
    path = str(tmp_path / "c4.ccfg")
    run(capsys, "build", "group-scheme", "cyclic:4", "-o", path)
    rc, out, err = run(capsys, "degrees", path)
    assert rc == 0
    assert out.startswith("degrees: 1 1 1 1 ; residual: ")


def test_degrees_trivial_and_deterministic(tmp_path, capsys):
    path = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", path)
    rc, out1, err = run(capsys, "degrees", path)
    assert rc == 0
    assert out1.startswith("degrees: 3 ; residual: ")
    rc, out2, err = run(capsys, "degrees", path)
    assert out1 == out2


# -- realize -----------------------------------------------------------------


def test_realize_fibers_verify_roundtrip(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    rc, out, err = run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    assert rc == 0
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", rr)
    assert rc == 0
    assert out == "realization 3,3,3 OK\n"


def test_realize_verify_rejects_corruption(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = tmp_path / "t3.real"
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", str(rr))
    text = rr.read_text().splitlines()
    # first alpha assignment line sits right after the "alpha" marker
    k = text.index("alpha") + 1
    x, y, arrow, cls = text[k].split()
    text[k] = "%s %s -> %d" % (x, y, (int(cls) + 1) % 9)
    rr.write_text("\n".join(text) + "\n")
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", str(rr))
    assert rc == 1
    assert "verification failed" in err


def test_realize_diagonal_example_writes_components(tmp_path, capsys):
    prefix = str(tmp_path / "diag")
    rc, out, err = run(capsys, "realize", "diagonal-example", "--n", "3",
                       "--out-prefix", prefix)
    assert rc == 0
    assert "points 9 rank 27 components 2" in out
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", prefix + ".ccfg",
                       "--real", prefix + ".0.real")
    assert rc == 0


def test_realize_sympow_of_disjoint_components(tmp_path, capsys):
    prefix = str(tmp_path / "diag")
    run(capsys, "realize", "diagonal-example", "--n", "3", "--out-prefix", prefix)
    rc, out, err = run(capsys, "realize", "sympow", "--ccfg", prefix + ".ccfg",
                       "--real", prefix + ".0.real", "--real", prefix + ".1.real")
    assert rc == 0
    assert out == "sym^2 realization 9,9,9 in rank 378 OK\n"


def test_realize_sympow_rejects_shared_classes(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    rc, out, err = run(capsys, "realize", "sympow", "--ccfg", cc,
                       "--real", rr, "--real", rr)
    assert (rc, out) == (1, "")
    assert err == (
        "witness: ('disjoint', 'alpha', 0, 1, 0)\n"
        "verification failed: alpha images of components 0 and 1 share class 0\n"
    )


@pytest.mark.parametrize(
    "n, components, line",
    [
        (4, 2, "sym^2 realization 16,16,16 in rank 2080 OK\n"),
        (5, 2, "sym^2 realization 25,25,25 in rank 7875 OK\n"),
        (3, 1, "sym^1 realization 3,3,3 in rank 27 OK\n"),
        (5, 1, "sym^1 realization 5,5,5 in rank 125 OK\n"),
    ],
)
def test_realize_sympow_prints_the_materialized_line(tmp_path, capsys, n, components, line):
    # the lines Sym^k C printed when these sizes were materialized
    prefix = str(tmp_path / "diag")
    run(capsys, "realize", "diagonal-example", "--n", str(n), "--out-prefix", prefix)
    reals = [w for i in range(components) for w in ("--real", "%s.%d.real" % (prefix, i))]
    assert run(capsys, "realize", "sympow", "--ccfg", prefix + ".ccfg", *reals) == (0, line, "")


def test_realize_grp_as_family_file(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text("0,1 0,2 0\n")
    prefix = str(tmp_path / "g")
    rc, out, err = run(capsys, "realize", "grp-as", "--group", "cyclic:4",
                       "--family", str(fam), "--out-prefix", prefix)
    assert rc == 0
    assert "points 4 rank 4 realization 2,2,1" in out
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", prefix + ".ccfg",
                       "--real", prefix + ".real")
    assert rc == 0


def test_realize_grp_as_rejects_bad_family(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text("0,1 0,1 0,1\n")
    rc, out, err = run(capsys, "realize", "grp-as", "--group", "cyclic:4",
                       "--family", str(fam))
    assert rc == 2
    assert "triple product" in err


def test_realize_grp_as_refuses_large_failing_family_at_once(tmp_path, capsys):
    # 256^2 quotients per set: forming all their products at once would
    # need 65536 x 65536 cells, so the count must stop early
    fam = tmp_path / "fam.txt"
    fam.write_text(" ".join([",".join(map(str, range(256)))] * 3) + "\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, "realize", "grp-as", "--group", "cyclic:1024",
                       "--family", str(fam))
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (2, "")
    assert err == "error: family fails the simultaneous triple product property\n"


# -- demos -------------------------------------------------------------------


def test_demo_unweight_prints_pass(capsys):
    rc, out, err = run(capsys, "demo", "unweight", "--n", "2", "--seed", "0")
    assert rc == 0
    assert out == "PASS\n"


def test_demo_unweight_requires_seed(capsys):
    rc, out, err = run(capsys, "demo", "unweight", "--n", "2")
    assert rc == 2
    assert "--seed" in err


def test_demo_jminusi_reports_ranks(capsys):
    for n in (2, 3, 5, 100, 2000):
        rc, out, err = run(capsys, "demo", "jminusi", "--n", str(n))
        assert (rc, err) == (0, "")
        assert out == "n %d\nrank_full %d\nrank_weighted 2\nsupport_match true\n" % (n, n)


# -- matmul / boolmm ---------------------------------------------------------


def _write_matrix_file(path, text):
    path.write_text(text)
    return str(path)


def test_matmul_exact_rationals(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1 2 3\n4 5 6\n7 8 9\n")
    b = _write_matrix_file(tmp_path / "b.mat", "3 3\n1 0 1\n0 1 0\n2 1/2 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr,
                       "--a", a, "--b", b)
    assert rc == 0
    assert out == "3 3\n7 7/2 4\n16 8 10\n25 25/2 16\n"


def test_matmul_shape_mismatch_is_usage_error(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    a = _write_matrix_file(tmp_path / "a.mat", "2 2\n1 2\n3 4\n")
    b = _write_matrix_file(tmp_path / "b.mat", "2 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr,
                       "--a", a, "--b", b)
    assert rc == 2


def test_boolmm_deterministic_and_randomized_agree(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1 0 0\n0 1 1\n0 0 1\n")
    b = _write_matrix_file(tmp_path / "b.mat", "3 3\n0 1 0\n0 0 1\n0 0 0\n")
    rc, out1, err = run(capsys, "boolmm", "--ccfg", cc, "--real", rr,
                        "--a", a, "--b", b)
    assert rc == 0
    rc, out2, err = run(capsys, "boolmm", "--ccfg", cc, "--real", rr,
                        "--a", a, "--b", b, "--randomized", "--seed", "3",
                        "--reps", "5")
    assert rc == 0
    assert out1 == out2 == "3 3\n0 1 0\n0 0 1\n0 0 0\n"


def test_boolmm_randomized_requires_seed(tmp_path, capsys):
    cc = str(tmp_path / "t3.ccfg")
    run(capsys, "build", "trivial", "3", "-o", cc)
    rr = str(tmp_path / "t3.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    a = _write_matrix_file(tmp_path / "a.mat", "1 1\n1\n")
    b = _write_matrix_file(tmp_path / "b.mat", "1 1\n1\n")
    rc, out, err = run(capsys, "boolmm", "--ccfg", cc, "--real", rr,
                       "--a", a, "--b", b, "--randomized")
    assert rc == 2
    assert "--seed" in err


# -- exponent ----------------------------------------------------------------


def test_exponent_family_line(capsys):
    rc, out, err = run(capsys, "exponent", "family", "--m", "10")
    assert rc == 0
    assert out == "omega_s <= 2.4036 (provenance: family(m=10.0))\n"


def test_exponent_commutative_line(capsys):
    rc, out, err = run(capsys, "exponent", "commutative", "--dims", "5,5,5",
                       "--rank", "125")
    assert rc == 0
    assert out.startswith("omega_s <= 3.0000 (provenance: ")


def test_exponent_convert_flag(capsys):
    rc, out, err = run(capsys, "exponent", "convert", "--omega-s", "2.41")
    assert rc == 0
    assert out == "omega <= 2.6150\n"


def test_exponent_family_pipe_to_convert(capsys, monkeypatch):
    rc, out, err = run(capsys, "exponent", "family", "--m", "10")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out, err = run(capsys, "exponent", "convert")
    assert rc == 0
    assert out == "omega <= 2.6054\n"


def test_exponent_convert_rejects_garbage_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not a bound\n"))
    rc, out, err = run(capsys, "exponent", "convert")
    assert rc == 2


def test_exponent_asi_and_gm_from_blocks_file(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("5 5 5\n5 5 5\n")
    rc, out, err = run(capsys, "exponent", "asi", "--blocks", str(blocks),
                       "--rank", "125")
    assert rc == 0
    assert out.startswith("omega_s <= 2.5693 (provenance: asi([5x5x5, 5x5x5], r=125))")
    rc, out2, err = run(capsys, "exponent", "gm", "--blocks", str(blocks),
                        "--rank", "125")
    assert rc == 0
    assert "geometric-mean" in out2


def test_exponent_check_conversions(capsys):
    rc, out, err = run(capsys, "exponent", "check-conversions")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(" ok") for line in lines)
    assert "2.41" in lines[1] and "2.615" in lines[1]


def test_exponent_family_domain_error(capsys):
    rc, out, err = run(capsys, "exponent", "family", "--m", "3")
    assert rc == 2


@pytest.mark.parametrize("m", ["nan", "inf"])
def test_exponent_family_non_finite_m_names_the_input(capsys, m):
    rc, out, err = run(capsys, "exponent", "family", "--m", m)
    message = "need a finite m > 3 (denominator log(m-2) must be positive), got %s" % m
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


# -- exit codes and plumbing -------------------------------------------------


def test_missing_file_is_exit_two(capsys):
    rc, out, err = run(capsys, "info", "no-such-file.ccfg")
    assert rc == 2


def test_class_id_above_declared_rank_is_exit_two(tmp_path, capsys):
    cc = tmp_path / "bad.ccfg"
    cc.write_text("ccfg 1\npoints 2 classes 2\n0 1\n7 0\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc == 2
    assert out == ""
    assert err == "error: class ids [7] outside [0,2)\n"


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        # argparse may raise before main()'s guard on some paths; accept both
        rc = main(["build"])
        raise SystemExit(rc)
    assert exc.value.code == 2
    capsys.readouterr()


def test_corrupt_ccfg_fails_verification(tmp_path, capsys):
    cc = tmp_path / "c4.ccfg"
    run(capsys, "build", "group-scheme", "cyclic:4", "-o", str(cc))
    lines = cc.read_text().splitlines()
    row = lines[2].split()
    row[1] = str((int(row[1]) + 1) % 4)
    lines[2] = " ".join(row)
    cc.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc in (1, 2)
    assert err


def test_output_is_byte_stable_across_runs(tmp_path, capsys):
    cc = str(tmp_path / "d3.ccfg")
    run(capsys, "build", "schurian", "diagonal:3", "-o", cc)
    rc, out1, err = run(capsys, "degrees", cc)
    rc, out2, err = run(capsys, "degrees", cc)
    assert out1 == out2
    assert out1.startswith("degrees: 3 3 3 ; residual: ")


def test_headerless_ccfg_is_exit_two(tmp_path, capsys):
    cc = tmp_path / "head.ccfg"
    cc.write_text("ccfg 1\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc == 2
    assert err == "error: ccfg file ends before its points/classes line\n"


def test_headerless_real_is_exit_two(tmp_path, capsys):
    cc = str(tmp_path / "t2.ccfg")
    run(capsys, "build", "trivial", "2", "-o", cc)
    rr = tmp_path / "head.real"
    rr.write_text("real 1\n")
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", str(rr))
    assert rc == 2
    assert err == "error: real file ends before its dims line\n"


def test_matmul_zero_denominator_is_exit_two(tmp_path, capsys):
    cc = str(tmp_path / "t2.ccfg")
    run(capsys, "build", "trivial", "2", "-o", cc)
    rr = str(tmp_path / "t2.real")
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", rr)
    a = _write_matrix_file(tmp_path / "a.mat", "2 2\n1 1/0\n0 1\n")
    b = _write_matrix_file(tmp_path / "b.mat", "2 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", b)
    assert rc == 2
    assert err == "error: matrix entry '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "what, usage",
    [("product", "CCFG CCFG"), ("sympow", "CCFG K"), ("fuse", "CCFG PARTITION")],
)
def test_build_with_too_few_specs_is_exit_two(tmp_path, capsys, what, usage):
    a = str(tmp_path / "a.ccfg")
    run(capsys, "build", "gas", "sym:3", "-o", a)
    rc, out, err = run(capsys, "build", what, a)
    assert rc == 2
    assert out == ""
    assert err == "error: usage: ccmm build %s %s\n" % (what, usage)


def _fibers_real_with(tmp_path, capsys, slot, entry, cls):
    """trivial 2 (rank 4) and its fibers realization with one entry of one
    map replaced by cls."""
    cc = str(tmp_path / "t2.ccfg")
    run(capsys, "build", "trivial", "2", "-o", cc)
    rr = tmp_path / "t2.real"
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", str(rr))
    text = rr.read_text().splitlines()
    k = text.index(slot) + 1 + entry[0] * 2 + entry[1]
    text[k] = "%d %d -> %d" % (entry + (cls,))
    rr.write_text("\n".join(text) + "\n")
    return cc, str(rr)


def test_realize_verify_class_id_at_rank_is_exit_two(tmp_path, capsys):
    cc, rr = _fibers_real_with(tmp_path, capsys, "gamma", (1, 0), 4)
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", rr)
    assert rc == 2
    assert err == "error: gamma entry (1,0) is class 4, outside [0,4)\n"


def test_matmul_class_id_at_rank_is_exit_two(tmp_path, capsys):
    cc, rr = _fibers_real_with(tmp_path, capsys, "alpha", (0, 1), 4)
    a = _write_matrix_file(tmp_path / "a.mat", "2 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", a)
    assert rc == 2
    assert out == ""
    assert err == "error: alpha entry (0,1) is class 4, outside [0,4)\n"


@pytest.mark.parametrize("verb", ["realize", "matmul"])
def test_negative_class_id_in_real_file_is_exit_two(tmp_path, capsys, verb):
    cc, rr = _fibers_real_with(tmp_path, capsys, "alpha", (0, 1), -1)
    a = _write_matrix_file(tmp_path / "a.mat", "2 2\n1 0\n0 1\n")
    argv = {
        "realize": ["realize", "verify", "--ccfg", cc, "--real", rr],
        "matmul": ["matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", a],
    }[verb]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == "error: real line 5: negative class id in '0 1 -> -1'\n"


def test_oversized_ccfg_entry_is_exit_two(tmp_path, capsys):
    cc = tmp_path / "big.ccfg"
    cc.write_text("ccfg 1\npoints 2 classes 2\n0 1\n1 99999999999999999999\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc == 2
    assert out == ""
    assert err == "error: ccfg entry (1,1) = 99999999999999999999 does not fit in 64 bits\n"


FOLLOW = "ccfg line 5: expected 'automorphisms %d' for the rows that follow, found '%s'"


@pytest.mark.parametrize(
    "k, line, message",
    [
        (2, "0 x", "ccfg line 3: 'x' is not an integer"),
        (1, "points two classes 2", "ccfg line 2: 'two' is not an integer"),
        (3, "1 0 1", "ccfg line 4: expected 2 entries, found 3"),
        (4, "automorphisms", FOLLOW % (1, "automorphisms")),
        (4, "automorphisms -2", FOLLOW % (1, "automorphisms -2")),
        (4, "automorphisms 3", FOLLOW % (1, "automorphisms 3")),
        (4, "automorphisms x", "ccfg line 5: 'x' is not an integer"),
        (6, "0 1", FOLLOW % (2, "automorphisms 1")),
        (5, "1 0 x", "ccfg line 6: 'x' is not an integer"),
        (5, "1 %d" % (1 << 64), "automorphism entry (0,1) = %d does not fit in 64 bits" % (1 << 64)),
    ],
)
def test_malformed_ccfg_is_one_error_line(tmp_path, capsys, k, line, message):
    cc = tmp_path / "bad.ccfg"
    run(capsys, "build", "group-scheme", "cyclic:2", "-o", str(cc))
    lines = cc.read_text().splitlines() + [""]
    assert lines[4:] == ["automorphisms 1", "1 0", ""]
    lines[k] = line
    cc.write_text("\n".join(lines))
    assert run(capsys, "info", str(cc)) == (2, "", "error: %s\n" % message)


def test_ccfg_entry_beyond_int32_is_not_wrapped(tmp_path, capsys):
    # 2**32 once wrapped to class 0 and passed as a valid file
    cc = tmp_path / "wrap.ccfg"
    cc.write_text("ccfg 1\npoints 1 classes 1\n4294967296\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc == 2
    assert err == "error: class ids [4294967296] outside [0,1)\n"


def test_ccfg_more_classes_than_pairs_is_exit_two(tmp_path, capsys):
    cc = tmp_path / "rank.ccfg"
    cc.write_text("ccfg 1\npoints 1 classes 99999999999999999999\n0\n")
    rc, out, err = run(capsys, "info", str(cc))
    assert rc == 2
    assert err == "error: 99999999999999999999 classes exceed the 1 pairs of 1 points\n"


def test_oversized_class_id_in_real_file_is_exit_two(tmp_path, capsys):
    cc, rr = _fibers_real_with(tmp_path, capsys, "beta", (1, 1), 99999999999999999999)
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", rr)
    assert rc == 2
    assert out == ""
    assert err == "error: real line 12: class id in '1 1 -> 99999999999999999999' does not fit in 64 bits\n"


def _diagonal_three(tmp_path, capsys):
    prefix = str(tmp_path / "d3")
    rc, out, err = run(capsys, "realize", "diagonal-example", "--n", "3", "--out-prefix", prefix)
    assert rc == 0
    return prefix + ".ccfg", prefix + ".0.real"


@pytest.mark.parametrize("entry", ["1/2", "3/2", "2"])
@pytest.mark.parametrize("mode", [[], ["--randomized", "--seed", "5"]])
def test_boolmm_entry_other_than_zero_or_one_is_exit_two(tmp_path, capsys, entry, mode):
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1 0 %s\n0 1 0\n0 0 1\n" % entry)
    b = _write_matrix_file(tmp_path / "b.mat", "3 3\n1 1 0\n0 1 0\n1 0 1\n")
    for first, second in ((a, b), (b, a)):
        rc, out, err = run(capsys, "boolmm", "--ccfg", cc, "--real", rr,
                           "--a", first, "--b", second, *mode)
        assert rc == 2
        assert out == ""
        assert err == "error: entries must be 0 or 1\n"


def test_boolmm_reads_zero_and_one_in_any_notation(tmp_path, capsys):
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n2/2 0/5 0\n0 1.0 0\n0 0 1e0\n")
    rc, out, err = run(capsys, "boolmm", "--ccfg", cc, "--real", rr, "--a", a, "--b", a)
    assert rc == 0
    assert out == "3 3\n1 0 0\n0 1 0\n0 0 1\n"


def test_matmul_entry_with_huge_exponent_is_exit_two(tmp_path, capsys):
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1 0 0\n0 1e9999999999 0\n0 0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", a)
    assert rc == 2
    assert out == ""
    assert err == "error: matrix entry '1e9999999999' has an exponent beyond 4300\n"


@pytest.mark.parametrize("to_file", [True, False])
def test_matmul_product_too_long_to_print_writes_nothing(tmp_path, capsys, to_file):
    # the product entry 10**8000 has more digits than Python will print
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1e4000 0 0\n0 1 0\n0 0 1\n")
    b = _write_matrix_file(tmp_path / "b.mat", "3 3\n1e4000 0 0\n0 1 0\n0 0 1\n")
    target = tmp_path / "c.mat"
    dest = ["-o", str(target)] if to_file else []
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", b, *dest)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_build_trivial_negative_is_exit_two(capsys):
    rc, out, err = run(capsys, "build", "trivial", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: need at least one point\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["build", "trivial", "20001"], "point count 20001 exceeds cap 20000"),
        (["build", "schurian", "diagonal:2000"], "point count 4000000 exceeds cap 20000"),
        (["realize", "diagonal-example", "--n", "2000"], "point count 4000000 exceeds cap 20000"),
        (["demo", "jminusi", "--n", "200000"], "n 200000 exceeds cap %d" % SPECTRAL_CAP),
    ],
)
def test_sizes_beyond_a_cap_are_refused_before_allocating(capsys, argv, message):
    # each of these once asked numpy for 3 to 298 GiB before comparing a cap
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_usage_error_is_one_error_line(capsys):
    rc, out, err = run(capsys, "demo", "jminusi", "--n", "x")
    assert (rc, out, err) == (2, "", "error: argument --n: invalid int value: 'x'\n")


@pytest.mark.parametrize(
    "what,spec,message",
    [
        ("group-scheme", "cyclic:5", "error: 5**99999999 points exceeds cap 20000\n"),
        ("trivial", "1", "error: power 100000000 exceeds numpy's 64 array dimensions\n"),
    ],
)
def test_build_sympow_huge_power_is_refused_at_once(tmp_path, capsys, what, spec, message):
    base = str(tmp_path / "base.ccfg")
    run(capsys, "build", what, spec, "-o", base)
    k = "99999999" if what == "group-scheme" else "100000000"
    start = time.perf_counter()
    rc, out, err = run(capsys, "build", "sympow", base, k)
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", message)


def test_matmul_product_too_long_to_print_message(tmp_path, capsys):
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", "3 3\n1e4000 0 0\n0 1 0\n0 0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", a)
    assert rc == 2
    assert out == ""
    assert err == "error: matrix entry (0,0) has more than 4300 digits\n"


# -- text formats ------------------------------------------------------------

TRIVIAL_2 = "ccfg 1\npoints 2 classes 4\n0 1\n2 3\n"
REAL_1 = "real 1\ndims 1 1 1\nalpha\n0 0 -> 0\nbeta\n0 0 -> 0\ngamma\n0 0 -> 0\n"
FORMATS = {
    "ccfg": (lambda p: read_ccfg(p).matrix.tolist(), TRIVIAL_2),
    "real": (lambda p: [a.tolist() for a in read_real(p).maps()], REAL_1),
    "matrix": (read_matrix, "2 2\n1 1/2\n0 3\n"),
    "partition": (cli._read_partition, "0\n1 2\n"),
    "blocks": (cli._read_blocks, "2 2 2\n3 1 2\n"),
    "family": (lambda p: cli._read_family(p, make_group("cyclic:4")).triples, "0 0 0\n0 1 2\n"),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_format_skips_blank_lines_and_comments(tmp_path, fmt):
    read, text = FORMATS[fmt]
    lines = text.splitlines()
    noisy = ["# %s file" % fmt, ""] + [line + "  # note %d" % k for k, line in enumerate(lines)]
    noisy.insert(3, "   ")
    clean, commented = tmp_path / "clean", tmp_path / "commented"
    clean.write_text(text)
    commented.write_text("\n".join(noisy) + "\n")
    assert read(str(commented)) == read(str(clean))


def test_matrix_comments_leave_entries_exact(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("# header\n2 2 # rows cols\n1 1/2 # first row\n\n0 3\n")
    assert read_matrix(str(path)) == [[1, Fraction(1, 2)], [0, 3]]


# -- option surface ----------------------------------------------------------

SHARED = {"--check", "--seed", "--cap"}
VERB_OPTIONS = {
    "build group-scheme": set(),
    "build gas": set(),
    "build trivial": set(),
    "build schurian": set(),
    "build product": {"--check"},
    "build sympow": {"--check"},
    "build fuse": {"--check"},
    "info": {"--check"},
    "degrees": {"--check", "--seed", "--cap"},
    "realize verify": {"--check"},
    "realize fibers": {"--check"},
    "realize diagonal-example": set(),
    "realize grp-as": set(),
    "realize sympow": {"--check"},
    "demo unweight": {"--seed"},
    "demo jminusi": set(),
    "matmul": {"--check"},
    "boolmm": {"--check", "--seed"},
    "exponent commutative": set(),
    "exponent asi": set(),
    "exponent gm": set(),
    "exponent family": set(),
    "exponent convert": set(),
    "exponent check-conversions": set(),
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_each_verb_takes_only_the_options_it_reads():
    got = {
        verb: {s for a in leaf._actions for s in a.option_strings} & SHARED
        for verb, leaf in _leaf_parsers(build_parser())
    }
    assert got == VERB_OPTIONS
    assert sum(map(len, got.values())) == 14


def test_option_defaults_live_in_the_parser():
    parse = build_parser().parse_args
    args = parse(["degrees", "x.ccfg"])
    assert (args.seed, args.cap, args.check) == (0, SPECTRAL_CAP, "full")
    assert parse(["demo", "unweight", "--n", "2"]).seed is None


@pytest.mark.parametrize(
    "argv",
    [
        ["exponent", "family", "--m", "10", "--check", "full"],
        ["exponent", "family", "--m", "10", "--cap", "3"],
        ["info", "x.ccfg", "--seed", "1"],
        ["demo", "jminusi", "--n", "3", "--seed", "1"],
        ["realize", "diagonal-example", "--n", "3", "--check", "trusted"],
        ["realize", "sympow", "--ccfg", "x", "--real", "y", "--materialize", "always"],
        ["build", "group-scheme", "cyclic:3", "--check", "trusted"],
        ["build", "gas", "cyclic:3", "--check", "full"],
        ["build", "trivial", "3", "--check", "trusted"],
        ["build", "schurian", "diagonal:2", "--check", "full"],
        ["demo", "jminusi", "--n", "3", "--tolerance", "1e-8"],
    ],
)
def test_option_a_verb_does_not_read_is_exit_two(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


# -- line-naming reader errors and oversized tensors ----------------------------


def _c5(tmp_path, capsys):
    c5 = str(tmp_path / "c5.ccfg")
    run(capsys, "build", "group-scheme", "cyclic:5", "-o", c5)
    return c5


@pytest.mark.parametrize(
    "kind, text, argv, message",
    [
        ("part", "0\n1 x\n2 3 4\n", ["build", "fuse", "{c5}", "{f}"], "partition line 2: 'x' is not an integer"),
        ("part", "# blocks\n0 1 2 3 4.0\n", ["build", "fuse", "{c5}", "{f}"], "partition line 2: '4.0' is not an integer"),
        ("blocks", "2 2 2\n2 2 x\n", ["exponent", "asi", "--blocks", "{f}", "--rank", "8"], "blocks line 2: 'x' is not an integer"),
        ("blocks", "2 y 2\n", ["exponent", "gm", "--blocks", "{f}", "--rank", "8"], "blocks line 1: 'y' is not an integer"),
        (
            "family",
            "0 0,1 0\n\n0 1 0,z\n",
            ["realize", "grp-as", "--group", "cyclic:4", "--family", "{f}"],
            "family line 3: 'z' is not an integer",
        ),
        ("blocks", "2 2 2\n2 2\n", ["exponent", "asi", "--blocks", "{f}", "--rank", "8"], "blocks line 2: expected 3 dimensions, found 2"),
        (
            "family",
            "0 0,1 0\n0 1 0 1\n",
            ["realize", "grp-as", "--group", "cyclic:4", "--family", "{f}"],
            "family line 2: expected 3 subsets, found 4",
        ),
    ],
)
def test_reader_errors_name_the_line_and_token(tmp_path, capsys, kind, text, argv, message):
    f = tmp_path / kind
    f.write_text(text)
    fill = {"{c5}": _c5(tmp_path, capsys) if "{c5}" in argv else None, "{f}": str(f)}
    rc, out, err = run(capsys, *(fill.get(a, a) for a in argv))
    assert (rc, out, err) == (2, "", "error: %s\n" % message)
    assert "invalid literal" not in err


GAMMA = "gamma\n0 0 -> 0\n0 1 -> 2\n1 0 -> 3\n1 1 -> 1\n"


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("dims 2 2 2", "dims 2 two 2")], "real line 2: 'two' is not an integer"),
        ([("0 1 -> 2", "0 1 -> one")], "real line 5: 'one' is not an integer"),
        ([("beta\n0 0 -> 0\n0 1", "beta\n0 0 -> 0\n0 x")], "real line 10: 'x' is not an integer"),
        ([("real 1\n", "# comment\n\nreal 1\n"), ("\ngamma", "\ngama")], "real line 15: expected 'gamma' block"),
        ([(GAMMA, "gamma\n")], "real line 13: truncated gamma block"),
        ([(GAMMA, "")], "real file ends before its gamma block"),
        ([("0 1 -> 2", "0 1 => 2")], "real line 5: bad map line '0 1 => 2'"),
        ([("0 1 -> 2", "0 2 -> 2")], "real line 5: index out of range in '0 2 -> 2'"),
        ([("dims 2 2 2", "dims 2 2")], "real line 2: bad dims line 'dims 2 2'"),
        ([("0 1 -> 2", "0 0 -> 2")], "real line 3: missing entries in alpha block, first (0,1)"),
        ([(GAMMA, GAMMA + "1 1 -> 1\n")], "real line 18: trailing content after gamma block"),
    ],
)
def test_real_reader_names_the_line_and_token(tmp_path, capsys, edits, message):
    cc = str(tmp_path / "t2.ccfg")
    run(capsys, "build", "trivial", "2", "-o", cc)
    rr = tmp_path / "t2.real"
    run(capsys, "realize", "fibers", "--ccfg", cc, "-o", str(rr))
    text = rr.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    rr.write_text(text)
    rc, out, err = run(capsys, "realize", "verify", "--ccfg", cc, "--real", str(rr))
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_info_on_a_tensor_beyond_64_bit_codes_is_exit_two(tmp_path, capsys):
    cc = tmp_path / "t513.ccfg"
    n = 513
    rows = np.arange(n * n).reshape(n, n)
    cc.write_text("ccfg 1\npoints %d classes %d\n" % (n, n * n) + "\n".join(" ".join(map(str, r)) for r in rows.tolist()) + "\n")
    rc, out, err = run(capsys, "info", "--check", "trusted", str(cc))
    assert (rc, out) == (2, "")
    assert err == "error: intersection tensor of rank 263169 on 513 points exceeds 64-bit codes\n"


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
AS_LIMIT = 3 << 30  # bytes of address space for one child CLI run
CAPPED_CLI = (
    "import resource, runpy; "
    "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
    "runpy.run_module('ccmm.cli', run_name='__main__')" % (AS_LIMIT, AS_LIMIT)
)


def run_capped(*argv):
    """The CLI in a child process that caps its own address space at
    AS_LIMIT, so that an oversized allocation fails there, not here."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_build_trivial_1000_fits_an_address_space_cap(tmp_path):
    """Rank n^2 = 10^6: every class holds one pair, so axiom 3 holds and
    the sweep builds no r x n reference table (10^9 keys)."""
    cc = str(tmp_path / "t1000.ccfg")
    rc, out, err = run_capped("build", "trivial", "1000", "-o", cc)
    assert rc == 0 and "Traceback" not in err, err
    rc, out, err = run_capped("info", cc)
    assert (rc, out) == (2, "")
    assert err == "error: intersection tensor of rank 1000000 on 1000 points exceeds 64-bit codes\n"


def test_info_on_a_near_trivial_1000_fits_an_address_space_cap(tmp_path):
    """Rank 10^6 - 2: every class holds one pair but for {(0,1), (1,0)} and
    {(0,2), (2,0)}. The sweep builds reference profiles for those two
    classes only and sweeps only the row blocks holding their pairs, so the
    file is refused with the axiom-3 witness, not a MemoryError."""
    n = 1000
    M = np.arange(n * n).reshape(n, n)
    M[1, 0], M[2, 0] = M[0, 1], M[0, 2]
    M = np.unique(M, return_inverse=True)[1].reshape(n, n)
    cc = tmp_path / "near.ccfg"
    cc.write_text("ccfg 1\npoints %d classes %d\n" % (n, n * n - 2) + "\n".join(" ".join(map(str, r)) for r in M.tolist()) + "\n")
    rc, out, err = run_capped("info", str(cc))
    assert (rc, out) == (1, "")
    assert "Traceback" not in err
    assert err.splitlines()[0] == "witness: (1, 0, 0, 1, 0, 1000, 0, 1)"


def test_sympow_of_the_diagonal_9_realizations_under_a_cap_is_not_a_traceback(tmp_path, capsys):
    """Sym^3 of three diagonal-9 realizations is a <729,729,729> product:
    under the cap it either passes or exits 2 with one error line."""
    prefix = str(tmp_path / "d")
    assert run(capsys, "realize", "diagonal-example", "--n", "9", "--out-prefix", prefix)[0] == 0
    reals = [a for i in range(3) for a in ("--real", "%s.%d.real" % (prefix, i))]
    rc, out, err = run_capped("realize", "sympow", "--ccfg", prefix + ".ccfg", *reals)
    assert rc in (0, 2) and "Traceback" not in err, err
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err


# -- bad number tokens and group descriptors name their source -----------------

WANT = ": want cyclic:M, abelian:M1xM2x..., sym:N or wreath:N:BASE"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "gas", "cyclic"], "group descriptor 'cyclic'" + WANT),
        (["build", "gas", "wreath:2"], "group descriptor 'wreath:2'" + WANT),
        (["build", "group-scheme", "cyclic:x"], "group descriptor 'cyclic:x': 'x' is not an integer"),
        (["build", "gas", "abelian:2xx"], "group descriptor 'abelian:2xx': '' is not an integer"),
        (["build", "gas", "wreath:x:cyclic:2"], "group descriptor 'wreath:x:cyclic:2': 'x' is not an integer"),
        (["build", "gas", "wreath:2:cyclic"], "group descriptor 'cyclic'" + WANT),
        (["realize", "grp-as", "--group", "cyclic", "--family", "{f}"], "group descriptor 'cyclic'" + WANT),
        (["build", "schurian", "translation:sym:y"], "group descriptor 'sym:y': 'y' is not an integer"),
        (["build", "trivial", "x"], "build trivial N: 'x' is not an integer"),
        (["build", "sympow", "{f}", "x"], "build sympow CCFG K: 'x' is not an integer"),
        (["build", "schurian", "diagonal:x"], "action 'diagonal:x': 'x' is not an integer"),
        (["build", "schurian", "natural:sym:2.5"], "action 'natural:sym:2.5': '2.5' is not an integer"),
        (["realize", "diagonal-example", "--n", "5", "--set", "1,x"], "--set: 'x' is not an integer"),
        (["exponent", "commutative", "--dims", "2,x,2", "--rank", "8"], "--dims: 'x' is not an integer"),
        (["exponent", "commutative", "--dims", "2,2", "--rank", "8"], "--dims needs three sizes l,m,n, not '2,2'"),
    ],
)
def test_bad_tokens_and_descriptors_are_one_named_error(tmp_path, capsys, argv, message):
    f = tmp_path / "f"
    f.write_text("ccfg 1\npoints 1 classes 1\n0\n" if "sympow" in argv else "0 0 0\n")
    rc, out, err = run(capsys, *(str(f) if a == "{f}" else a for a in argv))
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "a, message",
    [
        ("x 2\n1 0\n", "matrix line 1: 'x' is not an integer"),
        ("# identity\n2 2\n1 0\n1 x\n", "matrix line 4: 'x' is not a number"),
        ("2 2\n1 0\n1e5_ 1\n", "matrix line 3: '1e5_' is not a number"),
        ("2 2\n1e1__2 0\n0 1\n", "matrix line 2: '1e1__2' is not a number"),
        ("# identity\n2 2\n1 0\n0 1 1\n", "matrix line 4: expected 2 entries, found 3"),
    ],
)
def test_matrix_tokens_name_the_line(tmp_path, capsys, a, message):
    cc, rr = _diagonal_three(tmp_path, capsys)
    a = _write_matrix_file(tmp_path / "a.mat", a)
    b = _write_matrix_file(tmp_path / "b.mat", "3 3\n1 0 0\n0 1 0\n0 0 1\n")
    rc, out, err = run(capsys, "matmul", "--ccfg", cc, "--real", rr, "--a", a, "--b", b)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_exponent_convert_names_a_bad_stdin_number(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("omega_s <= x\n"))
    rc, out, err = run(capsys, "exponent", "convert")
    assert (rc, out, err) == (2, "", "error: stdin line 1: 'x' is not a number\n")
