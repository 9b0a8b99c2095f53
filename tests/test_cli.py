"""Command line surface: exact output lines, exit codes, determinism,
and the documented pipelines."""

import io
import sys

import pytest

from ccmm.cli import main


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
    assert rc == 1
    assert "witness" in err


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
    rc, out, err = run(capsys, "demo", "jminusi", "--n", "5")
    assert rc == 0
    assert "rank_full 5" in out
    assert "rank_weighted 2" in out
    assert "support_match true" in out


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
    assert err == "error: negative class id in '0 1 -> -1'\n"


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
