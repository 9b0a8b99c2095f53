"""Fuzzing of the text formats, of the size arguments and of group and
action descriptors through the command line: whatever the input text or
argument, a verb exits 0, 1 or 2, never with a traceback; exit 2 comes with
exactly one `error:` line in the program's own words and exit 1 with a
`witness:` line. The matrix verbs never exit 1; a malformed descriptor or
a token that is no integer always exits 2. Last, drawn group actions check
the Schurian builder and its orbit generators against the pair loop and
the full scan they replace."""

import contextlib
import io
import math
import time

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from reference import loop_schurian, scan_orbit_generators

from ccmm.cli import main
from ccmm.configuration import POINT_CAP, write_ccfg
from ccmm.constructions import _orbit_generators, group_association_scheme, group_scheme, schurian, trivial_configuration
from ccmm.groups import GroupAction, ProductGroup, conjugation_action, left_translation_action, make_group, natural_action
from ccmm.realization import diagonal_action, fibers_realization, write_real
from ccmm.spectrum import SPECTRAL_CAP

TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.fractions(max_denominator=9).map(str),
    st.sampled_from(
        ["0", "1", "2/2", "1.0", "1e0", "1/0", "0/0", "1/-2", "-", "/", ".", "x",
         "nan", "1e5", "1e-5", "1e99999999", "1_0", "0x1", "99999999999999999999"]
    ),
)

LINE = st.lists(TOKENS, max_size=4).map(" ".join)
BITS = st.sampled_from(["0", "1"])
RATIONALS = st.fractions(max_denominator=9).map(str)


@st.composite
def matrix_text(draw):
    """A well-formed 3x3 matrix of bits or of rationals, as is or with one
    drawn defect, or free text over the characters of the format."""
    defect = draw(st.sampled_from([None] * 4 + ["text", "head", "rows", "line", "token"]))
    if defect == "text":
        return draw(st.text(alphabet="0123456789 /-.e\n\t", max_size=40))
    cell = draw(st.sampled_from([BITS, RATIONALS]))
    cells = [[draw(cell) for _ in range(3)] for _ in range(3)]
    if defect == "token":
        cells[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(TOKENS)
    head = "3 3"
    if defect == "head":
        head = draw(st.sampled_from(["0 0", "2 3", "3 2", "-1 3", "3", "3 3 1", "a b", ""]))
    body = [" ".join(row) for row in cells]
    if defect == "rows":
        body = body[: draw(st.integers(0, 2))] + draw(st.lists(LINE, max_size=2))
    if defect == "line":
        body[draw(st.integers(0, 2))] = draw(LINE)
    return "\n".join([head] + body) + "\n"


@pytest.fixture(scope="module")
def diagonal_three(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    prefix = str(root / "d3")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["realize", "diagonal-example", "--n", "3", "--out-prefix", prefix]) == 0
    return root, prefix + ".ccfg", prefix + ".0.real"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    a=matrix_text(),
    b=matrix_text(),
    verb=st.sampled_from([["matmul"], ["boolmm"], ["boolmm", "--randomized", "--seed", "3"]]),
)
# an entry of 2**63 against an all-zero matrix once took the int64 path
# and overflowed
@example(
    a="3 3\n9223372036854775808 0 0\n0 0 0\n0 0 0\n",
    b="3 3\n0 0 0\n0 0 0\n0 0 0\n",
    verb=["matmul"],
)
def test_matrix_text_never_tracebacks(diagonal_three, a, b, verb):
    root, cc, rr = diagonal_three
    (root / "a.mat").write_text(a)
    (root / "b.mat").write_text(b)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(verb + ["--ccfg", cc, "--real", rr, "--a", str(root / "a.mat"), "--b", str(root / "b.mat")])
    event("%s exit %d" % (verb[0], rc))
    assert rc in (0, 2)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert err.getvalue() == ""


# -- every other format: a well-formed file, or one drawn defect ---------------

BIG = "99999999999999999999"


def _text(write, obj):
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue().splitlines()


TRIVIAL_2 = trivial_configuration(2)
CCFGS = [
    _text(write_ccfg, TRIVIAL_2),
    _text(write_ccfg, group_scheme(make_group("cyclic:3"))),
    _text(write_ccfg, group_association_scheme(make_group("sym:3"))),
]
REAL_T2 = _text(write_real, fibers_realization(TRIVIAL_2))


@st.composite
def mutated(draw, lines, alphabet):
    """The lines as is, with a trailing comment, a blank or comment line,
    or one drawn defect (a small last token, any token, a new line, a
    dropped, doubled or moved line); or free text over the format's
    characters."""
    defect = draw(
        st.sampled_from([None, "comment", "blank", "last", "last", "token", "line", "drop", "dup", "swap", "text"])
    )
    if defect == "text":
        return draw(st.text(alphabet=alphabet, max_size=60))
    lines = list(lines)
    k = draw(st.integers(0, len(lines) - 1))
    if defect == "comment":
        lines[k] += " # " + draw(LINE)
    elif defect == "blank":
        lines.insert(k, draw(st.sampled_from(["", "  \t", "# note", "  # 1 2"])))
    elif defect == "last":
        lines[k] = " ".join(lines[k].split()[:-1] + [str(draw(st.integers(0, 5)))])
    elif defect == "token":
        parts = lines[k].split() or [""]
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        lines[k] = " ".join(parts)
    elif defect == "line":
        lines[k] = draw(LINE)
    elif defect == "drop":
        del lines[k]
    elif defect == "dup":
        lines.insert(k, lines[k])
    elif defect == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[j], lines[k] = lines[k], lines[j]
    return "\n".join(lines) + "\n"


# phrases of Python's own messages, which an error line must not pass on
PYTHON_TEXT = ("Traceback", "invalid literal", "unpack", "could not convert")


def run_clean(argv):
    """Run a verb and check the exit-code contract; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    event("%s exit %d" % (" ".join(w for w in argv[:2] if "/" not in w), rc))
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not any(phrase in lines[0] for phrase in PYTHON_TEXT), lines
    elif rc == 1:
        assert any(line.startswith("witness: ") for line in lines), lines
    else:
        assert lines == []
    return rc


CCFG_CHARS = "ccfg pointsclasses0123456789#-\n"


@st.composite
def digit_rows(draw, lines):
    """The lines with one row past the header changed at the edges of the
    reader's all-digit array path: an all-digit row one entry short or
    long, a 19- or 20-digit token, or a token signed with + or padded with
    zeros."""
    lines = list(lines)
    k = draw(st.integers(2, len(lines) - 1))
    parts = lines[k].split()
    defect = draw(st.sampled_from(["width", "digits", "plus", "zeros"]))
    if defect == "width":
        width = len(parts) + draw(st.sampled_from([-1, 1]))
        parts = draw(st.lists(st.integers(0, 9).map(str), min_size=width, max_size=width))
    else:
        t = draw(st.integers(0, len(parts) - 1))
        if defect == "digits":
            parts[t] = str(draw(st.integers(10**18, 10**20 - 1)))
        else:
            parts[t] = {"plus": "+", "zeros": "00"}[defect] + parts[t]
    lines[k] = " ".join(parts)
    return "\n".join(lines) + "\n"


@settings(max_examples=160, deadline=None, derandomize=True)
@given(
    text=st.sampled_from(CCFGS).flatmap(lambda lines: mutated(lines, CCFG_CHARS) | digit_rows(lines)),
    verb=st.sampled_from(["info", "degrees"]),
)
@example(text="ccfg 1\npoints 1 classes 1\n%s\n" % BIG, verb="info")
@example(text="ccfg 1\npoints 1 classes 1\n9223372036854775808\n", verb="info")
@example(text="ccfg 1\npoints 2 classes 2\n0 1\n1 0\nautomorphisms 1\n+1 00\n", verb="degrees")
@example(text="ccfg 1\npoints 1 classes %s\n0\n" % BIG, verb="degrees")
@example(text="ccfg 1\npoints 1 classes 1\n4294967296\n", verb="info")
@example(text="ccfg 1 # v1\npoints 1 classes 1\n0 # the diagonal\n", verb="degrees")
def test_ccfg_text_never_tracebacks(tmp_path_factory, text, verb):
    path = tmp_path_factory.mktemp("ccfg") / "x.ccfg"
    path.write_text(text)
    run_clean([verb, str(path)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=mutated(REAL_T2, "real dimsalphbetgm0123456789->#\n"))
@example(text="\n".join(REAL_T2).replace("-> 0", "-> " + BIG, 1) + "\n")
@example(text="\n".join(REAL_T2).replace("-> 0", "-> 0 # first entry", 1) + "\n")
def test_real_text_never_tracebacks(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("real")
    write_ccfg(TRIVIAL_2, str(root / "t2.ccfg"))
    (root / "x.real").write_text(text)
    run_clean(["realize", "verify", "--ccfg", str(root / "t2.ccfg"), "--real", str(root / "x.real")])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    text=mutated(["2 2 2", "3 1 2"], "0123456789 -#\n"),
    form=st.sampled_from(["asi", "gm"]),
    rank=st.sampled_from(["0", "1", "7", "64", "-2", BIG]),
)
@example(text="2 2 %s\n" % BIG, form="asi", rank="8")
@example(text="2 2 2 # x\n", form="gm", rank="8")
def test_blocks_text_never_tracebacks(tmp_path_factory, text, form, rank):
    path = tmp_path_factory.mktemp("blocks") / "b.txt"
    path.write_text(text)
    run_clean(["exponent", form, "--blocks", str(path), "--rank", rank])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=mutated(["0", "1 4", "2 3"], "0123456789 -#\n"))
@example(text="0\n1 4\n2\n3 # last block\n")
@example(text="0\n1 4\n2 3 %s\n" % BIG)
def test_partition_text_never_tracebacks(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("partition")
    write_ccfg(group_scheme(make_group("cyclic:5")), str(root / "c5.ccfg"))
    (root / "p.txt").write_text(text)
    run_clean(["build", "fuse", str(root / "c5.ccfg"), str(root / "p.txt"), "-o", str(root / "f.ccfg")])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    text=mutated(["0 0 0", "0 1 2"], "0123456789 ,-#\n"),
    group=st.sampled_from(["cyclic:2", "cyclic:4", "sym:3"]),
)
@example(text="0 0 0\n0 1 2 # second triple\n", group="cyclic:4")
@example(text="0 0 %s\n" % BIG, group="cyclic:4")
def test_family_text_never_tracebacks(tmp_path_factory, text, group):
    path = tmp_path_factory.mktemp("family") / "f.txt"
    path.write_text(text)
    run_clean(["realize", "grp-as", "--group", group, "--family", str(path)])


# -- verb arguments: sizes and non-numeric tokens ------------------------------

# verb -> (argv with the drawn value at {}, largest size that runs in well
# under a second, smallest size a cap refuses); the sizes between, inside
# a cap but taking seconds or gigabytes, are work rather than input errors
ARGUMENT_VERBS = {
    "build trivial": (["build", "trivial", "{}"], 60, POINT_CAP + 1),
    "build sympow": (["build", "sympow", "{ccfg}", "{}"], 4, 7),  # 5**7 > POINT_CAP
    "build schurian": (["build", "schurian", "diagonal:{}"], 14, math.isqrt(POINT_CAP) + 1),
    "realize diagonal-example": (["realize", "diagonal-example", "--n", "{}"], 14, math.isqrt(POINT_CAP) + 1),
    "demo jminusi": (["demo", "jminusi", "--n", "{}"], SPECTRAL_CAP, SPECTRAL_CAP + 1),
    "demo unweight": (["demo", "unweight", "--seed", "0", "--n", "{}"], 10**12, 10**12),
}
NON_INTEGERS = ["x", "", " ", "1.5", "1e3", "0x10", "nan", "-", "--", "1/2", "3 4", "-x"]
WORDS = st.sampled_from(NON_INTEGERS)


@st.composite
def verb_argument(draw):
    verb = draw(st.sampled_from(sorted(ARGUMENT_VERBS)))
    _, fast, refused = ARGUMENT_VERBS[verb]
    sizes = st.one_of(st.integers(-10, fast), st.integers(refused, 10**12)).map(str)
    return verb, draw(sizes | WORDS)


# verb -> argv with a malformed group or action descriptor, or a token that
# is no integer, at {}
TOKEN_VERBS = {
    "build gas": ["build", "gas", "{}"],
    "build group-scheme": ["build", "group-scheme", "{}"],
    "realize grp-as": ["realize", "grp-as", "--group", "{}", "--family", "{family}"],
    "build schurian ACTION": ["build", "schurian", "{}"],
    "realize diagonal-example --set": ["realize", "diagonal-example", "--n", "5", "--set", "0,{}"],
    "exponent commutative --dims": ["exponent", "commutative", "--dims", "2,{},2", "--rank", "8"],
}
# each kind with a tail that no descriptor of that kind accepts
TAILS = st.sampled_from(["", ":", ":x", ":2x", ":2xx", ":x2", ":1.5", ": ", ":-", ":2:", ":1e3", ":0x10"])
GROUPS = st.builds(str.__add__, st.sampled_from(["cyclic", "abelian", "sym", "wreath", "wreath:2", "dihedral", ""]), TAILS)
ACTIONS = st.builds(str.__add__, st.sampled_from(["translation:", "conjugation:"]), GROUPS) | st.builds(
    str.__add__, st.sampled_from(["diagonal", "natural", "natural:sym", "orbit"]), TAILS
)


DESCRIPTORS = {"build gas": GROUPS, "build group-scheme": GROUPS, "realize grp-as": GROUPS, "build schurian ACTION": ACTIONS}


@st.composite
def malformed_argument(draw):
    verb = draw(st.sampled_from(sorted(TOKEN_VERBS)))
    return verb, draw(DESCRIPTORS.get(verb, WORDS))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("args")
    write_ccfg(group_scheme(make_group("cyclic:5")), str(root / "c5.ccfg"))
    (root / "family.txt").write_text("0 0 0\n")
    return {"ccfg": str(root / "c5.ccfg"), "family": str(root / "family.txt")}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=verb_argument() | malformed_argument())
@example(case=("demo unweight", "3"))
# each once asked numpy for gigabytes before a cap was compared
@example(case=("build trivial", "20001"))
@example(case=("build schurian", "2000"))
@example(case=("realize diagonal-example", "2000"))
@example(case=("demo jminusi", "200000"))
# each once printed Python's own message or a traceback
@example(case=("build gas", "cyclic"))
@example(case=("realize grp-as", "wreath:2"))
@example(case=("build group-scheme", "abelian:2xx"))
@example(case=("build trivial", "x"))
def test_verb_arguments_never_traceback(inputs, case):
    verb, value = case
    template = ARGUMENT_VERBS[verb][0] if verb in ARGUMENT_VERBS else TOKEN_VERBS[verb]
    argv = [w.format(value, **inputs) for w in template]
    start = time.perf_counter()
    rc = run_clean(argv)
    if rc == 2:
        assert time.perf_counter() - start < 1.0, argv
    if verb in TOKEN_VERBS or value in NON_INTEGERS:
        assert rc == 2, argv


# -- Schurian configurations of drawn actions ----------------------------------

SMALL_GROUPS = ["cyclic:%d" % m for m in range(1, 25)] + [
    "abelian:2x2", "abelian:2x4", "abelian:2x2x2", "abelian:3x3", "abelian:2x6", "abelian:4x4",
    "abelian:2x2x2x2", "abelian:2x2x6", "sym:1", "sym:2", "sym:3", "sym:4",
    "wreath:2:cyclic:2", "wreath:2:cyclic:3", "wreath:3:cyclic:1", "wreath:2:abelian:2x1",
]


@st.composite
def small_action(draw):
    """Translation or conjugation of a group of order at most 24, the
    diagonal action on (Z/N)^2 for N <= 12, or S_N on N <= 5 points."""
    kind = draw(st.sampled_from(["translation", "conjugation", "diagonal", "natural"]))
    if kind == "diagonal":
        return diagonal_action(draw(st.integers(1, 12)))
    if kind == "natural":
        return natural_action(draw(st.integers(1, 5)))
    G = make_group(draw(st.sampled_from(SMALL_GROUPS)))
    return left_translation_action(G) if kind == "translation" else conjugation_action(G)


def disjoint_union(a, b):
    """The product of the two groups acting on the points of a, then those
    of b: (g, h) moves a point of a by g and a point of b by h."""
    table = np.concatenate(
        [np.repeat(a.table, len(b.table), axis=0), np.tile(b.table, (len(a.table), 1)) + a.n_points], axis=1
    )
    return GroupAction(ProductGroup(a.group, b.group), table, "union")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=small_action(), b=st.none() | small_action())
def test_schurian_equals_the_pair_loop_on_drawn_actions(a, b):
    if b is not None:
        assume(len(a.table) * len(b.table) <= 4096)
        a = disjoint_union(a, b)
    event("union" if b is not None else "single")
    got, want = schurian(a), loop_schurian(a)
    assert np.array_equal(got.matrix, want.matrix)
    assert got.class_labels == want.class_labels
    assert np.array_equal(got.automorphisms, want.automorphisms)
    gens, scanned = _orbit_generators(a.table), scan_orbit_generators(a.table)
    assert len(gens) == len(scanned) and all(np.array_equal(g, h) for g, h in zip(gens, scanned))
