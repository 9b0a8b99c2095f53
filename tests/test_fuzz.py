"""Fuzzing of the text formats through the command line: whatever the
input text, a verb exits 0 or 2, never with a traceback, and exit 2 comes
with exactly one `error:` line."""

import contextlib
import io

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ccmm.cli import main

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
