"""Golden bytes of the text layouts: parameter tables written by
save_parameters, equilibrium.txt, deltas.txt and trace.csv; and the
tables read back.

Every golden input is built by hand from exact binary fractions, `inf`
and 0, so the expected text does not depend on a solver or a BLAS build.
The property tests compare each formatter, and the table reader, with a
per-line oracle, the plain formula for one line applied entry by entry.
"""

import os
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalefix.modelio import (
    ConfigError,
    _read_table,
    format_deltas,
    format_equilibrium,
    save_parameters,
)
from scalefix.solve import trace_to_csv
from scalefix.system import StateVector
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    Outcomes,
    indexed_labels,
    multi_sector_labels,
)

inf = np.inf


def one_sector():
    return OneSectorParams(
        A=np.array([1.0, 2.5, 0.75]),
        tau=np.array([[1.0, inf, 1.5], [1.25, 1.0, 2.0], [3.0, inf, 1.0]]),
        gamma=np.array([0.0, 0.5, 1.0]), L=np.array([1.0, 3.0, 0.125]),
        theta=4.5, sigma=2.0)


def multi_sector():
    tau = np.stack([[[1.0, 1.5, inf], [2.0, 1.0, 1.25], [1.75, inf, 1.0]],
                    [[1.0, inf, 2.5], [1.5, 1.0, 3.0], [2.0, 1.125, 1.0]]],
                   axis=-1)
    return MultiSectorParams(
        A=np.array([[1.0, 2.0], [0.5, 1.5], [4.0, 0.25]]), tau=tau,
        alpha=np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]]),
        L=np.array([1.0, 2.0, 0.5]),
        theta=np.array([4.0, 5.5]), sigma=np.array([2.0, 3.0]))


def general():
    m = multi_sector()
    return GeneralParams(
        A=m.A, tau=m.tau, alpha=m.alpha, L=m.L, theta=m.theta, sigma=m.sigma,
        gamma_labor=np.array([[0.5, 0.75], [1.0, 0.25], [0.0, 0.5]]),
        gamma_io=np.array([[[0.25, 0.0], [0.25, 0.25]],
                           [[0.0, 0.5], [0.0, 0.25]],
                           [[0.375, 0.5], [0.625, 0.0]]]))


TAU_S = {"tau.csv.s1": "1,2,3\n1,1.5,inf\n2,1,1.25\n1.75,inf,1\n",
         "tau.csv.s2": "1,2,3\n1,inf,2.5\n1.5,1,3\n2,1.125,1\n"}
SECTORED = {"A.csv": "s1,s2\n1,2\n0.5,1.5\n4,0.25\n",
            "L.csv": "L\n1\n2\n0.5\n",
            "alpha.csv": "s1,s2\n0.25,0.75\n0.5,0.5\n1,0\n", **TAU_S}

SAVED = {
    "one-sector": (one_sector, {
        "A.csv": "A\n1\n2.5\n0.75\n",
        "L.csv": "L\n1\n3\n0.125\n",
        "gamma.csv": "gamma\n0\n0.5\n1\n",
        "params.ini": "[model]\nkind = one-sector\nA = A.csv\n"
                      "tau = tau.csv\ngamma = gamma.csv\nL = L.csv\n"
                      "theta = 4.5\nsigma = 2\n",
        "tau.csv": "1,2,3\n1,inf,1.5\n1.25,1,2\n3,inf,1\n",
    }),
    "multi-sector": (multi_sector, {
        **SECTORED,
        "params.ini": "[model]\nkind = multi-sector\nA = A.csv\n"
                      "tau = tau.csv\nalpha = alpha.csv\nL = L.csv\n"
                      "theta.s = 4, 5.5\nsigma.s = 2, 3\n",
    }),
    "general": (general, {
        **SECTORED,
        "gamma_io.csv.s1": "s1,s2\n0.25,0.25\n0,0\n0.375,0.625\n",
        "gamma_io.csv.s2": "s1,s2\n0,0.25\n0.5,0.25\n0.5,0\n",
        "gamma_labor.csv": "s1,s2\n0.5,0.75\n1,0.25\n0,0.5\n",
        "params.ini": "[model]\nkind = general\nA = A.csv\n"
                      "tau = tau.csv\nalpha = alpha.csv\nL = L.csv\n"
                      "gamma_labor = gamma_labor.csv\n"
                      "gamma_io = gamma_io.csv\n"
                      "theta.s = 4, 5.5\nsigma.s = 2, 3\n",
    }),
}


@pytest.mark.parametrize("kind", sorted(SAVED))
def test_save_parameters_bytes(kind, tmp_path):
    make, expected = SAVED[kind]
    cfg_path = save_parameters(make(), str(tmp_path))
    assert cfg_path == os.path.join(str(tmp_path), "params.ini")
    written = {name: (tmp_path / name).read_bytes().decode("utf-8")
               for name in sorted(os.listdir(tmp_path))}
    assert written == expected


def outcomes():
    R = np.arange(6.0).reshape(3, 2) * 0.25          # R[1][1] is 0.0
    E = R + 1.5
    E[1, 0] = inf
    return Outcomes(w=np.array([1.0, 0.5, 2.25]), R=R, E=E,
                    P=R * 2.0 + 0.125, c=R + 3.0,
                    pi=np.arange(18.0).reshape(3, 3, 2) / 16.0,
                    U=np.array([0.75, inf, 0.0]))


EQUILIBRIUM = """\
OMEGA[1][1]: 5.00000000e-01
OMEGA[1][2]: 1.00000000e+00
OMEGA[2][1]: 1.50000000e+00
OMEGA[2][2]: 2.00000000e+00
OMEGA[3][1]: 2.50000000e+00
OMEGA[3][2]: 3.00000000e+00
P[1][1]: 3.50000000e+00
P[1][2]: 4.00000000e+00
P[2][1]: 4.50000000e+00
P[2][2]: 5.00000000e+00
P[3][1]: 5.50000000e+00
P[3][2]: 6.00000000e+00
W[1]: 6.50000000e+00
W[2]: 7.00000000e+00
W[3]: 7.50000000e+00

w[1]: 1.00000000e+00
w[2]: 5.00000000e-01
w[3]: 2.25000000e+00
R[1][1]: 0.00000000e+00
R[1][2]: 2.50000000e-01
R[2][1]: 5.00000000e-01
R[2][2]: 7.50000000e-01
R[3][1]: 1.00000000e+00
R[3][2]: 1.25000000e+00
E[1][1]: 1.50000000e+00
E[1][2]: 1.75000000e+00
E[2][1]: inf
E[2][2]: 2.25000000e+00
E[3][1]: 2.50000000e+00
E[3][2]: 2.75000000e+00
P[1][1]: 1.25000000e-01
P[1][2]: 6.25000000e-01
P[2][1]: 1.12500000e+00
P[2][2]: 1.62500000e+00
P[3][1]: 2.12500000e+00
P[3][2]: 2.62500000e+00
c[1][1]: 3.00000000e+00
c[1][2]: 3.25000000e+00
c[2][1]: 3.50000000e+00
c[2][2]: 3.75000000e+00
c[3][1]: 4.00000000e+00
c[3][2]: 4.25000000e+00
U[1]: 7.50000000e-01
U[2]: inf
U[3]: 0.00000000e+00
"""


def test_format_equilibrium_bytes():
    x_star = SimpleNamespace(labels=multi_sector_labels(3, 2),
                             values=np.arange(1.0, 16.0) * 0.5)
    assert format_equilibrium(x_star, outcomes()) == EQUILIBRIUM


def test_format_equilibrium_prints_percent_and_brace_labels_literally():
    x_star = StateVector(labels=("x%", "y{}", "%s{0}%%"),
                         values=np.array([0.5, 2.0, 0.25]))
    one = SimpleNamespace(w=np.array([1.0]), R=np.array([[0.5]]),
                          E=np.array([[0.75]]), P=np.array([[2.0]]),
                          c=np.array([[4.0]]), U=np.array([0.125]))
    assert format_equilibrium(x_star, one) == """\
x%: 5.00000000e-01
y{}: 2.00000000e+00
%s{0}%%: 2.50000000e-01

w[1]: 1.00000000e+00
R[1][1]: 5.00000000e-01
E[1][1]: 7.50000000e-01
P[1][1]: 2.00000000e+00
c[1][1]: 4.00000000e+00
U[1]: 1.25000000e-01
"""


DELTAS = """\
delta.w[1]: 0.75
delta.w[2]: 0.25
delta.w[3]: 2
delta.R[1][1]: -0.25
delta.R[1][2]: 0
delta.R[2][1]: 0.25
delta.R[2][2]: 0.5
delta.R[3][1]: 0.75
delta.R[3][2]: 1
delta.E[1][1]: 1.25
delta.E[1][2]: 1.5
delta.E[2][1]: inf
delta.E[2][2]: 2
delta.E[3][1]: 2.25
delta.E[3][2]: 2.5
delta.P[1][1]: -0.125
delta.P[1][2]: 0.375
delta.P[2][1]: 0.875
delta.P[2][2]: 1.375
delta.P[3][1]: 1.875
delta.P[3][2]: 2.375
delta.c[1][1]: 2.75
delta.c[1][2]: 3
delta.c[2][1]: 3.25
delta.c[2][2]: 3.5
delta.c[3][1]: 3.75
delta.c[3][2]: 4
delta.pi[1][1][1]: -0.25
delta.pi[1][1][2]: -0.1875
delta.pi[1][2][1]: -0.125
delta.pi[1][2][2]: -0.0625
delta.pi[1][3][1]: 0
delta.pi[1][3][2]: 0.0625
delta.pi[2][1][1]: 0.125
delta.pi[2][1][2]: 0.1875
delta.pi[2][2][1]: 0.25
delta.pi[2][2][2]: 0.3125
delta.pi[2][3][1]: 0.375
delta.pi[2][3][2]: 0.4375
delta.pi[3][1][1]: 0.5
delta.pi[3][1][2]: 0.5625
delta.pi[3][2][1]: 0.625
delta.pi[3][2][2]: 0.6875
delta.pi[3][3][1]: 0.75
delta.pi[3][3][2]: 0.8125
delta.U[1]: 0.5
delta.U[2]: inf
delta.U[3]: -0.25
"""


def test_format_deltas_bytes():
    o = outcomes()
    changes = {name: np.asarray(getattr(o, name)) - 0.25
               for name in ("w", "R", "E", "P", "c", "pi", "U")}
    assert format_deltas(changes) == DELTAS


# ------------------------------------------------- per-line oracles


OUTCOME_NAMES = ("w", "R", "E", "P", "c", "pi", "U")
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 1.0, -0.25]


def oracle_labels(name, *shape):
    return tuple(name + "".join(idx) for idx in product(
        *([f"[{k}]" for k in range(1, n + 1)] for n in shape)))


def oracle_lines(named_arrays, fmt):
    return [f"{label}: {fmt % v}"
            for name, arr in named_arrays
            for label, v in zip(oracle_labels(name, *np.shape(arr)),
                                np.ravel(arr).tolist())]


def oracle_deltas(changes):
    return "\n".join(oracle_lines(
        ((f"delta.{name}", changes[name]) for name in OUTCOME_NAMES),
        "%.17g")) + "\n"


def oracle_equilibrium(x_star, outcomes):
    lines = [f"{label}: {v:.8e}"
             for label, v in zip(x_star.labels, x_star.values)]
    lines += [""] + oracle_lines(
        ((name, getattr(outcomes, name)) for name in OUTCOME_NAMES
         if name != "pi"), "%.8e")
    return "\n".join(lines) + "\n"


def oracle_trace(res):
    lines = ["iteration,step_gauge,step_quotient"]
    for n, (sg, sq) in enumerate(zip(res.step_gauge, res.step_quotient),
                                 start=1):
        lines.append(f"{n},{sg:.17g},{sq:.17g}")
    return "\n".join(lines) + "\n"


values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))
shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


def filled(shape):
    return arrays(np.float64, shape, elements=values)


@st.composite
def named_arrays(draw):
    return {name: draw(shapes.flatmap(filled)) for name in OUTCOME_NAMES}


@settings(max_examples=300, deadline=None)
@given(shape=shapes)
@example(shape=())
@example(shape=(1, 1, 1))
def test_indexed_labels_match_the_product_join_oracle(shape):
    # the second call is served from the cache, and by numpy integers too
    for dims in (shape, shape, tuple(np.int64(n) for n in shape)):
        assert indexed_labels("delta.pi", *dims) == \
            oracle_labels("delta.pi", *shape)
    assert indexed_labels("delta.pi", *shape) is \
        indexed_labels("delta.pi", *shape)


@settings(max_examples=100, deadline=None)
@given(changes=named_arrays())
def test_format_deltas_matches_its_per_line_oracle(changes):
    assert format_deltas(changes) == oracle_deltas(changes)


@settings(max_examples=100, deadline=None)
@given(arrays_=named_arrays(),
       state=arrays(np.float64, st.integers(1, 12), elements=values))
def test_format_equilibrium_matches_its_per_line_oracle(arrays_, state):
    # labels with % and braces are data, never format directives
    x_star = SimpleNamespace(
        labels=tuple(f"x{j}%s{{}}" for j in range(len(state))),
        values=state)
    outcomes = SimpleNamespace(**arrays_)
    assert format_equilibrium(x_star, outcomes) == \
        oracle_equilibrium(x_star, outcomes)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 30))
def test_trace_to_csv_matches_its_per_line_oracle(data, n):
    res = SimpleNamespace(step_gauge=data.draw(filled(n)),
                          step_quotient=data.draw(filled(n)))
    assert trace_to_csv(res) == oracle_trace(res)


# ------------------------------------------------------ table reading


def oracle_table(text, one_column):
    """The table read one line at a time: a # starts a comment, lines
    with nothing else are skipped, and every cell is one float."""
    lines = [content for content in (line.partition("#")[0].strip()
                                     for line in text.splitlines()) if content]
    table = np.array([[float(cell.strip()) for cell in line.split(",")]
                      for line in lines[1:]], dtype=float)
    return table.ravel() if one_column else table


FILLERS = ["", "  ", "\t", " \t ", "# a note", "  # c, d", "#"]
PADS = ["", " ", "\t", "  "]


@st.composite
def table_texts(draw):
    """A table's text with its header, cells written in several ways
    (inf and nan included) and padded, lines with trailing comments,
    blank, blank-looking and comment-only lines between them, LF or CRLF
    ends, and maybe a byte-order mark; and whether it has one column."""
    width = draw(st.integers(1, 4))
    one_column = width == 1 and draw(st.booleans())
    lines = [",".join(f"s{k}" for k in range(1, width + 1))]
    for _ in range(draw(st.integers(1, 6))):
        cells = []
        for _ in range(width):
            v = draw(values)
            text = draw(st.sampled_from([repr(v), "%.17g" % v, "%.6g" % v]))
            cells.append(draw(st.sampled_from(PADS)) + text
                         + draw(st.sampled_from(PADS)))
        lines.append(",".join(cells)
                     + draw(st.sampled_from(["", "", " # row", "#x,y"])))
    text_lines = []
    for line in lines:
        text_lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        text_lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(text_lines) + draw(st.sampled_from(["", end])), \
        one_column


@settings(max_examples=300, deadline=None)
@given(case=table_texts())
@example(case=("s1\r\n inf \r\n\t\r\n-0\r\n", True))
@example(case=("\ufeffs1,s2\n# c\n 1 ,\t2 # three\n\n3,inf\n", False))
# str.strip takes the unit separator off a cell and float does not
@example(case=("s1,s2\n1,\x1f2\n", False))
def test_read_table_matches_its_per_line_oracle(case, tmp_path_factory):
    text, one_column = case
    path = tmp_path_factory.getbasetemp() / "table.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    got = _read_table(str(path), one_column)
    want = oracle_table(text.lstrip("\ufeff"), one_column)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("text, one_column, fault", [
    ("", False, "file has no header row"),
    ("# a comment\n \n", False, "file has no header row"),
    ("s1,s2\n", False, "no data rows"),
    ("s1,s2\n# a comment\n\n", False, "no data rows"),
    ("A,B\n1,2\n", True, "expected a single column, found 2"),
    ("A\n1\n2,3\n", True, "row 3: 2 values under 1 header columns"),
    ("s1,s2\r\n1,2\r\n3, x \r\n", False,
     "row 3, column 2: 'x' is not a number"),
    ("s1,s2\n1,2 # c\n3,nan?\n", False,
     "row 3, column 2: 'nan?' is not a number"),
])
def test_read_table_faults_keep_their_text(text, one_column, fault,
                                           tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        _read_table(str(path), one_column)
    assert str(exc.value) == f"{path}: {fault}"
