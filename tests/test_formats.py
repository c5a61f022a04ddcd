"""Golden bytes of the text layouts: parameter tables written by
save_parameters, equilibrium.txt and deltas.txt.

Every input is built by hand from exact binary fractions, `inf` and 0, so
the expected text does not depend on a solver or a BLAS build.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from scalefix.modelio import format_deltas, format_equilibrium, save_parameters
from scalefix.trade import (
    GeneralParams,
    MultiSectorParams,
    OneSectorParams,
    Outcomes,
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
