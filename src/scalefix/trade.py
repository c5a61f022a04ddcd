"""Built-in quantitative trade models.

Three parameter bundles and their fixed-point systems:

  * one-sector: J countries, one sector, country-specific labor shares;
    unknowns are market access OMEGA[i] and transformed price index P[i]
    (the price index enters as its -theta power throughout).
  * multi-sector: J countries, S sectors, labor the only input;
    unknowns OMEGA[i][s], P[i][s] and the transformed wage W[i], which
    stands for the wage raised to 1 + sum of sector elasticities.
  * general: sectors plus an input-output structure of intermediates;
    unknowns OMEGA[i][s], P[i][s] and the raw wage w[i].  No closed-form
    sign structure is attached: certification is evidence-only there.

All builders return immutable PositiveSystem values with analytic
elasticities, a closed-form scaling direction, and (for the two proven
models) a fixed sign pattern.  Infinite trade costs are legal as long as
the finite-cost graph stays strongly connected; the corresponding sum
terms are exact zeros.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from scalefix.solve import SolveOptions, SolveResult, iterate
from scalefix.spectral import _strongly_connected, strongly_connected_components
from scalefix.system import (
    EvaluationError,
    PositiveSystem,
    StateVector,
    _Support,
    _frozen,
)

__all__ = [
    "ParameterError",
    "StaleStateError",
    "OneSectorParams",
    "MultiSectorParams",
    "GeneralParams",
    "Outcomes",
    "ShockStep",
    "CounterfactualResult",
    "gamma_constant",
    "build_one_sector",
    "build_multi_sector",
    "build_general",
    "build_system",
    "recover_outcomes",
    "apply_shock",
    "counterfactual",
]


class ParameterError(ValueError):
    """Invalid model parameters; `field` names the offending input."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class StaleStateError(RuntimeError):
    """recover_outcomes was handed a state that is not an equilibrium."""


# --------------------------------------------------------------- gamma


def gamma_constant(theta: float, sigma: float) -> float:
    """The constant multiplying every trade term: the gamma function of
    (theta + 1 - sigma) / theta, raised to -theta / (1 - sigma)."""
    # written so that NaN fails both checks
    if not 1.0 < sigma < math.inf:
        raise ParameterError(f"sigma={sigma} must be finite and exceed 1",
                             field="sigma")
    if not sigma - 1.0 < theta < math.inf:
        raise ParameterError(
            f"theta={theta} must be finite and exceed sigma-1={sigma - 1}: "
            "the gamma argument (theta+1-sigma)/theta must be positive",
            field="theta")
    arg = (theta + 1.0 - sigma) / theta
    return math.gamma(arg) ** (-theta / (1.0 - sigma))


def _sector_constants(theta, sigma) -> NDArray[np.float64]:
    return np.array([gamma_constant(float(t), float(g))
                     for t, g in zip(theta, sigma)])


# ---------------------------------------------------------- parameters


_FINITE = float(np.finfo(float).max)    # an upper bound +inf fails


def _field(p, name, value, shape, lo, hi=_FINITE, *, strict=False):
    """Store a read-only float copy of value as p.<name> and return it.
    Every array field of a bundle passes here.  The copy must have this
    shape and its entries must lie in [lo, hi], or in (lo, hi] if strict;
    hi is the largest float unless inf is allowed, and NaN fails each
    comparison."""
    a = _frozen(value)
    if a.shape != shape:
        raise ParameterError(f"{name} must have shape {shape}, got "
                             f"{a.shape}", field=name)
    ok = ((a > lo) if strict else (a >= lo)) & (a <= hi)
    if not ok.all():
        bad = tuple(np.argwhere(~ok)[0])
        rule = f"{'>' if strict else '>='} {lo:g}"
        rule = (f"{rule} or infinite" if hi == math.inf else
                f"finite and {rule}" if hi == _FINITE else
                f"{rule} and <= {hi:g}")
        raise ParameterError(
            f"{name}{''.join(f'[{k + 1}]' for k in bad)} = {a[bad]:g}: "
            f"entries must be {rule}", field=name)
    object.__setattr__(p, name, a)
    return a


def _tau(p, shape) -> None:
    """Store tau (entries >= 1 or infinite, finite on the diagonal) and
    set connected and blocs from the graph of finite costs between
    countries; certification re-checks on the full system."""
    t = _field(p, "tau", p.tau, shape, 1.0, math.inf)
    J, finite = shape[0], np.isfinite(t)
    if not finite[np.arange(J), np.arange(J)].all():
        raise ParameterError("tau must be finite on the diagonal",
                             field="tau")
    adj = finite if t.ndim == 2 else finite.any(axis=2)
    # adj is boolean, so nothing to validate; one level-synchronous walk
    # each way along adj settles the usual connected case, and only a
    # split is enumerated
    blocs = [range(J)] if _strongly_connected(adj) else \
        strongly_connected_components(adj)
    object.__setattr__(p, "connected", len(blocs) == 1)
    object.__setattr__(p, "blocs", tuple(tuple(b) for b in blocs))


def _sectored_fields(p) -> tuple[int, int]:
    """Store the six fields both sectored bundles share; returns (J, S)."""
    shape = np.shape(p.A)
    if len(shape) != 2 or 0 in shape:
        raise ParameterError("A must be a nonempty J x S matrix", field="A")
    J, S = shape
    _field(p, "A", p.A, shape, 0.0, strict=True)
    _tau(p, (J, J, S))
    rowsums = _field(p, "alpha", p.alpha, (J, S), 0.0).sum(axis=1)
    bad = int(np.argmax(np.abs(rowsums - 1.0)))
    if abs(rowsums[bad] - 1.0) > 1e-12:     # alpha is finite: no NaN
        raise ParameterError(
            f"alpha row for country {bad + 1} sums to {rowsums[bad]:.17g},"
            " expected 1", field="alpha")
    _field(p, "L", p.L, (J,), 0.0, strict=True)
    _sector_constants(_field(p, "theta", p.theta, (S,), 0.0, strict=True),
                      _field(p, "sigma", p.sigma, (S,), 1.0, strict=True))
    return J, S


@dataclass(frozen=True)
class OneSectorParams:
    """One sector, J countries, labor shares gamma in [0, 1].  The arrays
    are read-only validated copies; gamma_constant checks theta, sigma."""

    A: NDArray[np.float64]
    tau: NDArray[np.float64]
    gamma: NDArray[np.float64]
    L: NDArray[np.float64]
    theta: float
    sigma: float
    connected: bool = field(init=False)
    blocs: tuple = field(init=False)

    def __post_init__(self):
        J = len(self.A) if np.ndim(self.A) == 1 else 0
        if J < 1:
            raise ParameterError("A must be a nonempty vector", field="A")
        _field(self, "A", self.A, (J,), 0.0, strict=True)
        _tau(self, (J, J))
        _field(self, "gamma", self.gamma, (J,), 0.0, 1.0)
        _field(self, "L", self.L, (J,), 0.0, strict=True)
        gamma_constant(self.theta, self.sigma)

    @property
    def J(self) -> int:
        return self.A.shape[0]


class _Sectored:
    """J countries and S sectors, read off the J x S matrix A."""

    @property
    def J(self) -> int:
        return self.A.shape[0]

    @property
    def S(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class MultiSectorParams(_Sectored):
    """J countries, S sectors, labor-only production.  The arrays, here
    and in GeneralParams, are read-only validated copies."""

    A: NDArray[np.float64]        # (J, S)
    tau: NDArray[np.float64]      # (J, J, S)
    alpha: NDArray[np.float64]    # (J, S), rows sum to 1
    L: NDArray[np.float64]        # (J,)
    theta: NDArray[np.float64]    # (S,)
    sigma: NDArray[np.float64]    # (S,)
    connected: bool = field(init=False)
    blocs: tuple = field(init=False)

    def __post_init__(self):
        _sectored_fields(self)

    @property
    def Theta(self) -> float:
        return float(self.theta.sum())


@dataclass(frozen=True)
class GeneralParams(_Sectored):
    """Sectors plus intermediates.

    The fields of MultiSectorParams, plus gamma_labor[i, s], the labor
    cost share of sector s in country i, and gamma_io[i, r, s], the cost
    share of sector-r intermediates used by sector s.  For every (i, s)
    the labor share plus the column of input shares must sum to one.
    """

    A: NDArray[np.float64]
    tau: NDArray[np.float64]
    alpha: NDArray[np.float64]
    L: NDArray[np.float64]
    theta: NDArray[np.float64]
    sigma: NDArray[np.float64]
    gamma_labor: NDArray[np.float64]   # (J, S)
    gamma_io: NDArray[np.float64]      # (J, S, S) input sector first
    connected: bool = field(init=False)
    blocs: tuple = field(init=False)

    def __post_init__(self):
        J, S = _sectored_fields(self)
        gl = _field(self, "gamma_labor", self.gamma_labor, (J, S), 0.0, 1.0)
        gio = _field(self, "gamma_io", self.gamma_io, (J, S, S), 0.0, 1.0)
        if not np.all(np.abs(gl + gio.sum(axis=1) - 1.0) <= 1e-12):
            raise ParameterError(
                "labor share plus intermediate shares must sum to 1 "
                "for every country and sector", field="gamma_labor")


# ------------------------------------------------------------- labels


@functools.lru_cache(maxsize=128)
def indexed_labels(name: str, *shape: int) -> tuple[str, ...]:
    """One `name[i][j]...` label per entry of an array of this shape, in
    C order with 1-based indices: indexed_labels("R", 2, 1) is
    ("R[1][1]", "R[2][1]").  Every state, outcome and delta label is
    built here, once per (name, shape) while it stays among the last 128
    asked for."""
    labels = [name]
    for n in shape:     # one axis at a time, the last varying fastest
        idx = [f"[{k}]" for k in range(1, n + 1)]
        labels = [head + tail for head in labels for tail in idx]
    return tuple(labels)


def one_sector_labels(J: int) -> tuple[str, ...]:
    return indexed_labels("OMEGA", J) + indexed_labels("P", J)


def multi_sector_labels(J: int, S: int, wage: str = "W") -> tuple[str, ...]:
    return indexed_labels("OMEGA", J, S) + indexed_labels("P", J, S) \
        + indexed_labels(wage, J)


# ------------------------------------------------------ one-sector model


def _tau_power(tau: NDArray[np.float64], theta) -> NDArray[np.float64]:
    # infinity to the negative power is an exact zero, no overflow path
    return tau ** (-theta)


def _one_sector_pieces(p: OneSectorParams):
    J = p.J
    kappa = gamma_constant(p.theta, p.sigma)
    a = 1.0 / (1.0 + p.theta * p.gamma)
    b = (1.0 - p.gamma) / (1.0 + p.theta * p.gamma) - 1.0
    # (gamma/L)^(-theta*gamma/(1+theta*gamma)), taken as 1 where gamma = 0
    expo = -p.theta * p.gamma * a
    prefac = np.where(p.gamma > 0, (p.gamma / p.L) ** expo, 1.0)
    T = _tau_power(p.tau, p.theta)
    KOm = kappa * p.A[:, None] * T * prefac[None, :]
    KP = kappa * p.A[None, :] * T.T * prefac[None, :]
    return a, b, prefac, KOm, KP


def build_one_sector(p: OneSectorParams) -> PositiveSystem:
    """Fixed-point system of dimension 2J over (OMEGA[i], P[i])."""
    J = p.J
    a, b, _, KOm, KP = _one_sector_pieces(p)

    def terms(x):
        om, pp = x[:J], x[J:]
        return om ** a * pp ** b, om ** (a - 1.0) * pp ** (b + 1.0)

    def evaluate(x):
        t_om, t_pp = terms(x)
        return np.concatenate([KOm @ t_om, KP @ t_pp])

    def elasticity(x):
        t_om, t_pp = terms(x)
        sh_om = KOm * t_om[None, :] / (KOm @ t_om)[:, None]
        sh_pp = KP * t_pp[None, :] / (KP @ t_pp)[:, None]
        # each block written in place: no block made twice
        E = np.empty((2 * J, 2 * J))
        np.multiply(sh_om, a, out=E[:J, :J])
        np.multiply(sh_om, b, out=E[:J, J:])
        np.multiply(sh_pp, a - 1.0, out=E[J:, :J])
        np.multiply(sh_pp, b + 1.0, out=E[J:, J:])
        return E

    def pattern():
        fin = np.isfinite(p.tau).astype(int)
        pos_g, sub_g = p.gamma > 0, p.gamma < 1
        return np.block([[fin, -fin * pos_g],
                         [-fin.T * pos_g, fin.T * sub_g]])

    u = np.concatenate([np.ones(J),
                        np.full(J, -p.theta / (1.0 + p.theta))])
    return PositiveSystem(
        labels=one_sector_labels(J),
        evaluate_values=evaluate,
        elasticity_values=elasticity,
        sign_pattern=pattern,
        scaling=u,
        kind="one-sector",
        meta={"params": p},
    )


# ------------------------------------------------------ sectored layout
#
# Both sectored models keep their sector blocks as one (S, J, J) stack,
# indexed [s, i, j], and their states as OMEGA[i][s] at i*S + s, P[i][s]
# at JS + i*S + s and the wage of country i at 2JS + i.


def _sector_kernels(p: MultiSectorParams | GeneralParams):
    """K[s, i, j] = kappa_s A_is tau_ijs^-theta_s and the price-block
    kernel KP[s, i, j] = K[s, j, i], both C-contiguous: matmul on a
    strided view sums in another order and moves the last bits."""
    kappa = _sector_constants(p.theta, p.sigma)
    T = _tau_power(np.ascontiguousarray(np.moveaxis(p.tau, 2, 0)),
                   p.theta[:, None, None])
    K = kappa[:, None, None] * p.A.T[:, :, None] * T
    return K, np.ascontiguousarray(np.swapaxes(K, 1, 2))


def _unpack(x: NDArray, J: int, S: int):
    """(OMEGA, P) as J x S matrices and the J wages."""
    return (x[:J * S].reshape(J, S), x[J * S:2 * J * S].reshape(J, S),
            x[2 * J * S:])


def _matvec(K: NDArray, t: NDArray) -> NDArray:
    # K[s] @ t[s] for every sector s, as an (S, J) array
    return np.matmul(K, t[:, :, None])[:, :, 0]


def _shares(K: NDArray, t: NDArray) -> NDArray:
    # term j's share of row i's sum in K[s] @ t[s]
    return K * t[:, None, :] / _matvec(K, t)[:, :, None]


def _multi_sector_cells(J, S):
    """The (rows, cols) where the five nonzero blocks of a multi-sector
    elasticity matrix sit, each pair broadcasting to its block's shape:
    the (S, J, J) blocks OMEGA-on-P, OMEGA-on-W and P-on-W, W-on-OMEGA
    as J x S, and the W diagonal."""
    JS = J * S
    cell = np.arange(J)[None, :, None] * S + np.arange(S)[:, None, None]
    wage = 2 * JS + np.arange(J)
    return ((cell, JS + np.swapaxes(cell, 1, 2)), (cell, wage),
            (JS + cell, wage), (wage[:, None], cell[:, :, 0].T), (wage, wage))


def _multi_sector_layout(M, J, S, *blocks):
    """Write the five nonzero blocks of a multi-sector elasticity matrix,
    in the order of _multi_sector_cells, into M and return it."""
    for (rows, cols), block in zip(_multi_sector_cells(J, S), blocks):
        M[rows, cols] = block
    return M


# ---------------------------------------------------- multi-sector model


def build_multi_sector(p: MultiSectorParams) -> PositiveSystem:
    """System of dimension 2JS + J over (OMEGA[i][s], P[i][s], W[i]).

    One evaluation takes the wage powers W^e_p and W^e_self of every
    sector in one power call and W^e_w in one more, then both sector
    blocks in one matmul over a (2S, J, J) stack whose halves are the
    OMEGA and P kernels, and the wage rows as sums over sectors.
    """
    J, S = p.J, p.S
    JS = J * S
    Theta = p.Theta
    K, KP = _sector_kernels(p)
    # the OMEGA kernel over the P kernel, one (2S, J, J) stack
    KK = np.concatenate([K * (p.alpha * p.L[:, None]).T[:, None, :], KP])
    e_w = 1.0 / (1.0 + Theta)
    e_p = -p.theta * e_w                 # (S,) exponent of W in the P rows
    e_self = (Theta - p.theta) * e_w     # (S,) exponent of W in its own row
    # W ** e_w stays a scalar power: numpy takes x ** 0.5 (Theta = 1) as
    # sqrt, whose last bit an array exponent's pow does not always match
    e_pw = np.concatenate([e_p, e_self])[:, None]
    n = 2 * JS + J

    def terms(x):
        # t[:S] the OMEGA terms W^e_w / P, t[S:2S] the P terms W^e_p and
        # t[2S:] W^e_self, all (S, J); t_W the wage terms, (J, S) in C
        # order, as numpy lays out a product of a C and an F operand:
        # the bits of its row sums hang on that order
        om, pp, W = _unpack(x, J, S)
        t = np.empty((3 * S, J))
        np.power(W, e_pw, out=t[S:])
        np.divide(W ** e_w, pp.T, out=t[:S])
        return t, (om / p.L[:, None]) * t[2 * S:].T

    def evaluate(x):
        t, t_W = terms(x)
        y = np.empty(n)
        y[:2 * JS].reshape(2, J, S).transpose(0, 2, 1)[...] = \
            _matvec(KK, t[:2 * S]).reshape(2, S, J)
        t_W.sum(axis=1, out=y[2 * JS:])
        return y

    def blocks(x):
        t, t_W = terms(x)
        sh_om = _shares(KK[:S], t[:S])
        sh_W = t_W / t_W.sum(axis=1)[:, None]
        # row by row: a single (J, S) @ (S,) matvec moves the last bit
        w_w = np.matmul(sh_W[:, None, :], e_self[:, None])[:, 0, 0]
        return (-sh_om, sh_om * e_w,
                _shares(KK[S:], t[S:2 * S]) * e_p[:, None, None], sh_W, w_w)

    def elasticity(x):
        # + 0.0 turns the -0.0 of a dead term, off the support, into +0.0
        return _multi_sector_layout(np.zeros((n, n)), J, S,
                                    *(b + 0.0 for b in blocks(x)))

    a = S * J * J       # entries in each (S, J, J) block

    @functools.cache
    def order():
        # the raveled blocks' entry at each support entry, row-major (row
        # i*S+s: OMEGA-on-P, then OMEGA-on-W; JS+i*S+s: P-on-W; wage i:
        # W-on-OMEGA, then W-on-W), by index arithmetic; made on first
        # use, so solving never pays, and once per system
        fin = np.isfinite(np.moveaxis(p.tau, 2, 0))          # (S, J, J)
        live = fin & (p.alpha.T > 0)[:, None, :]
        b = np.arange(3 * a).reshape(3, S, J, J).swapaxes(1, 2)  # [., i, s, j]
        w = 3 * a + np.column_stack([np.arange(JS).reshape(J, S),
                                     JS + np.arange(J)])
        return np.concatenate([
            np.concatenate(b[:2], axis=2)[np.tile(live.swapaxes(0, 1), 2)],
            b[2][fin.transpose(2, 0, 1)],
            w[:, :S + (S >= 2)].ravel()])

    def support_values(x):
        return np.concatenate([b.ravel() for b in blocks(x)])[order()]

    def support():
        # each support entry's flat index and sign, read off its block
        # entry: made for the system's support, which keeps them
        flat = np.concatenate([np.ravel(r * n + c)
                               for r, c in _multi_sector_cells(J, S)])
        signs = np.repeat([-1.0, 1.0, -1.0, 1.0, 1.0], [a, a, a, JS, J])
        return flat[order()], signs[order()]

    u = np.concatenate([
        np.tile((1.0 + p.theta) / (1.0 + Theta), J),
        np.tile(-p.theta / (1.0 + Theta), J),
        np.ones(J),
    ])
    return PositiveSystem(
        labels=multi_sector_labels(J, S),
        evaluate_values=evaluate,
        elasticity_values=elasticity,
        sign_pattern=lambda: _Support(n, *support()),
        scaling=u,
        kind="multi-sector",
        meta={"params": p},
        support_values=support_values,
    )


# --------------------------------------------------------- general model


def _general_costs(p: GeneralParams, pp: NDArray, w: NDArray) -> NDArray:
    # log c_is = labor share * log w_i + sum_r input share * log P_ir
    lnP = -np.log(pp) / p.theta[None, :]
    lnc = p.gamma_labor * np.log(w)[:, None] + \
        np.einsum("irs,ir->is", p.gamma_io, lnP)
    return np.exp(lnc)


def build_general(p: GeneralParams) -> PositiveSystem:
    """System over (OMEGA[i][s], P[i][s], w[i]) with intermediates.

    Each evaluation computes input costs, revenues and expenditures from
    the current state before forming the three blocks; the analytic
    elasticities chain through the same intermediates.  No sign pattern:
    the signs depend on the state, so the certifier works from samples
    here.  Iterating this system usually needs damping well below 1.
    """
    J, S = p.J, p.S
    JS = J * S
    n = 2 * JS + J
    K, KP = _sector_kernels(p)
    cell = np.arange(JS).reshape(J, S)
    country = np.arange(J)[:, None]
    sector = np.arange(S)[None, :]
    wage = 2 * JS + np.arange(J)[:, None]

    @functools.cache
    def log_derivatives():
        # log c_is = gamma_labor_is log w_i - sum_r gamma_io_irs log P_ir /
        # theta_r is linear in log x, so d log c^-theta (as (S, J, n)) and
        # d log R = d log OMEGA + d log c^-theta (as (J, S, n)) are
        # constant; made on first use, so a system only solved holds
        # neither, and once per system
        d_ct = np.zeros((J, S, n))
        d_ct[country, sector, wage] = -p.theta * p.gamma_labor
        d_ct[country[:, :, None], sector[:, :, None],
             JS + cell[:, None, :]] = (p.theta[None, :, None]
                                       * np.swapaxes(p.gamma_io, 1, 2)
                                       / p.theta[None, None, :])
        d_R = d_ct.copy()
        d_R[country, sector, cell] = 1.0      # d log c^-theta is 0 there
        return _frozen(np.swapaxes(d_ct, 0, 1)), _frozen(d_R)

    def terms(x):
        om, pp, w = _unpack(x, J, S)
        # R/omega is c^-theta; the price block reads it directly, which
        # keeps that block exactly independent of omega
        c_theta = _general_costs(p, pp, w) ** (-p.theta[None, :])
        R = om * c_theta
        E = p.alpha * (w * p.L)[:, None] + np.einsum("isr,ir->is", p.gamma_io, R)
        return pp, w, c_theta, R, E

    def evaluate(x):
        pp, _, c_theta, R, E = terms(x)
        f_om = _matvec(K, E.T / pp.T)
        f_pp = _matvec(KP, c_theta.T)
        f_w = (p.gamma_labor * R).sum(axis=1) / p.L
        return np.concatenate([f_om.T.ravel(), f_pp.T.ravel(), f_w])

    def elasticity(x):
        pp, w, c_theta, R, E = terms(x)
        d_ct, d_R = log_derivatives()
        # d(E_js / P_js) / d log x, times P_js: E_js is 0 where sector s
        # of country j has neither final nor input demand, so the OMEGA
        # rows weight these derivatives by K / (P f) instead of taking
        # shares of d log E
        d_E = np.matmul(p.gamma_io * R[:, None, :], d_R)       # (J, S, n)
        d_E[country, sector, wage] += p.alpha * (w * p.L)[:, None]
        d_E[country, sector, JS + cell] -= E
        f_om = _matvec(K, E.T / pp.T)
        om_rows = np.matmul(K, np.swapaxes(d_E / pp[:, :, None], 0, 1)) \
            / f_om[:, :, None]
        pp_rows = np.matmul(_shares(KP, c_theta.T), d_ct)
        sh_w = p.gamma_labor * R
        sh_w /= sh_w.sum(axis=1)[:, None]
        w_rows = np.matmul(sh_w[:, None, :], d_R)[:, 0, :]
        return np.concatenate([np.swapaxes(om_rows, 0, 1).reshape(JS, n),
                               np.swapaxes(pp_rows, 0, 1).reshape(JS, n),
                               w_rows])

    theta_max = float(p.theta.max())
    u = np.concatenate([
        np.tile((1.0 + p.theta) / (1.0 + theta_max), J),
        np.tile(-p.theta / (1.0 + theta_max), J),
        np.full(J, 1.0 / (1.0 + theta_max)),
    ])
    return PositiveSystem(
        labels=multi_sector_labels(J, S, wage="w"),
        evaluate_values=evaluate,
        elasticity_values=elasticity,
        scaling=u,
        kind="general",
        meta={"params": p},
    )


def _dimension(params) -> int:
    """build_system(params).dimension, without building the system."""
    return 2 * params.J if isinstance(params, OneSectorParams) else \
        (2 * params.S + 1) * params.J


def build_system(params) -> PositiveSystem:
    """Dispatch on the parameter bundle type."""
    if isinstance(params, GeneralParams):
        return build_general(params)
    if isinstance(params, MultiSectorParams):
        return build_multi_sector(params)
    if isinstance(params, OneSectorParams):
        return build_one_sector(params)
    raise TypeError(f"unknown parameter bundle {type(params).__name__}")


# ------------------------------------------------------------- outcomes


@dataclass(frozen=True)
class Outcomes:
    """Observable equilibrium objects recovered from a solved state.

    Sector-indexed arrays keep a sector axis even when S = 1.  pi[i, j, s]
    is the share of destination j's sector-s spending sourced from i.
    """

    w: NDArray[np.float64]      # (J,)
    R: NDArray[np.float64]      # (J, S)
    E: NDArray[np.float64]      # (J, S)
    P: NDArray[np.float64]      # (J, S)
    c: NDArray[np.float64]      # (J, S)
    pi: NDArray[np.float64]     # (J, J, S)
    U: NDArray[np.float64]      # (J,)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))


def _import_shares(A, c, tau, theta) -> NDArray[np.float64]:
    # normalized over exporters so each destination's shares sum to 1
    numer = A[:, None, :] * _tau_power(c[:, None, :] * tau, theta)
    return numer / numer.sum(axis=0, keepdims=True)


def _welfare(w, L, P, alpha) -> NDArray[np.float64]:
    # Cobb-Douglas real income: spending alpha*w*L on each sector at
    # price P gives utility w*L*prod(P^-alpha)
    return w * L * np.prod(P ** (-alpha), axis=1)


def recover_outcomes(kind: str, x_star: StateVector, params,
                     tol: float = 1e-6) -> Outcomes:
    """Wages, revenues, expenditures, price levels, input costs, import
    shares and welfare at a solved equilibrium.

    Refuses states whose relative fixed-point residual exceeds tol, since
    every downstream identity would silently degrade, and a kind other
    than that of the parameter bundle.
    """
    sys = build_system(params)
    if kind != sys.kind:
        raise ValueError(f"system kind {kind!r} does not match the "
                         f"{sys.kind!r} parameter bundle")
    return _recover(sys, x_star, params, tol)


def _recover(sys: PositiveSystem, x_star: StateVector, p,
             tol: float = 1e-6) -> Outcomes:
    """recover_outcomes at sys, which build_system made from the bundle
    p: each kind computes what is its own, and one tail the rest."""
    F = sys._eval_checked(x_star.values)
    rel = float(np.max(np.abs(F - x_star.values) / x_star.values))
    if rel > tol:
        raise StaleStateError(
            f"state is not an equilibrium: relative residual {rel:.3e} "
            f"exceeds {tol:.1e}")
    if sys.kind == "one-sector":
        # one sector as S = 1: every sector-indexed array gets its axis
        om, pp = x_star.values[:p.J], x_star.values[p.J:]
        a, b, prefac, _, _ = _one_sector_pieces(p)
        R = prefac * om ** a * pp ** (b + 1.0)
        w = p.gamma * R / p.L
        P = pp ** (-1.0 / p.theta)
        c = np.where(p.gamma > 0, w ** p.gamma, 1.0) * P ** (1.0 - p.gamma)
        R, P, c = R[:, None], P[:, None], c[:, None]
        E = R
        A, tau, theta = p.A[:, None], p.tau[:, :, None], np.array([p.theta])
        alpha = np.ones((p.J, 1))
    else:
        A, tau, theta, alpha = p.A, p.tau, p.theta, p.alpha
        om, pp, w = _unpack(x_star.values, p.J, p.S)
        if sys.kind == "multi-sector":
            w = w ** (1.0 / (1.0 + p.Theta))    # the state holds W
            c = np.tile(w[:, None], (1, p.S))
        else:
            c = _general_costs(p, pp, w)
        R = om * c ** (-theta[None, :])
        E = alpha * (w * p.L)[:, None]
        if sys.kind == "general":
            E += np.einsum("isr,ir->is", p.gamma_io, R)
        P = pp ** (-1.0 / theta[None, :])
    return Outcomes(w=w, R=R, E=E, P=P, c=c,
                    pi=_import_shares(A, c, tau, theta),
                    U=_welfare(w, p.L, P, alpha))


# ------------------------------------------------------- counterfactuals


@dataclass(frozen=True)
class ShockStep:
    """One parameter edit: field, 1-based indices, '=' or '*=' and a value."""

    field: str
    indices: tuple[int, ...]
    op: str
    value: float

    def __post_init__(self):
        if self.op not in ("=", "*="):
            raise ParameterError(f"unknown shock operator {self.op!r}",
                                 field=self.field)


def apply_shock(params, steps: Sequence[ShockStep]):
    """Return a new parameter bundle with the edits applied.

    The result passes full validation again; connectivity is re-derived.
    """
    if not isinstance(params, (OneSectorParams, MultiSectorParams,
                               GeneralParams)):
        raise TypeError(f"unknown parameter bundle {type(params).__name__}")
    editable = {}
    for f in fields(params):
        if f.init:
            val = getattr(params, f.name)
            editable[f.name] = np.array(val, dtype=float) if isinstance(
                val, np.ndarray) else val

    for step in steps:
        if step.field not in editable:
            raise ParameterError(f"no parameter field {step.field!r}",
                                 field=step.field)
        target = editable[step.field]
        if isinstance(target, float) or np.ndim(target) == 0:
            if step.indices:
                raise ParameterError(
                    f"{step.field} is a scalar, indices not allowed",
                    field=step.field)
            new = step.value if step.op == "=" else float(target) * step.value
            editable[step.field] = new
            continue
        if len(step.indices) != np.ndim(target):
            raise ParameterError(
                f"{step.field} needs {np.ndim(target)} indices, "
                f"got {len(step.indices)}", field=step.field)
        # checked by hand: index 0 would wrap around to the last entry
        if not all(1 <= k <= n for k, n in zip(step.indices, target.shape)):
            raise ParameterError(
                f"index {step.indices} out of range for {step.field}",
                field=step.field)
        idx = tuple(k - 1 for k in step.indices)
        target[idx] = step.value if step.op == "=" \
            else target[idx] * step.value

    return type(params)(**editable)


@dataclass(frozen=True)
class CounterfactualResult:
    base: Outcomes
    shocked: Outcomes
    changes: dict
    base_solve: SolveResult
    shocked_solve: SolveResult


def _relative_changes(base: Outcomes, shocked: Outcomes) -> dict:
    out = {}
    for name in ("w", "R", "E", "P", "c", "pi", "U"):
        old = getattr(base, name)
        new = getattr(shocked, name)
        with np.errstate(divide="ignore", invalid="ignore"):
            ch = np.where(old != 0.0, new / old - 1.0,
                          np.where(new == 0.0, 0.0, np.inf))
        out[name] = ch
    return out


def counterfactual(base_params, steps: Sequence[ShockStep],
                   opts: SolveOptions = SolveOptions(),
                   x0_values=None) -> CounterfactualResult:
    """Solve the model before and after a parameter shock.

    The base solve starts from x0_values (all ones if None); the shocked
    solve starts from the base solve's normalized equilibrium, which a
    small shock moves little.  Both solves share the numeraire rule, so
    the reported relative changes are well defined.  A shock that severs
    the trade network is rejected before any solving happens.  Where F fails
    in either solve, EvaluationError carries the solve's message, after
    the solve (base or shocked) and the iteration (0 for the start);
    where a solve does not converge otherwise, StaleStateError names the
    solve the same way.

    For a model with no sign pattern (the general model), which is not
    certified, whether each solve converges can depend on its start: in
    a scan of 110 small general models, moving the shocked solve's start
    from all ones to the base equilibrium turned 8 failing
    counterfactuals into converging ones and 7 the other way.
    x0_values (the CLI's --seed) and opts.damping ([solve] damping) are
    the settings to vary there.
    """
    if not base_params.connected:
        raise ParameterError("base trade network is not connected",
                             field="tau")
    shocked_params = apply_shock(base_params, steps)
    if not shocked_params.connected:
        raise ParameterError(
            "shock disconnects the trade network into blocs "
            f"{shocked_params.blocs}", field="tau")

    results = []
    outcomes = []
    for params in (base_params, shocked_params):
        sys = build_system(params)
        x0 = sys.state(np.ones(sys.dimension) if x0_values is None
                       else x0_values)
        res = iterate(sys, x0, u=sys.scaling, opts=opts)
        solve = f"{'shocked' if results else 'base'} solve"
        if res.status == "evaluation-failed":
            raise EvaluationError(f"{solve} failed at iteration "
                                  f"{res.iterations}: {res.message}")
        if res.status != "converged":
            raise StaleStateError(f"{solve} did not converge "
                                  f"({res.status}): {res.message}")
        results.append(res)
        outcomes.append(_recover(sys, res.x_star, params))
        x0_values = res.x_star.values
    return CounterfactualResult(
        base=outcomes[0],
        shocked=outcomes[1],
        changes=_relative_changes(outcomes[0], outcomes[1]),
        base_solve=results[0],
        shocked_solve=results[1],
    )
