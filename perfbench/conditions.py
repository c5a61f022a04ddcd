"""The multi-sector model's equilibrium conditions, written out here from
the model's definition, so that the benchmark can check the program's
answers without calling the code it measures.

J countries, S sectors, labor the only input, at wages w:

    P[j,s]^-theta_s = kappa_s * sum_i A[i,s] * (w[i] * tau[i,j,s])^-theta_s
    pi[i,j,s]       = kappa_s * A[i,s] * (w[i] * tau[i,j,s])^-theta_s
                      / P[j,s]^-theta_s
    E[j,s]          = alpha[j,s] * w[j] * L[j]
    R[i,s]          = sum_j pi[i,j,s] * E[j,s]        (goods markets clear)
    w[i] * L[i]     = sum_s R[i,s]                     (trade balances)
    c[i,s]          = w[i]
    U[i]            = w[i] * L[i] * prod_s P[i,s]^-alpha[i,s]

with kappa_s = Gamma((theta_s + 1 - sigma_s) / theta_s)
                  ^ (-theta_s / (1 - sigma_s)).
Every condition is homogeneous in the scale of (w, R, E, P), so it holds
whatever numeraire the solver picks.  The solver's state is
OMEGA[i,s] = R[i,s] * w[i]^theta_s, P[i,s]^-theta_s and
W[i] = w[i]^(1 + sum theta).
"""

from __future__ import annotations

import math

import numpy as np


def kappa(theta, sigma):
    return np.array([math.gamma((t + 1.0 - s) / t) ** (-t / (1.0 - s))
                     for t, s in zip(theta, sigma)])


def trade_shares(p, w):
    """(P, pi) at wages w for a bundle p with fields A, tau, theta, sigma."""
    terms = kappa(p.theta, p.sigma) * p.A[:, None, :] * \
        (w[:, None, None] * p.tau) ** -p.theta
    price_power = terms.sum(axis=0)
    return price_power ** (-1.0 / p.theta), terms / price_power


def outcome_targets(p, levels):
    """What each printed outcome should be, given the others."""
    w = levels["w"]
    P, pi = trade_shares(p, w)
    targets = {
        "P": P,
        "E": p.alpha * (w * p.L)[:, None],
        "R": np.einsum("ijs,js->is", pi, levels["E"]),
        "w": levels["R"].sum(axis=1) / p.L,
        "c": np.broadcast_to(w[:, None], P.shape),
        "U": w * p.L * np.prod(levels["P"] ** -p.alpha, axis=1),
    }
    if "pi" in levels:
        targets["pi"] = pi
    return targets


def state_targets(p, levels):
    """What the printed solver state should be, given the outcomes."""
    w, theta = levels["w"], p.theta
    return {
        "OMEGA": levels["R"] * w[:, None] ** theta,
        "P": levels["P"] ** -theta,
        "W": w ** (1.0 + theta.sum()),
    }


def worst_violation(values, targets):
    """(name, relative error) of the entry furthest from its target."""
    worst = ("", 0.0)
    for name, target in targets.items():
        err = float(np.max(np.abs(values[name] - target) / np.abs(target)))
        if not err <= worst[1]:
            worst = (name, err)
    return worst


def parse_levels(entries, J, S, names, prefix=""):
    """Arrays of the given names from `name[i]`, `name[i][s]` or
    `name[i][j][s]` labels.  Raises ValueError unless the entries are
    exactly those arrays."""
    shapes = {name: (J,) if name in ("w", "U", "W")
              else (J, J, S) if name == "pi" else (J, S) for name in names}
    out = {name: np.full(shape, np.nan) for name, shape in shapes.items()}
    for key, value in entries.items():
        name, _, index = key[len(prefix):].partition("[")
        try:
            idx = tuple(int(k) - 1 for k in index.rstrip("]").split("]["))
            if not key.startswith(prefix) or len(idx) != len(shapes[name]) \
                    or min(idx) < 0:
                raise ValueError
            out[name][idx] = float(value)
        except (KeyError, IndexError, ValueError):
            raise ValueError(f"unexpected entry {key}: {value}") from None
    for name, arr in out.items():
        if np.isnan(arr).any():
            raise ValueError(f"entries of {prefix}{name} are missing")
    return out
