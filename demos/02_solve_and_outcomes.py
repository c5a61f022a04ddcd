"""Solve a two-sector model and recover the economic outcomes.

The solver iterates x -> F(x) in log coordinates, accelerated by
safeguarded Anderson mixing, measures progress in the norm that ignores
the free scale, and pins the scale afterwards with a numeraire rule.
From the solved state we recover wages, trade shares, price levels and
welfare, and check the accounting identities.
"""

from dataclasses import replace

import numpy as np

from scalefix import (
    MultiSectorParams,
    NumeraireRule,
    SolveOptions,
    build_multi_sector,
    iterate,
    recover_outcomes,
)

rng = np.random.default_rng(7)
J, S = 4, 2
tau = 1.0 + rng.uniform(0.1, 0.9, (J, J, S))
for s in range(S):
    np.fill_diagonal(tau[:, :, s], 1.0)
alpha = rng.uniform(0.3, 1.0, (J, S))
alpha /= alpha.sum(axis=1, keepdims=True)

params = MultiSectorParams(
    A=rng.uniform(0.6, 1.8, (J, S)),
    tau=tau,
    alpha=alpha,
    L=rng.uniform(0.5, 2.0, J),
    theta=np.array([4.0, 6.2]),
    sigma=np.array([2.0, 2.9]),
)

sys_ = build_multi_sector(params)
opts = SolveOptions(tol=1e-12,
                    numeraire_rule=NumeraireRule.named("W[1]"))
res = iterate(sys_, sys_.state(np.ones(sys_.dimension)),
              u=sys_.scaling, opts=opts)
print(f"status: {res.status} after {res.iterations} iterations")
# the plain iteration alone (anderson=0) reaches the same point in more
# steps; its step norms decay at about the contraction modulus
plain = iterate(sys_, sys_.state(np.ones(sys_.dimension)),
                u=sys_.scaling, opts=replace(opts, anderson=0))
print(f"plain iteration: {plain.status} after {plain.iterations} "
      f"iterations")
print(f"estimated per-step error decay: {plain.decay_rate:.4f}")
print()

out = recover_outcomes("multi-sector", res.x_star, params)
print("country   wage     welfare")
for i in range(J):
    print(f"  {i + 1}       {out.w[i]:8.5f}  {out.U[i]:8.5f}")
print()

# import shares are a probability distribution over origins
col_sums = out.pi.sum(axis=0)
print(f"import share columns sum to 1 within {np.max(np.abs(col_sums - 1)):.2e}")

# labor payments exhaust revenues in a labor-only economy
gap = np.max(np.abs(out.R.sum(axis=1) - out.w * params.L))
print(f"wage bill vs revenue gap: {gap:.2e}")

# every sector's output is bought by someone
supplied = np.einsum("ijs,js->is", out.pi, out.E)
print(f"goods market clearing gap: {np.max(np.abs(supplied - out.R)):.2e}")
