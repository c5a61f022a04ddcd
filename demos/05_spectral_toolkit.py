"""The matrix layer on its own: reachability, certified spectral radii
and scale-blind norms."""

import numpy as np

from scalefix import (
    gauge_norm,
    is_irreducible,
    is_primitive,
    quotient_norm,
    spectral_radius,
    strongly_connected_components,
)

# reachability: who influences whom, possibly through intermediaries
chain = np.array([
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
])
split = np.array([
    [1.0, 1.0, 0.0],
    [1.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])
print(f"3-cycle irreducible: {is_irreducible(chain)}, "
      f"primitive: {is_primitive(chain)}")
print(f"block matrix irreducible: {is_irreducible(split)}, "
      f"components: {strongly_connected_components(split)}")
print()

# certified radius: power steps, then shifted inverse (Noda) steps,
# each with two-sided Collatz-Wielandt bounds, so the returned value
# comes with a proof-grade bracket
rng = np.random.default_rng(0)
M = rng.uniform(0.1, 1.0, (6, 6))
res = spectral_radius(M, tol=1e-12)
dense = np.max(np.abs(np.linalg.eigvals(M)))
print(f"Perron-root radius: {res.rho:.15f} in {res.iterations} steps")
print(f"bracket width: {res.upper_bound - res.lower_bound:.2e}")
print(f"dense eigensolver says: {dense:.15f}")
print()

# the absolute-exponent matrix of the one-sector model: with a common
# labor share both columns sum to one, which forces radius exactly 1;
# taking entrywise worst cases over heterogeneous shares overshoots
def abs_exponents(theta, gamma):
    d = 1.0 + theta * gamma
    return np.array([[1.0 / d, gamma * (1.0 + theta) / d],
                     [theta * gamma / d, (1.0 - gamma) / d]])

common = abs_exponents(4.0, 0.5)
upper = np.maximum(abs_exponents(4.0, 0.2), abs_exponents(4.0, 0.8))
print(f"common share: column sums {common.sum(axis=0)}, "
      f"radius {spectral_radius(common, tol=1e-12).rho:.12f}")
print(f"entrywise upper bound: column sums {upper.sum(axis=0)}, "
      f"radius {spectral_radius(upper, tol=1e-10).rho:.6f}")
print("so the bound is loose: the true model still has radius 1.")
print()

# norms that ignore the free scale
u = np.array([1.0, 1.0, -0.8])
z = np.array([0.3, -0.2, 0.5])
print(f"gauge norm of z:               {gauge_norm(z, np.abs(u)):.6f}")
print(f"distance of z from span(u):    {quotient_norm(z, u, np.abs(u)):.6f}")
shifted = z + 3.7 * u
print(f"same after sliding along u:    "
      f"{quotient_norm(shifted, u, np.abs(u)):.6f}")
