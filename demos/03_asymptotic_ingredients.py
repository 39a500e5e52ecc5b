"""All the ingredients of the leading-order formula, one ray at a time.

For a ray v = n/t inside the light cone the phase (t/2)(z^2 - z^-2)
- n log z has four stationary points S_1..S_4 on the circle.  Each one
carries a local exponent nu_j, arc integrals chi_j and hat_delta_j, the
constant delta_j^0, and a Gamma-function cross entry (m1^j)_12 of
modulus sqrt(nu_j).  The scalar function delta ties them together
through the product identity delta = prod_j delta_j.
"""

import cmath
import math

from dmkdv import (
    InitialProfile,
    RayParams,
    coefficient_set,
    cross_solutions,
    leading_term,
    phase_derivative,
    stationary_points,
)
from dmkdv.harness import delta_product_checks, reflection_u

profile = InitialProfile(kind="single_site", amplitude=0.3)
r_eval = reflection_u(profile)

ray = RayParams(n=50, t=100.0)
stat = stationary_points(ray)
print(f"ray v = {ray.v}: theta0 = {-cmath.phase(stat.S[0]):.6f}")
print(f"{'j':>2} {'S_j':>22} {'|phi_prime|':>12} {'phi_dd*beta^2':>22}")
for j in (1, 2, 3, 4):
    k = j - 1
    s = stat.S[k]
    phi_dd = ray.t * (1 - 3 * s ** -4) + ray.n * s ** -2
    ident = phi_dd * stat.beta[k] ** 2
    print(f"{j:2d} {s:22.6f} {abs(phase_derivative(s, ray)):12.2e} "
          f"{ident:22.6f}")
print("(phi'' from the definition of phi: the column checks beta_j against phi)")

coeffs = coefficient_set(r_eval, stat)
print(f"\ndelta(0) = {coeffs.delta_at_zero:.9f}")
print(f"{'j':>2} {'nu_j':>10} {'|chi_j(S_j)|':>13} {'hat_delta_j(S_j)':>26} "
      f"{'|delta_j^0|':>12}")
for j in (1, 2, 3, 4):
    k = j - 1
    print(f"{j:2d} {coeffs.nu[k]:10.6f} {abs(coeffs.chi_at_S[k]):13.2e} "
          f"{coeffs.hat_delta_at_S[k]:26.9f} {abs(coeffs.delta_j0[k]):12.9f}")

z = 1.7 * cmath.exp(0.8j)
[check] = delta_product_checks([z])  # this profile on this ray
print(f"\nproduct identity at z = {z:.3f}: "
      f"|delta - prod delta_j| = {check['measured']:.2e}")

m1 = cross_solutions(coeffs)
print(f"\n{'j':>2} {'(m1^j)_12':>24} {'|m1| - sqrt(nu)':>16}")
for j, (entry, nu) in enumerate(zip(m1, coeffs.nu), start=1):
    print(f"{j:2d} {entry:24.6e} {abs(abs(entry) - math.sqrt(nu)):16.2e}")

result = leading_term(stat, coeffs, m1)
print(f"\nleading term at (n=50, t=100): {result.q_asym:+.6e} "
      f"(imaginary residual {result.imag_residual:.2e})")
for j, (term, S) in enumerate(zip(result.contributions, stat.S), start=1):
    print(f"  j={j}: amplitude {abs(term):.3e}, "
          f"phase rate {-(S * S).imag:+.4f} per t")
