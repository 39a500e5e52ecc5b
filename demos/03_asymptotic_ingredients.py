"""All the ingredients of the leading-order formula, one ray at a time.

For a ray v = n/t inside the light cone the phase (t/2)(z^2 - z^-2)
- n log z has four stationary points S_1..S_4 on the circle.  Each one
carries a local exponent nu_j, arc integrals chi_j and hat_delta_j, the
constant delta_j^0, and a Gamma-function cross entry (m1^j)_12 of
modulus sqrt(nu_j).  The scalar function delta ties them together
through the product identity delta = prod_j delta_j.  For real data the
even crosses are the conjugates of the odd ones, and the odd pair is
equal, so the leading term is the real part of one complex mode
m(n) = 2 (-1)^n (c_1 + c_3)/delta(0).
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
from dmkdv.harness import asymptotic_value, delta_product_checks, reflection_u

profile = InitialProfile(kind="single_site", amplitude=0.3)
pair = reflection_u(profile)  # r and the spectrum of its density

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

coeffs = coefficient_set(*pair, stat)
print(f"\ndelta(0) = {coeffs.delta_at_zero:.9f}")
print(f"nu = {coeffs.nu:.6f} at every S_j, |chi_1(S_1)| = "
      f"{abs(coeffs.chi_at_S1):.2e} (chi_3(S_3) is the same value)")
print(f"{'j':>2} {'hat_delta_j(S_j)':>26} {'|delta_j^0|':>12}")
for j, hat_delta, delta_j0 in zip((1, 3), coeffs.hat_delta_at_S,
                                  coeffs.delta_j0):
    print(f"{j:2d} {hat_delta:26.9f} {abs(delta_j0):12.9f}")
print("(real data: the even j are the conjugates of these)")

z = 1.7 * cmath.exp(0.8j)
[check] = delta_product_checks([z])  # this profile on this ray
print(f"\nproduct identity at z = {z:.3f}: "
      f"|delta - prod delta_j| = {check['measured']:.2e}")

m1 = cross_solutions(coeffs)
print(f"\n{'j':>2} {'(m1^j)_12':>24} {'|m1| - sqrt(nu)':>16}")
for j, entry in zip((1, 3), m1):
    defect = abs(abs(entry) - math.sqrt(coeffs.nu))
    print(f"{j:2d} {entry:24.6e} {defect:16.2e}")

result = leading_term(stat, coeffs, m1)
print(f"\nodd crosses c_j = beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12 on the ray "
      f"(n={ray.n}, t={ray.t:g}):")
for j, term, S in zip((1, 3), result.contributions, stat.S[0::2]):
    print(f"  c_{j} = {term:.6e}: amplitude {abs(term):.3e}, "
          f"phase rate {-(S * S).imag:+.4f} per t")
print(f"  odd-pair residual |c_1 - c_3|/|delta(0)| = "
      f"{result.odd_pair_residual:.2e}")

# site n reads the ray n + 1 (the gauge of asymptotic_value)
n = ray.n - 1
site = asymptotic_value(*pair, n, ray.t)
mode = 2 * (-1) ** n * sum(site.contributions) / site.delta_at_zero
print(f"\nmode m(n) = 2 (-1)^n (c_1 + c_3)/delta(0) at site n = {n}: "
      f"{mode:.6e}")
print(f"q_asym = Re m(n) = {site.q_asym:+.6e}")
