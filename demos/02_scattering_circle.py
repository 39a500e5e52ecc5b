"""Direct scattering on the unit circle.

The transfer recursion, run once on coefficient arrays, produces a(z)
and b(z) as exact Laurent polynomials and the reflection coefficient
r = b/a.  On |z| = 1 they satisfy |a|^2 - |b|^2 = c_inf, and for real
data r(conj z) = conj(r(z)).  For a single site c at the
origin the closed forms are a = 1, b = c z.
"""

import numpy as np

from dmkdv import (
    InitialProfile,
    LatticeState,
    UnitCirclePoint,
    conserved_c_inf,
    reflection_grid,
    scattering_coefficients,
    scattering_polynomials,
)

single = InitialProfile(kind="single_site", amplitude=0.3).support_state()
print("single site c = 0.3: closed form a = 1, b = 0.3 z")
print(f"{'theta':>8} {'a':>24} {'b':>24} {'|b - 0.3 z|':>12}")
for theta in np.linspace(-np.pi, np.pi, 5)[:-1]:
    pt = UnitCirclePoint.from_theta(theta)
    sd = scattering_coefficients(single, pt)
    print(f"{theta:8.3f} {sd.a:24.3e} {sd.b:24.3e} "
          f"{abs(sd.b - 0.3 * pt.z):12.2e}")

rng = np.random.default_rng(1)
random_state = LatticeState(n_min=-8, values=rng.uniform(-0.5, 0.5, 16))
c_inf = conserved_c_inf(random_state)
defect = 0.0
symmetry = 0.0
for k in range(128):
    pt = UnitCirclePoint.from_theta(2 * np.pi * k / 128)
    sd = scattering_coefficients(random_state, pt)
    defect = max(defect, abs(abs(sd.a) ** 2 - abs(sd.b) ** 2 - c_inf))
    mirror = scattering_coefficients(
        random_state, UnitCirclePoint.from_theta(-pt.theta))
    symmetry = max(symmetry, abs(mirror.r - sd.r.conjugate()))

print(f"\nrandom 16-site data: c_inf = {c_inf:.6f}")
print(f"max | |a|^2 - |b|^2 - c_inf |    = {defect:.2e}")
print(f"max | r(conj z) - conj(r(z)) |   = {symmetry:.2e}")

poly = scattering_polynomials(random_state)
a_top = poly.a_low + 2 * (len(poly.a_coeffs) - 1)
b_top = poly.b_low + 2 * (len(poly.b_coeffs) - 1)
print(f"\na(z): exponents {poly.a_low}..{a_top} step 2, "
      f"b(z): exponents {poly.b_low}..{b_top} step 2")

theta, r = reflection_grid(poly, 256)
print(f"reflection grid (256 angles): max |r| = {np.abs(r).max():.6f} < 1")
gap = max(abs(value - scattering_coefficients(
              random_state, UnitCirclePoint.from_theta(angle)).r)
          for angle, value in zip(theta, r))
print(f"grid samples vs the polynomials at each point: max gap = {gap:.2e}")
