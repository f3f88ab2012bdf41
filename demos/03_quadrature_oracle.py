"""The independent oracle: double-exponential quadrature on every kernel.

Nothing here touches the closed forms' algebra: integrands are evaluated
after the x**n = exp(-s) substitution and summed by the trapezoid rule
under the sinh map s = eps*sinh(U*tau), folded at s = 0 for the
half-line and two-sided for the whole line (or, for cross-checking, a
doubling-panel Gauss rule).
"""

import math

from coshint import (
    IntegrandSpec,
    closed_value,
    normalize,
    quad_t_domain,
    quad_two_sided,
    quad_x_domain,
    quad_x_domain_infinite,
    random_specs,
    rescale,
)

PI = math.pi

spec = IntegrandSpec(n=1.7, p=0.9, theta=2.4, zeta=1.1)
r = quad_x_domain(spec, 1.0)
print(f"oracle value:  {r.value:.15f}  (err est {r.abs_err_estimate:.1e},"
      f" {r.evaluations} evaluations)")
print(f"closed value:  {closed_value(spec):.15f}")
g = quad_x_domain(spec, 1.0, rule="gauss")
print(f"gauss panels:  {g.value:.15f}  ({g.evaluations} evaluations)")
print()

print("worst spread |n*quad - closed| over 100 deterministic random specs:")
worst = 0.0
for s in random_specs(100, seed=3):
    nf = normalize(s)
    t = quad_t_domain(nf.a, nf.b, nf.c).value
    worst = max(worst, abs(s.n * quad_x_domain(s, 1.0).value - t))
print(f"  {worst:.3e}")
print()

# p = i*q is the same kernel at b = i*q/n: one call at any upper limit
ispec = IntegrandSpec(n=1.5, p=0.7j, theta=1.0, zeta=2.0, upper=0.5)
print("imaginary p = 0.7i up to X = 0.5:")
print(f"  double exponential: {quad_x_domain(ispec, 0.5).value:.15f}")
print(f"  gauss panels:       {quad_x_domain(ispec, 0.5, rule='gauss').value:.15f}")
print()

inf = quad_x_domain_infinite(spec).value
print(f"infinite range, computed two-sided: {inf:.15f}")
print(f"twice the unit value:               {2 * quad_x_domain(spec, 1.0).value:.15f}")
print()

print("signed kernels over the whole line (both equal twice the ratio value):")
for b in (0.3, -0.3):
    print(f"  b={b:+.1f}  {quad_two_sided(1.0, b).value:.15f}")
print()

print("rescaling exponents by lam divides the value by lam:")
base = quad_x_domain(spec, 1.0).value
for lam in (0.5, 2.0, 2.7):
    scaled = rescale(spec, lam).scaled
    print(f"  lam={lam:<4} value*lam = {lam * quad_x_domain(scaled, 1.0).value:.15f}"
          f"  (base {base:.15f})")
