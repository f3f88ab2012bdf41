"""Series representations and their acceleration.

The integrals expand into conditionally convergent sine series such as
sum_k sin(k*theta)/(k*n + p).  Subtracting the exactly summable anchor
sum_k sin(k*theta)/k = (pi - theta)/2 leaves an absolutely convergent
remainder with a provable tail bound, which is what gets summed.  The
paired (contracted) sum also subtracts sum_k sin(k*theta)/k**3, /k**5
and /k**7, Bernoulli polynomials in theta, so its remainder falls like
k**-9 and needs a few terms where the one-sided sum needs thousands.
"""

import math

from coshint import (
    eval_cosh_ratio,
    series_contracted,
    series_imaginary,
    series_one_sided,
    sine_series_partial,
)

PI = math.pi

print("the generating expansion converges geometrically for |x| < 1:")
theta, x = 1.0, 0.7
target = math.sin(theta) / (1.0 - 2.0 * x * math.cos(theta) + x * x)
for terms in (5, 20, 80):
    got = sine_series_partial(theta, x, terms)
    print(f"  {terms:>3} terms: {got:.12f}  (target {target:.12f})")
print()

n, p, theta = 2.0, 1.0, 1.0
res = series_one_sided(n, p, theta, 1e-8)
print(f"one-sided sum:  {res.value:.12f}  [{res.terms_used} residual terms,"
      f" tail <= {res.tail_estimate:.1e}]")
plus, minus = res, series_one_sided(n, -p, theta, 1e-8)
paired = series_contracted(n, p, theta, 1e-8)
print(f"paired sum:     {paired.value:.12f}  [{paired.terms_used} residual terms]")
print(f"one-sided(+p) + one-sided(-p) = {plus.value + minus.value:.12f}")
closed = eval_cosh_ratio(PI - theta, p / n).value.real / n
print(f"closed value:   {closed:.12f}")
print()

res = series_imaginary(1.0, 1.0, PI / 2, 1e-8)
closed = PI * math.sinh(PI / 2) / math.sinh(PI)
print(f"imaginary-exponent sum: {res.value:.12f}  [{res.terms_used} terms]")
print(f"its closed sum:         {closed:.12f}")
print()

print("the anchor alone already carries the whole p = 0 case:")
res = series_one_sided(1.0, 0.0, PI / 2, 1e-8)
print(f"  value {res.value:.12f} with {res.terms_used} residual terms"
      f" (= (pi - theta)/2 / sin(theta) = {PI / 4:.12f})")
