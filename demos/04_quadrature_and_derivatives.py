"""How quadrature and derivative settings shape the scalarization.

Covers the alpha-grid resolution, trapezoid vs Simpson accuracy, the
finite-difference fallback against analytic level derivatives, and why
the fuzzy maximum-return problem ships with a wider fd_step.
"""

import dataclasses

import numpy as np

from fuzzynewton import (
    ProblemSpec,
    ScalarizationConfig,
    build_example_4_1,
    resolve_problem,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    solve,
)

f41 = build_example_4_1()

print("Quadrature rules on the cubic example (exact F(1) = 6)")
for rule, points in (("trapezoid", 11), ("trapezoid", 101),
                     ("simpson", 11), ("simpson", 101)):
    cfg = ScalarizationConfig(alpha_points=points, quadrature=rule)
    err = abs(scalarize(f41, 1.0, cfg) - 6.0)
    print(f"  {rule:>9} m={points:>3}: |error| = {err:.2e}")
print("  level endpoints are linear in alpha here, so both rules are")
print("  exact to roundoff; Simpson pays off on curved level families.")

print("\nFinite differences vs analytic level derivatives at x = 1")
cfg = ScalarizationConfig()
bare = dataclasses.replace(f41, d1_lo=None, d1_hi=None,
                           d2_lo=None, d2_hi=None)
for name, fn, exact in (("F'", scalarize_d1, 14.0),
                        ("F''", scalarize_d2, 20.0)):
    analytic = fn(f41, 1.0, cfg)
    fd = fn(bare, 1.0, cfg)
    print(f"  {name:>3}: analytic {analytic:.8f}  fd {fd:.8f}  "
          f"|diff| {abs(fd - analytic):.2e} (exact {exact})")

print("\nfd_step on the fuzzy maximum-return problem")
resolved = resolve_problem(ProblemSpec(kind="max_return_fuzzy"))
print("  recommended fd_step for this problem:",
      resolved.config.scal.fd_step)
print("  its level endpoints switch formula wherever c(x) crosses an")
print("  aspiration-interval midpoint, one kink per grid level packed")
print("  into a band ~1e-3 wide around the minimizer.  A 1e-5 step reads")
print("  the local curvature inside the band and Newton two-cycles; a")
print("  1e-4 step spans the band, averages the kinks, and contracts:")
for h in (1e-5, 1e-4, 1e-3):
    scal = ScalarizationConfig(fd_step=h)
    res = solve(resolved.function, dataclasses.replace(
        resolved.config, max_iter=40, scal=scal))
    print(f"  fd_step={h:.0e}: {res.status:>22} "
          f"iters={res.iterations:>2} xstar={res.xstar:.6f}")

print("\nThe alpha-grid sets how faithfully levels represent the number")
for m in (11, 51, 101, 201):
    scal = ScalarizationConfig(alpha_points=m, fd_step=1e-4)
    res = solve(resolved.function,
                dataclasses.replace(resolved.config, scal=scal))
    print(f"  m={m:>3}: xstar = {res.xstar:.6f} ({res.iterations} iters)")
print("  the minimizer is already stable at the default m = 101.")
