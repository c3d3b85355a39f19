"""Scalarized Newton iteration on a cubic fuzzy objective, end to end.

The objective f(x) = (1,2,3) x^2 + (0,1,2) x^3 has triangular fuzzy
coefficients.  Integrating the level endpoints over alpha gives the crisp
scalarization F(x) = 4x^2 + 2x^3, whose minimizer x* = 0 is a
non-dominated point of the fuzzy problem.
"""

from fuzzynewton import (
    NewtonConfig,
    build_example_4_1,
    estimate_convergence_order,
    eval_fuzzy,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    solve,
    verify_solution,
)

f = build_example_4_1()
cfg = NewtonConfig(x0=1.0, eps=1e-5)

print("Scalarization at the start point")
x = cfg.x0
print(f"  F({x}) = {scalarize(f, x, cfg.scal):.6f}"
      f"   F'({x}) = {scalarize_d1(f, x, cfg.scal):.6f}"
      f"   F''({x}) = {scalarize_d2(f, x, cfg.scal):.6f}")
v = eval_fuzzy(f, x, 11)
print(f"  fuzzy value at x={x}: support [{v.lo[0]:.3f}, {v.hi[0]:.3f}], "
      f"core {v.lo[-1]:.3f}")

print("\nNewton iteration x <- x - F'(x)/F''(x)")
res = solve(f, cfg)
print(f"  {'k':>2} {'x_k':>14} {'F':>12} {'dF':>12} {'step':>14}")
for rec in res.trace:
    print(f"  {rec.k:>2} {rec.x_k:>14.8f} {rec.F:>12.6f} "
          f"{rec.dF:>12.6f} {rec.step:>14.8f}")
print(f"  status: {res.status} ({res.stationarity_kind}) "
      f"after {res.iterations} iterations")
print(f"  xstar = {res.xstar:.3e}")

print("\nConvergence order from the trace tail")
est = estimate_convergence_order(res.trace, res.xstar)
print(f"  fitted order {est.order:.3f} over {est.pairs_used} pairs "
      f"(constant {est.constant:.3f})")

print("\nVerification at the solution")
report = verify_solution(f, res, cfg)
for line in report.lines():
    print(f"  {line}")

print("\nStarting at the curvature zero x = -2/3 trips the guard")
flat = solve(f, NewtonConfig(x0=-2.0 / 3.0))
print(f"  status: {flat.status}, xstar pinned at {flat.xstar:.6f}")

print("\nStarting left of it converges to the other stationary point")
left = solve(f, NewtonConfig(x0=-1.2))
print(f"  status: {left.status} ({left.stationarity_kind}), "
      f"xstar = {left.xstar:.6f}")
print("  the scalarized cubic has a local max at -4/3; the verifier is")
print("  what distinguishes it from the minimizer.")
