"""Heights accumulated along increasing paths, and why self-stresses matter.

Every point (k, s) of the parameter domain gets a height by walking an
increasing path from (0, 0): jumping from curve i to i+1 at parameter g
contributes a tension determinant, running along a curve integrates the
ruling force density.  The value depends on the chosen path unless the
stress is a self-stress, in which case every path agrees.  `height` reads
the axis path, which jumps over every lower curve at parameter 0; the lifted
surface is built from the same axis-path heights, so both print the same
number.  The spread over every increasing path to (n, T) is exact: two
prefix max/min recursions find a highest and a lowest path, no path is
sampled.
"""

import striplift as sl

surface = sl.builtin("translational3d")
proj = sl.project(surface)
fw = proj.framework
stress = sl.induced_stress(proj)

target = (fw.n, fw.T)
print(f"target point: curve {target[0]}, parameter {target[1]}")
print(f"height along the axis path:  {sl.height(fw, stress, target):+.9f}")
print(f"lifted surface at that node: {sl.build_lifting(fw, stress).z[fw.n, -1]:+.9f}")

spread, scale, paths = sl.path_independence_spread(fw, stress)
print(f"\nspread over every path: {spread / scale:.3e} of the height scale {scale:.3f}")
print(f"jump nodes of a highest path: {paths['max']}")
print(f"jump nodes of a lowest path:  {paths['min']}")

# Break the balance and the heights start disagreeing.
bad_mu = stress.mu.copy()
bad_mu[1] *= 1.1
bad = sl.StressField(stress.grid, stress.lam, bad_mu)
bad_spread = sl.path_independence_spread(fw, bad)[0]
print(f"spread for the perturbed stress: {bad_spread / scale:.3e} of the height scale")
