"""Heights accumulated along increasing paths, and why self-stresses matter.

Every point (k, s) of the parameter domain gets a height by walking an
increasing path from (0, 0): jumping from curve i to i+1 at parameter g
contributes a tension determinant, running along a curve integrates the
ruling force density.  The value depends on the chosen path unless the
stress is a self-stress, in which case every path agrees.  The lifted
surface is built from the axis-path heights with the same prefix integrals,
so the axis path and the lifted node print the same number, bit for bit.
"""

import striplift as sl

surface = sl.builtin("translational3d")
proj = sl.project(surface)
fw = proj.framework
stress = sl.induced_stress(proj)
grid = stress.grid

target = (fw.n, fw.T)
print(f"target point: curve {target[0]}, parameter {target[1]}")

axis = sl.lpath(*target)
print(f"height along the axis path:      {sl.height(fw, stress, target, axis):+.9f}")
stair = sl.IncreasingPath(
    fw.n, fw.T, (0.0, grid.t[40], grid.t[90], grid.t[170], fw.T)
)
print(f"height along a staircase path:   {sl.height(fw, stress, target, stair):+.9f}")
print(f"lifted surface at that node:     {sl.build_lifting(fw, stress).z[fw.n, -1]:+.9f}")

paths = sl.random_paths(fw.n, fw.T, grid, count=20, seed=7)
spread = sl.path_independence_spread(fw, stress, target, paths)
scale = sl.height_scale(fw, stress)
print(f"\nspread over 20 random paths: {spread:.3e}  (height scale {scale:.3f})")

# Break the balance and the heights start disagreeing.
bad_mu = stress.mu.copy()
bad_mu[1] *= 1.1
bad = sl.StressField(grid, stress.lam, bad_mu)
bad_spread = sl.path_independence_spread(fw, bad, target, paths)
print(f"spread for the perturbed stress: {bad_spread:.3e}")
