"""Anatomy of one distributed SCA run.

Every iteration: the central unit evaluates the rate gradient (one adjoint
pass over all antennas) and broadcasts each antenna its part, each antenna
projects its surrogate step onto the linearized feasible set and uploads the
new coupler positions, and the central unit refreshes the MMSE precoder.
Acceptance is monotone via step-size backtracking, so the rate trace never
decreases.
"""

import numpy as np

from fcarray import (
    ArrayLayout,
    DipoleModel,
    SCAConfig,
    communication_count,
    is_feasible,
    optimize,
    sample_channels,
    uniform_placement,
)

layout = ArrayLayout(M=4, N=2)
model = DipoleModel.for_layout(layout)
K = 2
P_max, sigma2 = 1.0, 0.05

spec = sample_channels(7, K=K, L=15, layout=layout)
initial = uniform_placement(layout)
res = optimize(initial, SCAConfig(), spec, layout, model, P_max, sigma2)
trace = res.trace

print(f"{'iter':>5} {'rate':>9} {'max |g_m|':>10} {'backtracks':>10} {'eta':>10}")
print(f"{0:5d} {trace.rates[0]:9.4f} {'-':>10} {'-':>10} {'-':>10}")
for t in range(1, len(trace.rates)):
    idx = t - 1
    if idx < len(trace.grad_norms):
        print(f"{t:5d} {trace.rates[t]:9.4f} "
              f"{np.max(trace.grad_norms[idx]):10.3f} "
              f"{trace.backtracks[idx]:10d} {trace.etas[idx]:10.1f}")
    else:
        print(f"{t:5d} {trace.rates[t]:9.4f} {'(skip)':>10}")

moved = np.linalg.norm(res.placement.positions - initial.positions,
                       axis=-1) / layout.lam
print(f"\ncoupler displacement (wavelengths):\n{moved.round(3)}")
print(f"final placement feasible: {is_feasible(res.placement, layout).ok}")
print(f"communication: {trace.comm} "
      f"(closed form {communication_count(layout.M, layout.N, trace.rounds)})")
