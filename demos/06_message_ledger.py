"""Distributed execution with explicit message accounting.

Both distributed algorithms record every central-to-local exchange as they
run.  A logged run is the direct run, so its outputs are bit-identical to the
unlogged call; the logs replay to exact communication ledgers (complex
scalars count as 2 real units, grid indices as 1).
"""

import numpy as np

from fcarray import (
    AngularGrid,
    ArrayLayout,
    CostLedger,
    DipoleModel,
    SCAConfig,
    communication_count,
    distributed_estimate,
    make_session,
    optimize,
    run_algorithm1,
    run_algorithm3,
    run_pilot_phase,
    sample_channels,
    uniform_placement,
)

layout = ArrayLayout(M=4, N=2)
model = DipoleModel.for_layout(layout)
K = 2
P_max, sigma2 = 1.0, 0.05
spec = sample_channels(5, K=K, L=15, layout=layout)

cfg = SCAConfig(T_max=8, eps_stop=0.0)
initial = uniform_placement(layout)
direct = optimize(initial, cfg, spec, layout, model, P_max, sigma2)
routed, log1, ledger1 = run_algorithm1(initial, cfg, spec, layout, model,
                                       P_max, sigma2)

print("position optimization:")
print(f"  routed == direct: "
      f"{np.array_equal(direct.placement.positions, routed.placement.positions)}")
print(f"  rounds: {ledger1.rounds}, messages: {len(log1)}")
print(f"  ledger: {ledger1.to_dict()}")
print(f"  closed form: {communication_count(layout.M, layout.N, ledger1.rounds)}")

session = make_session(layout, K, tau=13, V=4, sigma2=0.05, seed=9)
obs = run_pilot_phase(session, spec, layout, model)
grid = AngularGrid(64)
direct3 = distributed_estimate(session, obs, 3, grid, layout, model)
routed3, log3, ledger3 = run_algorithm3(session, obs, 3, grid, layout, model)

print("\ndistributed estimation:")
print(f"  routed == direct: {np.array_equal(direct3.gains, routed3.gains)}")
print(f"  ledger: {ledger3.to_dict()}")
print(f"  replay == ledger: "
      f"{CostLedger.from_messages(log3).totals == ledger3.totals}")
print(f"  sufficient statistics: {routed3.ledger['suffstat_complex']} complex "
      f"({routed3.ledger['suffstat_scalars']} scalar units)")
