"""An antenna with N = 0 couplers runs the general chain.

The chain kernels take no size-zero branch: numpy's empty arrays give the
shapes and dtypes of the coupler-free antenna, and the active-only baseline
is the chain on the layout with N = 0.
"""

from dataclasses import replace

import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    DipoleModel,
    active_only_state,
    build_block,
    fc_state,
    mech_weights,
    mmse_precoder,
    sample_channels,
    uniform_placement,
)
from fcarray.channel import active_channel_matrix, coupler_channel_block
from fcarray.precoding import _column

# positions without couplers, and the batch axes their antenna axis implies
CASES = [((0, 2), ()), ((3, 0, 2), (3,)), ((5, 3, 0, 2), (5, 3))]


@pytest.mark.parametrize("shape, batch", CASES)
def test_empty_block_weights_and_channels(shape, batch):
    lay = ArrayLayout(M=3, N=0)
    model = DipoleModel.for_layout(lay)
    q = lay.active_position(0) if shape[0] == 0 else lay.active_positions()
    block = build_block(np.zeros(shape), q, model)
    assert block.z_self == model.self_impedance
    for got, want in ((block.z_bar, batch + (0,)), (block.Z_hat, batch + (0, 0)),
                      (block.X, (0, 0))):
        assert got.shape == want and got.dtype == np.complex128
    assert block.full_matrix().shape == batch + (1, 1)

    w, cond = mech_weights(block)
    assert w.shape == batch + (0,) and w.dtype == np.complex128
    # the norm of the empty coupling system, so its condition bound is 0.0
    assert np.array_equal(cond, np.zeros(batch)) and np.ndim(cond) == len(batch)
    assert isinstance(cond, float) or cond.dtype == np.float64

    spec = sample_channels(4, K=2, L=3, layout=lay)
    h_c = coupler_channel_block(spec, np.zeros(shape), lay.lam)
    assert h_c.shape == batch + (2, 0) and h_c.dtype == np.complex128


@pytest.mark.parametrize("shape, batch", CASES)
def test_empty_column_is_a_fresh_copy_of_the_active_channels(shape, batch):
    lay = ArrayLayout(M=3, N=0)
    spec = sample_channels(5, K=2, L=3, layout=lay)
    h_a = active_channel_matrix(spec, lay)
    h_am = h_a.T[0] if shape[0] == 0 else h_a.T
    h_c = coupler_channel_block(spec, np.zeros(shape), lay.lam)
    col = _column(h_am, h_c, np.zeros(batch + (0,), dtype=complex))
    assert col.shape == np.broadcast_shapes(h_am.shape, h_c.shape[:-1])
    assert col.dtype == np.complex128
    assert np.array_equal(col, np.broadcast_to(h_am, col.shape))
    assert not np.shares_memory(col, h_a)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("M", [1, 4, 32])
def test_active_only_state_is_the_chain_at_size_zero(M, seed):
    lay = ArrayLayout(M=M, N=2)
    bare = replace(lay, N=0)
    model = DipoleModel.for_layout(lay)
    spec = sample_channels(seed, K=min(M, 3), L=4, layout=lay)
    got = active_only_state(spec, lay, model, 1.0, 0.1)
    chain = fc_state(spec, uniform_placement(bare), bare, model, 1.0, 0.1)
    # the closed form: G = h_A and b = Re z_self on every port
    closed = mmse_precoder(active_channel_matrix(spec, lay),
                           np.full(M, np.real(model.self_impedance)), 1.0, 0.1)
    for ref in (chain, closed):
        for name in ("G", "B", "U", "F", "sinr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.sum_rate == ref.sum_rate
