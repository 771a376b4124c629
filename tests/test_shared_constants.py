"""Arrays built once and shared by every caller are read-only: writing into
one raises ValueError, so no caller can corrupt another's constants."""

import numpy as np
import pytest

from fcarray import (
    ArrayLayout,
    DipoleModel,
    build_block,
    make_session,
    sample_channels,
    uniform_placement,
)
from fcarray.chanest import (
    AngularGrid,
    _moved_pairs,
    _slots,
    exhaustive_baseline,
    local_dictionary,
)
from fcarray.geometry import _box_bounds, _box_normals, pair_tables
from fcarray.precoding import _eye


def shared_arrays():
    lay = ArrayLayout(M=3, N=2)
    model = DipoleModel.for_layout(lay)
    block = build_block(uniform_placement(lay).positions, lay.active_positions(), model)
    yield "active_positions", lay.active_positions()
    for N in (0, 1, 3):
        for name, arr in pair_tables(N)._asdict().items():
            yield f"pair_tables({N}).{name}", arr
    for i, arr in enumerate(_box_bounds(lay, 1e-4 * lay.lam)):
        yield f"_box_bounds[{i}]", arr
    yield "_box_normals(4)", _box_normals(4)
    for i, arr in enumerate(_moved_pairs(3)):
        yield f"_moved_pairs(3)[{i}]", arr
    yield "_eye(3)", _eye(3)
    yield "_eye(2, complex)", _eye(2, np.dtype(complex))
    yield "ImpedanceBlock.X", block.X
    yield "ImpedanceBlock.resistance", block.resistance
    # the kept dictionary cube, a view of it and an index-array slice
    session, grid = make_session(lay, K=2, tau=2, V=2, sigma2=0.1, seed=0), AngularGrid(16)
    for label, m in (("slice(None)", slice(None)), ("[0, 2]", np.array([0, 2]))):
        yield f"local_dictionary(m={label})", local_dictionary(session, m, grid, lay, model)
    yield "kept dictionary cube", _slots["dictionary"][1]
    # the kept lattice half of the exhaustive baseline, handed out as the
    # result's candidates
    spec = sample_channels(0, K=2, L=3, layout=lay)
    res = exhaustive_baseline(session, spec, lay, model, D=16)
    for name, arr in zip(("lattice", "distances to the active elements", "their impedances"),
                         _slots["lattice"][1]):
        yield f"kept lattice slot: {name}", arr
    yield "ExhaustiveResult.candidates", res.candidates


@pytest.mark.parametrize("name, arr", list(shared_arrays()), ids=lambda x: x
                         if isinstance(x, str) else "")
def test_shared_array_is_read_only(name, arr):
    assert not arr.flags.writeable
    if arr.size:
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]
    with pytest.raises(ValueError):
        arr[...] = 0


def test_caches_hand_out_the_same_array():
    lay = ArrayLayout(M=3, N=2)
    assert lay.active_positions() is lay.active_positions()
    assert pair_tables(2) is pair_tables(2)
    assert _eye(3) is _eye(3)
    model = DipoleModel.for_layout(lay)
    pos = uniform_placement(lay).positions
    assert build_block(pos, lay.active_positions(), model).X is build_block(
        pos[0], lay.active_positions()[0], model).X


def test_layout_constants_stay_out_of_equality_and_hashing():
    a, b = ArrayLayout(M=3, N=2), ArrayLayout(M=3, N=2)
    assert a == b and hash(a) == hash(b)
    assert a != ArrayLayout(M=4, N=2)
    assert "_active" not in repr(a)
