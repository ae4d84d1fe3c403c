"""Batched ``OnlineABFT.process``: B runs in one call equal B single calls.

A trailing run axis (the layout of ``Backend.batch_step_into``) lets one
call verify a whole batch.  Every run must get exactly what a
single-run call on its own views gets: the same report, the same
corrected state and the same stored checksum, bit for bit.
"""

import numpy as np
import pytest

from repro.core.online import OnlineABFT
from repro.faults.bitflip import flip_bit_in_array
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import asymmetric_advection_2d, seven_point_diffusion_3d

RUNS = 4


def _grids(ndim, rng):
    if ndim == 2:
        shape = (18, 14)
        spec = asymmetric_advection_2d()
        boundary = BoundarySpec(
            (BoundaryCondition.clamp(), BoundaryCondition.constant(5.0))
        )
        constant = None
    else:
        shape = (12, 10, 4)
        spec = seven_point_diffusion_3d()
        boundary = BoundaryCondition.clamp()
        constant = (rng.random(shape) * 0.05).astype(np.float32)
    grid_cls = Grid2D if ndim == 2 else Grid3D
    return [
        grid_cls(
            (rng.random(shape) * 50.0 + 300.0).astype(np.float32),
            spec,
            boundary,
            constant=constant,
        )
        for _ in range(RUNS)
    ]


def _stack(arrays):
    return np.stack(arrays, axis=-1)


#: (iteration, run, domain index (2D), bit) of the injected flips.
_FAULTS = [(1, 1, (4, 7), 27), (2, 3, (9, 2), 29), (2, 0, (0, 0), 25)]


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("verify_axis", [0, 1])
def test_batched_process_equals_single_run_calls(rng, ndim, verify_axis):
    grids = _grids(ndim, rng)
    singles = [OnlineABFT.for_grid(g, verify_axis=verify_axis) for g in grids]
    batched = OnlineABFT.for_grid(grids[0], verify_axis=verify_axis)
    flagged = 0
    for iteration in (1, 2, 3):
        for g in grids:
            g.step()
        for it, run, index, bit in _FAULTS:
            if it == iteration:
                index = index + (1,) * (ndim - 2)
                flip_bit_in_array(grids[run].u, index, bit)
        # The batch sees the same swept and corrupted states.
        u_batch = _stack([g.u for g in grids])
        prev_batch = _stack([g.previous_padded for g in grids])
        reports = batched.process(u_batch, prev_batch, iteration)
        expected = [
            p.process(g.u, g.previous_padded, iteration)
            for p, g in zip(singles, grids)
        ]

        assert reports == expected
        for run, g in enumerate(grids):
            assert np.array_equal(u_batch[..., run], g.u)
        stored = batched.state_snapshot()["prev_cs"][verify_axis]
        for run, p in enumerate(singles):
            single = p.state_snapshot()["prev_cs"][verify_axis]
            assert np.array_equal(stored[..., run], single)
        flagged += sum(r.errors_detected > 0 for r in reports)
    assert flagged == len(_FAULTS)
    assert batched.total_corrections == sum(p.total_corrections for p in singles)
    assert batched.total_detections == sum(p.total_detections for p in singles)


def test_batched_process_uses_precomputed_run_checksums(rng):
    grids = _grids(2, rng)
    protector = OnlineABFT.for_grid(grids[0])
    for g in grids:
        g.step()
    flip_bit_in_array(grids[2].u, (3, 3), 28)
    u_batch = _stack([g.u for g in grids])
    cs = u_batch.sum(axis=0, dtype=np.float64)
    reports = protector.process(
        u_batch, _stack([g.previous_padded for g in grids]), 1,
        precomputed_checksums={0: cs},
    )
    assert [r.errors_corrected for r in reports] == [0, 0, 1, 0]
    # The correction refreshed the caller's checksum vector in place.
    assert np.array_equal(cs, u_batch.sum(axis=0, dtype=np.float64))


def test_batched_process_rejects_mismatched_layout(rng):
    grids = _grids(2, rng)
    protector = OnlineABFT.for_grid(grids[0])
    grids[0].step()
    u = grids[0].u
    with pytest.raises(ValueError, match="runs"):
        protector.process(u[..., None, None], grids[0].previous_padded, 1)
    with pytest.raises(ValueError, match="runs"):
        protector.process(u[1:], grids[0].previous_padded, 1)
