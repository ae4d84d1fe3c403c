"""Interpreted validation of the numba backend's kernel *logic*.

The numba backend's generated kernels only JIT-compile where ``numba``
is installed (the JIT job of the CI matrix), which would leave their
emitted index arithmetic, boundary corner ownership and per-point
checksum accumulation untested everywhere else.  This module closes
that gap: when numba is absent, it installs a stub ``numba`` module
whose ``njit`` is an identity decorator and whose ``prange`` is
``range``, reloads ``repro.backends.numba_backend`` against it and
executes the **generated source** as plain Python over NumPy arrays
(the backend is handed a ``jit=False`` kernel compiler writing to a
private cache directory).  Everything except compilation itself —
ghost-refresh slab semantics, offset indexing, accumulation order and
dtype handling — is exercised bit for bit.  The compiler pipeline
itself (plans, emitted source, cache behaviour, random-layout
bit-identity) is covered by ``tests/test_codegen.py``, which runs
under real numba too.

When the real numba *is* installed these tests are skipped: the main
suite (``tests/test_backends.py`` with the backend registered) already
runs the compiled kernels directly.

The registry is never touched — the backend instance under test is
constructed from the reloaded module — and the module is reloaded once
more on teardown so the rest of the suite sees the genuine
``NUMBA_AVAILABLE`` state.
"""

import importlib
import importlib.machinery
import sys
import types

import numpy as np
import pytest

from conftest import all_boundary_conditions

from repro.backends import get_backend
from repro.backends.numba_backend import NUMBA_AVAILABLE
from repro.core.checksums import checksum
from repro.stencil import kernels
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
)
from repro.stencil.spec import StencilSpec

pytestmark = pytest.mark.skipif(
    NUMBA_AVAILABLE,
    reason="real numba installed: the compiled kernels are tested by the "
    "main suite with the backend registered",
)

SHAPE_2D = (24, 18)
SHAPE_3D = (12, 10, 4)


def _make_stub_numba() -> types.ModuleType:
    stub = types.ModuleType("numba")
    stub.__spec__ = importlib.machinery.ModuleSpec("numba", loader=None)

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco

    stub.njit = njit
    stub.prange = range
    return stub


@pytest.fixture(scope="module")
def interpreted_backend(tmp_path_factory):
    """A ``NumbaBackend`` whose generated kernels run as plain Python."""
    import repro.backends.numba_backend as mod
    from repro.backends.codegen import KernelCompiler

    sys.modules["numba"] = _make_stub_numba()
    try:
        mod = importlib.reload(mod)
        assert mod.NUMBA_AVAILABLE  # the stub satisfies the import gate
        compiler = KernelCompiler(
            cache_dir=tmp_path_factory.mktemp("kernels"), jit=False
        )
        yield mod.NumbaBackend(compiler=compiler)
    finally:
        sys.modules.pop("numba", None)
        importlib.reload(mod)  # restore the genuine gate state


def _poisoned_pair(u, radius):
    """(src, dst) padded pair, halos poisoned so a skipped refresh shows."""
    shape = padded_shape(u.shape, radius)
    src = np.full(shape, np.nan, dtype=u.dtype)
    interior_view(src, radius)[...] = u
    dst = np.full(shape, np.nan, dtype=u.dtype)
    return src, dst


def _domain(rng, shape):
    return (rng.random(shape) * 100.0).astype(np.float32)


@pytest.mark.parametrize(
    "spec,shape",
    [
        (kernels.nine_point_smoothing(), SHAPE_2D),
        (kernels.asymmetric_advection_2d(), SHAPE_2D),
        (kernels.twenty_seven_point_3d(), SHAPE_3D),
        (kernels.asymmetric_advection_3d(), SHAPE_3D),
    ],
    ids=["9pt-2d", "advect-2d", "27pt-3d", "advect-3d"],
)
@pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
def test_sweep_and_checksums_match_reference(
    interpreted_backend, rng, spec, shape, bc
):
    be = interpreted_backend
    ref = get_backend("numpy")
    u = _domain(rng, shape)
    const = (rng.random(shape) * 0.1).astype(np.float32)
    radius = spec.radius()
    padded = pad_array(u, radius, bc)
    expected = ref.sweep_padded(padded, spec, radius, shape, constant=const)
    new, cs = be.sweep_with_checksums(
        padded, spec, radius, shape, (0, 1), constant=const,
        checksum_dtype=np.float64,
    )
    # The generated sweep accumulates in the reference's exact order
    # (constant first, then points lexicographically, pre-cast weights),
    # so the interior is bit-identical — not merely within tolerance.
    np.testing.assert_array_equal(new, expected)
    for axis in (0, 1):
        posthoc = checksum(new, axis, dtype=np.float64)
        cscale = np.maximum(np.abs(posthoc), 1.0)
        assert float(np.max(np.abs(cs[axis] - posthoc) / cscale)) < 1e-10


@pytest.mark.parametrize(
    "spec,shape,boundary",
    [
        (kernels.nine_point_smoothing(), SHAPE_2D, BoundaryCondition.clamp()),
        (kernels.nine_point_smoothing(), SHAPE_2D, BoundaryCondition.periodic()),
        (
            kernels.nine_point_smoothing(),
            SHAPE_2D,
            (BoundaryCondition.clamp(), BoundaryCondition.constant(2.5)),
        ),
        (
            kernels.nine_point_smoothing(),
            SHAPE_2D,
            (BoundaryCondition.constant(1.5), BoundaryCondition.constant(-3.0)),
        ),
        (
            kernels.nine_point_smoothing(),
            SHAPE_2D,
            (BoundaryCondition.zero(), BoundaryCondition.periodic()),
        ),
        (kernels.twenty_seven_point_3d(), SHAPE_3D, BoundaryCondition.periodic()),
        (
            kernels.twenty_seven_point_3d(),
            SHAPE_3D,
            (
                BoundaryCondition.clamp(),
                BoundaryCondition.periodic(),
                BoundaryCondition.zero(),
            ),
        ),
        (
            kernels.twenty_seven_point_3d(),
            SHAPE_3D,
            (
                BoundaryCondition.constant(4.0),
                BoundaryCondition.clamp(),
                BoundaryCondition.constant(-1.0),
            ),
        ),
    ],
    ids=[
        "2d-clamp", "2d-periodic", "2d-clamp+const", "2d-const+const",
        "2d-zero+periodic", "3d-periodic", "3d-mixed", "3d-const-mixed",
    ],
)
def test_fused_refresh_bit_identical(
    interpreted_backend, rng, spec, shape, boundary
):
    """The compiled refresh inside ``step_into`` must leave the source
    halo (corners included — they are owned by the highest axis) exactly
    as ``refresh_ghosts`` does, and the swept result must match the
    refresh-then-sweep path bit for bit."""
    be = interpreted_backend
    u = _domain(rng, shape)
    radius = spec.radius()
    src_ref, dst_ref = _poisoned_pair(u, radius)
    refresh_ghosts(src_ref, radius, boundary)
    expected = be.sweep_into(src_ref, dst_ref, spec, radius, shape)
    src, dst = _poisoned_pair(u, radius)
    result = be.step_into(src, dst, spec, radius, shape, boundary)
    np.testing.assert_array_equal(result, expected)
    np.testing.assert_array_equal(src, src_ref)


def test_degenerate_periodic_compiled(interpreted_backend, rng):
    """Periodic ghosts wider than the interior — formerly declined by the
    hand-written kernels — lower to the modular-tiling index mapping and
    run the compiled fused step, bit-identical to the reference."""
    be = interpreted_backend
    wide = StencilSpec.from_dict(
        {(-2, 0): 0.2, (2, 0): 0.2, (0, -1): 0.3, (0, 1): 0.3}
    )
    shape = (1, 6)
    bc = BoundaryCondition.periodic()
    assert be.supports_fused_step(wide, bc, wide.radius(), shape)
    u = _domain(rng, shape)
    expected = get_backend("numpy").sweep_padded(
        pad_array(u, wide.radius(), bc), wide, wide.radius(), shape
    )
    src, dst = _poisoned_pair(u, wide.radius())
    result = be.step_into(src, dst, wide, wide.radius(), shape, bc)
    np.testing.assert_array_equal(result, expected)


def test_external_axis_orderings_compiled(interpreted_backend, rng):
    """External (distributed) axes *after* refreshed axes — the other
    ordering the hand-written kernels declined — also run the compiled
    step: ghost slabs along axis 1 are left untouched (ingested halo
    data) while axis 0 refreshes over their full extent."""
    be = interpreted_backend
    spec = kernels.nine_point_smoothing()
    shape = SHAPE_2D
    radius = spec.radius()
    bc = BoundaryCondition.clamp()
    assert be.supports_fused_step(spec, bc, radius, shape)
    u = _domain(rng, shape)
    src_ref = pad_array(u, radius, bc)
    src = src_ref.copy()
    refresh_ghosts(src_ref, radius, bc, axes=(0,))
    dst_ref = np.full_like(src_ref, np.nan)
    expected = be.sweep_into(src_ref, dst_ref, spec, radius, shape)
    dst = np.full_like(src, np.nan)
    result = be.step_into(
        src, dst, spec, radius, shape, bc, refresh_axes=(0,)
    )
    np.testing.assert_array_equal(result, expected)
    np.testing.assert_array_equal(src, src_ref)


def test_warmup_exercises_every_kernel_family(interpreted_backend):
    be = interpreted_backend
    be.warmup(kernels.five_point_diffusion(0.2), BoundaryCondition.clamp())
    be.warmup(
        kernels.seven_point_diffusion_3d(0.1), BoundaryCondition.periodic()
    )


@pytest.mark.parametrize(
    "spec,shape,boundary",
    [
        (
            kernels.nine_point_smoothing(),
            SHAPE_2D,
            (BoundaryCondition.clamp(), BoundaryCondition.periodic()),
        ),
        (
            kernels.twenty_seven_point_3d(),
            SHAPE_3D,
            (
                BoundaryCondition.periodic(),
                BoundaryCondition.constant(2.5),
                BoundaryCondition.zero(),
            ),
        ),
    ],
    ids=["2d-clamp+periodic", "3d-mixed"],
)
@pytest.mark.parametrize("with_cs", [False, True], ids=["plain", "checksums"])
def test_batched_step_matches_per_slot_steps(
    interpreted_backend, rng, spec, shape, boundary, with_cs
):
    """The generated ``bstep``/``bstep_cs`` kernels, run as plain Python,
    must reproduce each slot of the batch exactly as the single-run
    generated ``step``/``step_cs`` does — interior, refreshed halo and
    per-run checksum columns all bit-identical."""
    be = interpreted_backend
    radius = spec.radius()
    const = (rng.random(shape) * 0.1).astype(np.float32)
    batch = 3
    slots = [_domain(rng, shape) for _ in range(batch)]
    singles = []
    for u in slots:
        src, _ = _poisoned_pair(u, radius)
        singles.append(src)
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=np.float32)
    if with_cs:
        got, cs = be.batch_step_into_with_checksums(
            bsrc, bdst, spec, radius, shape, boundary, (0, 1),
            constant=const, checksum_dtype=np.float64,
        )
    else:
        got = be.batch_step_into(
            bsrc, bdst, spec, radius, shape, boundary, constant=const
        )
    for b, u in enumerate(slots):
        src, dst = _poisoned_pair(u, radius)
        if with_cs:
            want, want_cs = be.step_into_with_checksums(
                src, dst, spec, radius, shape, boundary, (0, 1),
                constant=const, checksum_dtype=np.float64,
            )
        else:
            want = be.step_into(
                src, dst, spec, radius, shape, boundary, constant=const
            )
        np.testing.assert_array_equal(got[..., b], want)
        np.testing.assert_array_equal(bsrc[..., b], src)
        if with_cs:
            for axis in (0, 1):
                np.testing.assert_array_equal(cs[axis][..., b], want_cs[axis])


@pytest.mark.parametrize("with_cs", [False, True], ids=["plain", "checksums"])
def test_batched_aliasing_pair_stages_through_scratch(
    interpreted_backend, rng, with_cs
):
    """An aliasing src/dst batch runs the generated batched kernel into a
    staging buffer, never corrupting the accumulation."""
    be = interpreted_backend
    spec = kernels.nine_point_smoothing()
    radius = spec.radius()
    u = _domain(rng, SHAPE_2D)
    src, _ = _poisoned_pair(u, radius)
    bsrc = np.stack([src, src.copy()], axis=-1)

    def step(src, dst):
        args = (src, dst, spec, radius, SHAPE_2D, BoundaryCondition.clamp())
        if with_cs:
            return be.batch_step_into_with_checksums(
                *args, (0, 1), checksum_dtype=np.float64
            )
        return be.batch_step_into(*args), {}

    want, want_cs = step(bsrc.copy(), np.full(bsrc.shape, np.nan, np.float32))
    aliased = bsrc.copy()
    got, got_cs = step(aliased, aliased)
    np.testing.assert_array_equal(got, want)
    for axis in want_cs:
        np.testing.assert_array_equal(got_cs[axis], want_cs[axis])


def test_batched_warmup_runs_interpreted(interpreted_backend):
    be = interpreted_backend
    be.warmup(
        kernels.five_point_diffusion(0.2), BoundaryCondition.clamp(),
        batch_width=3,
    )
