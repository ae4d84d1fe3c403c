"""Backend registry and cross-backend numerical equivalence tests.

Every registered backend must match the ``numpy`` reference within the
detection threshold of :func:`repro.core.thresholds.recommend_epsilon`
across the whole stencil library (2D and 3D, every boundary condition),
and the checksums its fused sweep produces must equal post-hoc
``checksum()`` results — otherwise swapping backends would change the
false-positive/detection behaviour the paper calibrates.
"""

import numpy as np
import pytest

from conftest import all_boundary_conditions, stencil_library_2d, stencil_library_3d

from repro.backends import (
    Backend,
    FusedBackend,
    NumpyBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unavailable_backends,
)
from repro.backends.numba_backend import NUMBA_AVAILABLE
from repro.backends.registry import BUILTIN_DEFAULT, ENV_VAR
from repro.core.checksums import checksum
from repro.core.online import OnlineABFT
from repro.core.thresholds import recommend_epsilon
from repro.faults.injector import FaultInjector, FaultPlan
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.shift import pad_array

REFERENCE = "numpy"

SHAPE_2D = (24, 18)
SHAPE_3D = (12, 10, 4)


def _domain(rng, shape):
    return (rng.random(shape) * 100.0).astype(np.float32)


def _relative_mismatch(value, reference):
    scale = np.maximum(np.abs(reference), 1.0)
    return float(np.max(np.abs(value - reference) / scale))


def _spec_id(spec):
    return f"{spec.ndim}d-{spec.npoints}pt"


@pytest.fixture(params=sorted(set(available_backends())))
def backend_name(request):
    return request.param


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "numpy" in names
        assert "fused" in names
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("fused"), FusedBackend)

    def test_backends_are_singletons(self):
        assert get_backend("fused") is get_backend("fused")

    def test_reference_alias(self):
        assert get_backend("reference") is get_backend("numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("cuda-42")

    def test_instance_passthrough(self):
        be = NumpyBackend()
        assert get_backend(be) is be

    def test_default_resolution_chain(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        set_default_backend(None)
        assert default_backend_name() == BUILTIN_DEFAULT
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert default_backend_name() == "numpy"
        assert isinstance(get_backend(), NumpyBackend)
        try:
            set_default_backend("fused")  # override beats the env var
            assert default_backend_name() == "fused"
        finally:
            set_default_backend(None)

    def test_set_default_validates_name(self):
        with pytest.raises(KeyError):
            set_default_backend("no-such-backend")

    def test_register_custom_backend(self):
        class TracingBackend(NumpyBackend):
            name = "tracing-test"

        register_backend(TracingBackend())
        try:
            assert "tracing-test" in available_backends()
            assert isinstance(get_backend("tracing-test"), TracingBackend)
        finally:
            from repro.backends.registry import _REGISTRY

            _REGISTRY.pop("tracing-test", None)


class TestSweepEquivalence:
    @pytest.mark.parametrize("spec", stencil_library_2d(), ids=_spec_id)
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_2d_matches_reference(self, rng, backend_name, spec, bc):
        self._check_sweep(rng, backend_name, spec, bc, SHAPE_2D, constant=False)

    @pytest.mark.parametrize("spec", stencil_library_3d(), ids=_spec_id)
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_3d_matches_reference(self, rng, backend_name, spec, bc):
        self._check_sweep(rng, backend_name, spec, bc, SHAPE_3D, constant=True)

    def _check_sweep(self, rng, backend_name, spec, bc, shape, constant):
        u = _domain(rng, shape)
        const = (
            (rng.random(shape) * 0.1).astype(np.float32) if constant else None
        )
        radius = spec.radius()
        padded = pad_array(u, radius, bc)
        reference = get_backend(REFERENCE).sweep_padded(
            padded, spec, radius, shape, constant=const
        )
        result = get_backend(backend_name).sweep_padded(
            padded, spec, radius, shape, constant=const
        )
        eps = recommend_epsilon(shape, 0, np.float32, spec)
        assert _relative_mismatch(result, reference) <= eps

    def test_out_parameter_respected(self, rng, backend_name):
        spec = stencil_library_2d()[0]
        u = _domain(rng, SHAPE_2D)
        padded = pad_array(u, spec.radius(), BoundaryCondition.clamp())
        out = np.full(SHAPE_2D, np.nan, dtype=np.float32)
        result = get_backend(backend_name).sweep_padded(
            padded, spec, spec.radius(), SHAPE_2D, out=out
        )
        assert result is out
        reference = get_backend(REFERENCE).sweep_padded(
            padded, spec, spec.radius(), SHAPE_2D
        )
        np.testing.assert_allclose(out, reference, rtol=1e-6)

    def test_out_shape_validated(self, rng, backend_name):
        spec = stencil_library_2d()[0]
        u = _domain(rng, SHAPE_2D)
        padded = pad_array(u, spec.radius(), BoundaryCondition.clamp())
        with pytest.raises(ValueError, match="out has shape"):
            get_backend(backend_name).sweep_padded(
                padded, spec, spec.radius(), SHAPE_2D, out=np.empty((3, 3), np.float32)
            )


class TestSweepInto:
    """The zero-copy primitive must equal the allocating sweep bitwise."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_matches_sweep_padded(self, rng, backend_name, bc):
        from repro.stencil.shift import interior_view, padded_shape

        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, bc)
        reference = get_backend(backend_name).sweep_padded(
            padded, spec, radius, SHAPE_2D
        )
        dst = np.full(padded_shape(SHAPE_2D, radius), np.nan, dtype=np.float32)
        result = get_backend(backend_name).sweep_into(
            padded, dst, spec, radius, SHAPE_2D
        )
        assert np.shares_memory(result, dst)
        np.testing.assert_array_equal(result, reference)
        np.testing.assert_array_equal(interior_view(dst, radius), reference)

    def test_overlapping_buffers_fall_back_safely(self, rng, backend_name):
        """src == dst must still produce the correct result (via copy)."""
        from repro.stencil.shift import interior_view

        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        reference = get_backend(backend_name).sweep_padded(
            padded, spec, radius, SHAPE_2D
        )
        get_backend(backend_name).sweep_into(
            padded, padded, spec, radius, SHAPE_2D
        )
        np.testing.assert_array_equal(interior_view(padded, radius), reference)

    def test_dst_shape_validated(self, rng, backend_name):
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        with pytest.raises(ValueError, match="dst_padded has shape"):
            get_backend(backend_name).sweep_into(
                padded, np.empty((5, 5), np.float32), spec, radius, SHAPE_2D
            )

    @pytest.mark.parametrize(
        "entry",
        [
            "sweep_into",
            "step_into",
            "step_into_with_checksums",
            "batch_step_into",
            "batch_step_into_with_checksums",
            "batch_step_into-aliasing",
            "batch_step_into_with_checksums-aliasing",
            "multi_step_into-k3",
        ],
    )
    def test_copy_fallback_for_minimal_backend(self, rng, entry):
        """A backend providing only sweep_padded runs every interpreted
        entry point through the base class, lands in dst and matches the
        numpy reference bitwise — aliasing batched pairs included."""

        class MinimalBackend(Backend):
            name = "minimal-test"

            def sweep_padded(self, padded, spec, radius, interior_shape,
                             constant=None, out=None):
                # Deliberately ignores ``out`` — the base must copy.
                return get_backend(REFERENCE).sweep_padded(
                    padded, spec, radius, interior_shape, constant=constant
                )

        method, _, variant = entry.partition("-")
        spec = stencil_library_2d()[1]
        radius = spec.radius()
        bc = BoundaryCondition.clamp()
        const = (rng.random(SHAPE_2D) * 0.1).astype(np.float32)
        src0 = pad_array(_domain(rng, SHAPE_2D), radius, bc)
        if method.startswith("batch"):
            src0 = np.stack(
                [pad_array(_domain(rng, SHAPE_2D), radius, bc) for _ in range(3)],
                axis=-1,
            )
        args = {
            "sweep_into": (spec, radius, SHAPE_2D),
            "step_into": (spec, radius, SHAPE_2D, bc),
            "step_into_with_checksums": (spec, radius, SHAPE_2D, bc, (0, 1)),
            "batch_step_into": (spec, radius, SHAPE_2D, bc),
            "batch_step_into_with_checksums": (
                spec, radius, SHAPE_2D, bc, (0, 1)
            ),
            "multi_step_into": (3, spec, radius, SHAPE_2D, bc),
        }[method]
        kwargs = {"constant": const}
        if method.endswith("_with_checksums"):
            kwargs["checksum_dtype"] = np.float64

        def run(be, aliasing):
            src = src0.copy()
            dst = src if aliasing else np.full(src.shape, np.nan, np.float32)
            out = getattr(be, method)(src, dst, *args, **kwargs)
            result, cs = out if isinstance(out, tuple) else (out, {})
            assert np.shares_memory(result, dst)
            return result.copy(), cs, src

        want, want_cs, want_src = run(get_backend(REFERENCE), False)
        got, got_cs, got_src = run(MinimalBackend(), variant == "aliasing")
        np.testing.assert_array_equal(got, want)
        assert set(got_cs) == set(want_cs)
        for axis in want_cs:
            np.testing.assert_array_equal(got_cs[axis], want_cs[axis])
        if variant != "aliasing":
            # The refreshed source halo matches too (the protectors read it).
            np.testing.assert_array_equal(got_src, want_src)


class TestFusedChecksums:
    @pytest.mark.parametrize(
        "spec",
        stencil_library_2d() + stencil_library_3d(),
        ids=_spec_id,
    )
    @pytest.mark.parametrize("checksum_dtype", [np.float64, None], ids=["f64", "domain"])
    def test_fused_checksums_match_posthoc(
        self, rng, backend_name, spec, checksum_dtype
    ):
        shape = SHAPE_2D if spec.ndim == 2 else SHAPE_3D
        u = _domain(rng, shape)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        new, cs = get_backend(backend_name).sweep_with_checksums(
            padded, spec, radius, shape, (0, 1), checksum_dtype=checksum_dtype
        )
        assert set(cs) == {0, 1}
        for axis in (0, 1):
            posthoc = checksum(new, axis, dtype=checksum_dtype)
            eps = recommend_epsilon(shape, axis, np.float32, spec)
            assert _relative_mismatch(cs[axis], posthoc) <= eps


class TestGridAndProtectorAcrossBackends:
    def test_grid_runs_are_equivalent(self, rng, backend_name):
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        ref = Grid2D(u, spec, BoundaryCondition.clamp(), backend=REFERENCE)
        ref.run(8)
        other = Grid2D(u, spec, BoundaryCondition.clamp(), backend=backend_name)
        other.run(8)
        eps = recommend_epsilon(SHAPE_2D, 0, np.float32, spec)
        assert _relative_mismatch(other.u, ref.u) <= eps

    def test_grid_step_with_checksums_records_last(self, rng, backend_name):
        spec = stencil_library_3d()[0]
        u = _domain(rng, SHAPE_3D)
        grid = Grid3D(u, spec, BoundaryCondition.clamp(), backend=backend_name)
        new, cs = grid.step_with_checksums((0,), checksum_dtype=np.float64)
        assert grid.last_checksums is cs
        np.testing.assert_array_equal(cs[0], checksum(new, 0, dtype=np.float64))
        grid.step()
        assert grid.last_checksums is None

    def test_online_abft_detects_and_corrects_on_every_backend(
        self, rng, backend_name
    ):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        grid = Grid2D(u, spec, BoundaryCondition.clamp(), backend=backend_name)
        protector = OnlineABFT.for_grid(grid, backend=backend_name)
        inject = FaultInjector([FaultPlan(iteration=5, index=(10, 12), bit=27)])
        report = protector.run(grid, 12, inject=inject)
        assert report.total_detected >= 1
        assert report.total_corrected >= 1

    def test_online_abft_clean_run_no_false_positives(self, rng, backend_name):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        grid = Grid2D(u, spec, BoundaryCondition.clamp(), backend=backend_name)
        protector = OnlineABFT.for_grid(grid, backend=backend_name)
        report = protector.run(grid, 10)
        assert report.total_detected == 0

    def test_fused_and_reference_protected_runs_agree(self, rng):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        finals = {}
        for name in (REFERENCE, "fused"):
            grid = Grid2D(u, spec, BoundaryCondition.clamp(), backend=name)
            OnlineABFT.for_grid(grid, backend=name).run(grid, 10)
            finals[name] = grid.u
        np.testing.assert_array_equal(finals[REFERENCE], finals["fused"])


def _fresh_pair(u, radius, ghost_fill=np.nan):
    """A (src, dst) padded pair with ``u`` in the src interior.

    The halos are poisoned with ``ghost_fill`` so a step that skips the
    ghost refresh (or refreshes the wrong cells) contaminates the sweep
    visibly instead of reusing leftover values.
    """
    from repro.stencil.shift import interior_view, padded_shape

    shape = padded_shape(u.shape, radius)
    src = np.full(shape, ghost_fill, dtype=u.dtype)
    interior_view(src, radius)[...] = u
    dst = np.full(shape, ghost_fill, dtype=u.dtype)
    return src, dst


def _mixed_boundaries(ndim):
    """Per-axis heterogeneous boundary specs (corner semantics matter)."""
    if ndim == 2:
        return [
            (BoundaryCondition.clamp(), BoundaryCondition.constant(2.5)),
            (BoundaryCondition.periodic(), BoundaryCondition.clamp()),
            (BoundaryCondition.constant(1.5), BoundaryCondition.constant(-3.0)),
            (BoundaryCondition.zero(), BoundaryCondition.periodic()),
        ]
    return [
        (
            BoundaryCondition.clamp(),
            BoundaryCondition.periodic(),
            BoundaryCondition.zero(),
        ),
        (
            BoundaryCondition.constant(4.0),
            BoundaryCondition.clamp(),
            BoundaryCondition.constant(-1.0),
        ),
    ]


class TestBackendOwnedStep:
    """``step_into*`` (ghost refresh owned by the backend) must be
    bit-identical to the classic refresh-then-``sweep_into`` sequence —
    for every boundary kind, heterogeneous per-axis boundaries included,
    in 2D and 3D.  This pins the fused single-traversal path of JIT
    backends to the interpreted semantics."""

    def _check_step(self, rng, backend_name, boundary, spec, shape,
                    constant=False):
        from repro.stencil.shift import refresh_ghosts

        be = get_backend(backend_name)
        u = _domain(rng, shape)
        const = (
            (rng.random(shape) * 0.1).astype(np.float32) if constant else None
        )
        radius = spec.radius()

        src_ref, dst_ref = _fresh_pair(u, radius)
        refresh_ghosts(src_ref, radius, boundary)
        expected = be.sweep_into(
            src_ref, dst_ref, spec, radius, shape, constant=const
        )

        src, dst = _fresh_pair(u, radius)
        result = be.step_into(
            src, dst, spec, radius, shape, boundary, constant=const
        )
        assert np.shares_memory(result, dst)
        np.testing.assert_array_equal(result, expected)
        # The source halo must hold the boundary condition afterwards
        # (the protectors interpolate from it), exactly as the
        # interpreted refresh leaves it.
        np.testing.assert_array_equal(src, src_ref)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_2d_matches_refresh_then_sweep(self, rng, backend_name, bc):
        self._check_step(rng, backend_name, bc, stencil_library_2d()[1], SHAPE_2D)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_3d_matches_refresh_then_sweep(self, rng, backend_name, bc):
        self._check_step(
            rng, backend_name, bc, stencil_library_3d()[0], SHAPE_3D,
            constant=True,
        )

    @pytest.mark.parametrize("spec", stencil_library_2d(), ids=_spec_id)
    def test_2d_asymmetric_and_wide_stencils(self, rng, backend_name, spec):
        self._check_step(
            rng, backend_name, BoundaryCondition.periodic(), spec, SHAPE_2D
        )

    def test_2d_mixed_axis_boundaries(self, rng, backend_name):
        for boundary in _mixed_boundaries(2):
            self._check_step(
                rng, backend_name, boundary, stencil_library_2d()[2], SHAPE_2D
            )

    def test_3d_mixed_axis_boundaries(self, rng, backend_name):
        for boundary in _mixed_boundaries(3):
            self._check_step(
                rng, backend_name, boundary, stencil_library_3d()[1], SHAPE_3D
            )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_step_checksums_match_posthoc(self, rng, backend_name, bc):
        be = get_backend(backend_name)
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        src, dst = _fresh_pair(u, spec.radius())
        new, cs = be.step_into_with_checksums(
            src, dst, spec, spec.radius(), SHAPE_2D, bc, (0, 1),
            checksum_dtype=np.float64,
        )
        assert set(cs) == {0, 1}
        for axis in (0, 1):
            assert _relative_mismatch(
                cs[axis], checksum(new, axis, dtype=np.float64)
            ) <= 1e-10

    def test_degenerate_periodic_halo_handled(self, rng, backend_name):
        """Ghost wider than the interior: interpreted backends take the
        base refresh-then-sweep path, a compiling backend generates the
        modular-tiling kernel and fuses it — either way the result is
        pad_array-exact."""
        from repro.stencil.spec import StencilSpec

        spec = StencilSpec.from_dict(
            {(-2, 0): 0.2, (2, 0): 0.2, (0, -1): 0.3, (0, 1): 0.3}
        )
        shape = (1, 6)  # interior extent 1 < radius 2 along axis 0
        bc = BoundaryCondition.periodic()
        be = get_backend(backend_name)
        assert (
            be.supports_fused_step(spec, bc, spec.radius(), shape)
            == be.compiles_kernels
        )
        u = _domain(rng, shape)
        expected = get_backend(REFERENCE).sweep_padded(
            pad_array(u, spec.radius(), bc), spec, spec.radius(), shape
        )
        src, dst = _fresh_pair(u, spec.radius())
        result = be.step_into(src, dst, spec, spec.radius(), shape, bc)
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_grid_step_fast_path_matches_classic_pipeline(
        self, rng, backend_name, bc
    ):
        """``Grid2D.step`` (whole iteration delegated to the backend)
        must track the explicit refresh + ``sweep_into`` + swap sequence
        bit for bit over several iterations."""
        be = get_backend(backend_name)
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        fast = Grid2D(u, spec, bc, backend=backend_name)
        fast.run(6)
        classic = Grid2D(u, spec, bc, backend=backend_name)
        for _ in range(6):
            padded = classic.buffers.refresh()
            be.sweep_into(
                padded, classic.buffers.back, spec, classic.radius,
                classic.shape,
            )
            classic._commit(padded, None)
        np.testing.assert_array_equal(fast.u, classic.u)
        assert fast.iteration == classic.iteration == 6

    def test_grid_step_with_checksums_uses_backend_owned_step(
        self, rng, backend_name
    ):
        """The protected fast path delivers checksums of the buffer the
        pair just swapped in, and leaves previous_padded's halo valid."""
        from repro.stencil.shift import interior_view

        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        grid = Grid2D(u, spec, BoundaryCondition.clamp(), backend=backend_name)
        new, cs = grid.step_with_checksums((0, 1), checksum_dtype=np.float64)
        for axis in (0, 1):
            assert _relative_mismatch(
                cs[axis], checksum(grid.u, axis, dtype=np.float64)
            ) <= 1e-10
        # previous_padded must carry a refreshed halo (clamp: ghost rows
        # equal the adjacent interior rows) for the ABFT interpolation.
        prev = grid.previous_padded
        interior = interior_view(prev, grid.radius)
        np.testing.assert_array_equal(prev[0, 1:-1], interior[0])
        np.testing.assert_array_equal(prev[-1, 1:-1], interior[-1])


class TestBatchedStep:
    """``batch_step_into*`` on every built-in backend: slot ``b`` must be
    bit-identical to a single ``step_into*`` on run ``b`` — interior,
    refreshed source halo and checksums — with heterogeneous per-axis
    boundaries, a shared constant, and for aliasing pairs too."""

    @pytest.mark.parametrize("aliasing", [False, True], ids=["pair", "aliasing"])
    @pytest.mark.parametrize("with_cs", [False, True], ids=["plain", "checksums"])
    @pytest.mark.parametrize("ndim", [2, 3], ids=["2d", "3d"])
    def test_slots_match_single_steps(
        self, rng, backend_name, ndim, with_cs, aliasing
    ):
        be = get_backend(backend_name)
        spec = (stencil_library_2d() if ndim == 2 else stencil_library_3d())[1]
        shape = SHAPE_2D if ndim == 2 else SHAPE_3D
        boundary = _mixed_boundaries(ndim)[0]
        radius = spec.radius()
        const = (rng.random(shape) * 0.1).astype(np.float32)
        singles = [_fresh_pair(_domain(rng, shape), radius)[0] for _ in range(3)]

        bsrc = np.stack(singles, axis=-1)
        bdst = bsrc if aliasing else np.full(bsrc.shape, np.nan, np.float32)
        if with_cs:
            got, cs = be.batch_step_into_with_checksums(
                bsrc, bdst, spec, radius, shape, boundary, (0, 1),
                constant=const, checksum_dtype=np.float64,
            )
        else:
            got = be.batch_step_into(
                bsrc, bdst, spec, radius, shape, boundary, constant=const
            )
        assert np.shares_memory(got, bdst)
        assert got.shape == shape + (3,)

        for b, single in enumerate(singles):
            src, dst = single.copy(), np.full(single.shape, np.nan, np.float32)
            if with_cs:
                want, want_cs = be.step_into_with_checksums(
                    src, dst, spec, radius, shape, boundary, (0, 1),
                    constant=const, checksum_dtype=np.float64,
                )
                for axis in (0, 1):
                    np.testing.assert_array_equal(cs[axis][..., b], want_cs[axis])
            else:
                want = be.step_into(
                    src, dst, spec, radius, shape, boundary, constant=const
                )
            np.testing.assert_array_equal(got[..., b], want)
            if not aliasing:
                np.testing.assert_array_equal(bsrc[..., b], src)


class TestOptionalNumbaBackend:
    """Import gating: present and equivalent with numba, cleanly absent
    (not erroring) without it."""

    def test_module_importable_either_way(self):
        import repro.backends.numba_backend as mod

        assert isinstance(mod.NUMBA_AVAILABLE, bool)
        assert mod.UNAVAILABLE_REASON

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_absent_without_numba(self):
        assert "numba" not in available_backends()
        assert "numba" in unavailable_backends()
        with pytest.raises(KeyError, match="unavailable"):
            get_backend("numba")
        from repro.backends.numba_backend import NumbaBackend

        with pytest.raises(RuntimeError, match="numba"):
            NumbaBackend()

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_registered_with_numba(self):
        from repro.backends import NumbaBackend

        assert "numba" in available_backends()
        assert "numba" not in unavailable_backends()
        assert isinstance(get_backend("numba"), NumbaBackend)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_advertises_fused_step_for_every_layout(self):
        from repro.stencil.spec import StencilSpec

        be = get_backend("numba")
        spec = stencil_library_2d()[1]
        assert be.supports_fused_step(
            spec, BoundaryCondition.clamp(), spec.radius(), SHAPE_2D
        )
        # Degenerate periodic halo (ghost wider than the interior): the
        # halo plan lowers it to the modular tiling — no decline.
        wide = StencilSpec.from_dict({(-2, 0): 0.5, (2, 0): 0.5})
        assert be.supports_fused_step(
            wide, BoundaryCondition.periodic(), wide.radius(), (1, 6)
        )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_warmup_compiles_all_kernels(self):
        # Must not raise, and must cover 2D and 3D kernel families.
        be = get_backend("numba")
        be.warmup(stencil_library_2d()[1], BoundaryCondition.clamp())
        be.warmup(stencil_library_3d()[0], BoundaryCondition.periodic())

    def test_cli_listing_shows_availability(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numba" in out
        numba_line = next(l for l in out.splitlines() if l.startswith("numba"))
        if NUMBA_AVAILABLE:
            assert "unavailable" not in numba_line
        else:
            assert "unavailable" in numba_line

    def test_cli_kernels_listing(self, capsys):
        from repro.cli import main

        assert main(["backends", "--kernels"]) == 0
        out = capsys.readouterr().out
        if NUMBA_AVAILABLE:
            get_backend("numba").warmup(
                stencil_library_2d()[1], BoundaryCondition.clamp()
            )
            capsys.readouterr()
            assert main(["backends", "--kernels"]) == 0
            out = capsys.readouterr().out
            assert "compiled kernel module" in out
            assert "codegen" in out
        else:
            assert "no compiling backends registered" in out
