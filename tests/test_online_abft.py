"""Unit and behavioural tests for the online ABFT protector."""

import numpy as np
import pytest

from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.faults.injector import FaultInjector, FaultPlan
from repro.metrics.accuracy import l2_error
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import asymmetric_advection_2d, five_point_diffusion


def _make_grid(rng, shape=(24, 20), spec=None, bc=None, scale=100.0):
    spec = spec if spec is not None else five_point_diffusion(0.2)
    bc = bc if bc is not None else BoundaryCondition.clamp()
    u0 = (rng.random(shape) * scale).astype(np.float32)
    return Grid2D(u0, spec, bc)


def _reference(grid, iterations):
    clone = grid.copy()
    clone.run(iterations)
    return clone.u.copy()


class TestOnlineConstruction:
    def test_for_grid_matches_grid(self, small_grid_2d):
        p = OnlineABFT.for_grid(small_grid_2d)
        assert p.shape == small_grid_2d.shape
        assert p.spec is small_grid_2d.spec
        assert p.epsilon > 0.0

    def test_invalid_verify_axis(self, small_grid_2d):
        with pytest.raises(ValueError):
            OnlineABFT.for_grid(small_grid_2d, verify_axis=2)

    def test_invalid_correction_strategy_rejected_at_construction(
        self, small_grid_2d
    ):
        # Must fail here, not at the first detection deep inside a run.
        with pytest.raises(ValueError, match="'bogus'.*average.*row.*column"):
            OnlineABFT.for_grid(small_grid_2d, correction_strategy="bogus")

    def test_shape_stencil_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            OnlineABFT(five_point_diffusion(0.2), BoundarySpec.clamp(2), (4, 4, 4))

    def test_step_rejects_wrong_grid_shape(self, rng, small_grid_2d):
        other = _make_grid(rng, shape=(10, 10))
        p = OnlineABFT.for_grid(small_grid_2d)
        with pytest.raises(ValueError, match="grid shape"):
            p.step(other)

    def test_name(self, small_grid_2d):
        assert OnlineABFT.for_grid(small_grid_2d).name == "online-abft"


class TestOnlineErrorFree:
    def test_no_false_positives(self, rng):
        grid = _make_grid(rng)
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 40)
        assert run.total_detected == 0
        assert p.total_detections == 0

    def test_protected_result_identical_to_unprotected(self, rng):
        grid_a = _make_grid(rng)
        grid_b = grid_a.copy()
        OnlineABFT.for_grid(grid_a, epsilon=1e-5).run(grid_a, 25)
        NoProtection().run(grid_b, 25)
        np.testing.assert_array_equal(grid_a.u, grid_b.u)

    def test_no_false_positives_asymmetric_stencil_clamp(self, rng):
        # The α/β terms do not cancel here: the exact interpolation must
        # still agree with the computed checksum.
        grid = _make_grid(rng, spec=asymmetric_advection_2d(0.3, 0.2))
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        assert p.run(grid, 30).total_detected == 0

    @pytest.mark.parametrize(
        "bc",
        [BoundaryCondition.periodic(), BoundaryCondition.zero(),
         BoundaryCondition.constant(40.0)],
        ids=["periodic", "zero", "constant"],
    )
    def test_no_false_positives_other_boundaries(self, rng, bc):
        grid = _make_grid(rng, bc=bc)
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        assert p.run(grid, 20).total_detected == 0


class TestOnlineWithFault:
    def test_detects_and_corrects_single_fault(self, rng):
        grid = _make_grid(rng)
        ref = _reference(grid, 40)
        injector = FaultInjector([FaultPlan(iteration=17, index=(11, 7), bit=24)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 40, inject=injector)
        assert injector.all_fired
        assert run.total_detected >= 1
        assert run.total_corrected >= 1
        # residual error is small compared to an unprotected run
        assert l2_error(ref, grid.u) < 1.0

    def test_correction_is_orders_of_magnitude_better_than_unprotected(self, rng):
        plan = FaultPlan(iteration=10, index=(5, 5), bit=27)
        protected = _make_grid(rng)
        unprotected = protected.copy()
        ref = _reference(protected, 30)

        OnlineABFT.for_grid(protected, epsilon=1e-5).run(
            protected, 30, inject=FaultInjector([plan])
        )
        NoProtection().run(unprotected, 30, inject=FaultInjector([plan]))

        err_protected = l2_error(ref, protected.u)
        err_unprotected = l2_error(ref, unprotected.u)
        assert err_protected < 1e-2 * err_unprotected

    def test_corrected_location_matches_injection(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=5, index=(3, 9), bit=25)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 10, inject=injector)
        detecting_steps = run.detections
        assert len(detecting_steps) == 1
        assert detecting_steps[0].iteration == 5
        assert detecting_steps[0].corrections[0].index == (3, 9)

    def test_small_bit_flip_below_threshold_not_detected(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=5, index=(3, 9), bit=0)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 10, inject=injector)
        assert run.total_detected == 0  # flip of the lowest fraction bit

    def test_verify_axis_row_also_works(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=8, index=(10, 3), bit=26)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5, verify_axis=1)
        run = p.run(grid, 15, inject=injector)
        assert run.total_detected >= 1
        assert run.total_corrected >= 1

    def test_eager_row_checksum_mode(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=4, index=(2, 2), bit=26)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5, eager_row_checksum=True)
        run = p.run(grid, 8, inject=injector)
        assert run.total_corrected >= 1

    def test_float32_checksum_accumulation_mode(self, rng):
        # The paper's fused float32 checksums: still detects a large flip.
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=4, index=(2, 2), bit=27)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5, checksum_dtype=None)
        run = p.run(grid, 8, inject=injector)
        assert run.total_detected >= 1

    def test_multiple_faults_in_different_iterations(self, rng):
        grid = _make_grid(rng)
        plans = [
            FaultPlan(iteration=3, index=(4, 4), bit=26),
            FaultPlan(iteration=9, index=(15, 12), bit=25),
        ]
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 15, inject=FaultInjector(plans))
        assert run.total_detected >= 2
        assert run.total_corrected >= 2

    def test_3d_grid_detection_and_correction(self, small_grid_3d):
        grid = small_grid_3d
        ref = _reference(grid, 20)
        injector = FaultInjector([FaultPlan(iteration=9, index=(6, 4, 2), bit=26)])
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        run = p.run(grid, 20, inject=injector)
        assert run.total_detected >= 1
        assert run.total_corrected >= 1
        assert l2_error(ref, grid.u) < 1.0

    def test_reset_clears_state(self, rng):
        grid = _make_grid(rng)
        p = OnlineABFT.for_grid(grid, epsilon=1e-5)
        p.run(grid, 3, inject=FaultInjector([FaultPlan(iteration=1, index=(0, 0), bit=27)]))
        assert p.total_detections >= 1
        p.reset()
        assert p.total_detections == 0
        assert p._prev_cs[0] is None
