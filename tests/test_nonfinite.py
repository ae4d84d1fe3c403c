"""A NaN or Inf is never read as clean, and Eq. 10 survives huge faults.

A flip of an exponent bit can turn a value into NaN/Inf (bit 30 on any
float32 in ``[1, 2)``) or into a huge finite value (bit 29 on a HotSpot3D
temperature gives ~6e21).  The first must still be detected and
corrected (online) or rolled back (offline); the second must be
corrected without the catastrophic cancellation of ``a' - (a - u_old)``.
"""

import numpy as np
import pytest

from repro.core.detection import detect_errors
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.protector import NonFiniteStateError
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultInjector, FaultPlan
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import jacobi4


def _jacobi_field(value=1.5, shape=(64, 64)):
    return Grid2D(
        np.full(shape, value, dtype=np.float32), jacobi4(), BoundaryCondition.clamp()
    )


class TestDetectNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_computed_entry_is_flagged(self, bad):
        computed = np.array([10.0, bad, 12.0])
        interpolated = np.array([10.0, 11.0, 12.0])
        result = detect_errors(computed, interpolated, 1e-5)
        assert result.indices_as_tuples() == ((1,),)
        assert result.max_relative_error == np.inf

    def test_non_finite_prediction_is_flagged(self):
        result = detect_errors(np.ones(4), np.array([1.0, np.nan, 1.0, 1.0]), 1e-5)
        assert result.indices_as_tuples() == ((1,),)
        assert result.max_relative_error == np.inf

    def test_clean_checksums_stay_clean(self):
        cs = np.linspace(1.0, 2.0, 8)
        result = detect_errors(cs, cs.copy(), 1e-5)
        assert not result.detected
        assert result.max_relative_error == 0.0


def test_identical_nan_copies_are_not_a_metadata_repair():
    """The self-check compares the stored copies bit for bit: two copies
    of one NaN agree, so only a real difference is repaired."""
    grid = _jacobi_field()
    protector = OnlineABFT.for_grid(grid)
    grid.step()
    stored = np.full(64, np.nan)
    protector._store_prev_cs(0, stored)
    checked = protector._checked_prev_cs(0, grid.previous_padded, protector.radius)
    assert checked is stored
    assert protector.total_metadata_repairs == 0


class TestBit30OnJacobi:
    """Bit 30 of float32 1.5 turns the point into NaN."""

    PLAN = FaultPlan(iteration=5, index=(20, 33), bit=30)

    def _runs(self, protector_cls, **kwargs):
        clean = _jacobi_field()
        clean.run(32)
        grid = _jacobi_field()
        protector = protector_cls.for_grid(grid, **kwargs)
        injector = FaultInjector([self.PLAN])
        report = protector.run(grid, 32, inject=injector)
        assert injector.all_fired
        return clean, grid, protector, report

    def test_online_detects_corrects_and_ends_bitwise_clean(self):
        clean, grid, protector, report = self._runs(OnlineABFT)
        assert report.total_detected >= 1
        assert report.total_corrected >= 1
        assert report.total_uncorrected == 0
        assert [s.iteration for s in report.detections] == [5]
        assert report.detections[0].corrections[0].index == (20, 33)
        assert np.array_equal(grid.u, clean.u)
        assert protector.total_metadata_repairs == 0

    def test_offline_rolls_back_and_ends_finite(self):
        clean, grid, protector, report = self._runs(OfflineABFT, period=16)
        assert protector.total_detections >= 1
        assert protector.total_rollbacks >= 1
        assert np.all(np.isfinite(grid.u))
        assert np.array_equal(grid.u, clean.u)


class TestNonFiniteInitialState:
    @pytest.mark.parametrize("protector_cls", [OnlineABFT, OfflineABFT])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_with_typed_error(self, protector_cls, bad):
        grid = _jacobi_field()
        grid.u[3, 4] = bad
        protector = protector_cls.for_grid(grid)
        with pytest.raises(NonFiniteStateError, match="non-finite"):
            protector.step(grid)
        assert issubclass(NonFiniteStateError, ValueError)

    def test_online_process_rejects_non_finite_previous_domain(self):
        grid = _jacobi_field()
        protector = OnlineABFT.for_grid(grid)
        grid.step()
        grid.previous_padded[5, 5] = np.nan
        with pytest.raises(NonFiniteStateError):
            protector.process(grid.u, grid.previous_padded, grid.iteration)


class TestHugeFaultCorrection:
    def test_bit29_hotspot_campaign_recovers_every_run(self):
        # Bit 29 multiplies a HotSpot3D temperature (~320 K) into ~6e21;
        # Eq. 10 in its ``a' - (a - u_old)`` form cancels catastrophically
        # on such a value and leaves a relative l2 error of 0.2-0.3.
        app = make_hotspot_app((64, 64, 8))
        iterations = 128
        reference = app.reference_solution(iterations)
        norm = float(np.sqrt(np.sum(reference.astype(np.float64) ** 2)))
        config = CampaignConfig(
            iterations=iterations, repetitions=64, inject=True, bit=29, seed=0
        )
        with CampaignEngine(executor="serial", batch_size=64) as engine:
            result = engine.run(
                app.build_grid,
                make_protector_factory("online-abft"),
                config,
                reference=reference,
            )
        assert result.strategy_counts() == {"stacked": 64}
        errors = [r.arithmetic_error / norm for r in result.records]
        assert all(r.errors_corrected >= 1 for r in result.records)
        assert all(r.errors_uncorrected == 0 for r in result.records)
        assert max(errors) <= 1e-4
