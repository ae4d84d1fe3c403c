"""Hardening of the protection paths against corrupted checksum metadata.

The ABFT protectors trust their *stored* checksum vectors (the online
protector's previous-iteration checksum, the offline protector's
checkpoint checksum).  A bit flip striking that metadata instead of the
domain must not make a protector "correct" healthy data or roll back a
healthy run: the duplicated-checksum self-check detects the mismatch
between the primary copy and its independently stored duplicate, falls
back to recomputing the checksum from the (still healthy) data, and
counts the repair.  These tests pin the rule in all four settings —
online and offline, serial and distributed — and prove it has teeth by
showing the bogus detections that occur with the self-check disabled.
"""

import numpy as np
import pytest

from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.faults.campaign import CampaignConfig, compute_reference
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultPlan
from repro.faults.models import (
    ChecksumInjector,
    DistributedFaultInjector,
    make_fault_model,
    make_injector,
)
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

#: A high exponent-field bit of the stored float64 checksum: flipping it
#: perturbs the vector far beyond any detection epsilon, so an
#: unhardened protector is guaranteed to misread it as a domain error.
HIGH_BIT = 62


def _make_grid(rng, shape=(24, 20)):
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())


def _checksum_plan(protector, iteration, index=(5,), bit=HIGH_BIT):
    return FaultPlan(
        iteration=iteration,
        index=index,
        bit=bit,
        target="checksum",
        axis=protector.verify_axis,
    )


class TestOnlineSerial:
    def test_corrupted_stored_checksum_never_corrupts_healthy_data(self, rng):
        grid = _make_grid(rng)
        clean = grid.copy()
        clean_protector = OnlineABFT.for_grid(clean, epsilon=1e-5)
        clean_protector.run(clean, 16)

        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = ChecksumInjector([_checksum_plan(protector, 6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert hook.fired_count == 1
        assert protector.total_metadata_repairs == 1
        assert run.total_detected == 0
        assert run.total_corrected == 0
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_self_check_has_teeth(self, rng):
        """Disabled, the same corruption is misread as a domain error."""
        grid = _make_grid(rng)
        clean = grid.copy()
        OnlineABFT.for_grid(clean, epsilon=1e-5).run(clean, 16)

        protector = OnlineABFT.for_grid(
            grid, epsilon=1e-5, metadata_self_check=False
        )
        hook = ChecksumInjector([_checksum_plan(protector, 6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert protector.total_metadata_repairs == 0
        # Bogus alarm: the domain was healthy, yet the protector flags an
        # error (and, depending on the mismatch pattern, wastes a
        # correction attempt or reports it uncorrectable).
        assert run.total_detected >= 1

    def test_every_element_and_axis_repairs_cleanly(self, rng):
        grid0 = _make_grid(rng, shape=(12, 10))
        clean = grid0.copy()
        OnlineABFT.for_grid(clean, epsilon=1e-5).run(clean, 10)
        probe = OnlineABFT.for_grid(grid0.copy(), epsilon=1e-5)
        cs_len = grid0.shape[1 - probe.verify_axis]
        for j in range(0, cs_len, 3):
            grid = grid0.copy()
            protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
            hook = ChecksumInjector(
                [_checksum_plan(protector, 4, index=(j,))], protector
            )
            run = protector.run(grid, 10, inject=hook)
            assert run.total_detected == 0
            assert protector.total_metadata_repairs == 1
            np.testing.assert_array_equal(grid.u, clean.u)

    def test_checksum_fault_at_first_iteration_repairs(self, rng):
        """The seed is stored before the first hook fires, so a plan at
        iteration 1 strikes (and the self-check repairs) the seed."""
        grid = _make_grid(rng)
        clean = grid.copy()
        OnlineABFT.for_grid(clean, epsilon=1e-5).run(clean, 8)

        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = ChecksumInjector([_checksum_plan(protector, 1)], protector)
        run = protector.run(grid, 8, inject=hook)

        assert hook.fired_count == 1
        assert protector.total_metadata_repairs == 1
        assert run.total_detected == 0
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_region_checksum_campaign_at_first_iteration(self, rng):
        """A one-iteration campaign puts every checksum plan at t=1."""
        u0 = _make_grid(rng).u.copy()

        def grid_factory():
            return Grid2D(
                u0.copy(), five_point_diffusion(0.2), BoundaryCondition.clamp()
            )

        config = CampaignConfig(
            iterations=1, repetitions=3, seed=2,
            fault_model=make_fault_model("region-checksum", bit=HIGH_BIT),
        )
        reference = compute_reference(grid_factory, 1)
        with CampaignEngine(executor="serial") as engine:
            result = engine.run(
                grid_factory,
                lambda grid: OnlineABFT.for_grid(grid, epsilon=1e-5),
                config,
                reference=reference,
            )
        assert [r.faults[0].iteration for r in result.records] == [1, 1, 1]
        assert all(r.errors_detected == 0 for r in result.records)
        assert all(r.arithmetic_error == 0.0 for r in result.records)

    def test_reset_clears_repair_counter(self, rng):
        grid = _make_grid(rng)
        protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
        hook = ChecksumInjector([_checksum_plan(protector, 3)], protector)
        protector.run(grid, 6, inject=hook)
        assert protector.total_metadata_repairs == 1
        protector.reset()
        assert protector.total_metadata_repairs == 0


class TestOfflineSerial:
    def test_corrupted_checkpoint_checksum_causes_no_rollback(self, rng):
        grid = _make_grid(rng)
        clean = grid.copy()
        OfflineABFT.for_grid(clean, period=4, epsilon=1e-5).run(clean, 16)

        protector = OfflineABFT.for_grid(grid, period=4, epsilon=1e-5)
        hook = ChecksumInjector([_checksum_plan(protector, 6)], protector)
        run = protector.run(grid, 16, inject=hook)

        assert hook.fired_count == 1
        assert protector.total_metadata_repairs >= 1
        assert run.total_rollbacks == 0
        assert run.total_detected == 0
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_self_check_has_teeth(self, rng):
        """Disabled, the corruption triggers a pointless rollback."""
        grid = _make_grid(rng)
        protector = OfflineABFT.for_grid(
            grid, period=4, epsilon=1e-5, metadata_self_check=False
        )
        hook = ChecksumInjector([_checksum_plan(protector, 6)], protector)
        run = protector.run(grid, 16, inject=hook)
        assert protector.total_metadata_repairs == 0
        assert run.total_detected >= 1
        assert run.total_rollbacks >= 1

    def test_combined_domain_and_checksum_faults(self, rng):
        """A real fault is still handled while metadata is under attack."""
        grid = _make_grid(rng)
        protector = OfflineABFT.for_grid(grid, period=4, epsilon=1e-5)
        plans = [
            FaultPlan(iteration=6, index=(7, 7), bit=27),
            _checksum_plan(protector, 7),
        ]
        run = protector.run(grid, 16, inject=make_injector(plans, protector))
        assert run.total_detected >= 1  # the genuine domain fault
        assert protector.total_metadata_repairs >= 1


class TestDistributed:
    def _runners(self, rng, **abft_kwargs):
        grid = _make_grid(rng)
        clean = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        clean.run(12)
        runner = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5, **abft_kwargs
        )
        return clean, runner

    def _rank_checksum_plans(self, runner, victim=1, iteration=5):
        plans = [[] for _ in runner.ranks]
        protector = runner.ranks[victim].protector
        cs_len = runner.ranks[victim].shape[1 - protector.verify_axis]
        plans[victim] = [
            _checksum_plan(protector, iteration, index=(cs_len // 2,))
        ]
        return plans

    def test_rank_checksum_corruption_repairs_without_miscorrection(self, rng):
        clean, runner = self._runners(rng)
        inject = DistributedFaultInjector(
            runner, self._rank_checksum_plans(runner)
        )
        runner.run(12, inject=inject)
        assert inject.fired_count == 1
        victim = runner.ranks[1].protector
        assert victim.total_metadata_repairs == 1
        assert runner.total_detected() == 0
        assert runner.total_corrected() == 0
        np.testing.assert_array_equal(runner.gather(), clean.gather())

    def test_self_check_has_teeth_distributed(self, rng):
        clean, runner = self._runners(rng, metadata_self_check=False)
        inject = DistributedFaultInjector(
            runner, self._rank_checksum_plans(runner)
        )
        runner.run(12, inject=inject)
        assert runner.ranks[1].protector.total_metadata_repairs == 0
        assert runner.total_detected() >= 1  # bogus detection

    def test_unprotected_rank_rejects_checksum_plans(self, rng):
        grid = _make_grid(rng)
        runner = DistributedStencilRunner(grid, n_ranks=2, protect=False)
        plans = [[], [FaultPlan(
            iteration=2, index=(0,), bit=HIGH_BIT, target="checksum"
        )]]
        inject = DistributedFaultInjector(runner, plans)
        with pytest.raises(ValueError, match="unprotected"):
            runner.run(4, inject=inject)
