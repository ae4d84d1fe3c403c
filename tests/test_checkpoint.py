"""Unit tests for checkpoint storage and rollback recovery."""

import numpy as np
import pytest

from repro.checkpoint.recovery import rollback_and_recompute
from repro.checkpoint.store import Checkpoint, InMemoryCheckpointStore
from repro.core.checksums import column_checksum


class TestCheckpointStore:
    def _checkpoint(self, grid, iteration=None):
        return Checkpoint(
            iteration=grid.iteration if iteration is None else iteration,
            snapshot=grid.snapshot(),
            checksums={0: column_checksum(grid.u)},
        )

    def test_save_and_latest(self, small_grid_2d):
        store = InMemoryCheckpointStore()
        assert store.latest() is None
        ckpt = self._checkpoint(small_grid_2d)
        store.save(ckpt)
        assert store.latest() is ckpt
        assert len(store) == 1
        assert store.saves == 1

    def test_capacity_eviction(self, small_grid_2d):
        # Single slot: every save replaces the previous checkpoint.
        store = InMemoryCheckpointStore()
        c0 = self._checkpoint(small_grid_2d, 0)
        c1 = self._checkpoint(small_grid_2d, 1)
        store.save(c0)
        store.save(c1)
        assert len(store) == 1
        assert store.latest() is c1
        assert store.saves == 2
        assert store.nbytes() == c1.nbytes()

    def test_clear_and_restore_counter(self, small_grid_2d):
        store = InMemoryCheckpointStore()
        store.save(self._checkpoint(small_grid_2d))
        store.mark_restore()
        assert store.restores == 1
        store.clear()
        assert len(store) == 0

    def test_nbytes_accounts_for_domain_and_checksums(self, small_grid_2d):
        store = InMemoryCheckpointStore()
        ckpt = self._checkpoint(small_grid_2d)
        store.save(ckpt)
        assert store.nbytes() == ckpt.nbytes()
        assert ckpt.nbytes() >= small_grid_2d.u.nbytes

    def test_checkpoint_snapshot_isolated_from_grid(self, small_grid_2d):
        ckpt = self._checkpoint(small_grid_2d)
        small_grid_2d.u[0, 0] = 1e9
        assert ckpt.snapshot.u[0, 0] != 1e9


class TestRollbackAndRecompute:
    def test_recompute_reproduces_clean_run(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = Checkpoint(iteration=0, snapshot=grid.snapshot(), checksums={})
        clean = grid.copy()
        clean.run(6)
        # Corrupt the grid arbitrarily, then recover.
        grid.run(6)
        grid.u[3, 3] = 1e12
        recomputed = rollback_and_recompute(grid, ckpt, 6)
        assert recomputed == 6
        assert grid.iteration == 6
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_on_step_callback_invoked_per_sweep(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = Checkpoint(iteration=0, snapshot=grid.snapshot(), checksums={})
        grid.run(4)
        seen = []
        rollback_and_recompute(grid, ckpt, 4, on_step=lambda g: seen.append(g.iteration))
        assert seen == [1, 2, 3, 4]

    def test_inject_hook_forwarded(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = Checkpoint(iteration=0, snapshot=grid.snapshot(), checksums={})
        grid.run(3)
        calls = []
        rollback_and_recompute(
            grid, ckpt, 3, inject=lambda g, it: calls.append(it)
        )
        assert calls == [1, 2, 3]

    def test_negative_iterations_rejected(self, small_grid_2d):
        ckpt = Checkpoint(
            iteration=0, snapshot=small_grid_2d.snapshot(), checksums={}
        )
        with pytest.raises(ValueError):
            rollback_and_recompute(small_grid_2d, ckpt, -1)
