"""Tests for the high-throughput campaign engine.

The engine's contract is strict: records bitwise-identical to the
legacy serial loop (:func:`run_campaign`) for every field except the
elapsed-time measurement, for every method, scenario, executor kind,
worker count and batch size — plus zero full-domain allocations per run
once a worker's persistent state is warm.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, resolve_run_counters, run_campaign
from repro.faults.engine import CampaignEngine, draw_fault_plans, stacked_supported
from repro.metrics.accuracy import l2_error
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

TILE = (16, 16, 4)
ITERATIONS = 10

_U0_2D = (np.random.default_rng(3).random((20, 14)) * 100).astype(np.float32)

_BOUNDARIES_2D = {
    "clamp": BoundaryCondition.clamp(),
    "periodic": BoundaryCondition.periodic(),
    "clamp+constant": BoundarySpec(
        (BoundaryCondition.clamp(), BoundaryCondition.constant(5.0))
    ),
}


def _grid2d_factory(boundary_key: str):
    def factory():
        return Grid2D(
            _U0_2D, five_point_diffusion(0.2), _BOUNDARIES_2D[boundary_key]
        )

    return factory


@pytest.fixture(scope="module")
def app():
    return make_hotspot_app(TILE)


@pytest.fixture(scope="module")
def reference(app):
    return app.reference_solution(ITERATIONS)


def record_key(record):
    """All deterministic record fields (elapsed time excluded)."""
    return (
        record.run_index,
        record.arithmetic_error,
        record.errors_detected,
        record.errors_corrected,
        record.errors_uncorrected,
        record.rollbacks,
        record.recomputed_iterations,
        tuple((p.iteration, p.index, p.bit) for p in record.faults),
    )


def assert_equivalent(result_a, result_b):
    assert [record_key(r) for r in result_a.records] == [
        record_key(r) for r in result_b.records
    ]


class TestRecordEquivalence:
    @pytest.mark.parametrize("method", ["no-abft", "online-abft", "offline-abft"])
    @pytest.mark.parametrize("inject", [False, True])
    def test_engine_matches_legacy_loop(self, app, reference, method, inject):
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=inject, seed=21
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert got.protector_name == legacy.protector_name
        assert_equivalent(legacy, got)

    def test_identical_across_executors_and_workers(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=7, inject=True, seed=5
        )
        with CampaignEngine(executor="serial") as engine:
            baseline = engine.run(
                app.build_grid, factory, config, reference=reference
            )
        for kind, workers in (("threads", 2), ("process", 2)):
            with CampaignEngine(executor=kind, workers=workers) as engine:
                got = engine.run(
                    app.build_grid, factory, config, reference=reference
                )
            assert_equivalent(baseline, got)

    def test_identical_across_batch_sizes(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=6, inject=True, seed=9
        )
        results = []
        for batch in (1, 2, 6):
            with CampaignEngine(executor="serial", batch_size=batch) as engine:
                results.append(
                    engine.run(app.build_grid, factory, config, reference=reference)
                )
        assert_equivalent(results[0], results[1])
        assert_equivalent(results[0], results[2])

    def test_forced_replay_matches_legacy_and_stacked(self, app, reference):
        # strategy="replay" (Figure 8's timing-fidelity mode) must give
        # the same records as both the legacy loop and the stacked path.
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=17
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            stacked = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            replayed = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert_equivalent(legacy, stacked)
        assert_equivalent(legacy, replayed)
        with pytest.raises(ValueError, match="strategy"):
            with CampaignEngine(executor="serial") as engine:
                engine.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="vectorised",
                )

    def test_reproducible_across_engine_instances(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, inject=True, seed=2
        )
        with CampaignEngine(executor="serial") as engine:
            first = engine.run(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            second = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(first, second)

    @pytest.mark.parametrize("boundary_key", sorted(_BOUNDARIES_2D))
    @pytest.mark.parametrize("verify_axis", [0, 1])
    def test_2d_grids_every_boundary_kind(self, boundary_key, verify_axis):
        factory = _grid2d_factory(boundary_key)

        def protector_factory(grid):
            return OnlineABFT.for_grid(
                grid, epsilon=1e-5, verify_axis=verify_axis
            )

        config = CampaignConfig(iterations=9, repetitions=6, inject=True, seed=4)
        legacy = run_campaign(factory, protector_factory, config)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(factory, protector_factory, config)
        assert_equivalent(legacy, got)

    @pytest.mark.parametrize(
        "config_kwargs", [{"faults_per_run": 3}, {"bit": 27}, {"bit": 1}]
    )
    def test_multi_fault_and_pinned_bit_campaigns(
        self, app, reference, config_kwargs
    ):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=8,
            **config_kwargs,
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, got)

    def test_state_reuse_across_calls_stays_identical(self, app, reference):
        # The chunked-benchmark pattern: the same engine runs the same
        # campaign repeatedly; the worker resets its persistent grid and
        # protector in place, and a reused state must not leak anything
        # from the previous chunk into the next.
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=5, inject=True, seed=13
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            again = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, again)


class TestFaultPlans:
    def test_plans_match_legacy_scheme(self, app):
        config = CampaignConfig(iterations=8, repetitions=3, inject=True, seed=40)
        plans = draw_fault_plans(config, TILE, np.float32)
        legacy = run_campaign(
            app.build_grid,
            make_protector_factory("no-abft"),
            config,
            reference=np.zeros(TILE, np.float32),
        )
        got = [
            [(p.iteration, p.index, p.bit) for p in run_plans]
            for run_plans in plans
        ]
        want = [
            [(p.iteration, p.index, p.bit) for p in r.faults]
            for r in legacy.records
        ]
        assert got == want

    def test_error_free_campaign_draws_nothing(self):
        config = CampaignConfig(iterations=8, repetitions=3, inject=False)
        assert draw_fault_plans(config, TILE, np.float32) == [[], [], []]


class TestStrategySelection:
    def test_online_and_noprotection_are_stackable(self, app):
        grid = app.build_grid()
        assert stacked_supported(grid, OnlineABFT.for_grid(grid))
        assert stacked_supported(grid, NoProtection())

    def test_offline_and_eager_online_replay(self, app):
        grid = app.build_grid()
        offline = make_protector_factory("offline-abft", period=4)(grid)
        assert not stacked_supported(grid, offline)
        eager = OnlineABFT.for_grid(grid, eager_row_checksum=True)
        assert not stacked_supported(grid, eager)


class TestHookFactory:
    def test_hooks_force_replay_and_match_manual_loop(self, app, reference):
        class Perturb:
            def __init__(self, iteration, index):
                self.iteration = iteration
                self.index = index
                self.fired = False

            def __call__(self, grid, iteration):
                if not self.fired and iteration == self.iteration:
                    grid.u[self.index] *= 1.5
                    self.fired = True

        draws = [(3, (4, 4, 1)), (5, (1, 2, 0)), (7, (9, 9, 3))]
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=len(draws), inject=False
        )
        with CampaignEngine(executor="serial") as engine:
            got = engine.run(
                app.build_grid,
                factory,
                config,
                reference=reference,
                hook_factory=lambda i: Perturb(*draws[i]),
            )
        for (iteration, index), record in zip(draws, got.records):
            grid = app.build_grid()
            protector = factory(grid)
            hook = Perturb(iteration, index)
            report = protector.run(grid, ITERATIONS, inject=hook)
            det, cor, unc, rb, rec = resolve_run_counters(protector, report)
            assert record.errors_detected == det
            assert record.errors_corrected == cor
            assert record.arithmetic_error == l2_error(reference, grid.u)

    def test_stacked_run_after_hook_replay_reuses_pristine_initial(
        self, app, reference
    ):
        # Regression: a hook campaign replays on the worker's persistent
        # grid and leaves it at the final state of its last run; a
        # subsequent hook-less (stacked) campaign on the same cached
        # state must still start every run from the campaign's initial
        # domain, not from the evolved grid.
        factory = make_protector_factory("online-abft")
        hook_config = CampaignConfig(
            iterations=ITERATIONS, repetitions=2, inject=False
        )
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, inject=True, seed=31
        )
        legacy = run_campaign(app.build_grid, factory, config, reference=reference)
        with CampaignEngine(executor="serial") as engine:
            engine.run(
                app.build_grid,
                factory,
                hook_config,
                reference=reference,
                hook_factory=lambda i: (lambda grid, iteration: None),
            )
            got = engine.run(app.build_grid, factory, config, reference=reference)
        assert_equivalent(legacy, got)

    def test_hooks_with_inject_rejected(self, app, reference):
        # Hooks replace the fault-plan injector; combining them with
        # inject=True would emit records whose fault plans never fired.
        config = CampaignConfig(iterations=4, repetitions=2, inject=True)
        with CampaignEngine(executor="serial") as engine:
            with pytest.raises(ValueError, match="inject=False"):
                engine.run(
                    app.build_grid,
                    make_protector_factory("no-abft"),
                    config,
                    reference=reference,
                    hook_factory=lambda i: (lambda grid, iteration: None),
                )

    def test_hook_factory_called_in_run_order(self, app, reference):
        calls = []

        def hook_factory(i):
            calls.append(i)
            return lambda grid, iteration: None

        config = CampaignConfig(iterations=4, repetitions=5, inject=False)
        with CampaignEngine(executor="serial", batch_size=2) as engine:
            engine.run(
                app.build_grid,
                make_protector_factory("no-abft"),
                config,
                reference=reference,
                hook_factory=hook_factory,
            )
        assert calls == [0, 1, 2, 3, 4]


class TestAllocationProfile:
    def test_zero_full_domain_allocations_per_run_after_warmup(self):
        # The gated property of the stacked strategy: once a worker's
        # state is warm, a whole campaign allocates only checksum-scale
        # transients — no per-run grids, protectors or domain copies.
        tile = (64, 64, 8)
        app = make_hotspot_app(tile)
        iterations, repetitions = 6, 8
        reference = app.reference_solution(iterations)
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=iterations, repetitions=repetitions, inject=True, seed=1
        )
        domain_bytes = int(np.prod(tile)) * 4
        with CampaignEngine(executor="serial", batch_size=repetitions) as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            tracemalloc.start()
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine.run(app.build_grid, factory, config, reference=reference)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        per_run = max(0, peak - baseline - 192 * 1024) / repetitions
        assert per_run < domain_bytes / 2


class TestProcessExecutorContract:
    def test_unpicklable_factory_raises_clear_error(self, app, reference):
        config = CampaignConfig(iterations=4, repetitions=2, inject=False)
        with CampaignEngine(executor="process", workers=1) as engine:
            with pytest.raises(ValueError, match="picklable"):
                engine.run(
                    app.build_grid,
                    lambda grid: NoProtection(),
                    config,
                    reference=reference,
                )


@pytest.fixture()
def numba_backend_default(tmp_path):
    """Make the numba backend the process default for one test.

    With numba installed (the CI matrix job) the registered JIT backend
    is used as-is, so the stacked batches run the compiled ``bstep``
    kernels; without it, a ``jit=False`` instance executes the same
    generated source as plain Python, pinning the engine integration
    everywhere.
    """
    from repro.backends import registry as _registry
    from repro.backends import set_default_backend
    from repro.backends.codegen import KernelCompiler
    from repro.backends.numba_backend import NUMBA_AVAILABLE, NumbaBackend

    registered = None
    if not NUMBA_AVAILABLE:
        registered = NumbaBackend(
            compiler=KernelCompiler(cache_dir=tmp_path / "kc", jit=False)
        )
        _registry.register_backend(registered)
    set_default_backend("numba")
    try:
        yield
    finally:
        set_default_backend(None)
        if registered is not None:
            _registry._REGISTRY.pop("numba", None)
            _registry.register_unavailable_backend(
                "numba", "numba not installed"
            )


class TestStackedCompiledBackend:
    """Stacked batches on the numba backend: same records as replay/legacy."""

    @pytest.mark.parametrize(
        "method", ["no-abft", "online-abft", "offline-abft"]
    )
    @pytest.mark.parametrize("inject", [False, True])
    def test_stacked_replay_and_legacy_agree(
        self, app, reference, method, inject, numba_backend_default
    ):
        factory = make_protector_factory(method, period=4)
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=6, inject=inject, seed=23
        )
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        with CampaignEngine(executor="serial") as engine:
            auto = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            replay = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert_equivalent(legacy, auto)
        assert_equivalent(legacy, replay)
        if method == "offline-abft":
            assert auto.strategy_counts() == {"replay": 6}
            assert any(
                "no stacked implementation" in r
                for r in auto.fallback_reasons()
            )
        else:
            assert auto.strategy_counts() == {"stacked": 6}
            assert auto.fallback_reasons() == []


class TestStrategyReporting:
    def test_support_reasons(self, app):
        from repro.faults.engine import stacked_support_reason

        grid = app.build_grid()
        assert stacked_support_reason(grid, OnlineABFT.for_grid(grid)) is None
        assert stacked_support_reason(grid, NoProtection()) is None
        offline = make_protector_factory("offline-abft", period=4)(grid)
        assert "no stacked implementation" in stacked_support_reason(
            grid, offline
        )
        eager = OnlineABFT.for_grid(grid, eager_row_checksum=True)
        assert "eagerly" in stacked_support_reason(grid, eager)

    def test_forced_replay_reports_the_request(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=5, seed=17)
        with CampaignEngine(executor="serial", batch_size=2) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay",
            )
        assert result.strategy_counts() == {"replay": 5}
        assert [b.width for b in result.batch_strategies] == [2, 2, 1]
        assert [b.start for b in result.batch_strategies] == [0, 2, 4]
        assert result.fallback_reasons() == ["replay strategy requested"]

    def test_non_domain_targets_fall_back_with_reason(self, app, reference):
        from repro.faults.models import make_fault_model

        factory = make_protector_factory("online-abft")
        config = CampaignConfig(
            iterations=ITERATIONS, repetitions=4, seed=5,
            fault_model=make_fault_model("region-checksum"),
        )
        with CampaignEngine(executor="serial") as engine:
            auto = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            with pytest.raises(ValueError, match="non-domain"):
                engine.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="stacked",
                )
        assert auto.strategy_counts() == {"replay": 4}
        assert any("non-domain" in r for r in auto.fallback_reasons())

    def test_forced_stacked_raises_for_ineligible_protector(
        self, app, reference
    ):
        factory = make_protector_factory("offline-abft", period=4)
        config = CampaignConfig(iterations=ITERATIONS, repetitions=3, seed=1)
        with CampaignEngine(executor="serial") as engine:
            with pytest.raises(ValueError, match="no stacked implementation"):
                engine.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="stacked",
                )

    def test_forced_stacked_runs_and_reports_stacked(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=5, seed=17)
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        with CampaignEngine(executor="serial") as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="stacked",
            )
        assert_equivalent(legacy, result)
        assert result.strategy_counts() == {"stacked": 5}

    def test_legacy_loop_reports_no_batches(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=2, seed=3)
        legacy = run_campaign(
            app.build_grid, factory, config, reference=reference
        )
        assert legacy.batch_strategies == []
        assert legacy.strategy_counts() == {}


class TestStackedWidth:
    def test_default_width(self):
        with CampaignEngine(executor="serial") as engine:
            assert engine._auto_batch(100) == 32
            assert engine._auto_batch(5) == 5

    def test_batch_size_sets_the_stacked_width(self, app, reference):
        factory = make_protector_factory("online-abft")
        config = CampaignConfig(iterations=ITERATIONS, repetitions=6, seed=9)
        results = {}
        for width in (2, 3):
            with CampaignEngine(executor="serial", batch_size=width) as engine:
                results[width] = engine.run(
                    app.build_grid, factory, config, reference=reference
                )
        assert [b.width for b in results[2].batch_strategies] == [2, 2, 2]
        assert [b.width for b in results[3].batch_strategies] == [3, 3]
        assert_equivalent(results[2], results[3])
