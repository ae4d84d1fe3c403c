"""Fault-injection campaigns.

A campaign repeats the same protected stencil run many times, each time
with an independently drawn random fault (or none), and records the
execution time, the final arithmetic error against an error-free
reference, and the detection/correction bookkeeping. This is the
harness behind the paper's evaluation (Section 5): 1,000 repetitions for
the 64x64x8 tiles and 100 repetitions for the 512x512x8 tiles.

:func:`run_campaign` is the *reference* serial loop: one fresh grid and
one fresh protector per run.  The throughput-oriented harness is
:class:`repro.faults.engine.CampaignEngine`, which produces records
bitwise-identical to this loop (same ``seed + i`` fault plans, same
numerics) from persistent workers that reset their state in place; the
benchmark suite gates that equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.protector import Protector
from repro.faults.injector import FaultPlan
from repro.faults.models import FaultModel, SingleBitFlip, make_injector
from repro.metrics.accuracy import l2_error
from repro.metrics.statistics import SummaryStats, summarize
from repro.stencil.grid import GridBase

__all__ = [
    "BatchStrategy",
    "CampaignConfig",
    "RunRecord",
    "CampaignResult",
    "resolve_run_counters",
    "crash_run_counters",
    "run_with_crashes",
    "run_campaign",
]

GridFactory = Callable[[], GridBase]
ProtectorFactory = Callable[[GridBase], Protector]


@dataclass
class CampaignConfig:
    """Parameters of a fault-injection campaign.

    Attributes
    ----------
    iterations:
        Stencil iterations per run (128 / 256 in the paper).
    repetitions:
        Number of independent runs.
    inject:
        Whether each run receives random bit-flip(s)
        (``False`` reproduces the error-free scenario).
    bit:
        Pin the bit position of the injected flip (used by the Figure 10
        bit-position sweep); ``None`` draws it uniformly.
    faults_per_run:
        Number of independent faults injected per run (the paper injects
        exactly one; larger values exercise the multi-error behaviour).
    seed:
        Base seed; run ``i`` uses ``seed + i`` so campaigns are fully
        reproducible and runs are independent.
    fault_model:
        The :class:`~repro.faults.models.FaultModel` drawing each run's
        plans.  ``None`` (the default) resolves to
        :class:`~repro.faults.models.SingleBitFlip` built from
        ``faults_per_run``/``bit`` — the legacy paper model, with RNG
        draws bit-identical to the historical loop.  Models that draw
        fail-stop plans (:class:`~repro.faults.models.RankCrash`) route
        their runs through the distributed runner's buddy-checkpoint
        recovery path (:func:`run_with_crashes`); the engine executes
        such runs on its replay path with the recorded fallback reason.
    """

    iterations: int
    repetitions: int
    inject: bool = True
    bit: Optional[int] = None
    faults_per_run: int = 1
    seed: int = 0
    fault_model: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.faults_per_run < 1:
            raise ValueError("faults_per_run must be >= 1")
        if self.fault_model is not None and not isinstance(
            self.fault_model, FaultModel
        ):
            raise TypeError(
                f"fault_model must be a FaultModel, got "
                f"{type(self.fault_model).__name__}"
            )

    def resolved_fault_model(self) -> FaultModel:
        """The effective model: explicit, else the legacy single-bit-flip."""
        if self.fault_model is not None:
            return self.fault_model
        return SingleBitFlip(faults_per_run=self.faults_per_run, bit=self.bit)


@dataclass
class RunRecord:
    """Outcome of a single campaign run."""

    run_index: int
    elapsed_seconds: float
    arithmetic_error: float
    fault: Optional[FaultPlan]
    errors_detected: int
    errors_corrected: int
    errors_uncorrected: int
    rollbacks: int
    recomputed_iterations: int
    faults: List[FaultPlan] = field(default_factory=list)
    #: Ranks rebuilt from a buddy checkpoint (fail-stop runs; 0 for
    #: SDC-only runs, which never lose a rank).
    ranks_rebuilt: int = 0
    #: Bytes shipped to buddies for checkpointing during the run.
    checkpoint_bytes: int = 0

    def __post_init__(self) -> None:
        if self.fault is not None and not self.faults:
            self.faults = [self.fault]

    @property
    def injected(self) -> bool:
        return self.fault is not None

    @property
    def detected(self) -> bool:
        return self.errors_detected > 0


@dataclass(frozen=True)
class BatchStrategy:
    """Which run strategy one engine batch actually used.

    The engine picks ``stacked`` or ``replay`` per batch (see
    :mod:`repro.faults.engine`); campaigns report that choice — with the
    recorded fallback reason whenever replay was chosen — so throughput
    numbers are never read against the wrong execution path.  The legacy
    serial :func:`run_campaign` loop reports nothing here (records are
    identical either way; strategy is a property of the engine).
    """

    #: First run index of the batch.
    start: int
    #: Number of runs in the batch.
    width: int
    #: ``"stacked"`` | ``"replay"``.
    strategy: str
    #: Why replay was chosen when it was (``None`` under stacked).
    reason: Optional[str] = None


@dataclass
class _ResultColumns:
    """Columnar views over a campaign's records, built in one pass.

    The summary methods of :class:`CampaignResult` are called repeatedly
    by the figures (once per statistic, per method, per scenario); with
    paper-scale campaigns of 1,000 records, rebuilding a Python list for
    every call dominated the summary cost.  The arrays are built once per
    record count and reused until more records are appended.
    """

    elapsed: np.ndarray
    error: np.ndarray
    detected_counts: np.ndarray
    corrected: np.ndarray
    uncorrected: np.ndarray
    rollbacks: np.ndarray
    recomputed: np.ndarray
    injected: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> "_ResultColumns":
        n = len(records)
        elapsed = np.empty(n, dtype=np.float64)
        error = np.empty(n, dtype=np.float64)
        detected = np.empty(n, dtype=np.int64)
        corrected = np.empty(n, dtype=np.int64)
        uncorrected = np.empty(n, dtype=np.int64)
        rollbacks = np.empty(n, dtype=np.int64)
        recomputed = np.empty(n, dtype=np.int64)
        injected = np.empty(n, dtype=bool)
        for i, r in enumerate(records):
            elapsed[i] = r.elapsed_seconds
            error[i] = r.arithmetic_error
            detected[i] = r.errors_detected
            corrected[i] = r.errors_corrected
            uncorrected[i] = r.errors_uncorrected
            rollbacks[i] = r.rollbacks
            recomputed[i] = r.recomputed_iterations
            injected[i] = r.fault is not None
        return cls(
            elapsed=elapsed,
            error=error,
            detected_counts=detected,
            corrected=corrected,
            uncorrected=uncorrected,
            rollbacks=rollbacks,
            recomputed=recomputed,
            injected=injected,
        )


@dataclass
class CampaignResult:
    """All run records of a campaign plus convenience summaries.

    The summaries are computed from columnar NumPy arrays built once per
    record count (:class:`_ResultColumns`); the ``records`` list remains
    the authoritative store and the arrays refresh automatically when
    records are appended.
    """

    config: CampaignConfig
    protector_name: str
    records: List[RunRecord] = field(default_factory=list)
    #: Per-batch strategy reports (engine campaigns only; the legacy
    #: serial loop leaves this empty).
    batch_strategies: List[BatchStrategy] = field(default_factory=list)

    def strategy_counts(self) -> dict:
        """Runs executed per strategy, e.g. ``{"stacked": 96, "replay": 4}``."""
        counts: dict = {}
        for batch in self.batch_strategies:
            counts[batch.strategy] = counts.get(batch.strategy, 0) + batch.width
        return counts

    def fallback_reasons(self) -> List[str]:
        """Distinct recorded reasons replay batches fell back, in order."""
        seen: List[str] = []
        for batch in self.batch_strategies:
            if batch.reason is not None and batch.reason not in seen:
                seen.append(batch.reason)
        return seen

    def columns(self) -> _ResultColumns:
        """Columnar arrays over the records (cached per record count)."""
        cached = getattr(self, "_columns", None)
        if cached is None or len(cached.elapsed) != len(self.records):
            cached = _ResultColumns.from_records(self.records)
            # Bypass dataclass field machinery: the cache is derived
            # state, not part of equality/repr.
            object.__setattr__(self, "_columns", cached)
        return cached

    # -- summaries -------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Per-run execution times in seconds (float64 array)."""
        return self.columns().elapsed

    def errors(self) -> np.ndarray:
        """Per-run arithmetic errors vs the reference (float64 array)."""
        return self.columns().error

    def time_stats(self) -> SummaryStats:
        return summarize(self.times())

    def error_stats(self) -> SummaryStats:
        return summarize(self.errors())

    def detection_rate(self) -> float:
        """Fraction of injected runs in which the fault was detected."""
        cols = self.columns()
        n_injected = int(cols.injected.sum())
        if n_injected == 0:
            return float("nan")
        hits = int(((cols.detected_counts > 0) & cols.injected).sum())
        return hits / n_injected

    def false_positive_rate(self) -> float:
        """Fraction of non-injected runs that still flagged an error."""
        cols = self.columns()
        clean = ~cols.injected
        n_clean = int(clean.sum())
        if n_clean == 0:
            return float("nan")
        flags = int(((cols.detected_counts > 0) & clean).sum())
        return flags / n_clean

    def total_rollbacks(self) -> int:
        return int(self.columns().rollbacks.sum())

    def __len__(self) -> int:
        return len(self.records)


def resolve_run_counters(protector: Protector, run_report) -> tuple:
    """The five per-run counters: protector statistics, run-report fallback.

    Protectors that expose cumulative counters (the ABFT protectors) are
    the authoritative source; a protector that does not expose a counter
    at all (e.g. :class:`~repro.core.protector.NoProtection`) falls back
    to the corresponding run-report total.  The distinction is made with
    a missing-attribute sentinel, **not** truthiness: a protector that
    legitimately counted zero keeps its zero instead of being silently
    overridden by the run report.
    """

    def pick(attr: str, fallback: int) -> int:
        value = getattr(protector, attr, None)
        return int(fallback) if value is None else int(value)

    return (
        pick("total_detections", run_report.total_detected),
        pick("total_corrections", run_report.total_corrected),
        pick("total_uncorrected", run_report.total_uncorrected),
        pick("total_rollbacks", run_report.total_rollbacks),
        pick("total_recomputed_iterations", run_report.total_recomputed_iterations),
    )


def crash_run_counters(runner) -> tuple:
    """Per-run counters of a distributed (fail-stop) campaign run.

    Returns the five classic counters (detections, corrections,
    uncorrected, rollbacks, recomputed iterations) followed by the two
    recovery-accounting extras (ranks rebuilt, checkpoint bytes).  The
    rollback/recompute slots are fed by the runner's
    :class:`~repro.parallel.simmpi.RecoveryStats` — for fail-stop runs
    the rollback *is* the checkpoint restore and the recomputation is
    the replayed iteration span, the distributed analogue of the serial
    offline-ABFT counters.
    """
    uncorrected = sum(
        r.protector.total_uncorrected
        for r in runner.ranks
        if r.protector is not None
    )
    stats = runner.recovery
    return (
        runner.total_detected(),
        runner.total_corrected(),
        int(uncorrected),
        stats.rollbacks,
        stats.replayed_iterations,
        stats.ranks_rebuilt,
        stats.checkpoint_bytes,
    )


def run_with_crashes(
    grid: GridBase,
    protector: Protector,
    plans: Sequence[FaultPlan],
    iterations: int,
    fault_model: FaultModel,
):
    """Execute one campaign run that includes fail-stop (crash) plans.

    Crash plans have no serial meaning — a single process cannot lose a
    rank — so the run is executed on the simulated distributed runner
    with buddy checkpointing auto-enabled, scattering the grid over
    ``fault_model.n_ranks`` ranks (default 2).  Domain plans in the same
    draw are mapped onto the owning ranks, so combined crash + SDC draws
    exercise detection, correction *and* recovery in one run.

    The serial ``protector`` is not stepped; it only selects the
    distributed protection mode: :class:`~repro.core.online.OnlineABFT`
    runs protected ranks (same per-rank configuration the runner builds
    everywhere else), :class:`~repro.core.protector.NoProtection` runs
    bare ranks.  Other protectors (e.g. offline ABFT) have no per-rank
    distributed counterpart and are rejected.

    Returns ``(elapsed_seconds, runner)``; pull the final domain from
    ``runner.gather()`` and the counters via :func:`crash_run_counters`.
    """
    from repro.core.online import OnlineABFT
    from repro.core.protector import NoProtection
    from repro.faults.models import DistributedFaultInjector
    from repro.parallel.simmpi import DistributedStencilRunner

    if isinstance(protector, OnlineABFT):
        protect = True
    elif isinstance(protector, NoProtection):
        protect = False
    else:
        raise ValueError(
            f"fail-stop campaign runs support the 'online-abft' and "
            f"'no-abft' protectors; got {getattr(protector, 'name', type(protector).__name__)!r}"
        )
    n_ranks = int(getattr(fault_model, "n_ranks", 2))
    runner = DistributedStencilRunner(
        grid,
        n_ranks=n_ranks,
        protect=protect,
        backend=getattr(protector, "backend", None),
    )
    injector = DistributedFaultInjector.from_global(runner, plans)
    start = time.perf_counter()
    runner.run(iterations, inject=injector)
    elapsed = time.perf_counter() - start
    return elapsed, runner


def compute_reference(grid_factory: GridFactory, iterations: int) -> np.ndarray:
    """Error-free reference solution (the paper's single-threaded run)."""
    grid = grid_factory()
    grid.run(iterations)
    return grid.u.copy()


def run_campaign(
    grid_factory: GridFactory,
    protector_factory: ProtectorFactory,
    config: CampaignConfig,
    reference: Optional[np.ndarray] = None,
) -> CampaignResult:
    """Execute a fault-injection campaign.

    Parameters
    ----------
    grid_factory:
        Zero-argument callable returning a *fresh* grid with identical
        initial conditions for every run.
    protector_factory:
        Callable building a fresh protector for a given grid (e.g.
        ``OnlineABFT.for_grid``).
    config:
        Campaign parameters.
    reference:
        Optional pre-computed error-free final domain; computed once via
        :func:`compute_reference` when omitted.

    Returns
    -------
    CampaignResult
    """
    if reference is None:
        reference = compute_reference(grid_factory, config.iterations)

    sample_grid = grid_factory()
    protector_name = getattr(protector_factory(sample_grid), "name", "protector")
    result = CampaignResult(config=config, protector_name=protector_name)

    # Warm-up run (not recorded): pays one-off costs (allocator growth,
    # lazy imports, CPU frequency ramp) outside the timed repetitions so
    # that the mean execution time is not skewed by the first run.
    warmup_protector = protector_factory(sample_grid)
    warmup_protector.run(sample_grid, min(3, config.iterations))

    fault_model = config.resolved_fault_model()
    for run_index in range(config.repetitions):
        grid = grid_factory()
        protector = protector_factory(grid)
        protector.reset()

        injector = None
        plan: Optional[FaultPlan] = None
        plans: List[FaultPlan] = []
        if config.inject:
            rng = np.random.default_rng(config.seed + run_index)
            plans = fault_model.draw(
                rng, grid.shape, config.iterations, dtype=grid.dtype
            )
            # MTBF-style models legitimately draw no fault for a run.
            plan = plans[0] if plans else None
            if any(p.target == "crash" for p in plans):
                # Fail-stop plans cannot fire in a serial run: execute on
                # the distributed runner with buddy-checkpoint recovery.
                elapsed, runner = run_with_crashes(
                    grid, protector, plans, config.iterations, fault_model
                )
                det, cor, unc, rb, rec, rebuilt, ck_bytes = (
                    crash_run_counters(runner)
                )
                result.records.append(
                    RunRecord(
                        run_index=run_index,
                        elapsed_seconds=elapsed,
                        arithmetic_error=l2_error(reference, runner.gather()),
                        fault=plan,
                        errors_detected=int(det),
                        errors_corrected=int(cor),
                        errors_uncorrected=int(unc),
                        rollbacks=int(rb),
                        recomputed_iterations=int(rec),
                        faults=plans,
                        ranks_rebuilt=int(rebuilt),
                        checkpoint_bytes=int(ck_bytes),
                    )
                )
                continue
            injector = make_injector(plans, protector)

        start = time.perf_counter()
        run_report = protector.run(grid, config.iterations, inject=injector)
        elapsed = time.perf_counter() - start

        detections, corrections, uncorrected, rollbacks, recomputed = (
            resolve_run_counters(protector, run_report)
        )

        record = RunRecord(
            run_index=run_index,
            elapsed_seconds=elapsed,
            arithmetic_error=l2_error(reference, grid.u),
            fault=plan,
            errors_detected=int(detections),
            errors_corrected=int(corrections),
            errors_uncorrected=int(uncorrected),
            rollbacks=int(rollbacks),
            recomputed_iterations=int(recomputed),
            faults=plans,
        )
        result.records.append(record)
    return result
