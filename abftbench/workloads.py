"""The benchmark's three closed-loop workloads.

Each workload drives the library only through its public API and owns
its correctness rules.  The harness calls, in order: ``setup()`` (several
times, timed), ``legs()``, ``on_round(r)`` after every round, and
``finish()`` once timing is over.

* ``hotspot3d`` -- the paper's Figure 8 overhead on its large tile
  (HotSpot3D 512x512x8 float32, error-free).  Almost all time is backend
  steps and clean-path verification; fault, parallel and correction
  layers stay idle.
* ``campaign`` -- a Figure 10-style campaign on the paper's small tile
  (64x64x8, 128 iterations, one uniformly random bit flip per run) on the
  serial engine.  Per-run dispatch, batched kernels, correction,
  injection and checkpoint rollback dominate.
* ``distributed`` -- 4 simulated ranks on a 2D 1024^2 five-point
  diffusion grid with buddy checkpointing and one seeded rank crash per
  128-iteration window: the only workload that exercises ``parallel``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from harness import Leg
from yardstick import Sweep2D5, Sweep3D7

from repro import OfflineABFT, OnlineABFT
from repro.apps.hotspot3d import HotSpot3D, HotSpot3DConfig
from repro.backends.base import interpreted_step_counts
from repro.core.protector import NoProtection
from repro.faults.campaign import CampaignConfig, compute_reference
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultPlan
from repro.faults.models import DistributedFaultInjector
from repro.metrics.accuracy import relative_l2_error
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

__all__ = ["WORKLOADS", "REL_L2_TOLERANCE"]

#: A run whose final state is further than this (relative l2) from the
#: fault-free reference has failed.  Sub-threshold flips land well below.
REL_L2_TOLERANCE = 1e-4
#: The yardstick accumulates in float32 in its own order; it must stay
#: this close (relative l2) to the library's trajectory.
YARDSTICK_TOLERANCE = 1e-5


def interpreted_steps() -> int:
    return sum(interpreted_step_counts().values())


def stencil_cost(cells: int, npoints: int, itemsize: int, constant: bool) -> Tuple[float, float]:
    """Computed (not measured) bytes moved and ops per byte of one sweep.

    One read of the source and one write of the destination per cell
    (plus one read of the constant term); ``npoints`` multiplies and
    ``npoints - 1`` adds per cell (plus one add of the constant).
    """
    streams = 2 + (1 if constant else 0)
    nbytes = float(cells * itemsize * streams)
    ops = float(cells * (2 * npoints - 1 + (1 if constant else 0)))
    return nbytes, ops / nbytes


class Workload:
    """Common bookkeeping: operations attempted/failed and named checks."""

    name = ""
    #: Rounds per checked window; the timed rounds are a whole number of them.
    window = 1
    #: Rounds over which the exact counts are taken (always completed).
    count_rounds = 1
    #: ``yardstick.setup_job`` arguments ``(shape, steps, batch)``: a job
    #: shaped like this workload's set-up, timed beside every set-up.
    setup_job: tuple = ()
    #: Median seconds of that job on the 2-CPU x86-64 host the benchmark
    #: was defined on; ``setup_s`` is set-up time over job time, times this.
    setup_job_reference_s = 1.0
    #: Seconds of one untraced round on that host; a run makes
    #: ``--seconds`` over this many rounds, in whole blocks.
    round_reference_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: Dict[str, object] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def teardown(self) -> None:
        """Drop the previous setup's state before the next one is built."""
        for key in list(vars(self)):
            if key.startswith("_s_"):
                delattr(self, key)

    def unit_latencies(self, timings, leg: str) -> List[Tuple[int, float]]:
        """``(round, seconds)`` per operation of ``leg`` (default: per unit)."""
        return [(r, timings.seconds[leg][r]) for r in timings.untraced_rounds()]


# ---------------------------------------------------------------------------
class HotSpot3DWorkload(Workload):
    name = "hotspot3d"
    #: One offline detection period per window; window checks are the
    #: operations of this workload.
    window = 16
    count_rounds = 16
    setup_job = ((512, 512, 8), 4, 0)
    setup_job_reference_s = 0.27
    round_reference_s = 0.24

    def setup(self) -> None:
        self.teardown()
        app = HotSpot3D(HotSpot3DConfig(nx=512, ny=512, nz=8, seed=self.seed))
        c = app.coefficients
        self._s_app = app
        self._s_yard = Sweep3D7(
            app.initial_temperature, c["cc"], c["cw"], c["ce"], c["cn"],
            c["cs"], c["cb"], c["ct"], constant=app.constant,
        )
        self._s_grids = {leg: app.build_grid() for leg in ("unprotected", "unprotected_aa", "online", "offline")}
        self._s_online = OnlineABFT.for_grid(self._s_grids["online"])
        self._s_offline = OfflineABFT.for_grid(self._s_grids["offline"], period=16)
        # Backend warm-up: one untimed step of every leg.
        for leg in self.legs():
            leg.step()
        self.cells = int(np.prod(app.shape))
        self.bytes_per_step, self.ops_per_byte = stencil_cost(
            self.cells, app.spec.npoints, np.dtype(app.config.dtype).itemsize, True
        )
        self.working_set_bytes = int(
            sum(2 * g.u.nbytes for g in self._s_grids.values())
            + 2 * self._s_yard.u.nbytes + app.constant.nbytes
        )

    def legs(self) -> List[Leg]:
        g = self._s_grids
        cells = float(np.prod(self._s_app.shape))
        online, offline = self._s_online, self._s_offline
        return [
            Leg("yardstick", self._s_yard.step, cells, library=False),
            Leg("unprotected", g["unprotected"].step, cells),
            Leg("unprotected_aa", g["unprotected_aa"].step, cells),
            Leg("online", lambda: online.step(g["online"]), cells),
            Leg("offline", lambda: offline.step(g["offline"]), cells),
        ]

    def on_round(self, r: int) -> None:
        if (r + 1) % self.window:
            return
        g = self._s_grids
        ref = g["unprotected"].u
        self.check("unprotected A/A leg equals unprotected bitwise", np.array_equal(g["unprotected_aa"].u, ref))
        for leg, prot in (("online", self._s_online), ("offline", self._s_offline)):
            self.attempted += 1
            ok = (
                bool(np.all(np.isfinite(g[leg].u)))
                and np.array_equal(g[leg].u, ref)
                and prot.total_detections == 0
                and getattr(prot, "total_rollbacks", 0) == 0
            )
            self.check(f"{leg} state equals unprotected bitwise, zero detections", ok)
            self.failed += 0 if ok else 1

    def counts(self) -> Dict[str, float]:
        on, off = self._s_online, self._s_offline
        iters = sum(self._s_grids[leg].iteration for leg in ("online", "offline"))
        return {
            "core.detections": on.total_detections + off.total_detections,
            "core.corrections": on.total_corrections,
            "core.uncorrected": on.total_uncorrected,
            "core.metadata_repairs": on.total_metadata_repairs + off.total_metadata_repairs,
            "checkpoint.rollbacks": off.total_rollbacks,
            "checkpoint.recomputed_iterations": off.total_recomputed_iterations,
            "backends.interpreted_steps": interpreted_steps(),
            "_iterations": iters,
        }

    def finish(self) -> None:
        g = self._s_grids
        err = relative_l2_error(g["unprotected"].u, self._s_yard.u)
        self.notes["yardstick_rel_l2"] = err
        self.check("yardstick tracks the library within tolerance", err <= YARDSTICK_TOLERANCE)


# ---------------------------------------------------------------------------
class CampaignWorkload(Workload):
    name = "campaign"
    iterations = 128
    #: Runs per chunk (one leg unit).  Small chunks keep the legs of a
    #: round close in time, which is what makes their ratios steady.
    chunk_runs = {"yardstick": 4, "unprotected": 8, "online": 16, "offline": 4}
    #: Runs per ``CampaignEngine.run`` call: a whole stacked batch where
    #: the engine stacks, single runs where it replays run by run anyway,
    #: so that every run's latency is measured.  The online chunk holds two
    #: batches, doubling the samples behind its tail latency.
    dispatch_runs = {"unprotected": 8, "online": 8, "offline": 1}
    count_rounds = 2
    setup_job = ((64, 64, 8), 64, 4)
    setup_job_reference_s = 0.16
    round_reference_s = 2.05

    def setup(self) -> None:
        self.teardown()
        app = HotSpot3D(HotSpot3DConfig(nx=64, ny=64, nz=8, seed=self.seed))
        self._s_app = app
        self._s_reference = compute_reference(app.build_grid, self.iterations)
        self._s_norm = float(np.sqrt(np.sum(self._s_reference.astype(np.float64) ** 2)))
        c = app.coefficients
        # Batched like the engine's stacked path: one run per trailing slot.
        self._s_yard = Sweep3D7(
            app.initial_temperature, c["cc"], c["cw"], c["ce"], c["cn"],
            c["cs"], c["cb"], c["ct"], constant=app.constant,
            batch=self.chunk_runs["yardstick"],
        )
        self._s_engine = CampaignEngine(executor="serial")
        self._s_factories = {
            "unprotected": _no_protection,
            "online": OnlineABFT.for_grid,
            "offline": OfflineABFT.for_grid,
        }
        self._s_chunk = {leg: 0 for leg in self.chunk_runs}
        #: Per dispatch: (chunk, records or None if it raised, stacked runs, runs).
        self._s_records: Dict[str, list] = {leg: [] for leg in self._s_factories}
        #: Per dispatch: (chunk, seconds per run).
        self._s_latency: Dict[str, list] = {leg: [] for leg in self._s_factories}
        # Warm-up: one single-run campaign per leg builds the engine's
        # persistent worker state; its record is kept to check that the
        # first timed chunk (batch width > 1) reproduces it bitwise.
        self._s_probe = {
            leg: self._campaign(leg, seed=self._chunk_seed(0), runs=1).records[0]
            for leg in self._s_factories
        }
        self.cells = int(np.prod(app.shape))
        self.bytes_per_step, self.ops_per_byte = stencil_cost(
            self.cells, app.spec.npoints, np.dtype(app.config.dtype).itemsize, True
        )
        self.working_set_bytes = int(
            2 * self.dispatch_runs["online"] * self._s_reference.nbytes
            + 2 * self._s_yard.u.nbytes
        )

    def _chunk_seed(self, chunk: int) -> int:
        return self.seed * 1_000_003 + chunk * 64

    def _campaign(self, leg: str, seed: int, runs: int):
        config = CampaignConfig(iterations=self.iterations, repetitions=runs, seed=seed)
        return self._s_engine.run(
            self._s_app.build_grid, self._s_factories[leg], config,
            reference=self._s_reference,
        )

    def _yard_chunk(self) -> None:
        self._s_yard.load(self._s_app.initial_temperature)
        for _ in range(self.iterations):
            self._s_yard.step()

    def _leg_chunk(self, leg: str) -> None:
        chunk = self._s_chunk[leg]
        self._s_chunk[leg] += 1
        per_call = self.dispatch_runs[leg]
        for start in range(0, self.chunk_runs[leg], per_call):
            t0 = time.perf_counter()
            try:
                result = self._campaign(leg, self._chunk_seed(chunk) + start, per_call)
            except Exception as exc:  # an operation that raises has failed
                self.notes.setdefault("errors", []).append(f"{leg}: {exc!r}")
                self._s_records[leg].append((chunk, None, 0, per_call))
                continue
            self._s_latency[leg].append((chunk, (time.perf_counter() - t0) / per_call))
            stacked = result.strategy_counts().get("stacked", 0)
            self._s_records[leg].append((chunk, result.records, stacked, per_call))

    def legs(self) -> List[Leg]:
        per_run = float(self.cells * self.iterations)
        legs = [Leg("yardstick", self._yard_chunk, per_run * self.chunk_runs["yardstick"], library=False)]
        for leg in self._s_factories:
            legs.append(Leg(leg, (lambda leg=leg: self._leg_chunk(leg)), per_run * self.chunk_runs[leg]))
        return legs

    def run_failed(self, rec) -> bool:
        """The failure rule for one protected run."""
        rel = rec.arithmetic_error / self._s_norm
        if not math.isfinite(rel) or rel > REL_L2_TOLERANCE:
            return True
        if not rec.faults and rec.errors_detected > 0:
            return True  # a clean run with a detection
        if rec.rollbacks > 0 and rec.arithmetic_error != 0.0:
            return True  # recovered, yet not bitwise the failure-free run
        return False

    def on_round(self, r: int) -> None:
        if r == 0:
            self._check_first_round()

    def _check_first_round(self) -> None:
        yard_err = max(
            relative_l2_error(self._s_reference, self._s_yard.u[..., slot])
            for slot in range(self.chunk_runs["yardstick"])
        )
        self.notes["yardstick_rel_l2"] = yard_err
        self.check("yardstick tracks the library within tolerance", yard_err <= YARDSTICK_TOLERANCE)
        for leg, probe in self._s_probe.items():
            records = self._s_records[leg][0][1]
            same = records is not None and _record_key(records[0]) == _record_key(probe)
            self.check("records are independent of batch width (bitwise)", same)

    def _records(self, leg: str) -> list:
        return [rec for _c, recs, _s, _n in self._s_records[leg] if recs is not None for rec in recs]

    def counts(self) -> Dict[str, float]:
        protected = self._records("online") + self._records("offline")
        corrected = [r for r in self._records("online") if r.errors_corrected > 0]
        return {
            "core.detections": sum(r.errors_detected for r in protected),
            "core.corrections": sum(r.errors_corrected for r in protected),
            "core.uncorrected": sum(r.errors_uncorrected for r in protected),
            "checkpoint.rollbacks": sum(r.rollbacks for r in protected),
            "checkpoint.recomputed_iterations": sum(r.recomputed_iterations for r in protected),
            "backends.interpreted_steps": interpreted_steps(),
            "_iterations": len(protected) * self.iterations,
            "_corrected_runs": len(corrected),
            "_corrected_ok_runs": sum(not self.run_failed(r) for r in corrected),
            "_stacked_runs": sum(st for leg in self._s_factories for _c, _r, st, _n in self._s_records[leg]),
            "_all_runs": sum(len(self._records(leg)) for leg in self._s_factories),
        }

    def finish(self) -> None:
        for leg in ("online", "offline"):
            for _chunk, recs, _stacked, runs in self._s_records[leg]:
                if recs is None:
                    self.attempted += runs
                    self.failed += runs
                    continue
                for rec in recs:
                    self.attempted += 1
                    self.failed += int(self.run_failed(rec))
        for _chunk, recs, _stacked, _runs in self._s_records["unprotected"]:
            ok = recs is not None and all(r.errors_detected == 0 for r in recs)
            self.check("unprotected runs report no detections", ok)
        every = [rec for leg in self._s_factories for rec in self._records(leg)]
        self.check("every run carries exactly one fault", all(len(r.faults) == 1 for r in every))

    def unit_latencies(self, timings, leg: str) -> List[Tuple[int, float]]:
        """Per-run latency of each dispatch; the runs of a stacked batch
        all end with the batch, so they share its mean."""
        untraced = set(timings.untraced_rounds())
        if leg == "yardstick":
            runs = self.chunk_runs[leg]
            return [(r, timings.seconds[leg][r] / runs) for r in sorted(untraced)]
        return [(chunk, sec) for chunk, sec in self._s_latency[leg] if chunk in untraced]


def _no_protection(grid):
    return NoProtection()


def _record_key(rec) -> tuple:
    return (
        rec.arithmetic_error, rec.errors_detected, rec.errors_corrected,
        rec.errors_uncorrected, rec.rollbacks, rec.recomputed_iterations,
    )


# ---------------------------------------------------------------------------
class DistributedWorkload(Workload):
    name = "distributed"
    size = 1024
    ranks = 4
    window = 128
    period = 16
    count_rounds = 128
    setup_job = ((1024, 1024), 8, 0)
    setup_job_reference_s = 0.058
    round_reference_s = 0.031

    def setup(self) -> None:
        self.teardown()
        rng = np.random.default_rng(self.seed)
        initial = (rng.random((self.size, self.size)) * 100.0).astype(np.float32)
        spec = five_point_diffusion(0.2)

        def grid():
            return Grid2D(initial, spec, BoundaryCondition.clamp())

        self._s_yard = Sweep2D5(initial, 0.2)
        self._s_runners = {
            "unprotected": DistributedStencilRunner(grid(), n_ranks=self.ranks, protect=False),
            # Per-rank OnlineABFT plus buddy checkpointing.
            "online": DistributedStencilRunner(
                grid(), n_ranks=self.ranks, protect=True, checkpoint_period=self.period
            ),
            # The runner has no per-rank offline protector, yet every run
            # reports every end-to-end metric: this leg is offline's
            # recovery half alone -- buddy checkpoints and rollback,
            # without checksum verification.
            "offline": DistributedStencilRunner(
                grid(), n_ranks=self.ranks, protect=False, checkpoint_period=self.period
            ),
        }
        self._s_crash = (-1, 0)
        for leg in self.legs():
            leg.step()
        self._s_start = self._s_runners["online"].iteration
        self._schedule_crash(0)
        self.cells = self.size * self.size
        self.bytes_per_step, self.ops_per_byte = stencil_cost(self.cells, spec.npoints, 4, False)
        self.working_set_bytes = int(
            sum(2 * r.gather().nbytes for r in self._s_runners.values())
            + 2 * self._s_yard.u.nbytes
        )

    def _schedule_crash(self, window: int) -> None:
        """One seeded crash (iteration, victim rank) inside ``window``."""
        rng = np.random.default_rng([self.seed, window])
        start = self._s_start + window * self.window
        self._s_crash = (start + int(rng.integers(2, self.window + 1)), int(rng.integers(0, self.ranks)))

    def _protected_step(self, leg: str) -> None:
        runner = self._s_runners[leg]
        crash_at, victim = self._s_crash
        if runner.iteration + 1 != crash_at:
            runner.step()
            return
        per_rank = [[] for _ in range(self.ranks)]
        per_rank[victim] = [FaultPlan(iteration=crash_at, index=(), bit=0, target="crash", rank=victim)]
        runner.step(inject=DistributedFaultInjector(runner, per_rank))

    def legs(self) -> List[Leg]:
        cells = float(self.size * self.size)
        r = self._s_runners
        return [
            Leg("yardstick", self._s_yard.step, cells, library=False),
            Leg("unprotected", lambda: r["unprotected"].step(), cells),
            Leg("online", lambda: self._protected_step("online"), cells),
            Leg("offline", lambda: self._protected_step("offline"), cells),
        ]

    def on_round(self, r: int) -> None:
        if (r + 1) % self.window:
            return
        window = (r + 1) // self.window - 1
        ref = self._s_runners["unprotected"].gather()
        for leg in ("online", "offline"):
            runner = self._s_runners[leg]
            self.attempted += 1
            state = runner.gather()
            ok = (
                bool(np.all(np.isfinite(state)))
                and np.array_equal(state, ref)
                and runner.total_detected() == 0
                and runner.recovery.rank_failures == window + 1
            )
            self.check("recovered state equals the failure-free state bitwise", ok)
            self.failed += 0 if ok else 1
        self._schedule_crash(window + 1)

    def counts(self) -> Dict[str, float]:
        on, off = self._s_runners["online"], self._s_runners["offline"]
        traffic = on.channel.traffic()
        msgs, nbytes = traffic["messages_by_tag"], traffic["bytes_by_tag"]
        prot = [rank.protector for rank in on.ranks if rank.protector is not None]
        return {
            "core.detections": on.total_detected(),
            "core.corrections": on.total_corrected(),
            "core.uncorrected": sum(p.total_uncorrected for p in prot),
            "core.metadata_repairs": sum(p.total_metadata_repairs for p in prot),
            "checkpoint.rollbacks": on.recovery.rollbacks + off.recovery.rollbacks,
            "checkpoint.recomputed_iterations": on.recovery.replayed_iterations + off.recovery.replayed_iterations,
            "parallel.replayed_iterations": on.recovery.replayed_iterations,
            "backends.interpreted_steps": interpreted_steps(),
            "_halo_messages": msgs.get("to_lo", 0) + msgs.get("to_hi", 0),
            "_halo_bytes": nbytes.get("to_lo", 0) + nbytes.get("to_hi", 0),
            "_ckpt_bytes": nbytes.get("ckpt", 0) + nbytes.get("ckpt_meta", 0),
            "_iterations": on.iteration + off.iteration,
            "_online_iterations": on.iteration,
        }

    def finish(self) -> None:
        ref = self._s_runners["unprotected"].gather()
        err = relative_l2_error(ref, self._s_yard.u)
        self.notes["yardstick_rel_l2"] = err
        self.check("yardstick tracks the library within tolerance", err <= YARDSTICK_TOLERANCE)
        stats = [self._s_runners[leg].recovery for leg in ("online", "offline")]
        failures = sum(s.rank_failures for s in stats)
        self.notes["recovery_ms"] = (
            1e3 * sum(s.recovery_seconds for s in stats) / failures if failures else 0.0
        )


WORKLOADS = {
    "hotspot3d": HotSpot3DWorkload,
    "campaign": CampaignWorkload,
    "distributed": DistributedWorkload,
}
