"""ABFT stencil benchmark: one closed-loop workload per invocation.

Usage (from the repository root)::

    python3 abftbench/run.py --workload hotspot3d --seed 0 --seconds 30 --trace 0

``--trace 0`` times the legs untraced and prints the end-to-end metrics.
Every timed one is a ratio against plain-NumPy work timed in the same
process; ``setup_s`` too is set-up time over a set-up-like NumPy job,
expressed in seconds of that job on the machine the benchmark was defined
on (``Workload.setup_job_reference_s``).  A run makes a fixed number of
rounds, as many as take ``--seconds`` on that machine
(``Workload.round_reference_s``), so the same seed and seconds give the
same operations and the same failures.  ``--trace 1`` alternates traced
and untraced rounds, prints the per-layer metrics and writes a Chrome
trace-event file to ``.bench_out/``.  Every run checks the program's
outputs; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when a check fails (2, with no result, when the library sources are
missing).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setups timed per run, each beside one run of the workload's set-up
#: yardstick job (before it in even repeats, after it in odd ones).
SETUP_REPEATS = 10
#: Rounds either side whose yardstick median normalises a tail latency.
P95_NEIGHBOURS = 8
#: The in-run A/A leg (identical code timed twice) must agree within the
#: bound this end-to-end metric is given in BENCHMARK.json.
AA_METRIC = "online_overhead_ratio"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["hotspot3d", "campaign", "distributed"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def metric_bound(name: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def import_library():
    """Put the library and the benchmark modules on the path and import them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: library sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro  # noqa: F401


# ---------------------------------------------------------------------------
def check_yardstick() -> None:
    """The frozen yardstick must agree with the library's loop oracle."""
    import numpy as np

    from repro.apps.hotspot3d import HotSpot3D, HotSpot3DConfig
    from repro.stencil.boundary import BoundaryCondition
    from repro.stencil.kernels import five_point_diffusion
    from repro.stencil.reference import reference_sweep
    from yardstick import Sweep2D5, Sweep3D7

    app = HotSpot3D(HotSpot3DConfig(nx=9, ny=7, nz=4, seed=1))
    c = app.coefficients
    yard = Sweep3D7(app.initial_temperature, c["cc"], c["cw"], c["ce"], c["cn"],
                    c["cs"], c["cb"], c["ct"], constant=app.constant)
    u = app.initial_temperature
    cases = []
    for _ in range(3):
        u = reference_sweep(u, app.spec, app.boundary, constant=app.constant)
        yard.step()
    cases.append(("3D 7-point", u, yard.u))
    u2 = np.random.default_rng(1).random((11, 8)).astype(np.float32) * 100
    yard2 = Sweep2D5(u2, 0.2)
    for _ in range(3):
        u2 = reference_sweep(u2, five_point_diffusion(0.2), BoundaryCondition.clamp())
        yard2.step()
    cases.append(("2D 5-point", u2, yard2.u))
    for name, ref, got in cases:
        tol = 16 * np.finfo(np.float32).eps * float(np.max(np.abs(ref)))
        err = float(np.max(np.abs(ref.astype(np.float64) - got)))
        if not err <= tol:
            sys.stderr.write(
                f"error: {name} yardstick differs from stencil/reference.py by {err:.3g} > {tol:.3g}\n"
            )
            raise SystemExit(1)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, workload) -> dict:
    import numpy as np

    from repro import available_backends
    from repro.backends import get_backend

    def sysconf(name):
        try:
            value = os.sysconf(name)
        except (ValueError, OSError):
            return None
        return value if value and value > 0 else None

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends_available": list(available_backends()),
        "backend": get_backend().name,
        "l2_cache_bytes": sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": sysconf("SC_LEVEL3_CACHE_SIZE"),
        "workload": workload.name,
        "working_set_bytes": workload.working_set_bytes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
def e2e_metrics(workload, legs, timings, setup_s) -> dict:
    import numpy as np

    median = statistics.median
    work = {leg.name: leg.work for leg in legs}
    t = timings.seconds
    rounds = timings.untraced_rounds()

    def speed(leg):
        return median([(work[leg] / t[leg][r]) / (work["yardstick"] / t["yardstick"][r]) for r in rounds])

    def overhead(leg):
        return median([
            (t[leg][r] / work[leg]) / (t["unprotected"][r] / work["unprotected"]) for r in rounds
        ])

    # Tail latencies are normalised by the median yardstick unit of the
    # surrounding rounds, so slow drifts of machine speed cancel.
    yard = dict(workload.unit_latencies(timings, "yardstick"))
    yard_rounds = sorted(yard)

    def local_yard(r):
        near = [yard[q] for q in yard_rounds if abs(q - r) <= P95_NEIGHBOURS]
        return median(near)

    def p95(leg):
        samples = [sec / local_yard(r) for r, sec in workload.unit_latencies(timings, leg)]
        workload.notes[f"p95_samples_{leg}"] = len(samples)
        return float(np.percentile(samples, 95))

    attempted = max(1, workload.attempted)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "unprotected_vs_numpy_speed": (speed("unprotected"), "ratio"),
        "online_vs_numpy_speed": (speed("online"), "ratio"),
        "offline_vs_numpy_speed": (speed("offline"), "ratio"),
        "online_overhead_ratio": (overhead("online"), "ratio"),
        "offline_overhead_ratio": (overhead("offline"), "ratio"),
        "online_p95_vs_numpy": (p95("online"), "ratio"),
        "offline_p95_vs_numpy": (p95("offline"), "ratio"),
        "run_success_share": (1.0 - workload.failed / attempted, "share"),
    }


def layer_metrics(workload, legs, timings, tracer, counts0, counts1, setups) -> dict:
    s = tracer.summary()

    def per_call(name, field="total_ms", per="calls"):
        entry = s.get(name)
        return entry[field] / entry[per] if entry and entry[per] else 0.0

    def total(name):
        return s.get(name, {}).get("total_ms", 0.0)

    d = {k: counts1.get(k, 0) - counts0.get(k, 0) for k in set(counts0) | set(counts1)}
    iters, recomputed = d.get("_iterations", 0), d.get("checkpoint.recomputed_iterations", 0)
    ckpt_events = s.get("parallel.snapshot_interior", {}).get("calls", 0)
    corrections = s.get("core.correct", {}).get("calls", 0)
    online_iters = d.get("_online_iterations", 0)

    # Tracing overhead: traced over untraced library time, per round pair.
    t = timings.seconds
    lib = [leg.name for leg in legs if leg.library]
    ratios = []
    for first in range(0, timings.rounds - 1, 2):
        pair = (first, first + 1)
        traced = [r for r in pair if timings.traced[r]]
        plain = [r for r in pair if not timings.traced[r]]
        if traced and plain:
            ratios.append(sum(t[leg][traced[0]] for leg in lib) / sum(t[leg][plain[0]] for leg in lib))
    cover = tracer.coverage_ns()

    def coverage(leg):
        if leg not in t:
            return 0.0
        rounds = [r for r in range(timings.rounds) if timings.traced[r]]
        spent = sum(t[leg][r] for r in rounds)
        return sum(cover.get((r, leg), 0) for r in rounds) / 1e9 / spent if spent else 0.0

    return {
        "backends.step_ms": (per_call("backends.step"), "ms"),
        "backends.step_cs_ms": (per_call("backends.step_cs"), "ms"),
        "backends.batch_step_ms": (per_call("backends.batch_step", per="units"), "ms"),
        "backends.batch_step_cs_ms": (per_call("backends.batch_step_cs", per="units"), "ms"),
        "backends.checksum_ms": (per_call("backends.checksum"), "ms"),
        "backends.interpreted_steps": (d.get("backends.interpreted_steps", 0), "count"),
        "backends.bytes_per_step": (workload.bytes_per_step, "B"),
        "backends.ops_per_byte": (workload.ops_per_byte, "op/B"),
        "stencil.refresh_ms": (per_call("stencil.refresh"), "ms"),
        "core.process_ms": (per_call("core.process", "self_ms"), "ms"),
        "core.interpolate_ms": (per_call("core.interpolate"), "ms"),
        "core.detect_ms": (per_call("core.detect"), "ms"),
        "core.correct_ms": (
            (total("core.match") + total("core.correct")) / corrections if corrections else 0.0, "ms"
        ),
        "core.detections": (d.get("core.detections", 0), "count"),
        "core.corrections": (d.get("core.corrections", 0), "count"),
        "core.uncorrected": (d.get("core.uncorrected", 0), "count"),
        "core.metadata_repairs": (d.get("core.metadata_repairs", 0), "count"),
        "core.correction_success_share": (
            d["_corrected_ok_runs"] / d["_corrected_runs"] if d.get("_corrected_runs") else 0.0, "share"
        ),
        "checkpoint.save_ms": (per_call("checkpoint.save"), "ms"),
        "checkpoint.rollback_ms": (per_call("checkpoint.rollback"), "ms"),
        "checkpoint.rollbacks": (d.get("checkpoint.rollbacks", 0), "count"),
        "checkpoint.recomputed_iterations": (recomputed, "count"),
        "checkpoint.useful_iteration_share": (iters / (iters + recomputed) if iters else 0.0, "share"),
        "faults.engine_self_ms": (per_call("faults.engine_run", "self_ms"), "ms"),
        "faults.inject_ms": (per_call("faults.inject"), "ms"),
        "faults.draw_plans_ms": (per_call("faults.draw_plans"), "ms"),
        "faults.stacked_share": (
            d["_stacked_runs"] / d["_all_runs"] if d.get("_all_runs") else 0.0, "share"
        ),
        "parallel.send_ms": (per_call("parallel.send"), "ms"),
        "parallel.recv_ms": (per_call("parallel.recv"), "ms"),
        "parallel.runner_self_ms": (per_call("parallel.runner_step", "self_ms"), "ms"),
        "parallel.halo_messages_per_step": (d.get("_halo_messages", 0) / online_iters if online_iters else 0.0, "count"),
        "parallel.halo_bytes_per_step": (d.get("_halo_bytes", 0) / online_iters if online_iters else 0.0, "B"),
        "parallel.ckpt_bytes_per_step": (d.get("_ckpt_bytes", 0) / online_iters if online_iters else 0.0, "B"),
        "parallel.checkpoint_ms": (
            (total("parallel.state_snapshot") + total("parallel.snapshot_interior")) / ckpt_events
            if ckpt_events else 0.0,
            "ms",
        ),
        "parallel.recovery_ms": (workload.notes.get("recovery_ms", 0.0), "ms"),
        "parallel.replayed_iterations": (d.get("parallel.replayed_iterations", 0), "count"),
        "apps.build_ms": ((total("apps.build") + total("apps.build_grid")) / setups, "ms"),
        "core.protector_init_ms": (total("core.protector_init") / setups, "ms"),
        "trace.overhead_ratio": (statistics.median(ratios), "ratio"),
        "trace.coverage_unprotected": (coverage("unprotected"), "share"),
        "trace.coverage_online": (coverage("online"), "share"),
        "trace.coverage_offline": (coverage("offline"), "share"),
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    check_yardstick()

    from harness import interleave
    from tracing import Tracer
    from workloads import WORKLOADS
    from yardstick import setup_job

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    # Set-up time is normalised like every other timed metric: each set-up
    # is divided by a plain-NumPy job of the same kind timed next to it, so
    # that the speed of the machine at that moment cancels.
    def timed(fn, *args) -> float:
        gc.collect()
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0

    setup_times, job_times = [], []
    for i in range(SETUP_REPEATS):
        workload.teardown()
        if i % 2:
            setup_times.append(timed(workload.setup))
            job_times.append(timed(setup_job, *workload.setup_job))
        else:
            job_times.append(timed(setup_job, *workload.setup_job))
            setup_times.append(timed(workload.setup))
    if tracer is not None:
        tracer.uninstall()
    setup_s = workload.setup_job_reference_s * statistics.median(
        s / j for s, j in zip(setup_times, job_times)
    )

    legs = workload.legs()
    counts = [workload.counts(), None]

    def on_round(r):
        workload.on_round(r)
        if r == workload.count_rounds - 1:
            counts[1] = workload.counts()

    t0 = time.perf_counter()
    timings = interleave(
        legs,
        args.seconds / workload.round_reference_s,
        min_rounds=workload.count_rounds,
        round_multiple=workload.window,
        on_round=on_round,
        set_window=tracer.set_window if tracer else None,
        trace_toggle=tracer.toggle if tracer else None,
    )
    timed_s = time.perf_counter() - t0
    workload.finish()

    aa = None
    if "unprotected_aa" in timings.seconds:
        t = timings.seconds
        aa = statistics.median(t["unprotected_aa"][r] / t["unprotected"][r] for r in timings.untraced_rounds())
        bound = metric_bound(AA_METRIC)
        workload.check(f"A/A leg within 1 +/- {bound} of the unprotected leg", abs(aa - 1.0) <= bound)

    if tracer is None:
        metrics = e2e_metrics(workload, legs, timings, setup_s)
    else:
        metrics = layer_metrics(workload, legs, timings, tracer, counts[0], counts[1], SETUP_REPEATS)

    prov = provenance(args, workload)
    print(f"workload {workload.name}: {timings.rounds} rounds in {timed_s:.1f} s, "
          f"units per leg {len(timings.untraced_rounds())} untraced")
    print("setup_times_s " + " ".join(f"{x:.4f}" for x in setup_times))
    print("setup_job_times_s " + " ".join(f"{x:.4f}" for x in job_times))
    if aa is not None:
        print(f"aa_ratio {aa:.4f} (unprotected A/A leg over unprotected leg)")
    for name, value in sorted(workload.notes.items()):
        print(f"note {name} = {value}")
    for name, ok in workload.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"operations attempted {workload.attempted}, failed {workload.failed}, "
          f"failed_run_share {workload.failed / max(1, workload.attempted):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome(path, prov)
        print(f"trace written to {path.relative_to(ROOT)}")

    correct = bool(workload.checks) and all(workload.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
