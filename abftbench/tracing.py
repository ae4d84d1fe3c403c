"""Span tracing of the library's layers, from the benchmark side.

The library has no spans of its own, so the traced run wraps its public
functions and methods for the duration of a traced round and unwraps
them afterwards.  Spans are kept in memory as ``[name, start_ns, end_ns,
parent, window]`` (``window`` is ``(round, leg)`` or ``"setup"``) and
written out as Chrome trace-event JSON at exit; a span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS"]

#: (module, attribute, span name, units).  ``Class.method`` attributes are
#: wrapped on the class and on every loaded subclass overriding them;
#: module functions are wrapped in every ``repro`` module that imported
#: them by name.  ``units(args)`` gives the work items of one call (the
#: run slots of a batched step) when it is not 1.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.backends.base", "Backend.step_into", "backends.step", None),
    ("repro.backends.base", "Backend.step_into_with_checksums", "backends.step_cs", None),
    (
        "repro.backends.base",
        "Backend.batch_step_into",
        "backends.batch_step",
        lambda args: args[1].shape[-1],
    ),
    (
        "repro.backends.base",
        "Backend.batch_step_into_with_checksums",
        "backends.batch_step_cs",
        lambda args: args[1].shape[-1],
    ),
    ("repro.backends.base", "Backend.checksum", "backends.checksum", None),
    ("repro.stencil.shift", "refresh_ghosts", "stencil.refresh", None),
    ("repro.core.online", "OnlineABFT.process", "core.process", None),
    ("repro.core.interpolation", "interpolate_checksum_padded", "core.interpolate", None),
    ("repro.core.detection", "detect_errors", "core.detect", None),
    ("repro.core.correction", "match_detections", "core.match", None),
    ("repro.core.correction", "correct_errors", "core.correct", None),
    ("repro.checkpoint.store", "InMemoryCheckpointStore.save", "checkpoint.save", None),
    ("repro.checkpoint.recovery", "rollback_and_recompute", "checkpoint.rollback", None),
    ("repro.faults.engine", "CampaignEngine.run", "faults.engine_run", None),
    ("repro.faults.engine", "draw_fault_plans", "faults.draw_plans", None),
    ("repro.faults.injector", "FaultInjector.__call__", "faults.inject", None),
    ("repro.parallel.simmpi", "SimChannel.send", "parallel.send", None),
    ("repro.parallel.simmpi", "SimChannel.recv", "parallel.recv", None),
    ("repro.parallel.simmpi", "DistributedStencilRunner.step", "parallel.runner_step", None),
    ("repro.core.online", "OnlineABFT.state_snapshot", "parallel.state_snapshot", None),
    (
        "repro.stencil.doublebuffer",
        "DoubleBufferedGrid.snapshot_interior",
        "parallel.snapshot_interior",
        None,
    ),
    ("repro.apps.hotspot3d", "HotSpot3D.__init__", "apps.build", None),
    ("repro.apps.hotspot3d", "HotSpot3D.build_grid", "apps.build_grid", None),
    ("repro.core.online", "OnlineABFT.__init__", "core.protector_init", None),
    ("repro.core.offline", "OfflineABFT.__init__", "core.protector_init", None),
]


def _subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.units: Dict[int, int] = {}
        self.window: object = "setup"
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        self._build_patches()
        self.installed = False

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, fn, name: str, units: Optional[Callable]):
        spans, stack, unit_map = self.spans, self._stack, self.units
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.window]
            spans.append(span)
            if units is not None:
                unit_map[idx] = int(units(args))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _build_patches(self) -> None:
        for module_name, attr, name, units in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                for owner in [cls] + _subclasses(cls):
                    if meth in vars(owner):
                        orig = vars(owner)[meth]
                        self._patches.append(
                            (owner, meth, orig, self._wrap(orig, name, units))
                        )
            else:
                orig = getattr(module, attr)
                wrapped = self._wrap(orig, name, units)
                for mod_name, mod in list(sys.modules.items()):
                    if (
                        mod_name.split(".")[0] == "repro"
                        and getattr(mod, attr, None) is orig
                    ):
                        self._patches.append((mod, attr, orig, wrapped))

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _orig, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, orig, _wrapped in self._patches:
                setattr(owner, attr, orig)
            self.installed = False

    def toggle(self, on: bool) -> None:
        if on:
            self.install()
        else:
            self.uninstall()

    def set_window(self, window) -> None:
        self.window = window

    # -- analysis --------------------------------------------------------------
    def durations(self) -> Tuple[List[int], List[int]]:
        """Per-span (duration_ns, self_ns)."""
        dur = [end - start for _n, start, end, _p, _w in self.spans]
        child = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_ms, self_ms, units}}``."""
        dur, self_ns = self.durations()
        out: Dict[str, Dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            s = out.setdefault(
                span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "units": 0}
            )
            s["calls"] += 1
            s["total_ms"] += dur[i] / 1e6
            s["self_ms"] += self_ns[i] / 1e6
            s["units"] += self.units.get(i, 1)
        return out

    def coverage_ns(self) -> Dict[object, int]:
        """Time covered by top-level spans, per window."""
        cover: Dict[object, int] = {}
        for name, start, end, parent, window in self.spans:
            if parent < 0:
                cover[window] = cover.get(window, 0) + (end - start)
        return cover

    def write_chrome(self, path, metadata: dict, limit: int = 200_000) -> None:
        """Chrome trace-event JSON (loadable by Perfetto), stdlib only."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"window": str(window), "parent": parent},
            }
            for name, start, end, parent, window in self.spans[:limit]
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "metadata": dict(metadata, spans_total=len(self.spans)),
                },
                fh,
            )
