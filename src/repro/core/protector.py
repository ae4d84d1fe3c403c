"""Common protector interface and the unprotected baseline.

A *protector* wraps the iteration loop of a stencil application: it
advances the grid one sweep at a time and applies (or does not apply)
the ABFT machinery around each sweep. The three protectors compared in
the paper's evaluation are

* :class:`NoProtection` (this module) — the unprotected "No-ABFT" run,
* :class:`repro.core.online.OnlineABFT` — detect + correct every sweep,
* :class:`repro.core.offline.OfflineABFT` — periodic detection with
  checkpoint/rollback recovery.

All three expose the same ``step(grid, inject=...)`` / ``run(...)`` /
``finalize(grid)`` interface so that the experiment harness can swap
them freely. Protectors also surface the pluggable compute-backend
choice (:mod:`repro.backends`): the ABFT protectors accept a
``backend=`` keyword and route their sweeps and checksum reductions —
including the fused sweep+checksum kernel — through it. The optional ``inject`` callable models the paper's fault
injection point: it is invoked *after* the sweep has produced the new
domain and *before* any checksum is computed from it (Section 5.1: the
bit-flip is injected "after the stencil point targeted for data
corruption has been updated and before it is stored into the domain").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.stencil.grid import GridBase

__all__ = [
    "StepReport", "RunReport", "Protector", "NoProtection", "NonFiniteStateError",
]

#: Signature of a fault-injection hook: ``inject(grid, iteration)``.
InjectHook = Callable[[GridBase, int], None]


class NonFiniteStateError(ValueError):
    """The state a protector starts from holds a NaN or Inf (Theorem 2
    takes the step-0 data as correct, so it must be finite)."""


def require_finite_seed(checksum: np.ndarray, name: str) -> None:
    """Reject a first checksum seed: a NaN or Inf anywhere in the initial
    state reaches it, so this one test covers the whole state."""
    if not np.all(np.isfinite(checksum)):
        raise NonFiniteStateError(
            f"{name}: the initial state holds non-finite values (NaN or "
            f"Inf); its checksums cannot seed verification"
        )


@dataclass
class StepReport:
    """What happened during one protected (or unprotected) sweep."""

    iteration: int
    detection_performed: bool = False
    errors_detected: int = 0
    errors_corrected: int = 0
    errors_uncorrected: int = 0
    rollback: bool = False
    recomputed_iterations: int = 0
    max_relative_error: float = 0.0
    corrections: List = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """``True`` iff no error was detected during this step."""
        return self.errors_detected == 0


@dataclass
class RunReport:
    """Aggregate of the step reports of a whole run."""

    steps: List[StepReport] = field(default_factory=list)

    def add(self, report: StepReport) -> None:
        self.steps.append(report)

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def total_detected(self) -> int:
        return sum(s.errors_detected for s in self.steps)

    @property
    def total_corrected(self) -> int:
        return sum(s.errors_corrected for s in self.steps)

    @property
    def total_uncorrected(self) -> int:
        return sum(s.errors_uncorrected for s in self.steps)

    @property
    def total_rollbacks(self) -> int:
        return sum(1 for s in self.steps if s.rollback)

    @property
    def total_recomputed_iterations(self) -> int:
        return sum(s.recomputed_iterations for s in self.steps)

    @property
    def detections(self) -> List[StepReport]:
        """Only the steps during which at least one error was detected."""
        return [s for s in self.steps if s.errors_detected > 0]


class Protector(ABC):
    """Interface shared by all protection schemes."""

    #: Human-readable name used by the experiment reports.
    name: str = "protector"

    #: Resolved compute backend driving this protector's numerics, or
    #: ``None`` to follow the grid's backend (which itself defaults to
    #: the process-wide selection — see :mod:`repro.backends`).
    backend = None

    @abstractmethod
    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        """Advance the grid one sweep under this protection scheme."""

    def finalize(self, grid: GridBase) -> Optional[StepReport]:
        """Run any end-of-execution verification (offline detection).

        Returns a report when a final check was performed, else ``None``.
        """
        return None

    def reset(self) -> None:
        """Forget internal state so the protector can start a fresh run."""

    def run(
        self,
        grid: GridBase,
        iterations: int,
        inject: Optional[InjectHook] = None,
    ) -> RunReport:
        """Advance ``iterations`` sweeps and collect all step reports."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        report = RunReport()
        for _ in range(iterations):
            report.add(self.step(grid, inject=inject))
        final = self.finalize(grid)
        if final is not None:
            report.add(final)
        return report


class NoProtection(Protector):
    """The unprotected baseline ("No ABFT" in the paper's figures)."""

    name = "no-abft"

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        grid.step()
        if inject is not None:
            inject(grid, grid.iteration)
        return StepReport(iteration=grid.iteration, detection_performed=False)
