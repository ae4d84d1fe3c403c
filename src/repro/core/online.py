"""Online ABFT protector (Section 3 of the paper).

After every stencil sweep the online protector

1. computes **one** checksum vector of the new domain (the column
   checksum ``b`` by default, as in the paper's Figure 2 listing),
2. interpolates the same checksum from the previous step's checksum
   using Theorem 1,
3. compares the two element-wise (Section 3.4); and, only if a mismatch
   is found,
4. lazily computes the *other* checksum pair (from the still-alive
   previous domain and from the corrupted new domain), locates the
   corrupted point(s) from the row/column mismatch pattern and corrects
   them in place using Eq. 10 (Section 3.5), recomputing the affected
   checksum entries so that the next iteration starts from a consistent
   state.

:meth:`OnlineABFT.process` also verifies a whole batch of independent
runs in one call (a trailing run axis, as in the backends' batched
step): steps 1-3 act on every run at once, and step 4 runs per flagged
run on its own views, so each run gets the report it would get alone.

The "only one checksum per iteration" recommendation of Section 3.2 is
the default; ``eager_row_checksum=True`` computes both every iteration
(the ablation benchmark compares the two).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.backends import ChecksumMap, get_backend
from repro.backends.registry import BackendLike
from repro.core.checksums import constant_checksum
from repro.core.correction import (
    CORRECTION_STRATEGIES,
    correct_errors,
    match_detections,
)
from repro.core.detection import DetectionResult, detect_errors
from repro.core.interpolation import interpolate_checksum_padded
from repro.core.protector import InjectHook, Protector, StepReport, require_finite_seed
from repro.core.thresholds import recommend_epsilon
from repro.stencil.boundary import BoundarySpec
from repro.stencil.grid import GridBase
from repro.stencil.shift import interior_view
from repro.stencil.spec import StencilSpec

__all__ = ["OnlineABFT"]

_ROW_AXIS = 1     # row checksum a reduces over y
_COLUMN_AXIS = 0  # column checksum b reduces over x


class OnlineABFT(Protector):
    """Detect and correct silent data corruptions after every sweep.

    Parameters
    ----------
    spec:
        The stencil operator of the protected computation.
    boundary:
        Boundary specification of the protected domain.
    shape:
        Domain shape (2D ``(nx, ny)`` or 3D ``(nx, ny, nz)``).
    dtype:
        Domain dtype.
    constant:
        Optional constant term ``C`` of the sweep (its checksums are
        pre-computed once, as in the proof of Theorem 1).
    epsilon:
        Detection threshold ε. Defaults to
        :func:`repro.core.thresholds.recommend_epsilon` for the given
        configuration (1e-5 for paper-scale float32 domains).
    verify_axis:
        Which checksum is computed and verified every iteration:
        0 → column checksum ``b`` (paper default), 1 → row checksum ``a``.
    correction_strategy:
        ``"average"`` (paper default), ``"row"`` or ``"column"``.
    eager_row_checksum:
        Compute both checksums every iteration instead of lazily on
        detection (ablation switch).
    checksum_dtype:
        Accumulation dtype for checksums. Defaults to ``numpy.float64``:
        accumulating the float32 domain in double precision keeps the
        round-off discrepancy between the computed and the interpolated
        checksum orders of magnitude below the paper's ε = 1e-5, which
        removes the false-positive risk the paper manages by tuning tile
        sizes (Section 5.1). Pass ``None`` to accumulate in the domain
        dtype exactly as the paper's fused float32 kernel does (the
        ablation benchmark compares the two).
    metadata_self_check:
        Guard the protector's own state against corruption (default on).
        Every stored previous-step checksum is kept twice; before it is
        used for interpolation the two copies are compared, and on
        mismatch the checksum is recomputed from the still-alive
        previous domain instead of being trusted. Without this, a bit
        flip striking the *stored checksum* (rather than the domain)
        triggers a one-sided detection and a bogus correction of healthy
        data. Repairs are counted in ``total_metadata_repairs``.
    backend:
        Compute backend (registry name or instance) used for the fused
        sweep+checksum step and for any checksum the protector computes
        itself. ``None`` follows the grid's backend (which in turn
        defaults to the process-wide selection).

    Notes
    -----
    When :meth:`step` is called without a fault-injection hook the sweep
    and the verified checksum come from the backend's *fused*
    ``sweep_with_checksums`` primitive — the checksum is produced by the
    sweep itself, as in the paper's fused float32 kernel. With an
    ``inject`` hook the checksum is recomputed from the (possibly
    corrupted) domain after the hook runs, preserving the paper's
    injection semantics ("after the stencil point ... has been updated");
    a checksum fused into the sweep would otherwise be blind to a fault
    landing between the sweep and the verification.

    Both paths are compatible with the grids' in-place buffer pair: the
    verified checksum always reflects the buffer contents at verification
    time (fused checksums are produced *by* the write into the buffer;
    the injection path re-reduces the buffer after the hook mutated it),
    and corrections write back through ``grid.u`` into the same buffer
    the next sweep's ghost refresh re-reads.

    :meth:`process` also verifies a batch of independent runs laid out on
    one trailing run axis (the campaign engine's stacked path) and then
    returns one report per run; the stored checksums are then the
    batch's, and the running totals add up every run's counts.
    """

    name = "online-abft"

    def __init__(
        self,
        spec: StencilSpec,
        boundary: BoundarySpec,
        shape,
        dtype=np.float32,
        constant: Optional[np.ndarray] = None,
        epsilon: Optional[float] = None,
        verify_axis: int = _COLUMN_AXIS,
        correction_strategy: str = "average",
        eager_row_checksum: bool = False,
        checksum_dtype=np.float64,
        metadata_self_check: bool = True,
        backend: BackendLike = None,
    ) -> None:
        if verify_axis not in (0, 1):
            raise ValueError("verify_axis must be 0 (column) or 1 (row)")
        if correction_strategy not in CORRECTION_STRATEGIES:
            raise ValueError(
                f"unknown correction strategy {correction_strategy!r}; "
                f"expected one of {CORRECTION_STRATEGIES}"
            )
        self.spec = spec
        self.boundary = BoundarySpec.from_any(boundary, spec.ndim)
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != spec.ndim:
            raise ValueError(
                f"shape {self.shape} does not match stencil dimensionality {spec.ndim}"
            )
        self.dtype = np.dtype(dtype)
        self.checksum_dtype = None if checksum_dtype is None else np.dtype(checksum_dtype)
        self.verify_axis = verify_axis
        self.other_axis = 1 - verify_axis
        self.correction_strategy = correction_strategy
        self.eager_row_checksum = bool(eager_row_checksum)
        self.metadata_self_check = bool(metadata_self_check)
        self.backend = None if backend is None else get_backend(backend)
        self.radius = spec.radius()
        if epsilon is None:
            # The detection margin is governed by the *domain* dtype (the
            # sweep rounds every point in that precision); the checksum
            # accumulation dtype only tightens it further.
            epsilon = recommend_epsilon(self.shape, verify_axis, self.dtype, spec)
        self.epsilon = float(epsilon)
        cs_dtype = self.checksum_dtype or self.dtype
        self._constant_sums = {
            axis: constant_checksum(constant, axis, self.shape, cs_dtype)
            for axis in (0, 1)
        }
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        # Statistics exposed for the experiments.
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_grid(cls, grid: GridBase, **kwargs) -> "OnlineABFT":
        """Build a protector matching a grid's operator, boundary and shape."""
        return cls(
            grid.spec,
            grid.boundary,
            grid.shape,
            dtype=grid.dtype,
            constant=grid.constant,
            **kwargs,
        )

    # -- protector interface ---------------------------------------------------
    def reset(self) -> None:
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    def state_snapshot(self) -> dict:
        """Checkpointable protector state (buddy checkpointing).

        Captures the stored previous-step checksum vectors and the four
        running counters — everything :meth:`state_restore` needs to
        resume verification bit-for-bit from a rolled-back domain.  The
        self-check duplicates are not shipped: restore re-derives them
        through :meth:`_store_prev_cs`, so a checkpointed protector is
        always internally consistent.
        """
        return {
            "prev_cs": {
                axis: (None if cs is None else cs.copy())
                for axis, cs in self._prev_cs.items()
            },
            "counters": (
                self.total_detections,
                self.total_corrections,
                self.total_uncorrected,
                self.total_metadata_repairs,
            ),
        }

    def state_restore(self, state: dict) -> None:
        """Restore :meth:`state_snapshot` state (rollback recovery)."""
        for axis in (0, 1):
            cs = state["prev_cs"].get(axis)
            self._store_prev_cs(axis, None if cs is None else cs.copy())
        (
            self.total_detections,
            self.total_corrections,
            self.total_uncorrected,
            self.total_metadata_repairs,
        ) = (int(c) for c in state["counters"])

    def _checksum(self, u: np.ndarray, axis: int) -> np.ndarray:
        be = self.backend if self.backend is not None else get_backend()
        return be.checksum(u, axis, dtype=self.checksum_dtype)

    def _store_prev_cs(self, axis: int, cs: Optional[np.ndarray]) -> None:
        """Store a previous-step checksum (plus its self-check duplicate).

        Every write to the stored checksum state must go through here —
        the duplicate is what lets :meth:`_checked_prev_cs` notice that a
        fault struck the metadata itself.
        """
        self._prev_cs[axis] = cs
        if cs is None or not self.metadata_self_check:
            self._prev_cs_dup[axis] = None
        else:
            self._prev_cs_dup[axis] = cs.copy()

    def _checked_prev_cs(self, axis: int, padded_prev, radius) -> np.ndarray:
        """The stored previous-step checksum, validated against its duplicate.

        On mismatch (a fault hit the stored metadata, not the domain) the
        checksum is recomputed from the still-alive previous domain and
        re-stored, so a corrupted checksum never drives a bogus
        detection/correction of healthy data.  The copies are compared
        bit for bit, so two copies of one NaN are equal: only a
        difference between the copies is a metadata fault.
        """
        cs = self._prev_cs[axis]
        dup = self._prev_cs_dup[axis]
        if (
            self.metadata_self_check
            and cs is not None
            and dup is not None
            and cs.tobytes() != dup.tobytes()
        ):
            self.total_metadata_repairs += 1
            cs = self._checksum(interior_view(padded_prev, radius), axis)
            self._store_prev_cs(axis, cs)
        return cs

    def _seed(self, prev_u: np.ndarray) -> None:
        """Store the first checksums, from the step-0 state (Theorem 2
        takes it as correct, so it must be finite)."""
        for axis in self.verify_axes():
            cs = self._checksum(prev_u, axis)
            require_finite_seed(cs, self.name)
            self._store_prev_cs(axis, cs)

    def verify_axes(self):
        """Axes whose checksums each sweep must produce for this protector."""
        if self.eager_row_checksum:
            return (self.verify_axis, self.other_axis)
        return (self.verify_axis,)

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        if grid.shape != self.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match protector shape {self.shape}"
            )
        if self._prev_cs[self.verify_axis] is None:
            # Seed before the sweep, so an injection hook at the first
            # iteration already finds stored checksums to strike.
            self._seed(grid.u)
        if inject is None and hasattr(grid, "step_with_checksums"):
            # Fault-free fast path: the sweep produces the verified
            # checksum itself (the paper's fused kernel).
            _, checksums = grid.step_with_checksums(
                self.verify_axes(),
                checksum_dtype=self.checksum_dtype,
                backend=self.backend,
            )
            return self.process(
                grid.u,
                grid.previous_padded,
                grid.iteration,
                precomputed_checksums=checksums,
            )

        grid.step(backend=self.backend)
        if inject is not None:
            inject(grid, grid.iteration)
        return self.process(grid.u, grid.previous_padded, grid.iteration)

    def process(
        self,
        u_new: np.ndarray,
        padded_prev: np.ndarray,
        iteration: int,
        precomputed_checksums: Optional[ChecksumMap] = None,
    ) -> Union[StepReport, List[StepReport]]:
        """Verify (and correct) a freshly swept domain.

        This is the grid-independent core of the protector: ``u_new`` is
        the interior produced by the sweep, ``padded_prev`` is the
        ghost-padded step-``t`` domain the sweep read (its ghost cells may
        come from a closed boundary condition *or* from halo exchange with
        neighbouring tiles/ranks — the interpolation handles both
        identically).  The parallel tile runner calls this directly, one
        call per tile, and so does the distributed runner, one call per
        rank with the rank's pre-swap front buffer as ``padded_prev`` and
        the fused per-rank checksums as ``precomputed_checksums``.

        ``precomputed_checksums`` carries checksums of ``u_new`` already
        produced by a fused sweep (``{axis: vector}``); any axis present
        is trusted instead of being recomputed here, so callers must only
        pass checksums that reflect ``u_new``'s current contents.

        **Batches of runs.**  ``u_new`` and ``padded_prev`` may carry one
        trailing run axis (ghost width 0 on it), the layout of
        :meth:`~repro.backends.base.Backend.batch_step_into`; checksums
        then carry it too, and the stored previous-step checksums are
        the batch's.  One interpolation and one detection cover every
        run; only the flagged runs are localised and corrected, each on
        its own ``[..., run]`` views through the single-run code.  The
        call returns one :class:`StepReport` per run, each equal to what
        a single-run call on that run's views would return.  Corrections
        write into ``u_new`` and into the precomputed checksum vectors.

        With the double-buffered grids both arguments are live views into
        the persistent buffer pair: ``u_new`` into the front buffer the
        sweep just filled, ``padded_prev`` into the buffer the *next*
        sweep will overwrite.  They therefore must be read (and ``u_new``
        corrected) before the next step — which is exactly when the
        protectors run — and must never alias each other; the guard below
        rejects a caller that hands the same buffer for both.

        Raises :class:`~repro.core.protector.NonFiniteStateError` when
        the first call finds a NaN or Inf in the state it seeds the
        checksums from.
        """
        if np.may_share_memory(u_new, padded_prev):
            raise ValueError(
                "u_new aliases padded_prev: the new step must live in a "
                "different buffer than the padded previous step (did the "
                "double-buffer swap go missing?)"
            )
        nd = len(self.shape)
        if u_new.shape[:nd] != self.shape or u_new.ndim not in (nd, nd + 1):
            raise ValueError(
                f"u_new has shape {u_new.shape}, expected {self.shape} or "
                f"{self.shape} + (runs,)"
            )
        batched = u_new.ndim == nd + 1
        if batched:
            # The run axis never shifts and has no ghost cells.
            spec, radius = self.spec.batched(), self.radius + (0,)
            shape = self.shape + u_new.shape[-1:]
        else:
            spec, radius, shape = self.spec, self.radius, self.shape
        verify, other = self.verify_axis, self.other_axis
        precomputed = precomputed_checksums or {}
        if self._prev_cs[verify] is None:
            self._seed(interior_view(padded_prev, radius))

        cs_comp = precomputed.get(verify)
        if cs_comp is None:
            cs_comp = self._checksum(u_new, verify)
        cs_interp = self._interpolate(
            verify, self._checked_prev_cs(verify, padded_prev, radius),
            padded_prev, spec, radius, shape,
        )
        detection = detect_errors(cs_comp, cs_interp, self.epsilon)

        other_comp = other_prev = None
        if self.eager_row_checksum:
            other_comp = precomputed.get(other)
            if other_comp is None:
                other_comp = self._checksum(u_new, other)
        if detection.detected and self._prev_cs[other] is not None:
            other_prev = self._checked_prev_cs(other, padded_prev, radius)

        arrays = (u_new, padded_prev, cs_comp, cs_interp, other_comp, other_prev)
        if batched:
            reports = [
                StepReport(
                    iteration=iteration, detection_performed=True,
                    max_relative_error=peak,
                )
                for peak in detection.run_maxima()
            ]
            if detection.detected:
                # Only the flagged runs get a result of their own.
                for run in np.unique(detection.mismatch_indices[:, -1]).tolist():
                    self._correct(reports[run], detection.for_run(run), arrays, run)
        else:
            reports = StepReport(
                iteration=iteration, detection_performed=True,
                max_relative_error=detection.max_relative_error,
            )
            if detection.detected:
                self._correct(reports, detection, arrays)
        self._store_prev_cs(verify, cs_comp)
        self._store_prev_cs(other, other_comp)
        return reports

    def _interpolate(
        self, axis, cs_prev, padded_prev, spec, radius, shape
    ) -> np.ndarray:
        """Theorem-1 prediction of the ``axis`` checksum of one run or a batch."""
        constant_sum = self._constant_sums[axis]
        if constant_sum is not None and len(shape) > len(self.shape):
            constant_sum = constant_sum[..., None]
        return interpolate_checksum_padded(
            cs_prev, padded_prev, spec, radius, shape, axis,
            constant_sum=constant_sum,
        )

    def _correct(
        self,
        report: StepReport,
        detection: DetectionResult,
        arrays,
        run: Optional[int] = None,
    ) -> None:
        """Localise and correct one flagged run, filling in its report.

        ``arrays`` are ``(u_new, padded_prev, cs_comp, cs_interp,
        other_comp, other_prev)`` — of a batch when ``run`` names the
        run to take views of — and the last two may be ``None``, in
        which case they are computed here.
        """
        report.errors_detected = detection.n_errors
        if run is not None:
            arrays = tuple(None if a is None else a[..., run] for a in arrays)
        u, padded_prev, cs_comp, cs_interp, other_comp, other_prev = arrays
        verify, other = self.verify_axis, self.other_axis
        self.total_detections += detection.n_errors
        # Lazily build the second checksum pair: previous-step checksum
        # from the still-alive previous domain, current from the new one.
        if other_prev is None:
            other_prev = self._checksum(interior_view(padded_prev, self.radius), other)
        if other_comp is None:
            other_comp = self._checksum(u, other)
        other_interp = self._interpolate(
            other, other_prev, padded_prev, self.spec, self.radius, self.shape
        )
        other_detection = detect_errors(other_comp, other_interp, self.epsilon)

        if verify == _COLUMN_AXIS:
            det_a, det_b = other_detection, detection
            a_comp, a_interp = other_comp, other_interp
            b_comp, b_interp = cs_comp, cs_interp
        else:
            det_a, det_b = detection, other_detection
            a_comp, a_interp = cs_comp, cs_interp
            b_comp, b_interp = other_comp, other_interp

        locations, unresolved = match_detections(
            det_a, det_b, a_comp, a_interp, b_comp, b_interp, u.ndim
        )
        # Corrects ``u`` and recomputes the touched entries of a_comp and
        # b_comp in place, so cs_comp (and other_comp) stay consistent
        # with the repaired domain when they are stored for the next step.
        records = correct_errors(
            u,
            locations,
            a_comp,
            a_interp,
            b_comp,
            b_interp,
            strategy=self.correction_strategy,
        )
        report.errors_corrected = len(records)
        report.errors_uncorrected = unresolved
        report.corrections = records
        self.total_corrections += len(records)
        self.total_uncorrected += unresolved
