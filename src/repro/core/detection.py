"""Silent-data-corruption detection (Theorem 2, Section 3.4 of the paper).

Because of floating-point round-off the computed and interpolated
checksums are never bit-identical, so the comparison uses the *relative*
error of each checksum entry,

.. math::

    \\left| \\frac{a'^{(t+1)}_x}{a^{(t+1)}_x} - 1 \\right| > \\varepsilon,

and an error flag is raised whenever it exceeds a detection threshold ε
(1e-5 in the paper's experiments). The indices of the flagged entries
give the row (respectively column, respectively layer) of the corrupted
point and are later consumed by the correction step.

A non-finite discrepancy (a NaN or Inf checksum entry, e.g. after an
exponent-bit flip) is always flagged: the test is written as
``not (rel <= ε)``, which is False for NaN, so a corrupt state is never
read as clean.  Checksums may carry one trailing run axis (a batch of
independent runs); :meth:`DetectionResult.run_maxima` and
:meth:`DetectionResult.for_run` give what a single-run detection of one
run would have produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["DetectionResult", "relative_discrepancy", "detect_errors"]


@dataclass
class DetectionResult:
    """Outcome of comparing a computed checksum against an interpolated one.

    Attributes
    ----------
    mismatch_indices:
        Integer array of shape ``(m, cs_ndim)``; each row is the index of
        a checksum entry whose relative error exceeded the threshold.
        For a 2D domain the checksum is 1D so each row has one component
        (the row/column index); for a 3D domain each row is ``(x, z)`` or
        ``(y, z)``.
    relative_errors:
        Relative error of each flagged entry, shape ``(m,)``.
    max_relative_error:
        Largest relative error over the *whole* checksum (flagged or not);
        useful for threshold calibration and false-positive analysis.
        ``inf`` when any entry is non-finite.
    threshold:
        The ε used for this comparison.
    n_checked:
        Total number of checksum entries compared.
    discrepancy:
        The element-wise relative error of every entry (what
        :meth:`run_maxima` and :meth:`for_run` split by run).
    """

    mismatch_indices: np.ndarray
    relative_errors: np.ndarray
    max_relative_error: float
    threshold: float
    n_checked: int
    discrepancy: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def detected(self) -> bool:
        """``True`` iff at least one checksum entry exceeded the threshold."""
        return len(self.mismatch_indices) > 0

    @property
    def n_errors(self) -> int:
        return int(len(self.mismatch_indices))

    def indices_as_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Flagged indices as plain Python tuples."""
        return tuple(tuple(int(v) for v in row) for row in self.mismatch_indices)

    def run_maxima(self) -> List[float]:
        """Per-run ``max_relative_error`` over checksums with a run axis."""
        rel = self.discrepancy
        # One contiguous row per run makes the per-run maxima one pass.
        return _max_relative(rel.reshape(-1, rel.shape[-1]).T.copy(), axis=1)

    def for_run(self, run: int) -> "DetectionResult":
        """The result of one run (index ``run`` of the last, run axis).

        It equals :func:`detect_errors` on the ``[..., run]`` slices,
        because the discrepancy is element-wise.
        """
        rel = self.discrepancy[..., run]
        mask = self.mismatch_indices[:, -1] == run
        return DetectionResult(
            self.mismatch_indices[mask, :-1], self.relative_errors[mask],
            _max_relative(rel), self.threshold, rel.size, rel,
        )

    def __bool__(self) -> bool:
        return self.detected

    def __len__(self) -> int:
        return self.n_errors


def _max_relative(rel: np.ndarray, axis=None):
    """Largest relative error (a list along ``axis``), a NaN read as ``inf``."""
    if rel.size == 0:
        return 0.0
    peak = rel.max(axis=axis).tolist()
    if axis is None:
        return math.inf if math.isnan(peak) else peak
    return [math.inf if math.isnan(p) else p for p in peak]


def relative_discrepancy(
    computed: np.ndarray, interpolated: np.ndarray
) -> np.ndarray:
    """Element-wise relative error ``|interpolated / computed - 1|``.

    Entries where the computed checksum is exactly zero fall back to the
    absolute difference ``|interpolated - computed|`` so that a corrupted
    zero still registers a non-zero discrepancy instead of a division by
    zero.  A NaN or Inf on either side yields a NaN or Inf entry.
    """
    computed = np.asarray(computed)
    interpolated = np.asarray(interpolated)
    if computed.shape != interpolated.shape:
        raise ValueError(
            f"checksum shapes differ: {computed.shape} vs {interpolated.shape}"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.subtract(interpolated, computed, dtype=np.float64)
        np.abs(rel, out=rel)
        denom = np.abs(computed, dtype=np.float64)
        # Where the computed entry is zero, ``rel`` keeps the difference.
        return np.divide(rel, denom, out=rel, where=denom > 0.0)


def detect_errors(
    computed: np.ndarray,
    interpolated: np.ndarray,
    threshold: float,
) -> DetectionResult:
    """Compare a computed checksum against its interpolated prediction.

    Parameters
    ----------
    computed:
        Checksum computed directly from the step-``t+1`` domain
        (Eqs. 2-3).
    interpolated:
        Checksum predicted from the step-``t`` checksum via Theorem 1.
    threshold:
        Detection threshold ε (relative).

    Returns
    -------
    DetectionResult
        Non-finite entries are flagged and make ``max_relative_error``
        ``inf``.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    rel = relative_discrepancy(computed, interpolated)
    max_rel = _max_relative(rel)
    if max_rel <= threshold:
        # Clean, the common case: nothing can be flagged (a NaN reads as
        # inf), so no further pass.
        indices, errors = np.empty((0, rel.ndim), np.intp), rel.reshape(-1)[:0]
    else:
        flagged = ~(rel <= threshold)
        indices, errors = np.argwhere(flagged), rel[flagged]
    return DetectionResult(
        mismatch_indices=indices,
        relative_errors=errors,
        max_relative_error=max_rel,
        threshold=float(threshold),
        n_checked=int(rel.size),
        discrepancy=rel,
    )
