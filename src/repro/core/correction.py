"""Error localisation and correction (Section 3.5, Eq. 10 of the paper).

Once a mismatch is detected in one checksum vector, the other checksum
vector is computed and compared too; the cross product of the flagged
row index and the flagged column index gives the exact location of the
corrupted point. The correct value is recovered by subtracting the
corrupted value from either checksum residual:

.. math::

    \\mathrm{correct}^{(t+1)}_{e_x,e_y}
        = a'^{(t+1)}_{e_x} - (a^{(t+1)}_{e_x} - u^{(t+1)}_{e_x,e_y})
        = b'^{(t+1)}_{e_y} - (b^{(t+1)}_{e_y} - u^{(t+1)}_{e_x,e_y})

The implementation evaluates ``a^{(t+1)}_{e_x} - u^{(t+1)}_{e_x,e_y}``
directly as the sum of the rest of the row (column), with the faulty
point excluded.  In exact arithmetic this is Eq. 10; in floating point
it avoids the catastrophic cancellation of subtracting a huge corrupted
value (an exponent-bit flip turns ~300 into ~6e21) from a checksum that
contains it, and it repairs a NaN or Inf point, which no arithmetic on
the corrupted value could.

Both estimates should agree; the implementation averages them by
default (as the paper's reference listing in Figure 6 does) or can use
either one alone. The affected computed-checksum entries are then
recomputed from the repaired domain, so they stay consistent with it.

When several errors are present the row/column flags no longer pair up
uniquely; :func:`match_detections` pairs them by matching residual
magnitudes (each error adds the *same* residual to its row and to its
column checksum), and gives up on ambiguous leftovers, which are
reported as uncorrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.detection import DetectionResult

__all__ = [
    "CORRECTION_STRATEGIES",
    "CorrectionRecord",
    "match_detections",
    "correct_errors",
]

#: Which checksum estimate :func:`correct_errors` writes back.
CORRECTION_STRATEGIES = ("average", "row", "column")


@dataclass
class CorrectionRecord:
    """Bookkeeping for a single corrected domain point."""

    index: Tuple[int, ...]
    old_value: float
    corrected_value: float
    row_estimate: float
    column_estimate: float

    @property
    def applied_change(self) -> float:
        return self.corrected_value - self.old_value


def _group_by_layer(indices: np.ndarray) -> Dict[int, List[int]]:
    """Group 3D checksum mismatch indices ``(pos, z)`` by layer ``z``."""
    groups: Dict[int, List[int]] = {}
    for row in indices:
        pos, z = int(row[0]), int(row[1])
        groups.setdefault(z, []).append(pos)
    return groups


def _pair_by_residual(
    rows: Sequence[int],
    cols: Sequence[int],
    row_residual,
    col_residual,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Greedy pairing of flagged rows and columns by residual similarity.

    Each corrupted point contributes the same residual
    (``computed - interpolated``) to its row and to its column checksum,
    so matching residual values pairs rows with columns. Returns the
    list of pairs plus the unpaired leftovers.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) == 1 and len(cols) == 1:
        return [(rows[0], cols[0])], [], []
    # Massive flag counts (e.g. a corrupted value that propagated across a
    # whole detection window) would make the greedy quadratic pairing
    # below prohibitively slow; sort both sides by residual and pair in
    # order instead — residual-sorted order is exactly what the greedy
    # pass would produce when every row/column holds one error.
    if len(rows) * len(cols) > 4096 and len(rows) == len(cols):
        rows_sorted = sorted(rows, key=lambda r: float(row_residual(r)))
        cols_sorted = sorted(cols, key=lambda c: float(col_residual(c)))
        return list(zip(rows_sorted, cols_sorted)), [], []
    pairs: List[Tuple[int, int]] = []
    remaining_cols = list(cols)
    unpaired_rows: List[int] = []
    for r in rows:
        if not remaining_cols:
            unpaired_rows.append(r)
            continue
        rres = float(row_residual(r))
        # Pick the column whose residual is closest (relative) to the row's.
        best = min(
            remaining_cols,
            key=lambda c: abs(float(col_residual(c)) - rres),
        )
        scale = max(abs(rres), abs(float(col_residual(best))), 1e-30)
        if abs(float(col_residual(best)) - rres) <= 1e-3 * scale or len(rows) == len(cols):
            pairs.append((r, best))
            remaining_cols.remove(best)
        else:
            unpaired_rows.append(r)
    return pairs, unpaired_rows, remaining_cols


def match_detections(
    row_detection: DetectionResult,
    column_detection: DetectionResult,
    a_computed: np.ndarray,
    a_interpolated: np.ndarray,
    b_computed: np.ndarray,
    b_interpolated: np.ndarray,
    domain_ndim: int,
) -> Tuple[List[Tuple[int, ...]], int]:
    """Locate corrupted domain points from row/column checksum mismatches.

    Parameters
    ----------
    row_detection, column_detection:
        Detection results for the row checksum ``a`` and the column
        checksum ``b``.
    a_computed, a_interpolated, b_computed, b_interpolated:
        The four checksum arrays (used for residual-based pairing when
        several errors are present).
    domain_ndim:
        2 for a 2D domain, 3 for a per-layer-protected 3D domain.

    Returns
    -------
    (locations, unresolved):
        ``locations`` is a list of full domain indices ``(x, y)`` or
        ``(x, y, z)``; ``unresolved`` counts flagged checksum entries
        that could not be paired.
    """
    if domain_ndim == 2:
        rows = [int(i[0]) for i in row_detection.mismatch_indices]
        cols = [int(i[0]) for i in column_detection.mismatch_indices]
        pairs, ur, uc = _pair_by_residual(
            rows,
            cols,
            lambda r: a_computed[r] - a_interpolated[r],
            lambda c: b_computed[c] - b_interpolated[c],
        )
        locations = [(r, c) for r, c in pairs]
        return locations, len(ur) + len(uc)

    if domain_ndim == 3:
        row_groups = _group_by_layer(row_detection.mismatch_indices)
        col_groups = _group_by_layer(column_detection.mismatch_indices)
        locations: List[Tuple[int, ...]] = []
        unresolved = 0
        for z in sorted(set(row_groups) | set(col_groups)):
            rows = row_groups.get(z, [])
            cols = col_groups.get(z, [])
            if not rows or not cols:
                unresolved += len(rows) + len(cols)
                continue
            pairs, ur, uc = _pair_by_residual(
                rows,
                cols,
                lambda r, z=z: a_computed[r, z] - a_interpolated[r, z],
                lambda c, z=z: b_computed[c, z] - b_interpolated[c, z],
            )
            locations.extend((r, c, z) for r, c in pairs)
            unresolved += len(ur) + len(uc)
        return locations, unresolved

    raise ValueError(f"domain_ndim must be 2 or 3, got {domain_ndim}")


def correct_errors(
    u: np.ndarray,
    locations: Sequence[Tuple[int, ...]],
    a_computed: np.ndarray,
    a_interpolated: np.ndarray,
    b_computed: np.ndarray,
    b_interpolated: np.ndarray,
    strategy: str = "average",
) -> List[CorrectionRecord]:
    """Correct corrupted domain points in place (Eq. 10).

    Parameters
    ----------
    u:
        The step-``t+1`` domain (modified in place).
    locations:
        Full domain indices of the corrupted points, as produced by
        :func:`match_detections`.
    a_computed, a_interpolated:
        Row checksum computed from the corrupted domain and its
        interpolated prediction. The entry of every corrected row of
        ``a_computed`` is recomputed in place from the repaired domain.
    b_computed, b_interpolated:
        Same for the column checksum.
    strategy:
        ``"average"`` (paper's Figure 6), ``"row"`` or ``"column"`` —
        which checksum estimate to write back.

    Returns
    -------
    list of CorrectionRecord
    """
    if strategy not in CORRECTION_STRATEGIES:
        raise ValueError(
            f"unknown correction strategy {strategy!r}; expected one of "
            f"{CORRECTION_STRATEGIES}"
        )
    records: List[CorrectionRecord] = []
    ndim = u.ndim
    for loc in locations:
        loc = tuple(int(v) for v in loc)
        if len(loc) != ndim:
            raise ValueError(
                f"location {loc} does not match domain dimensionality {ndim}"
            )
        # The checksum entry and the domain line (row / column, within
        # the point's layer) each estimate comes from.
        a_idx = (loc[0],) + loc[2:]
        b_idx = loc[1:]
        row = (loc[0], slice(None)) + loc[2:]
        col = (slice(None),) + loc[1:]
        old = float(u[loc])
        # Exclude the faulty point from its row and column sums; the
        # interpolated checksum minus the rest of the line is the value.
        u[loc] = 0
        row_rest = u[row].sum(dtype=a_computed.dtype)
        col_rest = u[col].sum(dtype=b_computed.dtype)
        row_estimate = float(a_interpolated[a_idx] - row_rest)
        col_estimate = float(b_interpolated[b_idx] - col_rest)
        if strategy == "average":
            corrected = 0.5 * (row_estimate + col_estimate)
        elif strategy == "row":
            corrected = row_estimate
        else:
            corrected = col_estimate
        u[loc] = corrected
        a_computed[a_idx] = u[row].sum(dtype=a_computed.dtype)
        b_computed[b_idx] = u[col].sum(dtype=b_computed.dtype)
        records.append(
            CorrectionRecord(
                index=loc,
                old_value=old,
                corrected_value=float(corrected),
                row_estimate=row_estimate,
                column_estimate=col_estimate,
            )
        )
    return records
