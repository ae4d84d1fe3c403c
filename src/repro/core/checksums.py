"""Checksum vectors of the stencil domain (Eqs. 2-3 of the paper).

For a 2D domain ``u`` of shape ``(nx, ny)`` indexed ``u[x, y]``:

* the **row checksum** ``a`` has one entry per row:
  ``a[x] = sum_y u[x, y]`` (reduction along axis 1);
* the **column checksum** ``b`` has one entry per column:
  ``b[y] = sum_x u[x, y]`` (reduction along axis 0).

For a 3D domain of shape ``(nx, ny, nz)`` the same reductions are applied
per layer, producing ``a`` of shape ``(nx, nz)`` and ``b`` of shape
``(ny, nz)`` — each z-layer keeps its own independent pair of checksum
vectors, which is exactly the paper's per-layer parallel application
(Section 5.1: "each layer uses its own independent checksums").
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "checksum",
    "row_checksum",
    "column_checksum",
    "both_checksums",
    "constant_checksum",
]

#: Axis reduced by the row checksum (sum over y).
ROW_REDUCE_AXIS = 1
#: Axis reduced by the column checksum (sum over x).
COLUMN_REDUCE_AXIS = 0


def checksum(
    u: np.ndarray, reduce_axis: int, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Checksum of ``u`` along ``reduce_axis``.

    Parameters
    ----------
    u:
        Domain array (2D or 3D), optionally with a trailing run axis (a
        batch of independent runs, each reduced on its own).
    reduce_axis:
        Axis summed over (0 for the column checksum, 1 for the row
        checksum).
    dtype:
        Optional accumulation dtype. The default accumulates in the
        domain dtype, which reproduces the paper's float32 behaviour;
        passing ``numpy.float64`` gives a higher-precision variant
        (used by the ablation benchmarks).
    """
    if reduce_axis not in (0, 1):
        raise ValueError(
            f"reduce_axis must be 0 (column) or 1 (row), got {reduce_axis}"
        )
    if u.ndim not in (2, 3, 4):
        raise ValueError(
            f"checksums are defined for 2D/3D domains (plus an optional run "
            f"axis), got {u.ndim}D"
        )
    return u.sum(axis=reduce_axis, dtype=dtype)


def row_checksum(u: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Row checksum ``a`` (Eq. 2): ``a[x] = sum_y u[x, y]``."""
    return checksum(u, ROW_REDUCE_AXIS, dtype=dtype)


def column_checksum(u: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Column checksum ``b`` (Eq. 3): ``b[y] = sum_x u[x, y]``."""
    return checksum(u, COLUMN_REDUCE_AXIS, dtype=dtype)


def both_checksums(
    u: np.ndarray, dtype: Optional[np.dtype] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column checksums as a ``(a, b)`` pair."""
    return row_checksum(u, dtype=dtype), column_checksum(u, dtype=dtype)


def constant_checksum(
    constant: Optional[np.ndarray], reduce_axis: int, shape, dtype
) -> Optional[np.ndarray]:
    """Checksum of the constant term ``C`` (the ``c_x`` / ``c_y`` of Theorem 1).

    Returns ``None`` when there is no constant term. The result is
    pre-computable once per run because ``C`` does not change between
    iterations (paper, proof of Theorem 1: "c_x ... is constant and can
    be pre-computed").
    """
    if constant is None:
        return None
    constant = np.asarray(constant)
    if constant.shape != tuple(shape):
        raise ValueError(
            f"constant term has shape {constant.shape}, expected {tuple(shape)}"
        )
    return constant.sum(axis=reduce_axis).astype(dtype, copy=False)

