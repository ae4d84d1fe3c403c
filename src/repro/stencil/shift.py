"""Ghost-cell padding and shifted views.

Every boundary condition is realised by surrounding the domain with a
halo of ghost cells (:func:`pad_array`). Once the padded array exists,
both the stencil sweep and the ABFT checksum interpolation reduce to
pure array shifts (:func:`shifted_view`) with no per-point branching —
the same trick the paper's C implementation uses with clamped index
arithmetic, but in vectorised form.

The same padded representation is reused by the parallel tile runner
(:mod:`repro.parallel`), where ghost cells are filled with halo data
received from neighbouring tiles instead of being synthesised from a
closed boundary condition.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec

__all__ = [
    "normalize_radius",
    "padded_shape",
    "pad_array",
    "refresh_ghosts",
    "shifted_view",
    "interior_slices",
    "interior_view",
]


def normalize_radius(radius, ndim: int) -> Tuple[int, ...]:
    """Coerce a scalar or per-axis radius into a per-axis tuple."""
    # A tuple (the hot-path case) skips the slower scalar test.
    if isinstance(radius, tuple) or not np.isscalar(radius):
        radius = tuple(map(int, radius))
    else:
        radius = (int(radius),) * ndim
    if len(radius) != ndim:
        raise ValueError(f"expected {ndim} radii, got {len(radius)}")
    if radius and min(radius) < 0:
        raise ValueError(f"radii must be non-negative, got {radius}")
    return radius


def padded_shape(interior_shape: Sequence[int], radius) -> Tuple[int, ...]:
    """Shape of the ghost-padded array for a given interior shape."""
    interior_shape = tuple(int(n) for n in interior_shape)
    radius = normalize_radius(radius, len(interior_shape))
    return tuple(n + 2 * r for n, r in zip(interior_shape, radius))


def pad_array(
    u: np.ndarray,
    radius,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
) -> np.ndarray:
    """Surround ``u`` with ghost cells realising the boundary condition.

    Parameters
    ----------
    u:
        Interior domain array.
    radius:
        Ghost-cell width, scalar or per-axis.
    boundary:
        Boundary specification (coerced with :meth:`BoundarySpec.from_any`).

    Returns
    -------
    numpy.ndarray
        New array of shape ``u.shape + 2 * radius`` (per axis). The
        interior block is a copy of ``u``; the halo encodes the boundary
        condition (edge-replication for clamp, wrap-around for periodic,
        a fill value for constant/zero).
    """
    radius = normalize_radius(radius, u.ndim)
    bspec = BoundarySpec.from_any(boundary, u.ndim)
    padded = u
    # Pad one axis at a time so that each axis can use a different numpy
    # pad mode. Later axes see the already-padded earlier axes, which is
    # the correct corner behaviour for separable ghost filling (corners
    # get "clamp of clamp", "wrap of constant", etc.).
    for axis in range(u.ndim):
        r = radius[axis]
        if r == 0:
            continue
        bc = bspec.axis(axis)
        pad_width = [(0, 0)] * padded.ndim
        pad_width[axis] = (r, r)
        if bc.is_clamp:
            padded = np.pad(padded, pad_width, mode="edge")
        elif bc.is_periodic:
            padded = np.pad(padded, pad_width, mode="wrap")
        else:
            padded = np.pad(
                padded, pad_width, mode="constant",
                constant_values=bc.fill_value(),
            )
    if padded is u:
        padded = u.copy()
    return padded


def refresh_ghosts(
    padded: np.ndarray,
    radius,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    axes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Re-fill the ghost cells of an existing padded array, in place.

    This is the zero-allocation counterpart of :func:`pad_array`: instead
    of building a fresh padded copy of the interior, it rewrites only the
    halo of ``padded`` from its (possibly updated) interior block.  The
    double-buffered grids call it once per sweep, turning the former
    full-domain copy into an ``O(boundary surface)`` touch-up.

    The fill order and region semantics replicate ``pad_array`` exactly —
    axis by axis, where axis ``k``'s slabs span the already-refreshed
    ghost range of axes ``< k`` but only the interior range of axes
    ``> k``, so corners are owned by the highest axis — which makes the
    result bit-identical to a fresh :func:`pad_array` of the interior for
    every boundary kind.

    ``axes`` restricts the refresh to a subset of axes: the ghost slabs
    of every other axis are treated as *externally managed* — left
    untouched, and spanned as if they were interior by the refreshed
    axes' slabs.  That is the distributed-runner contract: a rank's
    halo slabs along the distributed axis are filled by message
    ingestion, and refreshing the remaining axes afterwards reproduces
    the ghost corners ``pad_array`` would have built over the
    halo-extended block (the externally managed axis behaves exactly
    like a zero-radius axis).

    Returns ``padded`` (the same object) for chaining.
    """
    radius = normalize_radius(radius, padded.ndim)
    if axes is not None:
        keep = {int(a) for a in axes}
        if not keep.issubset(range(padded.ndim)):
            raise ValueError(
                f"refresh axes {sorted(keep)} out of range for a "
                f"{padded.ndim}D array"
            )
        # An externally managed axis is equivalent to a zero-radius one:
        # its slabs are never written, and later axes span its full
        # extent (halo included) — the pad_array corner semantics for a
        # pre-extended axis.
        radius = tuple(
            r if axis in keep else 0 for axis, r in enumerate(radius)
        )
    bspec = BoundarySpec.from_any(boundary, padded.ndim)
    ndim = padded.ndim
    for axis in range(ndim):
        r = radius[axis]
        n = padded.shape[axis] - 2 * r
        if n < 0:
            raise ValueError(
                f"padded extent {padded.shape[axis]} smaller than ghost "
                f"width 2*{r} along axis {axis}"
            )
        if bspec.axis(axis).is_periodic and r > n:
            # Degenerate wrap (ghost wider than the interior): the in-place
            # slab fill below would read half-written ghosts. np.pad's
            # tiling semantics still apply, so take the allocating path
            # once — correctness over speed for this corner case.
            padded[...] = pad_array(
                interior_view(padded, radius).copy(), radius, bspec
            )
            return padded
    for axis in range(ndim):
        r = radius[axis]
        if r == 0:
            continue
        bc = bspec.axis(axis)
        n = padded.shape[axis] - 2 * r
        base: list = []
        for ax2 in range(ndim):
            if ax2 < axis:
                base.append(slice(None))
            elif ax2 == axis:
                base.append(slice(None))  # replaced per slab below
            else:
                r2 = radius[ax2]
                base.append(
                    slice(r2, padded.shape[ax2] - r2) if r2 else slice(None)
                )

        def slab(sl: slice) -> np.ndarray:
            s = list(base)
            s[axis] = sl
            return padded[tuple(s)]

        low, high = slice(0, r), slice(r + n, 2 * r + n)
        if bc.is_clamp:
            slab(low)[...] = slab(slice(r, r + 1))
            slab(high)[...] = slab(slice(r + n - 1, r + n))
        elif bc.is_periodic:
            # Ghost and source ranges are disjoint because r <= n.
            slab(low)[...] = slab(slice(n, n + r))
            slab(high)[...] = slab(slice(r, 2 * r))
        else:
            fill = bc.fill_value()
            slab(low)[...] = fill
            slab(high)[...] = fill
    return padded


def interior_slices(radius, ndim: int) -> Tuple[slice, ...]:
    """Slices selecting the interior block of a padded array."""
    radius = normalize_radius(radius, ndim)
    return tuple(slice(r, None if r == 0 else -r) for r in radius)


def interior_view(padded: np.ndarray, radius) -> np.ndarray:
    """View of the interior block of a padded array."""
    return padded[interior_slices(radius, padded.ndim)]


def shifted_view(
    padded: np.ndarray,
    offset: Sequence[int],
    radius,
    interior_shape: Sequence[int],
) -> np.ndarray:
    """View of the padded array shifted by ``offset``.

    The returned view ``v`` satisfies ``v[x, y, ...] ==
    padded[x + offset[0] + radius[0], y + offset[1] + radius[1], ...]``,
    i.e. it is the array of neighbour values ``u[x + i, y + j, ...]`` for
    every interior point, with the boundary condition already applied via
    the ghost cells.

    Parameters
    ----------
    padded:
        Array produced by :func:`pad_array` (or by halo exchange).
    offset:
        Per-axis stencil offset ``(i, j[, k])``.
    radius:
        Ghost width used to build ``padded``.
    interior_shape:
        Shape of the interior domain.
    """
    ndim = padded.ndim
    radius = normalize_radius(radius, ndim)
    offset = tuple(map(int, offset))
    if len(offset) != ndim:
        raise ValueError(f"offset has {len(offset)} components, array has {ndim}")
    slices = []
    for axis, (o, r, n) in enumerate(zip(offset, radius, interior_shape)):
        if abs(o) > r:
            raise ValueError(
                f"offset {o} exceeds ghost radius {r} along axis {axis}"
            )
        slices.append(slice(r + o, r + o + int(n)))
    return padded[tuple(slices)]
