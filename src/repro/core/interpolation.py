"""Checksum interpolation (Theorem 1 of the paper).

The checksums of a stencil domain are *not* invariant across iterations,
so they cannot be compared directly between steps as in classical ABFT.
Theorem 1 shows that the checksum vectors at step ``t+1`` can instead be
*predicted* from the checksum vectors at step ``t`` by applying the same
stencil kernel to the 1D checksum vectors, plus boundary-correction
terms (α for the row checksum, β for the column checksum):

.. math::

    a^{(t+1)}_x = c_x + \\sum_{\\{i,j,w\\} \\in S} w \\,(a^{(t)}_{x+i} + \\alpha^{(t)}_{x+i,j})

This module provides three implementations of that prediction:

:func:`interpolate_checksum_padded`
    The **exact** form. It reads the step-``t`` ghost-padded domain, so
    the α/β terms are computed exactly for *any* boundary condition,
    *any* (possibly asymmetric) stencil, and also for tiles whose ghost
    cells carry halo data from neighbouring tiles. Complexity is
    ``O(k (n_x + n_y) r)`` extra work per step — the strip accesses of
    Theorem 1 — never a full domain pass.

:func:`interpolate_checksum_reduced`
    The **checksum-only** form used by the offline protector: it needs
    only the previous checksum vector plus (optionally) the per-offset
    boundary *strip sums* recorded during the sweep
    (:func:`extract_delta_strips`). Without strips it degenerates into
    the paper's simplified Equations (8)-(9), which are exact only when
    the α/β terms cancel (periodic boundaries, or clamp boundaries with
    mirror-symmetric weights).

:func:`interpolate_checksum`
    Convenience wrapper: pads a raw domain and calls the exact form.

Index conventions
-----------------
The paper sums ``y = 0..ny`` inclusive; this implementation uses the
conventional half-open domain ``0..ny-1`` of shape ``(nx, ny)`` and the
α/β formulas are adapted accordingly. ``reduce_axis`` selects which
checksum is being interpolated: ``1`` (sum over y) for the row checksum
``a``, ``0`` (sum over x) for the column checksum ``b``. For 3D domains
``(nx, ny, nz)`` the remaining axes include the layer axis z, so a single
call interpolates the checksums of *all* layers at once while remaining
mathematically identical to the per-layer scheme of the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import normalize_radius, pad_array, shifted_view
from repro.stencil.spec import StencilSpec

__all__ = [
    "interpolate_checksum",
    "interpolate_checksum_padded",
    "interpolate_checksum_reduced",
    "extract_delta_strips",
    "reduced_boundary",
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _other_axes(ndim: int, reduce_axis: int) -> Tuple[int, ...]:
    return tuple(a for a in range(ndim) if a != reduce_axis)


def _window_slice(ndim: int, reduce_axis: int, start: int, stop: int) -> Tuple[slice, ...]:
    """Slice selecting ``[start, stop)`` along ``reduce_axis`` and everything else."""
    sl = [slice(None)] * ndim
    sl[reduce_axis] = slice(start, stop)
    return tuple(sl)


def _reduce_window_sum(
    padded: np.ndarray, reduce_axis: int, start: int, stop: int, dtype=None
) -> np.ndarray:
    """Sum of ``padded`` over ``[start, stop)`` along ``reduce_axis``.

    The result spans the *extended* (ghost-included) range of every other
    axis. ``start``/``stop`` are expressed in padded coordinates.
    """
    if dtype is None:
        dtype = padded.dtype
    if stop <= start:
        shape = tuple(
            n for a, n in enumerate(padded.shape) if a != reduce_axis
        )
        return np.zeros(shape, dtype=dtype)
    return padded[_window_slice(padded.ndim, reduce_axis, start, stop)].sum(
        axis=reduce_axis, dtype=dtype
    )


def _extended_checksum(
    cs_prev: np.ndarray,
    padded_prev: np.ndarray,
    radius: Sequence[int],
    interior_shape: Sequence[int],
    reduce_axis: int,
    dtype=None,
) -> np.ndarray:
    """Checksum over the ghost-extended range of the non-reduced axes.

    The interior block is taken verbatim from ``cs_prev`` (already
    computed, and — per the ABFT inductive assumption — already verified
    correct at step ``t``); only the thin ghost border is summed from the
    padded domain, keeping the extra cost proportional to the boundary
    surface rather than to the domain volume.
    """
    ndim = padded_prev.ndim
    other = _other_axes(ndim, reduce_axis)
    r_d = radius[reduce_axis]
    n_d = int(interior_shape[reduce_axis])
    if dtype is None:
        dtype = padded_prev.dtype
    ext_shape = tuple(int(interior_shape[a]) + 2 * radius[a] for a in other)
    ext = np.empty(ext_shape, dtype=dtype)

    interior_block = tuple(
        slice(radius[a], radius[a] + int(interior_shape[a])) for a in other
    )
    ext[interior_block] = cs_prev

    # Interior window along the reduced axis, all of the extended range on
    # the other axes.
    window = padded_prev[_window_slice(ndim, reduce_axis, r_d, r_d + n_d)]
    for pos, axis in enumerate(other):
        r_a = radius[axis]
        if r_a == 0:
            continue
        for border in (slice(0, r_a), slice(ext_shape[pos] - r_a, ext_shape[pos])):
            dst = [slice(None)] * len(other)
            dst[pos] = border
            src = [slice(None)] * ndim
            src[axis] = border
            ext[tuple(dst)] = window[tuple(src)].sum(axis=reduce_axis, dtype=dtype)
    return ext


def _delta_for_offset(
    padded_prev: np.ndarray,
    radius: Sequence[int],
    interior_shape: Sequence[int],
    reduce_axis: int,
    offset_d: int,
    dtype=None,
) -> np.ndarray:
    """The α/β boundary-correction term for a single reduce-axis offset.

    Returns ``G_{o_d} - a_ext``: the difference between the window sum
    shifted by ``offset_d`` along the reduced axis and the unshifted
    window sum, over the extended range of the other axes. Only
    ``|offset_d|`` boundary strips are touched.
    """
    r_d = radius[reduce_axis]
    n_d = int(interior_shape[reduce_axis])
    if dtype is None:
        dtype = padded_prev.dtype
    m = abs(int(offset_d))
    if m == 0:
        shape = tuple(
            int(interior_shape[a]) + 2 * radius[a]
            for a in _other_axes(padded_prev.ndim, reduce_axis)
        )
        return np.zeros(shape, dtype=dtype)
    if m > r_d:
        raise ValueError(
            f"offset {offset_d} exceeds ghost radius {r_d} along the reduced axis"
        )
    if offset_d > 0:
        # window [m, n_d + m): gains the m ghost columns just above the
        # interior, loses the first m interior columns.
        gained = _reduce_window_sum(
            padded_prev, reduce_axis, r_d + n_d, r_d + n_d + m, dtype=dtype
        )
        lost = _reduce_window_sum(padded_prev, reduce_axis, r_d, r_d + m, dtype=dtype)
    else:
        # window [-m, n_d - m): gains the m ghost columns just below the
        # interior, loses the last m interior columns.
        gained = _reduce_window_sum(padded_prev, reduce_axis, r_d - m, r_d, dtype=dtype)
        lost = _reduce_window_sum(
            padded_prev, reduce_axis, r_d + n_d - m, r_d + n_d, dtype=dtype
        )
    return gained - lost


def _other_offset(offset: Sequence[int], reduce_axis: int) -> Tuple[int, ...]:
    return tuple(int(o) for a, o in enumerate(offset) if a != reduce_axis)


# ---------------------------------------------------------------------------
# exact interpolation from the padded previous domain
# ---------------------------------------------------------------------------

def interpolate_checksum_padded(
    cs_prev: np.ndarray,
    padded_prev: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    reduce_axis: int,
    constant_sum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact Theorem-1 interpolation of a checksum.

    Parameters
    ----------
    cs_prev:
        Checksum of the step-``t`` domain along ``reduce_axis``
        (assumed correct; the ABFT inductive hypothesis).
    padded_prev:
        Ghost-padded step-``t`` domain — the same array the sweep read.
        Only thin boundary strips of it are accessed.
    spec:
        The stencil operator.
    radius:
        Ghost width of ``padded_prev``.
    interior_shape:
        Shape of the interior domain.
    reduce_axis:
        Axis summed over by this checksum (0 → column checksum ``b``,
        1 → row checksum ``a``).
    constant_sum:
        Pre-computed checksum of the constant term ``C`` along
        ``reduce_axis`` (the ``c_x`` / ``c_y`` of Theorem 1), or ``None``.

    Returns
    -------
    numpy.ndarray
        The predicted step-``t+1`` checksum; same shape as ``cs_prev``.
    """
    interior_shape = tuple(int(n) for n in interior_shape)
    ndim = len(interior_shape)
    radius = normalize_radius(radius, ndim)
    if reduce_axis < 0 or reduce_axis >= ndim:
        raise ValueError(f"reduce_axis {reduce_axis} out of range for {ndim}D domain")
    other = _other_axes(ndim, reduce_axis)
    other_shape = tuple(interior_shape[a] for a in other)
    if cs_prev.shape != other_shape:
        raise ValueError(
            f"cs_prev has shape {cs_prev.shape}, expected {other_shape} "
            f"(domain {interior_shape}, reduce_axis {reduce_axis})"
        )
    radius_other = tuple(radius[a] for a in other)
    dtype = np.result_type(cs_prev.dtype, padded_prev.dtype)

    ext = _extended_checksum(
        cs_prev, padded_prev, radius, interior_shape, reduce_axis, dtype=dtype
    )

    predicted = np.zeros(other_shape, dtype=dtype)
    if constant_sum is not None:
        predicted += np.asarray(constant_sum, dtype=dtype)

    # The extended checksum of the window shifted by each reduce-axis
    # offset (plus its α/β term), built once per distinct offset.
    shifted_ext: Dict[int, np.ndarray] = {0: ext}
    term = np.empty(other_shape, dtype=dtype)
    for offset, weight in spec:
        o_d = int(offset[reduce_axis])
        g = shifted_ext.get(o_d)
        if g is None:
            g = shifted_ext[o_d] = ext + _delta_for_offset(
                padded_prev, radius, interior_shape, reduce_axis, o_d, dtype=dtype
            )
        contribution = shifted_view(
            g, _other_offset(offset, reduce_axis), radius_other, other_shape
        )
        np.multiply(np.asarray(weight, dtype=dtype), contribution, out=term)
        predicted += term
    return predicted


def interpolate_checksum(
    cs_prev: np.ndarray,
    u_prev: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    reduce_axis: int,
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact Theorem-1 interpolation from a raw (unpadded) previous domain."""
    radius = spec.radius()
    padded = pad_array(u_prev, radius, boundary)
    constant_sum = None
    if constant is not None:
        constant_sum = np.asarray(constant).sum(axis=reduce_axis)
    return interpolate_checksum_padded(
        cs_prev, padded, spec, radius, u_prev.shape, reduce_axis, constant_sum
    )


# ---------------------------------------------------------------------------
# strip extraction + checksum-only interpolation (offline / simplified)
# ---------------------------------------------------------------------------

def extract_delta_strips(
    padded_prev: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    reduce_axis: int,
) -> Dict[int, np.ndarray]:
    """Record the per-offset boundary strip sums of a step.

    The returned dictionary maps each distinct reduce-axis offset
    ``o_d != 0`` appearing in the stencil to its α/β correction vector
    over the *interior* range of the other axes. The offline protector
    stores one such dictionary per sweep (a few KiB) so that it can
    replay the exact interpolation over a whole detection period without
    keeping the intermediate domains alive.
    """
    interior_shape = tuple(int(n) for n in interior_shape)
    ndim = len(interior_shape)
    radius = normalize_radius(radius, ndim)
    other = _other_axes(ndim, reduce_axis)
    interior_block = tuple(
        slice(radius[a], radius[a] + interior_shape[a]) for a in other
    )
    strips: Dict[int, np.ndarray] = {}
    for offset, _weight in spec:
        o_d = int(offset[reduce_axis])
        if o_d == 0 or o_d in strips:
            continue
        delta = _delta_for_offset(
            padded_prev, radius, interior_shape, reduce_axis, o_d
        )
        strips[o_d] = np.ascontiguousarray(delta[interior_block])
    return strips


def reduced_boundary(
    boundary: BoundarySpec, reduce_axis: int, n_reduce: int, zero_constant: bool = False
) -> BoundarySpec:
    """Boundary specification induced on a checksum vector.

    Summing ``n_reduce`` domain points along the reduced axis maps each
    boundary behaviour of the remaining axes onto the checksum vector:
    clamp stays clamp, periodic stays periodic, zero stays zero, and a
    constant boundary of value ``v`` becomes a constant of ``n_reduce*v``
    (a whole out-of-domain row/column sums to ``n_reduce * v``).

    With ``zero_constant=True`` constant boundaries map to zero instead,
    which is the correct induced behaviour for the α/β *strip* vectors
    (out-of-domain strips are identical on both sides of the subtraction
    and cancel).
    """
    conditions = []
    for axis, bc in enumerate(boundary):
        if axis == reduce_axis:
            continue
        if bc.is_constant:
            if zero_constant:
                conditions.append(BoundaryCondition.zero())
            else:
                conditions.append(BoundaryCondition.constant(bc.value * n_reduce))
        else:
            conditions.append(bc)
    return BoundarySpec(tuple(conditions))


def interpolate_checksum_reduced(
    cs_prev: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec,
    reduce_axis: int,
    n_reduce: int,
    deltas: Optional[Dict[int, np.ndarray]] = None,
    constant_sum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Interpolate a checksum using only checksum-space information.

    This is the form the offline protector iterates Δ times (Section 4.1,
    Figure 7 of the paper): apply the stencil kernel to the previous 1D
    checksum vector. When ``deltas`` (recorded by
    :func:`extract_delta_strips` during the corresponding sweep) are
    provided, the result is *exact* for closed boundary conditions; when
    they are omitted the call implements the paper's simplified
    Equations (8)-(9), which assume the α/β terms vanish (periodic
    boundaries, or clamp boundaries with mirror-symmetric weights).

    Parameters
    ----------
    cs_prev:
        Checksum at step ``t`` (interior range of the non-reduced axes).
    spec:
        The stencil operator of the protected sweep.
    boundary:
        Full-domain boundary specification (one entry per domain axis,
        including the reduced one).
    reduce_axis:
        Axis summed over by this checksum.
    n_reduce:
        Domain extent along the reduced axis (needed to scale constant
        boundaries onto checksum space).
    deltas:
        Optional mapping ``{o_d: strip vector}`` of α/β corrections.
    constant_sum:
        Pre-computed checksum of the constant term, or ``None``.
    """
    if boundary.ndim != spec.ndim:
        raise ValueError(
            f"boundary has {boundary.ndim} axes, stencil is {spec.ndim}D"
        )
    other = _other_axes(spec.ndim, reduce_axis)
    radius = spec.radius()
    radius_other = tuple(radius[a] for a in other)
    other_shape = cs_prev.shape
    dtype = cs_prev.dtype

    cs_boundary = reduced_boundary(boundary, reduce_axis, n_reduce)
    strip_boundary = reduced_boundary(boundary, reduce_axis, n_reduce, zero_constant=True)
    cs_ext = pad_array(cs_prev, radius_other, cs_boundary)

    padded_deltas: Dict[int, np.ndarray] = {}
    if deltas:
        for o_d, strip in deltas.items():
            strip = np.asarray(strip, dtype=dtype)
            if strip.shape != other_shape:
                raise ValueError(
                    f"delta strip for offset {o_d} has shape {strip.shape}, "
                    f"expected {other_shape}"
                )
            padded_deltas[int(o_d)] = pad_array(strip, radius_other, strip_boundary)

    predicted = np.zeros(other_shape, dtype=dtype)
    if constant_sum is not None:
        predicted += np.asarray(constant_sum, dtype=dtype)

    for offset, weight in spec:
        o_d = int(offset[reduce_axis])
        if o_d != 0 and o_d in padded_deltas:
            g = cs_ext + padded_deltas[o_d]
        else:
            g = cs_ext
        o_other = _other_offset(offset, reduce_axis)
        contribution = shifted_view(g, o_other, radius_other, other_shape)
        predicted += np.asarray(weight, dtype=dtype) * contribution
    return predicted
