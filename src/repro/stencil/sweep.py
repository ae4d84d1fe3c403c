"""Generic N-dimensional stencil sweep.

Implements Equation (1) of the paper,

.. math::

    u^{(t+1)}_{x,y} = C_{x,y} + \\sum_{\\{i,j,w\\} \\in S} w \\cdot u^{(t)}_{x+i,y+j},

as a vectorised accumulation of shifted views over a ghost-padded array.
The padded form (:func:`sweep_padded`) sweeps ghost cells the caller has
filled, e.g. with halo data instead of a closed boundary condition.

The actual arithmetic lives in the pluggable compute backends
(:mod:`repro.backends`); these one-shot functions resolve the active
backend and delegate to its ``sweep_padded``.  Iterative callers step a
:class:`~repro.stencil.grid.Grid2D` / :class:`~repro.stencil.grid.Grid3D`
instead, whose persistent buffer pair goes through the backend's
``step_into*`` primitives with no full-domain copy.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends import get_backend
from repro.backends.registry import BackendLike
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import pad_array
from repro.stencil.spec import StencilSpec

__all__ = ["sweep_padded", "sweep"]


def sweep_padded(
    padded: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    constant: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Apply one stencil sweep to a ghost-padded array.

    Parameters
    ----------
    padded:
        Domain surrounded by ghost cells (boundary condition or halo data
        already applied).
    spec:
        The stencil operator.
    radius:
        Ghost width of ``padded`` (scalar or per axis); must be at least
        the stencil radius on every axis.
    interior_shape:
        Shape of the interior domain to update.
    constant:
        Optional per-point constant term :math:`C` (same shape as the
        interior), e.g. a heat-source/power map.
    out:
        Optional pre-allocated output array (interior shape).
    backend:
        Compute backend name or instance (``None`` → active default).

    Returns
    -------
    numpy.ndarray
        The updated interior domain at step ``t+1``.
    """
    return get_backend(backend).sweep_padded(
        padded, spec, radius, interior_shape, constant=constant, out=out
    )


def sweep(
    u: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    constant: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Apply one stencil sweep to an interior domain with a boundary condition.

    This is the closed-boundary convenience form for 2D and 3D domains
    alike: it pads a fresh copy of ``u`` according to ``boundary`` and
    delegates to :func:`sweep_padded`.  The domain and the stencil must
    have the same number of dimensions.
    """
    if u.ndim != spec.ndim:
        raise ValueError(
            f"domain has {u.ndim} dimensions but stencil is {spec.ndim}D"
        )
    radius = spec.radius()
    padded = pad_array(u, radius, boundary)
    return sweep_padded(
        padded, spec, radius, u.shape, constant=constant, out=out, backend=backend
    )
