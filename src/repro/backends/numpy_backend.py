"""The ``numpy`` reference backend.

This is the straightforward vectorised implementation the reproduction
started from: one full-array temporary per stencil point during the
sweep, and checksums computed by separate post-hoc passes over the new
domain (the unfused shape every optimised backend is validated against).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.stencil.shift import shifted_view
from repro.stencil.spec import StencilSpec

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Reference backend: allocating accumulation, unfused checksums."""

    name = "numpy"

    def sweep_padded(
        self,
        padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        interior_shape, radius = self._normalize_sweep_args(
            padded, radius, interior_shape, constant, out
        )
        dtype = padded.dtype
        if out is None:
            out = np.zeros(interior_shape, dtype=dtype)
        else:
            out[...] = 0
        if constant is not None:
            out += constant
        for offset, weight in spec:
            view = shifted_view(padded, offset, radius, interior_shape)
            # ``out += w * view`` allocates a full-size temporary per
            # stencil point; the fused backend eliminates it with a
            # preallocated scratch buffer.
            out += np.asarray(weight, dtype=dtype) * view
        return out
