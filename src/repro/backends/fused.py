"""The ``fused`` backend: allocation-free sweep + in-call checksums.

Two optimisations over the ``numpy`` reference, both aimed at the
memory-bound nature of large stencil sweeps:

1. **No per-point temporaries.**  The reference's ``out += w * view``
   allocates (and page-faults) a full interior-sized temporary for every
   stencil point — 27 multi-megabyte allocations per sweep for the
   27-point 3D stencil.  This backend multiplies into one preallocated,
   thread-local scratch buffer (``np.multiply(view, w, out=scratch)``)
   and accumulates with an in-place ``np.add``; the first stencil point
   writes straight into the output, eliminating the zero-fill pass as
   well.  The operation order and rounding are identical to the
   reference, so the results are bitwise equal.

2. **Checksums from the same traversal.**  ``sweep_with_checksums``
   (inherited from :class:`~repro.backends.base.Backend`, which already
   reduces the result immediately after the sweep in the same call)
   reads the freshly written interior while it is still cache-hot.  A
   per-stencil-point incremental reduction of the scratch buffer was
   measured *slower* than one hot reduction of the result — ``k`` extra
   reduction passes versus one — so the fusion happens at call
   granularity, not per point.  That design note has since been
   revisited: the trade-off inverts once the loop is compiled, and the
   ``numba`` backend (:mod:`repro.backends.numba_backend`) now provides
   exactly the per-point fusion this paragraph defers — each computed
   value is folded into its row/column checksum partials inside the
   same compiled traversal (no re-read, no extra pass), with the ghost
   refresh fused in as well.  This backend remains the fastest
   *interpreted* implementation and the default when numba is absent.

The scratch cache is per-thread (``threading.local``) so the threaded
tile executor can sweep same-shaped tiles concurrently without races.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.stencil.shift import shifted_view
from repro.stencil.spec import StencilSpec

__all__ = ["FusedBackend"]

#: Scratch buffers cached per thread before the cache is reset (guards
#: against unbounded growth when many distinct tile shapes are swept).
_MAX_CACHED_SCRATCH = 8


class FusedBackend(Backend):
    """Optimised backend: scratch-buffer sweep, fused checksum production."""

    name = "fused"

    def __init__(self) -> None:
        self._local = threading.local()

    def _scratch(
        self, shape: Tuple[int, ...], dtype: np.dtype, slot: int = 0
    ) -> np.ndarray:
        """Per-thread persistent scratch buffer for ``shape``/``dtype``.

        ``slot`` distinguishes independent buffers of the same shape:
        slot 0 is the accumulation scratch of :meth:`sweep_padded`,
        slot 1 the contiguous output staging buffer of
        :meth:`sweep_into` (both can be live during one sweep).
        """
        cache: Optional[Dict] = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = {}
        key = (shape, np.dtype(dtype).str, slot)
        buf = cache.get(key)
        if buf is None:
            if len(cache) >= _MAX_CACHED_SCRATCH:
                cache.clear()
            buf = cache[key] = np.empty(shape, dtype=dtype)
        return buf

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
        scratch = self._scratch(interior_shape, dtype)
        if out is scratch:
            # A caller recycling our own scratch as the output would be
            # overwritten mid-accumulation; give it a private buffer.
            scratch = np.empty(interior_shape, dtype=dtype)

        # ``have_out`` tracks whether ``out`` already holds a partial sum
        # (the constant term, or the first stencil point's contribution).
        have_out = False
        if constant is not None:
            if out is None:
                out = np.zeros(interior_shape, dtype=dtype)
                out += constant
            else:
                out[...] = 0
                out += constant
            have_out = True

        for offset, weight in spec:
            view = shifted_view(padded, offset, radius, interior_shape)
            w = np.asarray(weight, dtype=dtype)
            if not have_out:
                # First contribution: write straight into the output,
                # skipping both the zero-fill and the scratch round-trip.
                if out is None:
                    out = np.multiply(view, w)
                else:
                    np.multiply(view, w, out=out)
                have_out = True
            else:
                np.multiply(view, w, out=scratch)
                np.add(out, scratch, out=out)
        return out

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Zero-copy sweep: materialise the new step inside the destination.

        Combined with the scratch-buffer accumulation of
        :meth:`sweep_padded`, a double-buffered step performs **no**
        full-domain allocation at all — the acceptance property the
        benchmark's tracemalloc gate verifies.

        The destination interior of a padded buffer is a *strided* view
        (each row is followed by ghost cells), and NumPy's ufunc inner
        loops pay a measurable penalty accumulating into it (~30% on a
        256x1024 float32 block).  When the interior is not contiguous
        the sweep therefore accumulates into a persistent contiguous
        staging buffer and lands in the interior with one vectorised
        copy (~4% instead) — same operation order, bitwise-identical
        result, still no per-step allocation.  The batched campaign
        step's interior is strided as well and takes the same route.
        Contiguous interiors and aliasing pairs use the base sweep.
        """
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        if interior.flags.c_contiguous or np.may_share_memory(
            src_padded, dst_padded
        ):
            return super().sweep_into(
                src_padded, dst_padded, spec, radius, interior_shape,
                constant=constant,
            )
        staging = self._scratch(interior.shape, interior.dtype, slot=1)
        self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant,
            out=staging,
        )
        interior[...] = staging
        return interior
