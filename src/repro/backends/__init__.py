"""Pluggable compute backends.

Every numerical hot path of the reproduction — the stencil sweep, the
checksum reductions and the paper's fused sweep+checksum kernel — is
routed through a :class:`~repro.backends.base.Backend`.  Two backends
ship built in:

``numpy``
    The straightforward reference implementation (one temporary per
    stencil point, post-hoc checksum passes).  Every other backend is
    validated against it.
``fused``
    The optimised default: allocation-free in-place accumulation through
    a preallocated scratch buffer, and checksums produced by the same
    call as the sweep (cache-hot reduction), mirroring the paper's fused
    float32 kernel.  Bitwise-identical results to ``numpy``.

A third backend is gated on an optional dependency:

``numba``
    JIT-compiled per-point fusion: kernels **generated** by the stencil
    kernel compiler (:mod:`repro.backends.codegen`) from the spec's
    offset table plus the grid layout, compiled with
    ``@njit(cache=True, parallel=True)``.  One traversal refreshes
    ghost cells, sweeps into the back buffer and accumulates both
    checksum vectors per point (the true fusion the ``fused`` backend's
    docstring defers to a compiled loop), and the halo plan covers
    *every* layout — boundary mixes, external-axis orderings, degenerate
    periodic wraps — so nothing ever falls back to an interpreted step.
    Registered only when ``numba`` is importable (the sole availability
    condition); otherwise it is listed as unavailable
    (``repro backends``) and selecting it raises a message explaining
    how to enable it.  ``repro backends --kernels`` lists the generated
    kernel cache.

A backend implements ``sweep_padded``; :class:`~repro.backends.base.Backend`
implements every other primitive once on top of it — the zero-copy
``sweep_into`` (write the new step directly into the interior of a
second persistent padded buffer) and the ``step_into*``,
``batch_step_into*`` and ``multi_step_into*`` steps the grids, the
campaign engine and temporal blocking drive (ghost refresh included —
see ``Backend.supports_fused_step``).  ``numpy`` and ``fused`` run those
interpreted implementations; ``numba`` overrides the step families with
its compiled kernels, so a backend that fuses the refresh into its
sweep is used automatically.

Select a backend with the ``backend=`` keyword accepted throughout the
stack (grids, sweeps, protectors, the tiled runner), the
``REPRO_BACKEND`` environment variable, or the CLI's ``--backend`` flag.
"""

from repro.backends.base import Backend, ChecksumMap
from repro.backends.fused import FusedBackend
from repro.backends.numba_backend import NUMBA_AVAILABLE, UNAVAILABLE_REASON
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    BUILTIN_DEFAULT,
    ENV_VAR,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    register_unavailable_backend,
    set_default_backend,
    unavailable_backends,
)

__all__ = [
    "Backend",
    "ChecksumMap",
    "NumpyBackend",
    "FusedBackend",
    "NUMBA_AVAILABLE",
    "ENV_VAR",
    "BUILTIN_DEFAULT",
    "register_backend",
    "register_unavailable_backend",
    "available_backends",
    "unavailable_backends",
    "get_backend",
    "set_default_backend",
    "default_backend_name",
]

register_backend(NumpyBackend(), aliases=("reference",))
register_backend(FusedBackend())
if NUMBA_AVAILABLE:
    from repro.backends.numba_backend import NumbaBackend

    __all__.append("NumbaBackend")
    register_backend(NumbaBackend())
else:
    register_unavailable_backend("numba", UNAVAILABLE_REASON)
