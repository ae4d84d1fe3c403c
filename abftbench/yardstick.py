"""Frozen plain-NumPy yardstick sweeps.

Every timed ratio in the benchmark divides a library leg by one of these
sweeps, run in the same process, so that machine speed and noise shared by
both legs cancel.  They are deliberately written against nothing but
NumPy: they must never import the library, and they must never change, or
every ratio measured before the change stops being comparable.

Both sweeps use clamped boundaries, keep a persistent ghost-padded buffer
pair and write through ``out=`` so that a step allocates nothing.  With
``batch=B`` the 3D sweep carries a trailing axis of ``B`` independent runs
that the stencil never shifts along (the layout of a stacked campaign).

:func:`setup_job` is the yardstick for set-up time: like a set-up it makes
its inputs, allocates fresh buffers and sweeps a few times.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Sweep3D7", "Sweep2D5", "setup_job"]


class _PaddedPair:
    """Two ghost-padded buffers (ghost width 1); ``u`` is the live interior."""

    def __init__(self, initial: np.ndarray, batch: int = 0) -> None:
        self.ndim = initial.ndim
        shape = tuple(n + 2 for n in initial.shape) + ((batch,) if batch else ())
        self._bufs = [np.empty(shape, initial.dtype), np.empty(shape, initial.dtype)]
        self._inner = tuple(slice(1, -1) for _ in initial.shape) + ((slice(None),) if batch else ())
        self._batch = batch
        self._tmp = np.empty(self._bufs[0][self._inner].shape, initial.dtype)
        self.load(initial)

    def load(self, values: np.ndarray) -> None:
        """Restart every run from ``values`` without allocating."""
        self._front = 0
        self._bufs[0][self._inner] = values[..., None] if self._batch else values

    @property
    def u(self) -> np.ndarray:
        return self._bufs[self._front][self._inner]

    def _clamp_ghosts(self) -> np.ndarray:
        p = self._bufs[self._front]
        for axis in range(self.ndim):
            lo = [slice(None)] * p.ndim
            lo_src = [slice(None)] * p.ndim
            hi = [slice(None)] * p.ndim
            hi_src = [slice(None)] * p.ndim
            lo[axis], lo_src[axis] = 0, 1
            hi[axis], hi_src[axis] = -1, -2
            p[tuple(lo)] = p[tuple(lo_src)]
            p[tuple(hi)] = p[tuple(hi_src)]
        return p

    def _shifted(self, p: np.ndarray, axis: int, delta: int) -> np.ndarray:
        index = list(self._inner)
        n = p.shape[axis]
        index[axis] = slice(1 + delta, n - 1 + delta)
        return p[tuple(index)]

    def _sweep(self, center: float, weights, constant) -> None:
        """``out = center*u + sum(w * neighbour) (+ constant)``, then swap."""
        p = self._clamp_ghosts()
        out = self._bufs[1 - self._front][self._inner]
        np.multiply(p[self._inner], center, out=out)
        for (axis, delta), weight in weights:
            np.multiply(self._shifted(p, axis, delta), weight, out=self._tmp)
            np.add(out, self._tmp, out=out)
        if constant is not None:
            np.add(out, constant, out=out)
        self._front = 1 - self._front


class Sweep3D7(_PaddedPair):
    """3D 7-point sweep with a per-point constant (the HotSpot3D kernel).

    ``west, east, north, south, below, above`` weight the neighbours at
    -x, +x, -y, +y, -z, +z.
    """

    def __init__(self, initial, center, west, east, north, south, below, above,
                 constant=None, batch: int = 0):
        super().__init__(np.asarray(initial), batch)
        dtype = self.u.dtype.type
        self.center = dtype(center)
        self.weights = [
            ((0, -1), dtype(west)), ((0, 1), dtype(east)),
            ((1, -1), dtype(north)), ((1, 1), dtype(south)),
            ((2, -1), dtype(below)), ((2, 1), dtype(above)),
        ]
        if constant is not None:
            constant = np.ascontiguousarray(constant, self.u.dtype)
            if batch:
                constant = constant[..., None]
        self.constant = constant

    def step(self) -> None:
        self._sweep(self.center, self.weights, self.constant)


class Sweep2D5(_PaddedPair):
    """2D 5-point diffusion ``u + alpha * laplacian(u)``."""

    def __init__(self, initial, alpha: float) -> None:
        super().__init__(np.asarray(initial))
        dtype = self.u.dtype.type
        self.center = dtype(1.0 - 4.0 * alpha)
        a = dtype(alpha)
        self.weights = [((0, -1), a), ((0, 1), a), ((1, -1), a), ((1, 1), a)]

    def step(self) -> None:
        self._sweep(self.center, self.weights, None)


def setup_job(shape, steps: int, batch: int = 0) -> None:
    """Make a fixed field of ``shape``, build a fresh sweep over it, run ``steps``."""
    field = np.random.default_rng(0).random(shape, dtype=np.float32) * np.float32(100)
    if len(shape) == 3:
        sweep = Sweep3D7(field, 0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1,
                         constant=field * np.float32(0.01), batch=batch)
    else:
        sweep = Sweep2D5(field, 0.2)
    for _ in range(steps):
        sweep.step()
