"""In-memory checkpoint storage.

A checkpoint captures everything needed to restart the stencil
computation from a verified point: the domain snapshot, the iteration
number and the checksum vector(s) that were verified when the checkpoint
was taken. Checkpoints live in memory (the paper performs "a lightweight
memory copy of the current state of the grid and of the checksums every
Δ iterations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.stencil.grid import GridSnapshot

__all__ = ["Checkpoint", "InMemoryCheckpointStore"]


@dataclass
class Checkpoint:
    """A verified restart point."""

    iteration: int
    snapshot: GridSnapshot
    checksums: Dict[int, np.ndarray] = field(default_factory=dict)

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        total = self.snapshot.nbytes()
        for cs in self.checksums.values():
            total += int(cs.nbytes)
        return total


class InMemoryCheckpointStore:
    """Single-slot store of the most recent in-memory checkpoint.

    The offline protector only ever rolls back to the most recent
    verified checkpoint (the paper's behaviour), so saving a checkpoint
    replaces the previous one.
    """

    def __init__(self) -> None:
        self._latest: Optional[Checkpoint] = None
        self.saves = 0
        self.restores = 0

    def save(self, checkpoint: Checkpoint) -> None:
        """Store a checkpoint, replacing the previous one."""
        self._latest = checkpoint
        self.saves += 1

    def latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint, or ``None`` if empty."""
        return self._latest

    def mark_restore(self) -> None:
        self.restores += 1

    def clear(self) -> None:
        self._latest = None

    def __len__(self) -> int:
        return 0 if self._latest is None else 1

    def nbytes(self) -> int:
        """Memory footprint of the stored checkpoint."""
        return 0 if self._latest is None else self._latest.nbytes()
