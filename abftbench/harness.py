"""Interleaved, order-balanced timing of benchmark legs.

A *leg* is one way of doing the same job (the NumPy yardstick, the
unprotected library, a protector).  Legs advance one *unit* at a time
(one iteration, or one chunk of campaign runs), all legs once per
*round*.  The order inside a round follows the rows of a Williams Latin
square, so over every full cycle of rows each leg runs directly after
every other leg equally often: cache and frequency carry-over from the
previous leg then biases no leg.  Every timed end-to-end metric is a
ratio between legs of the same round, so machine speed and slow drifts
shared by both legs cancel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "Leg",
    "Timings",
    "williams_rows",
    "interleave",
]


@dataclass
class Leg:
    """One leg: ``step()`` advances it by one unit of ``work`` cell updates."""

    name: str
    step: Callable[[], None]
    work: float
    #: Whether the leg calls into the library (the yardstick does not);
    #: only these legs count towards the tracing overhead.
    library: bool = True


@dataclass
class Timings:
    """Per-unit wall times, indexed ``[leg][round]``."""

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    traced: List[bool] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.traced)

    def untraced_rounds(self) -> List[int]:
        return [r for r, t in enumerate(self.traced) if not t]


def williams_rows(n: int) -> List[List[int]]:
    """Rows of a Williams design: each index follows every other equally often.

    For even ``n`` the ``n`` rows of the balanced Latin square suffice; for
    odd ``n`` the square is followed by its mirror image (``2n`` rows).
    """
    if n < 1:
        raise ValueError("need at least one leg")
    first, lo, hi = [0], 1, n - 1
    while len(first) < n:
        first.append(lo)
        lo += 1
        if len(first) < n:
            first.append(hi)
            hi -= 1
    rows = [[(x + i) % n for x in first] for i in range(n)]
    if n % 2:
        rows += [list(reversed(row)) for row in rows]
    return rows


def interleave(
    legs: Sequence[Leg],
    rounds: float,
    min_rounds: int,
    round_multiple: int = 1,
    on_round: Optional[Callable[[int], None]] = None,
    set_window: Optional[Callable[[object], None]] = None,
    trace_toggle: Optional[Callable[[bool], None]] = None,
) -> Timings:
    """Run the whole number of blocks nearest ``rounds``, at least ``min_rounds``.

    A block is the least common multiple of ``round_multiple`` and the
    Williams cycle (twice its rows when traced), so periodic work (a
    detection every 16 steps) always lands the same number of times among
    the samples and every leg-after-leg order occurs equally often.  The
    round count never depends on the clock, so the operations a run makes,
    and which of them fail, are fixed by its inputs.

    ``on_round(r)`` runs after round ``r`` completes, outside the timed
    region (window checks, counter snapshots).  With ``trace_toggle``
    rounds come in pairs that share one Williams row, one traced and one
    not, the traced one first in every other pair; ``trace_toggle(on)``
    installs or removes the tracing wrappers between rounds.
    """
    rows = williams_rows(len(legs))
    timings = Timings(seconds={leg.name: [] for leg in legs})
    cycle = len(rows) * (2 if trace_toggle is not None else 1)
    block = math.lcm(round_multiple, cycle)
    total = block * max(1, round(rounds / block), math.ceil(min_rounds / block))
    for r in range(total):
        if trace_toggle is not None:
            pair, second = divmod(r, 2)
            traced = bool(second) == bool(pair % 2)
            trace_toggle(traced)
            row = rows[pair % len(rows)]
        else:
            traced = False
            row = rows[r % len(rows)]
        for i in row:
            leg = legs[i]
            if set_window is not None:
                set_window((r, leg.name))
            t0 = time.perf_counter()
            leg.step()
            timings.seconds[leg.name].append(time.perf_counter() - t0)
        if set_window is not None:
            set_window(None)
        if trace_toggle is not None:
            trace_toggle(False)
        timings.traced.append(traced)
        if on_round is not None:
            on_round(r)
    return timings

