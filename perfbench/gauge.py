"""Host speed gauge: a fixed reference routine timed between benchmark jobs.

On a shared host the same pass can take twice as long from one minute to the
next, and CPU time tracks wall time, so neither clock removes the effect.  The
gauge runs a short pure-Python routine that uses no wct code but is written
in the package's idiom, between jobs, at most once per INTERVAL_S of job
time.  Its median time over the pass, against NOMINAL_S, is the pass's speed
factor: 1.0 at the reference speed, 1.5 when the host ran everything half
again as slow.  Dividing a pass's times by its factor gives
reference-seconds, which compare across host speed swings.  The routine does
not depend on the package, so a change to wct cannot move it.

The correction is partial.  Over host speed swings, wct passes slowed by the
gauge's slowdown to a power of about 0.75, so reference-seconds still move
with the host, by roughly a quarter of what the raw clock does.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import NamedTuple

INTERVAL_S = 0.05
# Sets the scale of reference-seconds: close to the routine's fastest time
# on the 2.1 GHz host the benchmark was built on.
NOMINAL_S = 0.0025


class _Point(NamedTuple):
    a: tuple
    f: str


_MAT = ((2, 1), (1, 1))


@functools.lru_cache(maxsize=1)
def _table() -> tuple[dict, list]:
    table = {(i, (i * 7919) % 10007): (i % 97, i % 89) for i in range(4096)}
    keys = sorted(table, key=lambda k: (k[1] * 31 + k[0]) % 4099)[:600]
    return table, keys


def reference_routine() -> int:
    """Fixed work in the package's idiom: dict lookups scattered over a
    table, generator-expression matrix products, NamedTuple and tuple
    building, small sorts, and a dict that is read and rewritten."""
    table, keys = _table()
    pts = []
    for k in keys:
        v = table[k]
        w = tuple(sum(row[j] * v[j] for j in range(2)) for row in _MAT)
        pts.append(_Point((w[0] + k[0], w[1] - k[1]), "rho"))
        if len(pts) > 50:
            pts.sort(key=lambda p: p.a)
            pts = pts[25:]
    seen: dict = {}
    for i in range(1500):
        key = (i % 37, i % 41)
        old = seen.get(key)
        seen[key] = (i, key) if old is None else (old[0] + 1, key)
    return len(pts) + sum(1 for n, _ in seen.values() if n & 1)


class SpeedGauge:
    """Samples the reference routine between jobs; reports the speed factor."""

    def __init__(self):
        _table()                      # build the routine's data outside any timing
        self.samples: list = []
        self.spent = 0.0              # seconds the gauge itself took
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_routine()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def tick(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        return statistics.median(self.samples) / NOMINAL_S
