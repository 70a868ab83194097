"""Host CPU speed probe: wall timings scaled to a nominal host speed.

On a small shared VM the speed the host gives this process swings by up to
2x on a scale of seconds to minutes (see README.md, "Noise on small
machines"), far more than the changes the benchmark has to resolve.  The
probe measures that swing directly: a fixed pure-Python loop, timed at
pause points between the timed operations of a repetition.  The loop is
integer arithmetic on a few locals and touches no other data, so nothing
the engine does can change how long it takes; only the host can.  (Loops
with function calls and dict lookups, alone or mixed in, were tried and
corrected the benchmark's figures no better; README.md has the numbers.)

A repetition's *speed factor* is the median probe time in that repetition
divided by ``NOMINAL_S``.  Wall timings are divided by it (rates multiplied),
which reports them at the speed where the loop takes ``NOMINAL_S``.  Probe
time falls outside every timed operation and is subtracted from the query
phase's wall time.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["HostSpeed", "NOMINAL_S"]

#: Probe time that defines the nominal host speed (the loop's time on a
#: quiet 2-vCPU Xeon VM running Python 3.11).
NOMINAL_S = 0.0016
#: Loop length; one probe takes about ``NOMINAL_S``.
ITERATIONS = 20_000


def _loop() -> int:
    value = 0
    for step in range(ITERATIONS):
        value = (value * 31 + step) & 0xFFFF
    return value


class HostSpeed:
    """Collects probe times; disabled, every call is a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        #: Wall seconds spent probing since the last ``reset``.
        self.spent = 0.0

    def reset(self) -> None:
        self.samples = []
        self.spent = 0.0

    def sample(self) -> None:
        """Time the loop once."""
        if not self.enabled:
            return
        began = time.perf_counter()
        _loop()
        took = time.perf_counter() - began
        self.samples.append(took)
        self.spent += took

    def factor(self) -> float:
        """Median probe time since ``reset`` over ``NOMINAL_S`` (1.0 if none)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / NOMINAL_S
