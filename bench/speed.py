"""Machine speed: a fixed calibration task, and timings scaled by it.

A shared host slows each virtual CPU by its own amount, and the amount
drifts from second to second and over minutes. calibrate() times a fixed
stdlib task on the CPU it runs on. Bracketed runs a calibration between
consecutive timed items and scales each item by REFERENCE_S over the mean
of the calibrations just before and just after it: seconds at the speed
where calibrate() takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

import oracles

# calibrate()'s time at the reference speed
REFERENCE_S = 0.120


def calibrate() -> float:
    """Seconds for a fixed task that shares no code with kurepa.

    It mixes the three kinds of work the workloads do, because a busy host
    slows each kind by a different amount: a small-int Python loop, big-int
    additions (Bell numbers) and short numpy vector steps.
    """
    start = time.perf_counter()
    x = 0
    for k in range(750_000):
        x += k * k % 7
    oracles.bell_numbers(250)
    moduli = np.arange(1_000_003, 1_000_153, 2, dtype=np.uint64)
    f = np.ones(len(moduli), dtype=np.uint64)
    acc = np.ones(len(moduli), dtype=np.uint64)
    for k in range(1, 15_000):
        f = f * np.uint64(k) % moduli
        acc += f
    return time.perf_counter() - start


class Bracketed:
    """Timed items with a calibration before the first and after each one."""

    def __init__(self, calibration=calibrate) -> None:
        self.calibration = calibration
        self.durations: list[float] = []
        self.calibrations = [calibration()]

    def add(self, seconds: float) -> None:
        self.durations.append(seconds)
        self.calibrations.append(self.calibration())

    def scaled(self) -> list[float]:
        cal = self.calibrations
        return [2 * REFERENCE_S * t / (a + b) for t, a, b in zip(self.durations, cal, cal[1:])]
