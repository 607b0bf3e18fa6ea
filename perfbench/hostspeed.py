"""Host speed probes, for reporting times at a fixed reference speed.

The sandboxes this benchmark runs in have slow spells: the same code runs
up to twice as slowly for tens of seconds at a time, with no steal time
reported, so a whole run can land in one.  No statistic taken inside a run
removes that.  So the benchmark times a small fixed kernel between steps
and scales each step's time by ``reference / probe``: a step that took
120 ms while the probe read 1.5 times its reference is reported as 80 ms.
The kernels are frozen copies of the kind of work each workload does
(per-step rollout, CSV parsing, small dense factorisations) and call no
switchid code, so a change to the package cannot move them.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# Reference times in ms: the lower quartile of each kernel over a few
# hundred runs in a fast spell of a 2-vCPU sandbox (Python 3.11, numpy 2.4,
# one BLAS thread).
REFERENCE_MS = {"rollout": 6.36, "parse": 2.94, "factor": 1.74}
PROBE_EVERY_S = 0.25
# Set-up is interpreter start, simulation and writing text files.
SETUP_MIX = {"rollout": 1.0, "parse": 1.0}

# The rollout kernel is the seed simulate loop of the two-mode family over
# a 1500-step window of 200k-step signals, at a window that moves with the
# clock, so that like a long simulation it reads memory outside the caches.
_T = 200_000
_A = [np.array([[0.0, 1.0], [0.0, 0.27]]), np.array([[0.0, 0.0], [0.0, 0.27]])]
_C = np.array([1.0, 0.0])
_rng = np.random.default_rng(0)
_Q = _rng.integers(1, 3, size=_T)
_E = _rng.uniform(-1.0, 1.0, size=(_T, 2))
_YD = _rng.uniform(-1.0, 1.0, size=_T)
_Y = np.empty(_T)
_CSV = "t,y,u_1,q\n" + "".join(
    f"{t},{y!r},{u!r},{1 + t % 3}\n"
    for t, (y, u) in enumerate(np.random.default_rng(1).standard_normal((1_500, 2)).tolist())
)
_H = np.random.default_rng(2).standard_normal((12, 12))


def _rollout():
    start = time.perf_counter_ns() // 1000 % (_T - 1_500)
    x = np.zeros(2)
    dot = np.dot
    for t in range(start, start + 1_500):
        _Y[t] = dot(_C, x) + _YD[t]
        x = dot(_A[_Q[t] - 1], x)
        x += _E[t]
        if abs(x).max() > 1e12:
            raise RuntimeError("probe diverged")


def _parse():
    reader = csv.reader(io.StringIO(_CSV))
    next(reader)
    ys, us, qs = [], [], []
    for row in reader:
        ys.append(float(row[1]))
        us.append([float(x) for x in row[2:3]])
        qs.append(int(row[-1]))
    np.array(ys), np.array(us), np.array(qs)


def _factor():
    for i in range(120):
        rows = [i % 12, (i + 3) % 12, (i + 5) % 12, (i + 7) % 12]
        np.linalg.svd(_H[np.ix_(rows, rows)], compute_uv=False)


KERNELS = {"rollout": _rollout, "parse": _parse, "factor": _factor}


def probe(mix: dict[str, float]) -> float:
    """Host slowness relative to the reference: the weighted mean over the
    kernels in ``mix`` of measured / reference time."""
    total = 0.0
    for name, weight in mix.items():
        t0 = time.perf_counter()
        KERNELS[name]()
        total += weight * 1e3 * (time.perf_counter() - t0) / REFERENCE_MS[name]
    return total / sum(mix.values())


class SpeedLog:
    """Probe readings over time; ``slowness(t)`` interpolates between them."""

    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            value = probe(self.mix)
            self.times.append(now)
            self.values.append(value)

    def slowness(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))
