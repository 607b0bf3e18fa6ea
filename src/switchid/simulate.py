"""Trajectory generation for linear switched systems.

The simulator draws an i.i.d. mode sequence and i.i.d. bounded uniform
input and noise signals, rolls the state recursion forward from x = 0,
and discards a burn-in prefix so that the retained samples approximate
the stationary trajectory the estimator assumes.  The residual effect of
starting at zero decays geometrically, so the default burn-in of 200
steps leaves an error far below the statistical noise floor for any
reasonably stable model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import LssModel, SignalSpec, SwitchingDistribution, check_mode_labels

BLOWUP_LIMIT = 1e12
DEFAULT_BURN_IN = 200


class DivergenceError(RuntimeError):
    """State norm exceeded the blow-up threshold during simulation."""


@dataclass
class SimConfig:
    """Everything needed to generate one reproducible trajectory."""

    model: LssModel
    dist: SwitchingDistribution
    signal: SignalSpec
    N: int
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.dist.nQ != self.model.nQ:
            raise ValueError("switching distribution does not match model mode count")


@dataclass
class SampleSet:
    """One finite trajectory {(y(t), u(t), q(t))} for t = 0..N, each of length N + 1."""

    N: int
    y: np.ndarray
    u: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim == 1:
            self.u = self.u.reshape(-1, 1)
        self.q = np.asarray(self.q, dtype=np.int64).reshape(-1)
        if not (len(self.y) == len(self.u) == len(self.q) == self.N + 1):
            raise ValueError("y, u, q must all have length N + 1")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("trajectory contains non-finite outputs")


def simulate(cfg: SimConfig) -> SampleSet:
    """Generate a trajectory of cfg.N + 1 retained samples.

    Starting from x = 0 the recursion runs for burn_in + N + 1 steps and
    the first burn_in outputs are discarded.  All randomness comes from
    one generator seeded with cfg.seed, drawn in a fixed order (modes,
    then inputs, then state noise, then output noise), so a given
    (config, seed) pair always produces the identical trajectory.

    Raises
    ------
    DivergenceError
        If the state infinity-norm ever exceeds 1e12, which signals an
        unstable configuration rather than a numerical problem here.
    """
    model, signal = cfg.model, cfg.signal
    n, m = model.n, model.m
    T = cfg.burn_in + cfg.N + 1
    rng = np.random.default_rng(cfg.seed)

    q = rng.choice(model.nQ, size=T, p=cfg.dist.p) + 1
    if signal.Ku_input == 0.0:
        u = np.zeros((T, m))
    else:
        u = rng.uniform(-signal.Ku_input, signal.Ku_input, size=(T, m))
    if signal.Ku_noise == 0.0:
        w = v = None
    else:
        w = rng.uniform(-signal.Ku_noise, signal.Ku_noise, size=(T, n))
        v = rng.uniform(-signal.Ku_noise, signal.Ku_noise, size=T)

    y = simulate_driven(model, u, q, w, v)
    b = cfg.burn_in
    return SampleSet(N=cfg.N, y=y[b:], u=u[b:], q=q[b:])


def simulate_driven(
    model: LssModel,
    u: np.ndarray,
    q: np.ndarray,
    w: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> np.ndarray:
    """Roll x(t + 1) = A_q x + B_q u + w, y = C x + D u + v out from x = 0.

    The one state recursion of the package: :func:`simulate` draws the
    signals and calls this.  Missing noise sequences are zero.  Returns
    the output sequence, same length as the inputs; the caller's arrays
    are never modified.

    Raises
    ------
    ValueError
        If the sequences differ in length or a mode lies outside 1..nQ.
    DivergenceError
        If the state infinity-norm ever exceeds 1e12.
    """
    n = model.n
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    q = np.asarray(q, dtype=np.int64).reshape(-1)
    T = len(q)
    E = np.zeros((T, n)) if w is None else np.array(w, dtype=float)
    v = np.zeros(T) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if len(u) != T or E.shape != (T, n) or len(v) != T:
        raise ValueError(f"signal sequences must all have length {T}, and w width n = {n}")
    check_mode_labels(q, model.nQ)

    # Mode-dependent forcing E(t) = B_{q(t)} u(t) + w(t), precomputed so the
    # sequential loop below does one matvec and one add per step.
    for c in range(model.nQ):
        mask = q == c + 1
        if np.any(mask):
            E[mask] += u[mask] @ model.B[c].T
    y_direct = u @ model.D + v

    A = [np.ascontiguousarray(Aq) for Aq in model.A]
    C = model.C
    y = np.empty(T)
    x = np.zeros(n)
    dot = np.dot
    for t in range(T):
        y[t] = dot(C, x) + y_direct[t]
        x = dot(A[q[t] - 1], x)
        x += E[t]
        if abs(x).max() > BLOWUP_LIMIT:
            raise DivergenceError(
                f"state blew up at step {t} (|x| > {BLOWUP_LIMIT:g}); "
                "the configuration looks unstable"
            )
    return y


# ---------------------------------------------------------------------------
# Trajectory CSV: header t,y,u_1,...,u_m,q with one row per retained step.


def save_trajectory(path: str, sample: SampleSet) -> None:
    m = sample.u.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"] + [f"u_{j + 1}" for j in range(m)] + ["q"])
        for t in range(sample.N + 1):
            row = [t, repr(float(sample.y[t]))]
            row += [repr(float(sample.u[t, j])) for j in range(m)]
            row.append(int(sample.q[t]))
            writer.writerow(row)


def load_trajectory(path: str) -> SampleSet:
    """Read a trajectory CSV, refusing a row whose field count differs
    from the header's."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "y"] or header[-1] != "q":
            raise ValueError(f"unrecognized trajectory header: {header}")
        m = len(header) - 3
        ys, us, qs = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            ys.append(float(row[1]))
            us.append([float(x) for x in row[2 : 2 + m]])
            qs.append(int(row[-1]))
    return SampleSet(N=len(ys) - 1, y=np.array(ys), u=np.array(us), q=np.array(qs))
