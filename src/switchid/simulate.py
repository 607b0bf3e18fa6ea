"""Trajectory generation for linear switched systems.

The simulator draws an i.i.d. mode sequence and i.i.d. bounded uniform
input and noise signals, rolls the state recursion forward from x = 0,
and discards a burn-in prefix so that the retained samples approximate
the stationary trajectory the estimator assumes.  The residual effect of
starting at zero decays geometrically, so the default burn-in of 200
steps leaves an error far below the statistical noise floor for any
reasonably stable model.

The state recursion x(t + 1) = A_q(t) x(t) + E(t) is affine, so it is
computed as a blocked scan rather than one step at a time (Blelloch,
"Prefix sums and their applications", 1990).  The T steps are cut into
blocks of L = max(16, isqrt(T) // 2) steps.  Pass 1 rolls every block
from a zero state while carrying the block's transition product; a short
sequential carry over the ~2 sqrt(T) blocks gives each block its true
start state; pass 2 rolls every block again from that start, writing the
outputs.  Both passes are vectorised over blocks.  The carry adds up
the same terms as the step-by-step recursion in another order, so
outputs agree with it to rounding: most two-mode benchmark trajectories
come out bit-identical, and on the models measured no output moved by
more than 4e-16 of the trajectory's largest |y|.
"""

from __future__ import annotations

import csv
import math
import warnings
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

    The one state recursion of the package, a blocked two-pass scan (see
    the module docstring): :func:`simulate` draws the signals and calls
    this.  Missing noise sequences are zero.  Returns the output
    sequence, same length as the inputs; the caller's arrays are never
    modified.

    Raises
    ------
    ValueError
        If the sequences differ in length or a mode lies outside 1..nQ.
    DivergenceError
        If the state infinity-norm ever exceeds 1e12 (or turns NaN),
        naming the first step t whose update x(t + 1) does.
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

    # Mode-dependent forcing E(t) = B_{q(t)} u(t) + w(t), built in the one
    # copy of w so that the recursion is x(t + 1) = A_{q(t)} x(t) + E(t).
    for c in range(model.nQ):
        steps = np.flatnonzero(q == c + 1)
        E[steps] += u[steps] @ model.B[c].T
    y = u @ model.D
    y += v

    A = np.stack(model.A)
    C = model.C
    L = max(16, math.isqrt(T) // 2)
    nb = max(1, -(-T // L))  # blocks; the last one may be short (or empty)
    full = (nb - 1) * L  # steps in the blocks before the last one
    with np.errstate(over="ignore", invalid="ignore"):
        # Pass 1: roll each block but the last from a zero state, carrying
        # its transition product in the same stack, [x | Phi].
        Eb = E[:full].reshape(nb - 1, L, n)
        qb = q[:full].reshape(nb - 1, L)
        xphi = np.zeros((nb - 1, n, n + 1))
        xphi[:, :, 1:] = np.eye(n)
        for j in range(L):
            xphi = np.take(A, qb[:, j] - 1, axis=0) @ xphi
            xphi[:, :, 0] += Eb[:, j]

        # Carry: the true state at the start of every block.  A product that
        # overflowed (inf * 0 gives NaN) is applied only to the nonzero
        # state components, as the per-step recursion would: a growing mode
        # the signals never excite must not read as a blow-up.
        phi, x_end = xphi[:, :, 1:], xphi[:, :, 0]
        finite = np.isfinite(phi).all(axis=(1, 2))
        x = np.zeros((nb, n))
        for b in range(nb - 1):
            if finite[b]:
                x[b + 1] = phi[b] @ x[b] + x_end[b]
            else:
                live = x[b] != 0
                x[b + 1] = phi[b][:, live] @ x[b][live] + x_end[b]

        # Pass 2: roll every block from its true start, writing the outputs
        # and the first in-block step whose state leaves the limit.  The
        # last block may be short, so step j runs only the k blocks that
        # reach it.
        first_over = np.full(nb, L)
        last_len = T - full
        for j in range(min(L, T)):
            k = nb if j < last_len else nb - 1
            y[j::L] += x[:k] @ C
            x[:k] = np.einsum("bij,bj->bi", np.take(A, q[j::L] - 1, axis=0), x[:k])
            x[:k] += E[j::L]
            if not np.abs(x[:k]).max() <= BLOWUP_LIMIT:
                fresh = ~(np.abs(x[:k]).max(axis=1) <= BLOWUP_LIMIT) & (first_over[:k] == L)
                first_over[:k][fresh] = j
    over = np.flatnonzero(first_over < L)
    if len(over):
        t = over[0] * L + first_over[over[0]]
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
    from the header's or that holds a field that is not a number.

    numpy's C reader parses the body.  A file it does not take as it
    stands (a changed field count, a quoted or non-numeric field, a
    whitespace-only line, any warning) is read again row by row by
    :func:`_parse_rows`, which returns the same arrays the C reader
    would or names the file, the line and the field at fault.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header")
        if header[:2] != ["t", "y"] or header[-1] != "q":
            raise ValueError(f"unrecognized trajectory header: {header}")
        m = len(header) - 3
        fields = [("t", "f8"), ("y", "f8"), ("u", "f8", (m,)), ("q", "i8")]
        try:
            # Without usecols an extra field is refused, without comments
            # a '#' line is a field, and an integer field refuses '2.0'.
            # A warning (an empty body; an older numpy reading '2.0' into
            # an integer field) also sends the file to the row reader.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body = np.loadtxt(
                    path, delimiter=",", skiprows=1, ndmin=1, comments=None, dtype=fields
                )
        except (ValueError, Warning):
            y, u, q = _parse_rows(path, reader, header)
        else:
            # Contiguous copies, laid out as the row reader's arrays are.
            y, u, q = (np.ascontiguousarray(body[name]) for name in ("y", "u", "q"))
    if len(y) == 0:
        raise ValueError(f"{path}: no data rows")
    return SampleSet(N=len(y) - 1, y=y, u=u, q=q)


def _parse_rows(path: str, reader, header: list[str]):
    """Parse the rows after the header one at a time, skipping blank
    lines; the first row with a wrong field count or a field that is not
    a number is refused with the file, the line and the field."""
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
        try:
            ys.append(float(row[1]))
            us.append([float(x) for x in row[2 : 2 + m]])
            qs.append(int(row[-1]))
        except ValueError:
            for name, value in zip(header[1:], row[1:]):
                try:
                    (int if name == "q" else float)(value)
                except ValueError:
                    kind = "an integer" if name == "q" else "a number"
                    raise ValueError(
                        f"{path}, line {reader.line_num}: field {name!r} "
                        f"is not {kind}: {value!r}"
                    ) from None
            raise
    return np.array(ys), np.array(us), np.array(qs)
