"""Trajectory generation for linear switched systems.

The simulator draws an i.i.d. mode sequence and i.i.d. bounded uniform
input and noise signals, rolls the state recursion forward from x = 0,
and discards a burn-in prefix so that the retained samples approximate
the stationary trajectory the estimator assumes.  The residual effect of
starting at zero decays geometrically, so the default burn-in of 200
steps leaves an error far below the statistical noise floor for any
reasonably stable model.

The state recursion x(t + 1) = A_q(t) x(t) + F(t) is affine, so it is
computed as a blocked scan rather than one step at a time (Blelloch,
"Prefix sums and their applications", 1990).  The T steps are cut into
blocks of L = max(16, isqrt(T) // 2) steps.  Pass 1 rolls every block
from a zero state while carrying the block's transition product; the
carry composes the ~2 sqrt(T) block maps by doubling (Hillis and Steele,
"Data parallel algorithms", 1986), ceil(log2(blocks - 1)) vectorised
rounds, which give each block its true start state; pass 2 rolls every
block again from that start, writing the outputs.  The carry adds up the
same terms as the step-by-step recursion in another order, so outputs
agree with it to rounding: the pinned two-mode benchmark trajectories are
bit-identical, and on the models measured no output moved by more than
4e-16 of the trajectory's largest |y|.  A start the composition leaves
non-finite (an overflowed product) is carried again block by block,
applying each product only to the nonzero state components, as the
step-by-step recursion would.

Both passes are vectorised over blocks, and the block index is the last,
contiguous axis of every array they step through (structure of arrays):
the [x | Phi] stack is (n, n + 1, blocks), the forcing one component-major
(n, blocks * L) buffer, and the outputs a (blocks, L) view of a padded y.
A step gathers its A planes for all blocks from one (n, n, nQ + 1) table
and contracts them with one einsum, so its cost is a few numpy calls over
contiguous rows rather than a small matrix product per block.
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
        for name, values in (("y", self.y.reshape(-1, 1)), ("u", self.u)):
            if not np.isfinite(values).all():
                t, j = np.argwhere(~np.isfinite(values))[0]
                field = name if name == "y" else f"u_{j + 1}"
                raise ValueError(
                    f"trajectory field {field!r} at step {t} is not finite: {float(values[t, j])!r}"
                )


def simulate(cfg: SimConfig) -> SampleSet:
    """Generate a trajectory of cfg.N + 1 retained samples.

    Starting from x = 0 the recursion runs for burn_in + N + 1 steps and
    the first burn_in outputs are discarded.  All randomness comes from
    one generator seeded with cfg.seed, drawn in a fixed order (modes,
    then inputs, then state noise, then output noise), so a given
    (config, seed) pair always produces the identical trajectory.  The
    draws reproduce numpy's streams exactly: the modes are
    ``rng.choice(nQ, size=T, p=p) + 1``, computed without choice's
    binary search (see :func:`_draw_signals`), and each signal is
    ``rng.uniform(-K, K, size)``.

    Raises
    ------
    DivergenceError
        If the state infinity-norm ever exceeds 1e12, which signals an
        unstable configuration rather than a numerical problem here.  The
        step it names counts from the start of the burn-in.
    """
    model, signal = cfg.model, cfg.signal
    n, m = model.n, model.m
    b = cfg.burn_in
    T = b + cfg.N + 1
    q, u, w, v = _draw_signals(np.random.default_rng(cfg.seed), cfg.dist.p, signal, T, n, m)
    try:
        y = simulate_driven(model, u, q, w, v)
    except DivergenceError as exc:
        raise DivergenceError(
            f"{exc} (steps count from the start of the {b}-step burn-in; "
            f"retained t = 0 is step {b})"
        ) from None
    return SampleSet(N=cfg.N, y=y[b:], u=u[b:], q=q[b:])


def _draw_signals(rng, p, signal: SignalSpec, T: int, n: int, m: int):
    """Modes q (T,), inputs u (T, m), state noise w (T, n) and output
    noise v (T,), drawn from rng in that order; w and v are None when the
    noise amplitude is zero, and a zero amplitude draws nothing.

    The modes are the numbers and the generator call of
    ``rng.choice(len(p), size=T, p=p) + 1``.  choice turns one uniform r
    per step into the label index ``cdf.searchsorted(r, side="right")``,
    the count of cdf entries <= r; here that count is added up one
    comparison per entry, which costs a fraction of the search.  The last
    entry, 1 > r, is never counted.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    r = rng.random(T)
    q = np.ones(T, dtype=np.min_scalar_type(len(cdf)))  # holds every label 1..nQ
    for c in cdf[:-1]:
        q += r >= c
    del r  # freed before the signal rows are drawn
    q = q.astype(np.int64)

    K_in, K_noise = signal.Ku_input, signal.Ku_noise
    u = np.zeros((T, m)) if K_in == 0.0 else rng.uniform(-K_in, K_in, (T, m))
    if K_noise == 0.0:
        return q, u, None, None
    return q, u, rng.uniform(-K_noise, K_noise, (T, n)), rng.uniform(-K_noise, K_noise, T)


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
    w = None if w is None else np.asarray(w, dtype=float)
    v = np.zeros(T) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if (
        len(u) != T or u.shape[1] != model.m or len(v) != T
        or (w is not None and w.shape != (T, n))
    ):
        raise ValueError(
            f"signal sequences must all have length {T}, u width m = {model.m} "
            f"and w width n = {n}"
        )
    check_mode_labels(q, model.nQ)

    # Step j of block b is column b*L + j of the padded buffers, so the
    # block index is the last, contiguous axis of every array the scan
    # touches.  Label 0 pads the last block: it indexes a zero plane of the
    # coefficient tables, so a pad step has zero forcing, moves its block
    # to the zero state and writes its output beyond y.
    L = max(16, math.isqrt(T) // 2)
    nb = max(1, -(-T // L))  # blocks; the last one may be short
    A = np.zeros((n, n, model.nQ + 1))
    A[:, :, 1:] = np.stack(model.A, axis=-1)
    B = np.zeros((model.nQ + 1, n, model.m))
    B[1:] = model.B

    # Mode-dependent forcing F(t) = B_{q(t)} u(t) + w(t), component-major,
    # so that the recursion is x(t + 1) = A_{q(t)} x(t) + F(t).  Entry
    # (i, j) of B_{q(t)} is gathered for every step at once, so the only
    # temporaries are length-T rows; channels are added in order j = 1..m.
    F = np.zeros((n, nb * L))
    if w is not None:
        F[:, :T] = w.T
    for j in range(model.m):
        for i in range(n):
            Bu = B[:, i, j].take(q)
            Bu *= u[:, j]
            F[i, :T] += Bu
    del Bu  # a length-T row the scan's buffers need not sit on top of
    ypad = np.zeros(nb * L)
    y = ypad[:T]
    np.dot(u, model.D, out=y)
    y += v

    # Labels are stored step-major, so each step gathers with one contiguous row.
    full = (nb - 1) * L
    labels = np.zeros((L, nb), dtype=np.int64)
    labels[:, :-1] = q[:full].reshape(nb - 1, L).T
    labels[: T - full, -1] = q[full:]
    F = F.reshape(n, nb, L)
    with np.errstate(over="ignore", invalid="ignore"):
        # Pass 1: roll every block from a zero state, carrying its
        # transition product in the same stack, [x | Phi].
        xphi = np.zeros((n, n + 1, nb))
        for i in range(n):
            xphi[i, i + 1] = 1.0
        for j in range(L):
            xphi = np.einsum("ikb,kcb->icb", A.take(labels[j], axis=2), xphi)
            xphi[:, 0] += F[:, :, j]

        # Carry: the true state at the start of every block.  The last
        # block's map starts no block.  Column b of M is block b's map
        # [x_end | Phi]; each doubling round composes it with the map k
        # columns back, so after ceil(log2(nb - 1)) rounds column b maps
        # the trajectory start to the end of block b.
        M = xphi[:, :, :-1].copy()
        k = 1
        while k < nb - 1:
            head = np.einsum("ikb,kcb->icb", M[:, 1:, k:], M[:, :, :-k])
            head[:, 0] += M[:, 0, k:]
            M[:, :, k:] = head
            k *= 2
        x = np.zeros((n, nb))
        x[:, 1:] = M[:, 0]
        if not np.isfinite(x).all():
            # A product that overflowed (inf * 0 gives NaN) is applied only
            # to the nonzero state components, as the per-step recursion
            # would: a growing mode the signals never excite must not read
            # as a blow-up.  Composition spreads a non-finite block map to
            # every later start, and can overflow where no block map does,
            # so these starts are carried again one block at a time.
            phi = xphi[:, 1:, :-1].transpose(2, 0, 1).copy()
            x_end = xphi[:, 0, :-1].T.copy()
            finite = np.isfinite(phi).all(axis=(1, 2)).tolist()
            xb = np.zeros(n)
            starts = [xb]
            for P, e, ok in zip(phi, x_end, finite):
                if ok:
                    xb = P.dot(xb) + e
                else:
                    live = xb != 0
                    xb = P[:, live].dot(xb[live]) + e
                starts.append(xb)
            x = np.array(starts).T.copy()

        # Pass 2: roll every block from its true start, writing C x into
        # the outputs and noting the first in-block step whose state
        # leaves the limit.
        first_over = np.full(nb, L)
        Y = ypad.reshape(nb, L)
        for j in range(L):
            Y[:, j] += model.C.dot(x)
            x = np.einsum("ikb,kb->ib", A.take(labels[j], axis=2), x)
            x += F[:, :, j]
            if not np.abs(x).max() <= BLOWUP_LIMIT:
                fresh = ~(np.abs(x).max(axis=0) <= BLOWUP_LIMIT) & (first_over == L)
                first_over[fresh] = j
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
    """Write a trajectory CSV: header t,y,u_1..u_m,q, then one row per
    step with floats as repr() and CRLF line ends.

    Rows stream through one format template rather than one joined
    string, so memory stays flat in N.
    """
    m = sample.u.shape[1]
    row = ",".join(["{}"] + ["{!r}"] * (m + 1) + ["{}"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", "y"] + [f"u_{j + 1}" for j in range(m)] + ["q"]) + "\r\n")
        fh.writelines(
            map(
                row.format,
                range(sample.N + 1),
                map(float, sample.y),
                *(map(float, sample.u[:, j]) for j in range(m)),
                map(int, sample.q),
            )
        )


def load_trajectory(path: str) -> SampleSet:
    """Read a trajectory CSV, refusing a row whose field count differs
    from the header's or that holds a field that is not a finite number.

    numpy's C reader parses the body of every file this accepts.  A file
    it refuses (a changed field count, a field that is not a number, an
    empty body, any warning) or whose y or u :class:`SampleSet` refuses
    as not finite is scanned row by row by :func:`_fault`, which only
    names the file, the line and the field at fault.  A byte that is not
    text in the file's encoding is named by its line too.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, no header")
            if header[:2] != ["t", "y"] or header[-1] != "q":
                raise ValueError(f"unrecognized trajectory header: {header}")
            m = len(header) - 3
            # Nothing uses t, so it is read as zero-width text and any value
            # passes.  Without usecols an extra field is refused, without
            # comments a '#' line is a field, and an integer field refuses
            # '2.0'.  A warning (an empty body; an older numpy reading '2.0'
            # into an integer field) is a refusal too.
            fields = [("t", "U0"), ("y", "f8"), ("u", "f8", (m,)), ("q", "i8")]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    body = np.loadtxt(
                        path, delimiter=",", skiprows=1, ndmin=1, comments=None, quotechar='"',
                        dtype=fields,
                    )
                # Contiguous copies: the fields of a structured array are strided views.
                y, u, q = (np.ascontiguousarray(body[name]) for name in ("y", "u", "q"))
                return SampleSet(N=len(y) - 1, y=y, u=u, q=q)
            except (ValueError, Warning) as exc:
                raise _fault(path, reader, header, exc) from None
    except UnicodeDecodeError as exc:
        # The decoder reads ahead in chunks, so the line is found again from
        # the bytes; no line break is part of a multi-byte character.
        with open(path, "rb") as fh:
            for line_num, line in enumerate(fh.read().splitlines(), 1):
                try:
                    line.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    raise ValueError(
                        f"{path}, line {line_num}: byte {line[bad.start]:#04x} "
                        f"is not {exc.encoding} text"
                    ) from None
        raise ValueError(f"{path}: {exc}") from None


_INT64 = np.iinfo(np.int64)


def _fault(path: str, reader, header: list[str], exc: Exception) -> ValueError:
    """Name why numpy refused the rows after the header: the first row
    with a wrong field count, a field that is not a number, a y or u that
    is not finite or a mode label outside int64 (blank lines skipped),
    else an empty body, else numpy's own message."""
    rows = 0
    for row in reader:
        if not row:
            continue
        rows += 1
        where = f"{path}, line {reader.line_num}"
        if len(row) != len(header):
            return ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
        for name, value in zip(header[1:], row[1:]):
            try:
                # Python's int and float take digit separators and
                # non-ASCII digits too; numpy refuses both.
                if "_" in value or not value.isascii():
                    raise ValueError(value)
                number = (int if name == "q" else float)(value)
            except ValueError:
                kind = "an integer" if name == "q" else "a number"
                return ValueError(f"{where}: field {name!r} is not {kind}: {value!r}")
            if name != "q" and not math.isfinite(number):
                return ValueError(f"{where}: field {name!r} is not finite: {value!r}")
        if not _INT64.min <= int(row[-1]) <= _INT64.max:
            return ValueError(f"{where}: field 'q' is outside the int64 range: {row[-1]!r}")
    if rows == 0:
        return ValueError(f"{path}: no data rows")
    return ValueError(f"{path}: {exc}")
