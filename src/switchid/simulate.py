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

A group of configs that share everything but their models' A and C
(:func:`simulate_group`) is rolled out in one scan: the models share the
signals, the labels and the forcing B_q u + w and D u + v, and each step
makes its numpy calls once for all of them.  :func:`simulate` is the
one-model case.  :func:`rollout_group` rolls a group out the same way
and hands each sample to simulate of its config, for callers that read
their samples config by config.

Both passes are vectorised over the models and the blocks.  The
[x | Phi] stack is (n, n + 1, R, blocks) for R models, with the block
index on its last, contiguous axis (structure of arrays).  A step gathers
its A planes for every model and block from one (n, n, R, nQ + 1) table
and contracts them with one einsum, the models and the blocks seen as one
axis, so its cost is a few numpy calls rather than a small matrix product
per block.  The forcing is one step-major (blocks * L, n) buffer, added
to every model's states by broadcasting.  Each model's outputs are a
(blocks, L) view of a padded row: the last model's is the row that held
the output forcing, the others' rows of their own, each written from its
own C x product, so a group's outputs are bit for bit those of one
simulate per model.  No step allocates: every gather, product and
contraction writes into a buffer made once per rollout.  Pass 1
contracts into a second stack and the two swap; pass 2 keeps its states
in a window of 2(n + 1) steps stored in those two stacks, and checks the
divergence limit once per window, searching step by step only a window
that is over it.  A blow-up is named for the first model in order that
has one, at the step its own simulate names.

No length-T row is held twice.  simulate writes the state noise and the
output noise straight into those two buffers, and the input forcing
B_q(t) u(t) is gathered through one reused row.  At T = 100 201 (N = 1e5
and the burn-in) a whole simulate peaks at 6.3 rows of T floats on the
two-mode family (n = 2, m = 1) and at 8.7 rows on an n = 4, m = 1 model:
the modes, the m input rows, the n forcing rows, the padded outputs and
the scan's labels, plus the carry's small stacks.  A group adds an output
row per model beyond the first: the family's three gammas peak at 8.6
rows.

The signals are uniform doubles r of one seed's stream, in a fixed order
(modes, inputs, state noise, output noise), each taking one 64-bit word
of the bit generator.  simulate reads them from one of two sources: a
fresh ``default_rng(seed)``, whose ``random(out=...)`` writes them
straight into simulate's own buffers, or a held prefix of that stream,
read in place (``SimConfig.stream``, drawn by :func:`seed_stream`).  The
two give the same bits, so configs that share a seed can share one draw.
An amplitude-K signal is -K + 2K r, formed by two numpy ufuncs, which is
what ``rng.uniform(-K, K)`` computes; the draws depend on the bit
generator alone, not on how a numpy build compiles ``uniform``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import LssModel, SignalSpec, SwitchingDistribution, check_integer, check_law

BLOWUP_LIMIT = 1e12
DEFAULT_BURN_IN = 200


class DivergenceError(RuntimeError):
    """State norm exceeded the blow-up threshold during simulation."""


@dataclass
class SimConfig:
    """Everything needed to generate one reproducible trajectory.

    ``stream``, when set, holds a prefix of the seed's stream,
    ``default_rng(seed).random(size)`` with size at least
    :func:`stream_size`, as :func:`seed_stream` draws it for configs that
    share a seed; simulate then reads its doubles there instead of drawing
    them, with the same result.  Whether it is this seed's stream is not
    checked; one that is not a 1-D float64 array that long is refused.

    A config that :func:`rollout_group` returns holds its sample, rolled
    out with the rest of its group when rollout_group made it: the first
    simulate of it returns that sample, whatever was changed in place
    since, and a later simulate rolls it out anew.  Held samples live in
    a private field that ``replace`` does not copy."""

    model: LssModel
    dist: SwitchingDistribution
    signal: SignalSpec
    N: int
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0
    stream: np.ndarray | None = field(default=None, repr=False, compare=False)
    _held: SampleSet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("N", "burn_in", "seed"):
            check_integer(name, getattr(self, name))
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        check_law(self.model, self.dist)
        if self.stream is not None:
            self.stream, need = np.asarray(self.stream), stream_size(self)
            if self.stream.dtype != np.float64 or self.stream.ndim != 1 or len(self.stream) < need:
                raise ValueError(
                    f"stream is a {self.stream.dtype} array of shape {self.stream.shape}; "
                    f"simulate reads {need} doubles of a 1-D float64 stream"
                )


@dataclass
class SampleSet:
    """One finite trajectory {(y(t), u(t), q(t))} for t = 0..N, each of length N + 1.

    N is read off the arrays, which must be of one length, at least 1.
    ``u`` is (N + 1, m), or 1-D for one input column; a field of another
    number of axes is refused by its shape."""

    y: np.ndarray
    u: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.y = _vector("y", self.y, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim == 1:
            self.u = self.u.reshape(-1, 1)
        if self.u.ndim != 2:
            shape = self.u.shape
            raise ValueError(f"trajectory field 'u' must be 1-D or 2-D, not of shape {shape}")
        self.q = _mode_labels(_vector("q", self.q))
        ny, nu, nq = len(self.y), len(self.u), len(self.q)
        if not ny == nu == nq or not ny:
            has = "at least one step" if ny == nu == nq else "one of each per step"
            raise ValueError(f"y, u and q have lengths {ny}, {nu} and {nq}; a trajectory has {has}")
        _check_finite("y", self.y)
        _check_finite("u", self.u)

    @property
    def N(self) -> int:
        """The last step t of the trajectory: len(y) - 1."""
        return len(self.y) - 1


def simulate(cfg: SimConfig) -> SampleSet:
    """Generate a trajectory of cfg.N + 1 retained samples.

    Starting from x = 0 the recursion runs for burn_in + N + 1 steps and
    the first burn_in outputs are discarded.  All randomness comes from
    the stream of ``np.random.default_rng(cfg.seed)``, read in a fixed
    order (modes, then inputs, then state noise, then output noise), so a
    given (config, seed) pair always produces the identical trajectory.
    The draws reproduce numpy's samplers exactly: the modes are
    ``rng.choice(nQ, size=T, p=p) + 1``, computed without choice's
    binary search (see :func:`_draw_signals`), and each signal is
    ``rng.uniform(-K, K, size)``, formed as -K + 2K r from the stream's
    doubles r (see :func:`_uniform`).  They come from a fresh generator,
    written straight into simulate's own buffers, or, when cfg.stream is
    set, are read in place from that held prefix of the same stream.

    This is the one-model case of :func:`simulate_group`.  A config that
    :func:`rollout_group` returns gives the sample held for it, once.

    Raises
    ------
    DivergenceError
        If the state infinity-norm ever exceeds 1e12, which signals an
        unstable configuration rather than a numerical problem here.  The
        step it names counts from the start of the burn-in.
    """
    if cfg._held is not None:
        sample, cfg._held = cfg._held, None
        return sample
    return simulate_group([cfg])[0]


def simulate_group(cfgs: list[SimConfig]) -> list[SampleSet]:
    """simulate(cfg) for every cfg of cfgs, in one scan: the configs share
    their signals and forcing B_q u + w and D u + v, and only their
    models' A and C may differ.  Each sample is the one simulate gives the
    config alone, bit for bit, but for one thing: the samples of a group
    of more than one share one u and one q array, which are read-only.  A
    blow-up raises for the first config in order that blows up, naming
    the step its own simulate names.

    Configs that differ in anything else are refused, naming the field
    (:func:`forcing_difference`)."""
    if not cfgs:
        raise ValueError("a group needs at least one config")
    first = cfgs[0]
    for i, cfg in enumerate(cfgs[1:], 1):
        differs = forcing_difference(first, cfg)
        if differs is not None:
            raise ValueError(
                f"config {i} differs from config 0 in {differs}; the configs of a "
                "group differ only in their models' A and C"
            )
    model = first.model
    b = first.burn_in
    T = b + first.N + 1
    source = np.random.default_rng(first.seed) if first.stream is None else first.stream
    F, ypad = _scan_buffers(T, model.n)
    q, u = _draw_signals(_reader(source), first.dist.p, first.signal, model.m, F[:T], ypad[:T])
    ys = _rollout([cfg.model for cfg in cfgs], u, q, F, ypad, b)
    if len(cfgs) > 1:
        # The samples share u and q, so none may change them for the others.
        u.flags.writeable = q.flags.writeable = False
    return [SampleSet(y=y[b:], u=u[b:], q=q[b:]) for y in ys]


def forcing_difference(a: SimConfig, b: SimConfig) -> str | None:
    """The first field, by name, in which a and b differ other than their
    models' A and C, or None: configs it passes share their signals and
    forcing, so :func:`simulate_group` rolls them out together.  The
    streams must be one array, or both unset; of the signal only the
    amplitudes count, as they are all simulate reads of it."""
    ma, mb = a.model, b.model
    for name in ("n", "m", "nQ"):
        if getattr(ma, name) != getattr(mb, name):
            return f"model.{name}"
    if not np.array_equal(ma.B, mb.B):
        return "model.B"
    if not np.array_equal(ma.D, mb.D):
        return "model.D"
    if not np.array_equal(a.dist.p, b.dist.p):
        return "dist"
    if (a.signal.Ku_input, a.signal.Ku_noise) != (b.signal.Ku_input, b.signal.Ku_noise):
        return "signal"
    for name in ("N", "burn_in", "seed"):
        if getattr(a, name) != getattr(b, name):
            return name
    if a.stream is not b.stream:
        return "stream"
    return None


def rollout_group(cfgs: list[SimConfig]) -> list[SimConfig]:
    """Copies of cfgs, rolled out now in one :func:`simulate_group` scan,
    each holding its sample for the first simulate of it, so a caller that
    reads its samples config by config through simulate pays each scan
    step's numpy calls once per group."""
    members = [replace(cfg) for cfg in cfgs]
    for member, sample in zip(members, simulate_group(cfgs)):
        member._held = sample
    return members


def stream_size(cfg: SimConfig) -> int:
    """How many doubles of its seed's stream simulate(cfg) reads: T =
    burn_in + N + 1 for the modes, then T * m for the inputs and
    T * (n + 1) for the state and output noise, each unless its amplitude
    is zero."""
    T = cfg.burn_in + cfg.N + 1
    signal, model = cfg.signal, cfg.model
    return T * (1 + model.m * (signal.Ku_input != 0.0) + (model.n + 1) * (signal.Ku_noise != 0.0))


def seed_stream(seed: int, cfgs: list[SimConfig]) -> np.ndarray:
    """The prefix of seed's stream that serves as the ``stream`` of every
    cfg in cfgs, its seed set to seed: ``default_rng(seed).random(size)``,
    size the largest :func:`stream_size`."""
    return np.random.default_rng(seed).random(max(map(stream_size, cfgs)))


def _reader(source):
    """draw(shape, out=None): the next doubles r in [0, 1) of a seed's
    stream, as an array of that shape.  A Generator writes them into out,
    or into a fresh array; a held prefix of the stream, a 1-D array, gives
    a view of its next entries and leaves out as it is."""
    if isinstance(source, np.random.Generator):
        return lambda shape, out=None: source.random(shape, out=out)
    at = 0

    def view(shape, out=None):
        nonlocal at
        start, at = at, at + math.prod(shape)
        return source[start:at].reshape(shape)

    return view


def _draw_signals(draw, p, signal: SignalSpec, m: int, w: np.ndarray, v: np.ndarray):
    """Return modes q (T,) and inputs u (T, m), then write the state noise
    into w (T, n) and the output noise into v (T,), reading the stream
    through draw (:func:`_reader`) in that order, T = len(v).  A zero
    amplitude reads nothing: the inputs are zeros, and w and v are left
    as they are.

    The modes are the numbers and the generator call of
    ``rng.choice(len(p), size=T, p=p) + 1``.  choice turns one uniform r
    per step into the label index ``cdf.searchsorted(r, side="right")``,
    the count of cdf entries <= r; here that count is added up one
    comparison per entry, which costs a fraction of the search.  The last
    entry, 1 > r, is never counted.
    """
    T = len(v)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    r = draw((T,))
    q = np.ones(T, dtype=np.min_scalar_type(len(cdf)))  # holds every label 1..nQ
    for c in cdf[:-1]:
        q += r >= c
    del r  # freed before the signal rows are drawn
    q = q.astype(np.int64)

    K_in, K_noise = signal.Ku_input, signal.Ku_noise
    u = np.zeros((T, m))
    if K_in != 0.0:
        _uniform(draw, K_in, u)
    if K_noise != 0.0:
        _uniform(draw, K_noise, w)
        _uniform(draw, K_noise, v)
    return q, u


def _uniform(draw, K: float, out: np.ndarray) -> None:
    """Write -K + 2K r into out for the next out.size doubles r that draw
    reads.  This is ``rng.uniform(-K, K)``'s low + (high - low) r, bit for
    bit, formed by two numpy ufuncs, which no compiler fuses into one
    multiply-add; out (C-contiguous) takes the doubles first when they
    come from a generator."""
    np.multiply(draw(out.shape, out), 2.0 * K, out=out)
    out += -K


def _vector(name: str, values, dtype=None) -> np.ndarray:
    """values as an array, refusing one that is not 1-D by its shape."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim != 1:
        raise ValueError(f"trajectory field {name!r} must be 1-D, not of shape {values.shape}")
    return values


def _mode_labels(q: np.ndarray) -> np.ndarray:
    """The 1-D labels q as int64, refusing a label the cast would change:
    a fraction, a nan or an inf, or a value beyond int64."""
    if q.dtype == np.int64:
        return q
    with np.errstate(invalid="ignore"):
        labels = q.astype(np.int64)
    changed = labels != q
    if changed.any():
        t = int(np.argmax(changed))
        raise ValueError(f"mode label {q[t].item()!r} at step {t} is not an integer")
    return labels


def _check_finite(name: str, values: np.ndarray) -> None:
    """Refuse a nan or inf in values (T,) or (T, k), naming the first by
    its step and, for k columns, its column j as name_j."""
    if not np.isfinite(values).all():
        at = tuple(np.argwhere(~np.isfinite(values))[0])
        field = name if len(at) == 1 else f"{name}_{at[1] + 1}"
        raise ValueError(
            f"trajectory field {field!r} at step {at[0]} is not finite: {float(values[at])!r}"
        )


def _block_length(T: int) -> int:
    """Steps per scan block for a trajectory of T steps."""
    return max(16, math.isqrt(T) // 2)


def _scan_buffers(T: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The scan's zeroed forcing (blocks * L, n) and output (blocks * L,)
    buffers.  Their first T rows take the state and the output noise;
    the rest pad the short last block."""
    L = _block_length(T)
    size = max(1, -(-T // L)) * L
    return np.zeros((size, n)), np.zeros(size)


def _rollout(
    models: list[LssModel],
    u: np.ndarray,
    q: np.ndarray,
    F: np.ndarray,
    ypad: np.ndarray,
    burn_in: int,
) -> list[np.ndarray]:
    """The one state recursion of the package, entered from simulate_group
    alone: add B_q u to the state noise in F and D u to the output noise
    in ypad (both from :func:`_scan_buffers`), roll the blocked two-pass
    scan of every model over them and return each model's outputs y, the
    last a view of ypad.  The models share n, m, nQ, B and D, which are
    read off the first; their A and C may differ.  The labels q must lie
    in 1..nQ; a blow-up's step counts from the start of the burn_in steps
    that simulate discards, and the first model in order that blows up is
    the one named."""
    model = models[0]
    n, R = model.n, len(models)
    T = len(q)
    # Step j of block b is row b*L + j of the padded buffers.  Label 0 pads
    # the last block: it indexes a zero plane of the coefficient tables,
    # so a pad step has zero forcing, moves its block to the zero state and
    # writes its output beyond y.
    L = _block_length(T)
    nb = len(ypad) // L  # blocks; the last one may be short
    A = np.zeros((n, n, R, model.nQ + 1))
    A[..., 1:] = np.array([mdl.A for mdl in models]).transpose(2, 3, 0, 1)
    B = np.zeros((model.nQ + 1, n, model.m))
    B[1:] = model.B

    # From the forcing on, a value that overflows comes out inf: a state
    # that does is refused by the divergence check, an output by SampleSet.
    with np.errstate(over="ignore", invalid="ignore"):
        # Mode-dependent forcing F(t) = B_{q(t)} u(t) + w(t), so that the
        # recursion is x(t + 1) = A_{q(t)} x(t) + F(t).  Entry (i, j) of
        # B_{q(t)} is gathered for every step at once into one reused row;
        # channels are added in order j = 1..m, D_j u_j to the outputs too.
        # The labels are in range, so mode="clip" clips nothing; it spares
        # take the copy that the default mode="raise" makes of its out buffer.
        row = np.empty(T)
        y = ypad[:T]
        for j in range(model.m):
            for i in range(n):
                np.take(B[:, i, j], q, out=row, mode="clip")
                row *= u[:, j]
                F[:T, i] += row
            y += np.multiply(u[:, j], model.D[j], out=row)
        del row  # a length-T row the scan's buffers need not sit on top of

        # Labels are stored step-major, so each step gathers with one contiguous row.
        full = (nb - 1) * L
        labels = np.zeros((L, nb), dtype=np.int64)
        labels[:, :-1] = q[:full].reshape(nb - 1, L).T
        labels[: T - full, -1] = q[full:]
        # F[j] is step j's (n, 1, nb) forcing, broadcast over the models.
        # Both passes read each step's labels and forcing through views
        # made once.
        labels, F = list(labels), list(F.reshape(nb, L, n).transpose(1, 2, 0)[:, :, None])
        # Pass 1: roll every block of every model from a zero state,
        # carrying its transition product in the same stack, [x | Phi],
        # (n, n + 1, R, nb).  A step gathers its A planes into Aj (the
        # labels are in range, so mode="clip" clips nothing) and contracts
        # into the other stack, both seen with the models and the blocks
        # as one axis; the two then swap, so no step allocates.
        stacks = np.zeros((2, n, n + 1, R, nb))
        for i in range(n):
            stacks[0, i, i + 1] = 1.0
        flat, xcol = list(stacks.reshape(2, n, n + 1, R * nb)), list(stacks[:, :, 0])
        Aj = np.empty((n, n, R, nb))
        Ajf = Aj.reshape(n, n, R * nb)
        s = 0
        for j in range(L):
            A.take(labels[j], axis=3, out=Aj, mode="clip")
            np.einsum("ikb,kcb->icb", Ajf, flat[s], out=flat[1 - s])
            s = 1 - s
            xcol[s] += F[j]
        del Aj, Ajf  # freed while the carry's rounds allocate, as the peak is there
        xphi = stacks[s]

        # Carry: the true state at the start of every block.  The last
        # block's map starts no block.  Column b of M is block b's map
        # [x_end | Phi]; each doubling round composes it with the map k
        # columns back, so after ceil(log2(nb - 1)) rounds column b maps
        # the trajectory start to the end of block b.
        M = stacks[1 - s, ..., :-1]  # the stack pass 1 no longer needs
        M[...] = xphi[..., :-1]
        k = 1
        while k < nb - 1:
            head = np.einsum("ikrb,kcrb->icrb", M[:, 1:, :, k:], M[..., :-k])
            head[:, 0] += M[:, 0, :, k:]
            M[..., k:] = head
            k *= 2
        x = np.zeros((n, R, nb))
        x[..., 1:] = M[:, 0]
        started = np.isfinite(x)
        for r in [] if started.all() else np.flatnonzero(~started.all(axis=(0, 2))):
            # A product that overflowed (inf * 0 gives NaN) is applied only
            # to the nonzero state components, as the per-step recursion
            # would: a growing mode the signals never excite must not read
            # as a blow-up.  Composition spreads a non-finite block map to
            # every later start, and can overflow where no block map does,
            # so these starts are carried again one block at a time.
            phi = xphi[:, 1:, r, :-1].transpose(2, 0, 1).copy()
            x_end = xphi[:, 0, r, :-1].T.copy()
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
            x[:, r] = np.array(starts).T

        # Pass 2: roll every block from its true start, writing C x into
        # the outputs and noting the first in-block step whose state
        # leaves the limit.  The states go round a window of K = 2(n + 1)
        # slots, the storage of pass 1's stacks, the state before step j in
        # slot j % K.  The limit is checked once per window of K steps, and
        # only a window over it is searched step by step.  Each model's C x
        # is its own product, added to the shared output forcing in ypad:
        # the last model adds it in place, the others into rows of their own.
        K = 2 * (n + 1)
        window = stacks.reshape(K, n, R, nb)
        window[0] = x
        # The slots' views, made once: xs[s] is slot s as (n, R, nb), xsf[s]
        # the same with the models and the blocks as one axis, and last[s]
        # the last model's (n, nb).
        xs, xsf = list(window), list(stacks.reshape(K, n, R * nb))
        C, last = models[-1].C, list(window[:, :, -1])
        Aj, cx = np.empty((n, n, R, nb)), np.empty(nb)
        Ajf = Aj.reshape(n, n, R * nb)
        first_over = np.full((R, nb), L)
        # Y[j] is step j's (nb,) outputs in ypad; every other model has its
        # C, its slots and the steps of its own row of ys.
        ys = [np.empty(len(ypad)) for _ in models[:-1]]
        Y = list(ypad.reshape(nb, L).T)
        others = [
            (mdl.C, list(window[:, :, r]), list(row.reshape(nb, L).T))
            for r, (mdl, row) in enumerate(zip(models, ys))
        ]
        for j in range(L):
            s, t = j % K, (j + 1) % K
            for C_r, x_r, y_r in others:
                np.add(Y[j], np.dot(C_r, x_r[s], out=cx), out=y_r[j])
            Y[j] += np.dot(C, last[s], out=cx)
            A.take(labels[j], axis=3, out=Aj, mode="clip")
            np.einsum("ikb,kb->ib", Ajf, xsf[s], out=xsf[t])
            xs[t] += F[j]
            if t == 0 or j == L - 1:
                # A full window holds the states after its K steps in slots
                # 1..K - 1, 0; the short last one fills slots 1..t.  The
                # check reads the window's extremes rather than a |x| copy
                # of it; a NaN fails it too.
                held = window if t == 0 else window[1 : t + 1]
                if not (-BLOWUP_LIMIT <= held.min() and held.max() <= BLOWUP_LIMIT):
                    slots = [*range(1, K), 0] if t == 0 else range(1, t + 1)
                    for step, i in enumerate(slots, j + 1 - len(slots)):
                        fresh = ~(np.abs(xs[i]).max(axis=0) <= BLOWUP_LIMIT)
                        first_over[fresh & (first_over == L)] = step
    over = np.flatnonzero(first_over < L)  # model by model, block by block
    if len(over):
        r, b = divmod(over[0], nb)
        t = b * L + first_over[r, b]
        raise DivergenceError(
            f"state blew up at step {t} (|x| > {BLOWUP_LIMIT:g}); the configuration "
            f"looks unstable (steps count from the start of the {burn_in}-step "
            f"burn-in; retained t = 0 is step {burn_in})"
        )
    return [*(row[:T] for row in ys), y]


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
                return SampleSet(y=y, u=u, q=q)
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
