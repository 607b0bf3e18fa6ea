"""Simulator behaviour: exact recursion, determinism, signal laws."""

import csv
import dataclasses
import hashlib
import importlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    DivergenceError,
    LssModel,
    SignalSpec,
    SimConfig,
    SwitchingDistribution,
    load_trajectory,
    save_trajectory,
    simulate,
    simulate_driven,
    two_mode_benchmark,
)
from switchid.simulate import BLOWUP_LIMIT, SampleSet, _draw_signals

# The package exports a function named simulate, which shadows the module.
simulate_module = importlib.import_module("switchid.simulate")


def test_impulse_through_mode_word(bench):
    # Unit input at t = 0 with modes (2, 2, 1) afterwards: the input
    # enters through B_2, survives one step of A_2, one step of A_1, and
    # reaches the output three steps after injection with gain 0.27.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([2, 2, 1, 1])
    y = simulate_driven(model, u, q)
    npt.assert_allclose(y, [0.0, 0.0, 0.0, 0.27], atol=1e-15)


def test_impulse_other_mode_is_invisible(bench):
    # B_1 = 0, so an input injected while mode 1 is active never shows up.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([1, 2, 1, 1])
    npt.assert_allclose(simulate_driven(model, u, q), np.zeros(4), atol=1e-15)
    # A label outside 1..nQ names no mode at all and is refused.
    with pytest.raises(ValueError, match="mode label 0 at step 1 outside 1..2"):
        simulate_driven(model, u, np.array([1, 0, 1, 1]))


def test_driven_refuses_signals_of_other_shape(bench):
    # An input of the wrong width would otherwise leave channels out of
    # the forcing or fail in numpy's broadcasting.
    model, _ = bench
    q = np.array([1, 2, 1, 1])
    for u in (np.zeros((4, 2)), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="length 4, u width m = 1 and w width n = 2"):
            simulate_driven(model, u, q)


def test_driven_matches_manual_recursion(rng):
    # Independent dumb oracle: the same recursion written out longhand.
    n, m, nQ, T = 3, 2, 2, 40
    A = [0.4 * rng.standard_normal((n, n)) for _ in range(nQ)]
    B = [rng.standard_normal((n, m)) for _ in range(nQ)]
    C = rng.standard_normal(n)
    D = rng.standard_normal(m)
    model = LssModel(n=n, m=m, nQ=nQ, A=A, B=B, C=C, D=D)
    u = rng.uniform(-1, 1, size=(T, m))
    q = rng.integers(1, nQ + 1, size=T)
    w = rng.uniform(-0.1, 0.1, size=(T, n))
    v = rng.uniform(-0.1, 0.1, size=T)

    x = np.zeros(n)
    expect = []
    for t in range(T):
        expect.append(C @ x + D @ u[t] + v[t])
        x = A[q[t] - 1] @ x + B[q[t] - 1] @ u[t] + w[t]

    w_before = w.copy()
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, atol=1e-12)
    npt.assert_array_equal(w, w_before)  # the forcing is built in a copy


def longhand(model, u, q, w, v):
    """Oracle: the recursion one step at a time.  Returns the outputs up to
    the first step whose update leaves |x| <= BLOWUP_LIMIT, and that step
    (None when no step does)."""
    x = np.zeros(model.n)
    y = []
    for t in range(len(q)):
        y.append(model.C @ x + model.D @ u[t] + v[t])
        x = model.A[q[t] - 1] @ x + model.B[q[t] - 1] @ u[t] + w[t]
        if not np.abs(x).max() <= BLOWUP_LIMIT:
            return np.array(y), t
    return np.array(y), None


def scan_model(rng, growth=None, n=4, m=2, nQ=3):
    """Model (n = 4, nQ = 3, m = 2 unless given) whose modes have spectral
    norm 0.9; with ``growth`` set, mode 3 is growth * identity instead."""
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(0.9 * G / np.linalg.norm(G, 2))
    if growth is not None:
        A[2] = growth * np.eye(n)
    return LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n), D=rng.standard_normal(m),
    )


def scan_signals(rng, T, n=4, m=2, nQ=3):
    return (
        rng.uniform(-1, 1, size=(T, m)),
        rng.integers(1, nQ + 1, size=T),
        rng.uniform(-0.1, 0.1, size=(T, n)),
        rng.uniform(-0.1, 0.1, size=T),
    )


# Blocks are 16 steps long up to T = 1155: 15, 16, 17 straddle one block,
# 32 and 33 two.  3600 is 120 whole blocks of 30; 5000 ends in a short block.
@pytest.mark.parametrize("T", [1, 15, 16, 17, 32, 33, 3600, 5000])
def test_scan_matches_longhand_recursion(rng, T):
    model = scan_model(rng)
    u, q, w, v = scan_signals(rng, T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, rtol=0, atol=1e-12)


def test_scan_leaves_inputs_untouched(rng):
    model = scan_model(rng)
    signals = scan_signals(rng, 5000)
    before = [s.copy() for s in signals]
    simulate_driven(model, *signals)
    for s, s0 in zip(signals, before):
        npt.assert_array_equal(s, s0)


@pytest.mark.parametrize("T", [200, 701, 5000])
def test_scan_names_the_blowup_step_of_the_longhand_recursion(rng, T):
    # Stable modes 1 and 2 until 120 steps before the end, then the growing
    # mode 3: the state leaves the limit in a late block, 60-odd steps on.
    model = scan_model(rng, growth=1.6)
    u, q, w, v = scan_signals(rng, T)
    q = np.where(np.arange(T) < T - 120, rng.integers(1, 3, size=T), 3)
    _, blowup = longhand(model, u, q, w, v)
    assert blowup is not None and blowup > T // 2
    with pytest.raises(DivergenceError, match=rf"state blew up at step {blowup} \("):
        simulate_driven(model, u, q, w, v)


def test_scan_padding_is_invisible(rng):
    # T = 5000 is 142 blocks of 35 and a last block of 30 steps, padded to
    # 35.  Mode 1 grows by 1e30 a step but its label never appears: a pad
    # step that rolled with it would blow up beyond the data.
    T = 5000
    model = scan_model(rng)
    model = dataclasses.replace(model, A=[1e30 * np.eye(4)] + model.A[1:])
    u, _, w, v = scan_signals(rng, T)
    q = rng.integers(2, 4, size=T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T, start", [(5000, 4975), (12, 4)])
def test_scan_names_a_blowup_in_the_short_last_block(rng, T, start):
    # 5000 steps end in a 30-step block from step 4970; 12 steps are one
    # block, shorter than the 16 steps of the smallest full block.  Mode 3
    # multiplies the state by 1e4 from step ``start`` on.
    model = scan_model(rng, growth=1e4)
    u, _, w, v = scan_signals(rng, T)
    q = np.where(np.arange(T) < start, rng.integers(1, 3, size=T), 3)
    _, blowup = longhand(model, u, q, w, v)
    assert blowup is not None and start <= blowup < T
    with pytest.raises(DivergenceError, match=rf"state blew up at step {blowup} \("):
        simulate_driven(model, u, q, w, v)


def test_scan_of_no_steps_is_empty(rng):
    model = scan_model(rng)
    y = simulate_driven(model, np.zeros((0, 2)), np.zeros(0, dtype=int))
    assert y.shape == (0,)


def test_forcing_adds_input_channels_in_order(rng):
    # With A = 0 the state is the last forcing, x(t + 1) = F(t), and C = e_i
    # reads one component out exactly, so y(t + 1) must equal
    # ((w_i + B_i1 u_1) + B_i2 u_2) + B_i3 u_3 bit for bit.
    n, m, nQ, T = 2, 3, 2, 3000
    B = [rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 8, size=(n, m)) for _ in range(nQ)]
    u = rng.uniform(-1, 1, size=(T, m))
    q = rng.integers(1, nQ + 1, size=T)
    w = rng.uniform(-1, 1, size=(T, n))
    Bq = np.stack(B)[q - 1]
    for i in range(n):
        model = LssModel(
            n=n, m=m, nQ=nQ, A=[np.zeros((n, n))] * nQ, B=B, C=np.eye(n)[i], D=np.zeros(m)
        )
        in_order = w[:, i].copy()
        for j in range(m):
            in_order += Bq[:, i, j] * u[:, j]
        reversed_order = Bq[:, i, 2] * u[:, 2] + Bq[:, i, 1] * u[:, 1] + Bq[:, i, 0] * u[:, 0]
        reversed_order += w[:, i]
        assert not np.array_equal(in_order, reversed_order)  # the order shows
        y = simulate_driven(model, u, q, w)
        assert y[0] == 0.0
        npt.assert_array_equal(y[1:], in_order[:-1])


# Peak traced memory of one rollout at T = 100 201 (N = 1e5 plus the
# burn-in), in units of one length-T float row, T * 8 bytes, with the
# signals allocated by the caller.  The row-major layout the scan had
# before peaked at 5.1 units for n = 2, m = 1 and 7.4 for n = 4, m = 2;
# each bound is that plus one unit.
PEAK_ROWS = {2: 6.1, 4: 8.4}


@pytest.mark.parametrize("n", sorted(PEAK_ROWS))
def test_scan_memory_stays_within_a_few_rows(rng, n):
    T = 100_201
    if n == 2:
        model, _ = two_mode_benchmark(0.6)
    else:
        model = scan_model(rng)
    u, q, w, v = scan_signals(rng, T, n=n, m=model.m, nQ=model.nQ)
    simulate_driven(model, u[:100], q[:100], w[:100], v[:100])  # warm any lazy imports
    tracemalloc.start()
    try:
        simulate_driven(model, u, q, w, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * T) <= PEAK_ROWS[n]


def test_unexcited_growing_mode_is_not_a_blowup(rng):
    # x_1 grows by 1e30 a step but starts at zero and is never driven, so
    # the state stays bounded; the block products overflow all the same.
    T = 300
    model = LssModel(
        n=2, m=1, nQ=1,
        A=[np.array([[1e30, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])],
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)
    expect, blowup = longhand(model, u, q, np.zeros((T, 2)), np.zeros(T))
    assert blowup is None
    npt.assert_allclose(simulate_driven(model, u, q), expect, rtol=0, atol=1e-12)


# Blocks are 16 steps long up to T = 1155, so these T leave nb - 1 = 0, 1,
# 2, 3, 4, 5, 8 and 9 block maps to compose in ceil(log2(nb - 1)) doubling
# rounds (0 to 4); 12 345 steps are 224 maps of 55 steps, 8 rounds.
CARRY_T = [10, 20, 40, 50, 70, 90, 130, 150, 12_345]


def blocks(T):
    L = max(16, math.isqrt(T) // 2)
    return L, max(1, -(-T // L))


@pytest.mark.parametrize("T", CARRY_T)
def test_doubling_carry_matches_longhand_recursion(T):
    # Seeded contracting models, one per n = 1..4, nQ = 1..3 and m = 1..2.
    rng = np.random.default_rng(T)
    models = [
        scan_model(rng, n=n, m=m, nQ=nQ)
        for n in range(1, 5) for nQ in range(1, 4) for m in (1, 2)
    ]
    if T > 1_000:  # the longhand oracle is slow; every n, nQ and m still occurs
        models = models[::5]
    for model in models:
        u, q, w, v = scan_signals(rng, T, n=model.n, m=model.m, nQ=model.nQ)
        expect, blowup = longhand(model, u, q, w, v)
        assert blowup is None
        npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T", [10, 20, 40, 90, 150, 12_345, 100_201])
def test_carry_costs_log2_rounds(monkeypatch, T):
    # One einsum per step of each pass, L per pass, and one per doubling
    # round: a carry that loops over blocks, or a round too many, shows.
    rng = np.random.default_rng(5)
    model = scan_model(rng)
    signals = scan_signals(rng, T)
    calls = 0
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        nonlocal calls
        calls += 1
        return einsum(*args, **kwargs)

    monkeypatch.setattr(simulate_module.np, "einsum", counting_einsum)
    simulate_driven(model, *signals)
    monkeypatch.undo()
    L, nb = blocks(T)
    rounds = math.ceil(math.log2(nb - 1)) if nb > 2 else 0
    assert calls == 2 * L + rounds


def test_growing_mode_unexcited_in_some_blocks_is_not_a_blowup(rng):
    # Mode 2 multiplies x_1 by 1e30 a step, so the map of every block with
    # a run of it overflows, but x_1 starts at zero and nothing drives it.
    # Those blocks are carried one at a time, here with many blocks on
    # either side of them.
    T = 600
    A1 = np.array([[0.5, 0.0], [0.3, 0.5]])
    model = LssModel(
        n=2, m=1, nQ=2,
        A=[A1, np.array([[1e30, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])] * 2,
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    L, nb = blocks(T)
    assert nb > 2
    q = np.ones(T, dtype=int)
    for start in (3 * L + 2, 7 * L + 4, (nb - 2) * L):
        q[start : start + 12] = 2
    u = rng.uniform(-1, 1, size=(T, 1))
    w = np.zeros((T, 2))
    w[:, 1] = rng.uniform(-0.1, 0.1, size=T)
    v = rng.uniform(-0.1, 0.1, size=T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, rtol=0, atol=1e-12)


def test_composed_block_maps_that_overflow_are_not_a_blowup(rng):
    # x_1 grows by 10 a step and is never driven.  One block's map holds
    # 10**16 and stays finite, but the composition of 60 of them overflows.
    T = 1_000
    model = LssModel(
        n=2, m=1, nQ=1,
        A=[np.array([[10.0, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])],
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)
    expect, blowup = longhand(model, u, q, np.zeros((T, 2)), np.zeros(T))
    assert blowup is None
    npt.assert_allclose(simulate_driven(model, u, q), expect, rtol=0, atol=1e-12)


def test_lti_special_case_is_a_convolution(rng):
    # With one mode and no noise the output is the impulse-response
    # convolution of the input; scipy-free check against the explicit sum
    # y(t) = D u(t) + sum_{k>=1} C A^{k-1} B u(t-k).
    n, T = 3, 60
    A = [np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.0, 0.0, 0.3]])]
    B = [rng.standard_normal((n, 1))]
    C = rng.standard_normal(n)
    D = np.array([0.7])
    model = LssModel(n=n, m=1, nQ=1, A=A, B=B, C=C, D=D)
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)

    h = [float(D[0])] + [
        float(C @ np.linalg.matrix_power(A[0], k - 1) @ B[0][:, 0]) for k in range(1, T)
    ]
    expect = [sum(h[k] * u[t - k, 0] for k in range(t + 1)) for t in range(T)]

    npt.assert_allclose(simulate_driven(model, u, q), expect, atol=1e-10)


def test_simulate_is_deterministic(bench, bench_signal):
    model, dist = bench
    cfg = SimConfig(model=model, dist=dist, signal=bench_signal, N=500, seed=42)
    s1, s2 = simulate(cfg), simulate(cfg)
    npt.assert_array_equal(s1.y, s2.y)
    npt.assert_array_equal(s1.u, s2.u)
    npt.assert_array_equal(s1.q, s2.q)


def test_simulate_seeds_differ(bench, bench_signal):
    model, dist = bench
    mk = lambda seed: simulate(
        SimConfig(model=model, dist=dist, signal=bench_signal, N=500, seed=seed)
    )
    assert not np.array_equal(mk(0).y, mk(1).y)


def test_simulate_lengths(bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=123, seed=0))
    assert s.N == 123
    assert len(s.y) == len(s.q) == 124
    assert s.u.shape == (124, 1)


def test_zero_signals_give_zero_output(bench):
    model, dist = bench
    quiet = SignalSpec(Ku_input=0.0, Ku_noise=0.0)
    s = simulate(SimConfig(model=model, dist=dist, signal=quiet, N=200, seed=0))
    npt.assert_array_equal(s.y, np.zeros(201))
    npt.assert_array_equal(s.u, np.zeros((201, 1)))


def test_input_and_mode_laws(bench):
    # Inputs stay inside the stated box and their second moment matches
    # the uniform law; mode frequencies match p to a few standard errors.
    model, dist = bench
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    s = simulate(SimConfig(model=model, dist=dist, signal=signal, N=200_000, seed=9))
    assert np.abs(s.u).max() <= 0.8
    npt.assert_allclose(s.u.var(), 0.64 / 3.0, rtol=0.02)
    freq1 = np.mean(s.q == 1)
    # Binomial std at p = 1/2, N ~ 2e5 is about 0.0011; allow 4 sigma.
    assert abs(freq1 - 0.5) < 0.0045
    assert set(np.unique(s.q)) == {1, 2}


def test_output_respects_theoretical_bound(bench, bench_signal):
    # Explicit envelope for this family: x2 integrates a geometric
    # series, |x2| <= (Ku_inp + Kw) / (1 - a); x1 copies x2 (plus state
    # noise) and y reads x1 (plus output noise), so
    # |y| <= |x2|_max + 2 Kw.
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=50_000, seed=3))
    a, Kw = 0.27, 1.0
    x2_max = (0.8 + Kw) / (1.0 - a)
    assert np.abs(s.y).max() <= x2_max + 2 * Kw + 1e-9


def test_divergence_detected():
    model = LssModel(
        n=1, m=1, nQ=1,
        A=[np.array([[1.5]])], B=[np.array([[1.0]])],
        C=np.array([1.0]), D=np.array([0.0]),
    )
    dist = SwitchingDistribution(p=[1.0])
    signal = SignalSpec(Ku_input=1.0, Ku_noise=0.0)
    with pytest.raises(DivergenceError):
        simulate(SimConfig(model=model, dist=dist, signal=signal, N=500, seed=0))
    # The step is counted from the start of the burn-in: step 74 lies in
    # it, before the retained t = 0.
    with pytest.raises(DivergenceError) as exc:
        simulate(SimConfig(model=model, dist=dist, signal=signal, N=1000, burn_in=200, seed=0))
    assert str(exc.value) == (
        "state blew up at step 74 (|x| > 1e+12); the configuration looks unstable "
        "(steps count from the start of the 200-step burn-in; retained t = 0 is step 200)"
    )


# Mode laws for the draw oracle: nQ = 1, 2, 3, 9 and 130 (beyond int8),
# uniform and not.  [0.5, 0.5, 1e-17] has cdf [0.5, 1.0, 1.0]: its last
# step rounds away, so mode 3 is never drawn.
DRAW_LAWS = [
    [1.0],
    [0.5, 0.5],
    [0.7, 0.3],
    [1 / 3] * 3,
    [0.5, 0.5, 1e-17],
    [1 / 9] * 9,
    list(np.arange(1, 10) / 45),
    [1 / 130] * 130,
    list(np.arange(1, 131) / 8515),
]
DRAW_SIGNALS = [
    SignalSpec(Ku_input=0.8, Ku_noise=1.0),
    SignalSpec(Ku_input=0.0, Ku_noise=1.0),
    SignalSpec(Ku_input=0.8, Ku_noise=0.0),
    SignalSpec(Ku_input=0.0, Ku_noise=0.0),
]


def numpy_draws(rng, p, signal, T, n, m):
    """The trial's signals as numpy's own samplers draw them."""
    q = rng.choice(len(p), size=T, p=p) + 1
    Ku, Kn = signal.Ku_input, signal.Ku_noise
    u = np.zeros((T, m)) if Ku == 0.0 else rng.uniform(-Ku, Ku, size=(T, m))
    if Kn == 0.0:
        return q, u, None, None
    return q, u, rng.uniform(-Kn, Kn, size=(T, n)), rng.uniform(-Kn, Kn, size=T)


def assert_same_draws(p, signal, T, n, m, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_signals(rng, p, signal, T, n, m)
    expect = numpy_draws(twin, p, signal, T, n, m)
    for a, b in zip(got, expect):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            npt.assert_array_equal(a, b)
    # The generator was consumed exactly as numpy's samplers consume it.
    npt.assert_array_equal(rng.random(4), twin.random(4))
    return got


@pytest.mark.parametrize("T", [1, 17, 1201])
@pytest.mark.parametrize("p", DRAW_LAWS, ids=lambda p: f"nQ{len(p)}-{p[0]:.3g}")
def test_draws_are_numpys_choice_and_uniform(p, T):
    q = assert_same_draws(p, DRAW_SIGNALS[0], T, n=4, m=2, seed=T)[0]
    assert q.dtype == np.int64
    assert 1 <= q.min() and q.max() <= len(p)
    if len(p) == 130 and T == 1201:
        assert q.max() > 127  # the labels an int8 count would wrap
    if p[-1] == 1e-17:
        assert 3 not in q


@pytest.mark.parametrize("T", [1, 17, 1201])
@pytest.mark.parametrize("signal", DRAW_SIGNALS, ids=lambda s: f"{s.Ku_input}-{s.Ku_noise}")
def test_zero_amplitudes_draw_nothing(signal, T):
    assert_same_draws([0.7, 0.3], signal, T, n=2, m=3, seed=7)


def test_draw_on_a_cdf_entry_takes_the_next_mode():
    # choice's searchsorted(side="right") puts r == cdf[k] in mode k + 2.
    # With p = [r, 1 - r] for a value r the generator draws at step 5, cdf
    # is exactly [r, 1.0], so that step lands on the entry.
    r = np.random.default_rng(3).random(17)[5]
    p = [r, 1.0 - r]
    assert np.cumsum(p)[-1] == 1.0
    q = assert_same_draws(p, DRAW_SIGNALS[0], 17, n=2, m=1, seed=3)[0]
    assert q[5] == 2


def test_simulate_rolls_out_numpys_draws(bench, bench_signal):
    model, dist = bench
    cfg = SimConfig(model=model, dist=dist, signal=bench_signal, N=300, burn_in=50, seed=4)
    s = simulate(cfg)
    q, u, w, v = numpy_draws(np.random.default_rng(4), dist.p, bench_signal, 351, 2, 1)
    npt.assert_array_equal(s.q, q[50:])
    npt.assert_array_equal(s.u, u[50:])
    npt.assert_array_equal(s.y, simulate_driven(model, u, q, w, v)[50:])


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(N=3, y=np.zeros(3), u=np.zeros((4, 1)), q=np.ones(4, dtype=int))
    with pytest.raises(ValueError, match="field 'y' at step 1 is not finite: nan"):
        SampleSet(N=1, y=np.array([0.0, np.nan]), u=np.zeros((2, 1)), q=np.ones(2, dtype=int))


def test_simconfig_validation(bench, bench_signal):
    model, dist = bench
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=0)
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=10, burn_in=-1)
    other = SwitchingDistribution(p=[1.0])
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=other, signal=bench_signal, N=10)


def test_trajectory_csv_roundtrip(tmp_path, bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=50, seed=5))
    path = tmp_path / "traj.csv"
    save_trajectory(str(path), s)
    s2 = load_trajectory(str(path))
    assert s2.N == s.N
    npt.assert_array_equal(s2.y, s.y)  # repr round-trips doubles exactly
    npt.assert_array_equal(s2.u, s.u)
    npt.assert_array_equal(s2.q, s.q)
    header = path.read_text().splitlines()[0]
    assert header == "t,y,u_1,q"


def csv_writer_save(path, sample):
    """The trajectory writer row by row through csv.writer: the oracle
    for the bytes :func:`save_trajectory` writes."""
    m = sample.u.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"] + [f"u_{j + 1}" for j in range(m)] + ["q"])
        for t in range(sample.N + 1):
            row = [t, repr(float(sample.y[t]))]
            row += [repr(float(sample.u[t, j])) for j in range(m)]
            row.append(int(sample.q[t]))
            writer.writerow(row)


EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize(
    "sample",
    [
        SampleSet(N=0, y=[0.25], u=[[-1.5]], q=[1]),
        SampleSet(N=0, y=[-0.0], u=[[1e16, 5e-324]], q=[3]),
        SampleSet(
            N=4,
            y=EDGE_VALUES,
            u=np.column_stack([EDGE_VALUES[::-1], [-x for x in EDGE_VALUES]]),
            q=[1, 2, 2, 1, 12],
        ),
        SampleSet(N=4, y=[1.0, -2.5, 3e-7, 0.1, 7.0], u=EDGE_VALUES, q=[2, 1, 1, 2, 1]),
    ],
    ids=["N0", "N0-m2", "edge-m2", "edge-m1"],
)
def test_save_trajectory_bytes_match_csv_writer(tmp_path, sample):
    save_trajectory(str(tmp_path / "new.csv"), sample)
    csv_writer_save(str(tmp_path / "old.csv"), sample)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_trajectory_bytes_match_csv_writer_on_a_simulation(tmp_path, bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=2000, seed=7))
    save_trajectory(str(tmp_path / "new.csv"), s)
    csv_writer_save(str(tmp_path / "old.csv"), s)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_load_trajectory_rejects_alien_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,output\n0,1.0\n")
    with pytest.raises(ValueError):
        load_trajectory(str(path))


def rowwise_load(path):
    """The per-row trajectory reader, field by field with csv: the oracle
    for :func:`load_trajectory`, which parses the body with numpy."""
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
            try:
                ys.append(float(row[1]))
                us.append([float(x) for x in row[2 : 2 + m]])
                q = int(row[-1])
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
            if not -(2**63) <= q < 2**63:
                raise ValueError(
                    f"{path}, line {reader.line_num}: field 'q' is outside the "
                    f"int64 range: {row[-1]!r}"
                )
            qs.append(q)
    return SampleSet(N=len(ys) - 1, y=np.array(ys), u=np.array(us), q=np.array(qs))


TRAJ_ROWS = [
    "0,0.5,-1.25,3e-17,1",
    "1,-0.125,0.75,1.0,2",
    "2,2.5e3,-0.0,-7.5,3",
    "3,0.1,0.2,0.30000000000000004,1",
]


def traj_text(rows, header="t,y,u_1,u_2,q", newline="\n"):
    return newline.join([header] + rows) + newline


def edit_row(i, **fields):
    names = ["t", "y", "u_1", "u_2", "q"]
    row = TRAJ_ROWS[i].split(",")
    for name, value in fields.items():
        row[names.index(name)] = value
    return TRAJ_ROWS[:i] + [",".join(row)] + TRAJ_ROWS[i + 1 :]


LOADER_CASES = {
    "plain": traj_text(TRAJ_ROWS),
    "blank-line": traj_text(TRAJ_ROWS[:2] + [""] + TRAJ_ROWS[2:]),
    "crlf": traj_text(TRAJ_ROWS, newline="\r\n"),
    "whitespace-line": traj_text(TRAJ_ROWS[:2] + ["   "] + TRAJ_ROWS[2:]),
    "hash-line": traj_text(TRAJ_ROWS[:2] + ["# note"] + TRAJ_ROWS[2:]),
    "extra-field": traj_text(TRAJ_ROWS[:2] + [TRAJ_ROWS[2] + ",9"] + TRAJ_ROWS[3:]),
    "missing-field": traj_text(TRAJ_ROWS[:2] + [TRAJ_ROWS[2].rsplit(",", 2)[0] + ",3"]),
    "quoted-number": traj_text(edit_row(1, y='"-0.125"')),
    "q-2.0": traj_text(edit_row(1, q="2.0")),
    "q-1e0": traj_text(edit_row(2, q="1e0")),
    "y-abc": traj_text(edit_row(3, y="abc")),
    "t-abc": traj_text(edit_row(0, t="abc")),
    "padded-fields": traj_text(edit_row(1, y=" -0.125 ", q=" 2")),
    "one-row": traj_text(TRAJ_ROWS[:1]),
    "no-final-newline": traj_text(TRAJ_ROWS)[:-1],
    # The quoted field sends the file to the row reader.
    "q-int64-max": traj_text(edit_row(2, y='"2.5e3"', q=str(2**63 - 1))),
    "q-above-int64": traj_text(edit_row(2, q=str(2**63))),
    "q-below-int64": traj_text(edit_row(1, q=str(-(2**63) - 1))),
    "q-20-digits": traj_text(edit_row(3, q="99999999999999999999")),
    "one-input": traj_text([r.rsplit(",", 2)[0] + "," + r[-1] for r in TRAJ_ROWS], "t,y,u_1,q"),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_load_trajectory_matches_rowwise_reader(tmp_path, case):
    path = tmp_path / "traj.csv"
    path.write_bytes(LOADER_CASES[case].encode())
    try:
        expect = rowwise_load(str(path))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_trajectory(str(path))
        assert str(got.value) == str(exc)
        return
    got = load_trajectory(str(path))
    assert got.N == expect.N
    for name in ("y", "u", "q"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        npt.assert_array_equal(a, b)


def test_load_trajectory_refuses_mode_label_beyond_int64(tmp_path):
    # The label used to pass the reader and overflow in SampleSet.
    path = tmp_path / "traj.csv"
    path.write_text(LOADER_CASES["q-20-digits"])
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == (
        f"{path}, line 5: field 'q' is outside the int64 range: '99999999999999999999'"
    )


@pytest.mark.parametrize("field", ["y", "q"])
@pytest.mark.parametrize("value", ["1_000", "١٢"], ids=["underscore", "arabic-indic"])
def test_load_trajectory_refuses_spellings_numpy_refuses(tmp_path, field, value):
    # Python's float and int take digit separators and non-ASCII digits;
    # numpy's reader does not, and the file is refused rather than read
    # by a second parser.
    path = tmp_path / "traj.csv"
    path.write_text(traj_text(edit_row(1, **{field: value})), encoding="utf-8")
    kind = "an integer" if field == "q" else "a number"
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line 3: field {field!r} is not {kind}: {value!r}"


@pytest.mark.parametrize("line", [1, 3])
def test_load_trajectory_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, line):
    # The byte used to escape as a UnicodeDecodeError naming only its
    # offset: numpy's reader refused the body and the row scan hit it too.
    text = "t,y,u_1,q\r\n0,0.5,0.1,1\r\n1,0.5,0.2,2\r\n2,0.1,0.3,1\r\n".encode()
    lines = text.split(b"\r\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    path = tmp_path / "traj.csv"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line {line}: byte 0xff is not utf-8 text"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["y", "u_2"])
def test_load_trajectory_refuses_non_finite_values(tmp_path, field, value):
    # numpy reads these spellings as floats; the estimator would turn one
    # into a NaN Markov estimate, so the file is refused at the field.
    path = tmp_path / "traj.csv"
    path.write_text(traj_text(edit_row(2, **{field: value})))
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line 4: field {field!r} is not finite: {value!r}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sampleset_refuses_non_finite_inputs(value):
    u = np.zeros((4, 2))
    u[2, 1] = value
    with pytest.raises(ValueError) as exc:
        SampleSet(N=3, y=np.zeros(4), u=u, q=np.ones(4, dtype=int))
    assert str(exc.value) == f"trajectory field 'u_2' at step 2 is not finite: {value!r}"


# Pins recorded before the scan's layout changed (N = 1e4: before the
# carry became a doubling composition): sha256 of the retained outputs of
# seeded two-mode trajectories (Ku_input 0.8, Ku_noise 1.0, seed 11),
# which must stay bit-identical ...
TWO_MODE_PINS = {
    (0.1, 1_000): "14bbf8e07b5594da5162f2d9353ec2f46d236cd5046abeb3cae1e9a234623dcf",
    (0.1, 10_000): "a785f5c1767db6c58eaa9de1a93b32f8393143aa840325532503498a2711e207",
    (0.1, 100_000): "02b2ea24d10e7b5a032641f00962718e2bac03819a5e7179ebfda1cad610944a",
    (0.4, 1_000): "52a0508fb256e4cfdc3c6274dcab58e25d351f0e7e6fce363a51910f325e6b9c",
    (0.4, 10_000): "258c815eaaa6300be71fb6bccd9557ca7774700fb2f5b81eb6dfa981ff7eea8d",
    (0.4, 100_000): "bfe7ee05920611e3a34a208a03ff53639c749c652466783954745df8359d87cf",
    (0.6, 1_000): "c21241da390eb8e4c24b1e4fa6b17df0cd15c74ad9b86e860e5dfe65e7a62614",
    (0.6, 10_000): "f283dc3e2b3181cc896717279ec885c217c0046ebd5a9c911d6edeb19d196293",
    (0.6, 100_000): "30cefca74ecb034c7e81043ac2005030924be34e0b1d244ad5616cd457575045",
}


@pytest.mark.parametrize("gamma, N", sorted(TWO_MODE_PINS))
def test_two_mode_trajectories_are_pinned_bit_for_bit(gamma, N, bench_signal):
    model, dist = two_mode_benchmark(gamma)
    y = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=N, seed=11)).y
    assert hashlib.sha256(y.tobytes()).hexdigest() == TWO_MODE_PINS[gamma, N]


# ... and 21 evenly spaced outputs of a seeded n = 4, nQ = 3, m = 2
# trajectory (N = 1e5, seed 5), which may move only by the reordering of
# sums, 4e-16 of its largest |y|.
N4_PIN_MAX_ABS_Y = 11.011571334178916
N4_PINS = [
    -2.389231099358137, -2.39516269483778, -1.0052911895840948, -0.2243726101045566,
    -3.4972905640870326, -1.2090706691282, 0.5912233125938652, 5.407711179965725,
    0.015225995751290133, 2.380364785744453, 2.4653857948250955, -0.5702816729351158,
    1.6276804858591363, -2.0565726486176725, 1.8253469416833088, 1.0936014600416888,
    1.0049071235201987, 3.5756810691216705, 0.02560631318665041, 3.7603402843844993,
    2.471323772228984,
]


def test_n4_trajectory_is_pinned_to_rounding(bench_signal):
    rng = np.random.default_rng(2024)
    n, m, nQ = 4, 2, 3
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(0.9 * G / np.linalg.norm(G, 2))
    model = LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n), D=rng.standard_normal(m),
    )
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    y = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=100_000, seed=5)).y
    npt.assert_allclose(np.abs(y).max(), N4_PIN_MAX_ABS_Y, rtol=4e-16)
    npt.assert_allclose(
        y[np.linspace(0, 100_000, 21).astype(int)], N4_PINS, rtol=0, atol=4e-16 * N4_PIN_MAX_ABS_Y
    )
