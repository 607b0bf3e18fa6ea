"""Simulator behaviour: exact recursion, determinism, signal laws."""

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
)
from switchid.simulate import SampleSet


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


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(N=3, y=np.zeros(3), u=np.zeros((4, 1)), q=np.ones(4, dtype=int))
    with pytest.raises(ValueError):
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


def test_load_trajectory_rejects_alien_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,output\n0,1.0\n")
    with pytest.raises(ValueError):
        load_trajectory(str(path))
