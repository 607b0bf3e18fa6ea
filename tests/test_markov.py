"""Markov parameters: exact values and the estimator kernel."""

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    LssModel,
    SignalSpec,
    SimConfig,
    SwitchingDistribution,
    empirical_markov_batch,
    p_word,
    simulate,
    true_markov_map,
)
from switchid.markov import true_markov


# Definition-level oracles for the estimator, one time step at a time.


def indicator_chi(q_traj, w, t):
    """1 if the k modes ending at time t spell w, else 0; 1 for epsilon.

    Concretely, for k = len(w) the indicator checks
    q(t - k + 1) = w_1, ..., q(t) = w_k and requires t - k + 1 >= 0.
    """
    k = len(w)
    if k == 0:
        return 1
    if t - k + 1 < 0 or t >= len(q_traj):
        raise IndexError(f"indicator window [{t - k + 1}, {t}] outside trajectory")
    for j in range(k):
        if q_traj[t - k + 1 + j] != w[j]:
            return 0
    return 1


def z_lagged(u_traj, q_traj, w, t):
    """Lagged regressor u(t - k) gated by the mode indicator at t - 1.

    For the empty word this is just u(t); for k = len(w) >= 1 it is
    u(t - k) when the modes q(t - k), ..., q(t - 1) spell w and the zero
    vector otherwise.
    """
    u_traj = np.asarray(u_traj, dtype=float)
    if u_traj.ndim == 1:
        u_traj = u_traj.reshape(-1, 1)
    k = len(w)
    if k == 0:
        return u_traj[t].copy()
    if t < k:
        raise IndexError(f"need t >= |w| = {k}, got t = {t}")
    chi = indicator_chi(q_traj, w, t - 1)
    return u_traj[t - k] * float(chi)


def test_true_markov_benchmark_values(bench):
    # Hand-computed for a = 0.27.  Only words routing the input through
    # B_2 and then at least one A_1 step are nonzero; C A_1 B_2 = 1 and
    # inserting extra A_1 factors multiplies by a each time... except the
    # first one, since A_1 shifts the second state into the first.
    model, _ = bench
    cases = {
        (): 0.0,
        (1,): 0.0,
        (2,): 0.0,
        (2, 1): 1.0,
        (2, 2): 0.0,
        (2, 1, 1): 0.27,
        (2, 2, 1): 0.27,
        (2, 1, 2): 0.0,
        (2, 1, 1, 1): 0.27**2,
        (2, 1, 2, 1): 0.27**2,
    }
    for w, val in cases.items():
        npt.assert_allclose(true_markov(model, w), [val], atol=1e-15, err_msg=str(w))


def test_true_markov_epsilon_is_feedthrough():
    model = LssModel(
        n=1, m=2, nQ=1,
        A=[np.array([[0.5]])], B=[np.ones((1, 2))],
        C=np.array([2.0]), D=np.array([3.0, -1.0]),
    )
    npt.assert_array_equal(true_markov(model, ()), [3.0, -1.0])


def test_true_markov_map_tabulates(bench):
    model, _ = bench
    mm = true_markov_map(model, [(), (2, 1), (2, 2, 1)])
    assert mm.keys() == {(), (2, 1), (2, 2, 1)}
    npt.assert_allclose(mm[(2, 2, 1)], [0.27])


def test_indicator_chi_cases():
    q = np.array([1, 2, 2, 1, 2])
    assert indicator_chi(q, (), 0) == 1
    assert indicator_chi(q, (2,), 1) == 1
    assert indicator_chi(q, (2,), 3) == 0
    assert indicator_chi(q, (2, 2, 1), 3) == 1  # q(1), q(2), q(3) = 2, 2, 1
    assert indicator_chi(q, (2, 1, 1), 3) == 0
    with pytest.raises(IndexError):
        indicator_chi(q, (1, 2), 0)
    with pytest.raises(IndexError):
        indicator_chi(q, (2,), 5)


def test_z_lagged_cases():
    u = np.array([10.0, 20.0, 30.0, 40.0])
    q = np.array([1, 2, 2, 1])
    npt.assert_array_equal(z_lagged(u, q, (), 2), [30.0])
    # w = (2, 2): need q(1), q(2) = 2, 2 and the regressor is u(1).
    npt.assert_array_equal(z_lagged(u, q, (2, 2), 3), [20.0])
    npt.assert_array_equal(z_lagged(u, q, (1, 2), 3), [0.0])
    with pytest.raises(IndexError):
        z_lagged(u, q, (2,), 0)


def test_estimator_matches_definition_loop(rng):
    # Dumb oracle: accumulate y(t) z_w(t)^T over t = |w|+1 .. N with
    # z_lagged, then apply the covariance and probability scalings.
    n, m, nQ, N = 2, 2, 2, 300
    model = LssModel(
        n=n, m=m, nQ=nQ,
        A=[0.3 * rng.standard_normal((n, n)) for _ in range(nQ)],
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )
    dist = SwitchingDistribution(p=[0.4, 0.6])
    signal = SignalSpec(Ku_input=1.0, Ku_noise=0.5)
    sample = simulate(SimConfig(model=model, dist=dist, signal=signal, N=N, seed=88))
    sigma_u = signal.sigma_u(m)

    for w in [(), (1,), (2,), (2, 1), (1, 1, 2)]:
        k = len(w)
        acc = np.zeros(m)
        for t in range(k + 1, N + 1):
            acc += sample.y[t] * z_lagged(sample.u, sample.q, w, t)
        expect = (acc / (N - k)) @ np.linalg.inv(sigma_u) / p_word(dist, w)
        got = empirical_markov_batch(sample, [w], sigma_u, dist)[w]
        npt.assert_allclose(got, expect, rtol=1e-10, atol=1e-12, err_msg=str(w))


def test_zero_trajectory_estimates_zero(bench, bench_signal):
    model, dist = bench
    sample = simulate(
        SimConfig(
            model=model,
            dist=dist,
            signal=SignalSpec(Ku_input=0.0, Ku_noise=0.0),
            N=100,
            seed=0,
        )
    )
    got = empirical_markov_batch(sample, [(2, 1)], bench_signal.sigma_u(1), dist)[(2, 1)]
    npt.assert_array_equal(got, [0.0])


def test_estimator_refuses_short_trajectory(bench, bench_signal):
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=3, seed=0))
    with pytest.raises(ValueError):
        empirical_markov_batch(sample, [(1, 2, 1)], bench_signal.sigma_u(1), dist)


def test_estimator_unbiased_over_trials(bench, bench_signal):
    # Mean over independent trajectories should sit within a few standard
    # errors of the true value; this pins the scalings (covariance
    # inverse, word probability, N - k normalization) jointly.
    model, dist = bench
    sigma_u = bench_signal.sigma_u(1)
    w, true_val = (2, 2, 1), 0.27
    vals = []
    for seed in range(300):
        s = simulate(
            SimConfig(model=model, dist=dist, signal=bench_signal, N=1000, seed=seed)
        )
        vals.append(empirical_markov_batch(s, [w], sigma_u, dist)[w][0])
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - true_val) < 4.0 * se


def test_estimator_consistent_on_long_run(bench, bench_signal):
    model, dist = bench
    sample = simulate(
        SimConfig(model=model, dist=dist, signal=bench_signal, N=200_000, seed=77)
    )
    words = [(), (1,), (2,), (2, 1), (2, 2), (2, 1, 1), (2, 2, 1), (2, 1, 2, 1)]
    mm = empirical_markov_batch(sample, words, bench_signal.sigma_u(1), dist)
    assert mm.keys() == set(words)
    for w in words:
        npt.assert_allclose(mm[w], true_markov(model, w), atol=0.08, err_msg=str(w))
