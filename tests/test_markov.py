"""Markov parameters: exact values and the estimator kernel."""

import itertools
import re

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    LssModel,
    SignalSpec,
    SimConfig,
    SwitchingDistribution,
    empirical_markov_batch,
    markov,
    p_word,
    simulate,
    true_markov_map,
)
from switchid.markov import true_markov
from switchid.simulate import SampleSet


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


def masked_dot_estimates(sample, words, sigma_u, dist):
    """The estimator one word at a time: multiply y(t) by shifted mode
    indicators, one per letter, and take the dot product with u(t - k)."""
    sigma_u = np.asarray(sigma_u, dtype=float)
    y, u, N = sample.y, sample.u, sample.N
    masks = [np.asarray(sample.q == c + 1, dtype=float) for c in range(dist.nQ)]
    entries = {}
    for w in sorted(set(tuple(x) for x in words), key=lambda w: (len(w), w)):
        k = len(w)
        L = N - k
        # Terms t = k+1..N: output y(t), input u(t-k), and the indicator that
        # q(t-k+i) = w[i] for i = 0..k-1, i.e. slice i+1 .. L+i of the modes.
        weights = y[k + 1 : N + 1].copy()
        for i, c in enumerate(w):
            weights *= masks[c - 1][i + 1 : L + i + 1]
        s = weights @ u[1 : L + 1]
        entries[w] = np.linalg.solve(sigma_u, s) / (L * p_word(dist, w))
    return entries


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


def test_estimator_of_no_words_returns_an_empty_table(bench, bench_signal):
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=3, seed=0))
    assert empirical_markov_batch(sample, [], bench_signal.sigma_u(1), dist) == {}


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


def random_words(rng, nQ, count, longest):
    """A word set that is not prefix-closed: random words of random
    lengths, with the empty word and every word of length 1."""
    words = [()] + [(c,) for c in range(1, nQ + 1)]
    for _ in range(count):
        k = int(rng.integers(2, longest + 1))
        words.append(tuple(int(c) for c in rng.integers(1, nQ + 1, size=k)))
    return words


def assert_matches_oracle(got, expect):
    assert list(got) == list(expect)
    scale = max(np.abs(v).max() for v in expect.values())
    for w in expect:
        npt.assert_allclose(got[w], expect[w], rtol=1e-12, atol=1e-12 * scale, err_msg=str(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("nQ", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_estimator_matches_masked_dot_oracle(n, nQ, m):
    rng = np.random.default_rng([n, nQ, m, 17])
    A = [0.5 * G / np.linalg.norm(G, 2) for G in rng.standard_normal((nQ, n, n))]
    model = LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=list(rng.standard_normal((nQ, n, m))),
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )
    dist = SwitchingDistribution(p=rng.dirichlet(np.full(nQ, 2.0)))
    signal = SignalSpec(Ku_input=1.0, Ku_noise=0.3)
    sigma_u = signal.sigma_u(m)
    words = random_words(rng, nQ, count=12, longest=6)
    longest = max(len(w) for w in words)
    for N in (longest + 1, 1_000, 20_000):
        sample = simulate(SimConfig(model=model, dist=dist, signal=signal, N=N, seed=N))
        assert_matches_oracle(
            empirical_markov_batch(sample, words, sigma_u, dist),
            masked_dot_estimates(sample, words, sigma_u, dist),
        )


def test_estimator_words_beyond_int64_codes():
    # nQ = 9 and length 21: 9**21 > 2**63, so a base-nQ window code would
    # overflow.  Two such words differ only in their first letter, and the
    # trajectory spells each of them a few times.
    rng = np.random.default_rng(21)
    nQ, N = 9, 3_000
    w1 = tuple(int(c) for c in rng.integers(1, nQ + 1, size=21))
    w2 = (w1[0] % nQ + 1,) + w1[1:]
    assert nQ ** len(w1) > np.iinfo(np.int64).max
    q = rng.integers(1, nQ + 1, size=N + 1)
    for start in (5, 400, 1_000, 2_500):
        q[start : start + 21] = w1
    q[1_700 : 1_721] = w2
    sample = SampleSet(y=rng.standard_normal(N + 1), u=rng.standard_normal((N + 1, 1)), q=q)
    dist = SwitchingDistribution(p=np.full(nQ, 1.0 / nQ))
    words = [w1, w2, w1[:20], w1[:7], (w1[0],), ()]
    got = empirical_markov_batch(sample, words, np.eye(1), dist)
    assert_matches_oracle(got, masked_dot_estimates(sample, words, np.eye(1), dist))
    assert got[w1][0] != 0.0 and got[w2][0] != 0.0


def test_estimator_bincount_calls_per_word_length(monkeypatch):
    # One bincount per word length and input channel, however many words.
    rng = np.random.default_rng(3)
    nQ, m, N = 3, 2, 2_000
    sample = SampleSet(
        y=rng.standard_normal(N + 1),
        u=rng.standard_normal((N + 1, m)),
        q=rng.integers(1, nQ + 1, size=N + 1),
    )
    dist = SwitchingDistribution(p=[0.2, 0.3, 0.5])
    all_words = [w for k in range(5) for w in itertools.product(range(1, nQ + 1), repeat=k)]
    calls = 0
    bincount = np.bincount

    def counting_bincount(*args, **kwargs):
        nonlocal calls
        calls += 1
        return bincount(*args, **kwargs)

    for words in (all_words, [(1, 2, 3, 1, 2, 3, 1)], random_words(rng, nQ, 40, 6)):
        calls = 0
        monkeypatch.setattr(markov.np, "bincount", counting_bincount)
        got = empirical_markov_batch(sample, words, np.eye(m), dist)
        monkeypatch.undo()
        assert calls <= (max(len(w) for w in words) + 1) * m
        assert_matches_oracle(got, masked_dot_estimates(sample, words, np.eye(m), dist))


def test_estimator_refusals_name_the_fault(bench, bench_signal):
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=3, seed=0))
    sigma_u = bench_signal.sigma_u(1)
    with pytest.raises(ValueError, match=r"trajectory too short for \|w\| = 3: N = 3"):
        empirical_markov_batch(sample, [(1,), (1, 2, 1), (1, 2, 1, 1)], sigma_u, dist)
    bad = SampleSet(y=sample.y, u=sample.u, q=[1, 2, 3, 1])
    with pytest.raises(ValueError, match=r"mode label 3 at step 2 outside 1\.\.2"):
        empirical_markov_batch(bad, [(1,)], sigma_u, dist)
    bad = SampleSet(y=sample.y, u=sample.u, q=[1, 0, 1, 1])
    with pytest.raises(ValueError, match=r"mode label 0 at step 1 outside 1\.\.2"):
        empirical_markov_batch(bad, [(1,)], sigma_u, dist)
    with pytest.raises(ValueError, match=r"word \(1, 3\) has a letter outside 1\.\.2"):
        empirical_markov_batch(sample, [(1, 3)], sigma_u, dist)


def test_estimator_refuses_an_estimate_that_is_not_finite(bench, bench_signal):
    # y(t) = 1e308 is a float, but y(t) u(t - k) / Sigma_u is not once
    # |u(t - k)| > Sigma_u = 0.2133: the first such word is named.
    model, dist = bench
    sigma_u = bench_signal.sigma_u(1)
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=2000, seed=1))
    words = [(), (1,), (2,)]
    u = np.abs(sample.u[:, 0])
    t = next(t for t in range(1, 2001) if u[t - 1] > 0.5 and u[t] < 0.2)
    for at, first in [(t, (int(sample.q[t - 1]),)), (500, ())]:
        y = sample.y.copy()
        y[at] = 1e308
        bad = SampleSet(y=y, u=sample.u, q=sample.q)
        with pytest.raises(ValueError, match=re.escape(f"Markov estimate of word {first} is not")):
            empirical_markov_batch(bad, words, sigma_u, dist)


def test_an_overflowing_product_is_refused_without_numpy_warnings(bench):
    # y(5) u(5) = 5e308 overflows in the products themselves; numpy's
    # RuntimeWarning (an error under this suite) used to come first.
    _, dist = bench
    y = np.full(12, 0.5)
    y[5] = 1e308
    sample = SampleSet(y=y, u=np.tile([-5.0, 5.0], 6), q=np.tile([1, 2], 6))
    with pytest.raises(ValueError) as exc:
        empirical_markov_batch(sample, [(), (1,), (2, 1)], np.eye(1) * 25 / 3, dist)
    assert str(exc.value).startswith("the Markov estimate of word () is not finite ([inf])")


def test_word_tables_are_built_once_per_word_set():
    rng = np.random.default_rng(4)
    nQ, N = 2, 500
    sample = SampleSet(
        y=rng.standard_normal(N + 1), u=rng.standard_normal((N + 1, 1)),
        q=rng.integers(1, nQ + 1, size=N + 1),
    )
    dist = SwitchingDistribution(p=[0.5, 0.5])
    words = [(), (1,), (2, 1), (1, 2, 2)]
    markov._word_tables.cache_clear()
    # The same set in another order, with a repeat, is the same word set.
    for same in (words, words[::-1], words + [(2, 1)]):
        empirical_markov_batch(sample, same, np.eye(1), dist)
    empirical_markov_batch(sample, words[:3], np.eye(1), dist)
    assert markov._word_tables.cache_info().misses == 2


def test_estimator_matches_the_oracle_on_a_warm_cache():
    # One word set, estimated at nQ = 2 and at nQ = 3, twice over: the
    # tables of one nQ must never serve the other.
    rng = np.random.default_rng(9)
    words = random_words(rng, 2, count=10, longest=5)
    N = 3_000
    samples = {
        nQ: SampleSet(
            y=rng.standard_normal(N + 1), u=rng.standard_normal((N + 1, 1)),
            q=rng.integers(1, nQ + 1, size=N + 1),
        )
        for nQ in (2, 3)
    }
    dists = {2: SwitchingDistribution(p=[0.4, 0.6]), 3: SwitchingDistribution(p=[0.2, 0.3, 0.5])}
    for _ in range(2):
        for nQ in (2, 3, 2):
            sample, dist = samples[nQ], dists[nQ]
            assert_matches_oracle(
                empirical_markov_batch(sample, words, np.eye(1), dist),
                masked_dot_estimates(sample, words, np.eye(1), dist),
            )


def test_cached_word_tables_refuse_writes():
    words = frozenset([(), (1,), (2,), (1, 2), (2, 1, 2)])
    _, _, _, passes, word_law = markov._word_tables(words, (0.5, 0.5))
    arrays = [a for step in passes for a in (step[2], step[4]) if a is not None] + [word_law]
    assert len(arrays) == 6  # bins at lengths 1..3, tables at lengths 1..2, |w| and p_w
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_estimator_refusals_hold_on_a_cache_hit(bench, bench_signal):
    # Each word set is estimated once first, so the refusals below read
    # tables that are already built.  The first word, shortest first, that
    # is too short or has a letter outside 1..nQ is named; too short wins
    # on one word.
    model, dist = bench
    sigma_u = bench_signal.sigma_u(1)
    long = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=50, seed=0))
    short = SampleSet(y=long.y[:4], u=long.u[:4], q=long.q[:4])
    too_short = [(1,), (1, 2, 1), (1, 2, 1, 1)]
    empirical_markov_batch(long, too_short, sigma_u, dist)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^trajectory too short for \|w\| = 3: N = 3$"):
            empirical_markov_batch(short, too_short, sigma_u, dist)
    cases = [
        ([(1, 3)], long, r"^word \(1, 3\) has a letter outside 1\.\.2$"),
        ([(3,), (1, 1, 1, 1)], short, r"^word \(3,\) has a letter outside 1\.\.2$"),
        ([(1, 1, 1), (1, 1, 1, 3)], short, r"^trajectory too short for \|w\| = 3: N = 3$"),
        ([(1,), (1, 1, 3)], short, r"^trajectory too short for \|w\| = 3: N = 3$"),
    ]
    for words, sample, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                empirical_markov_batch(sample, words, sigma_u, dist)
