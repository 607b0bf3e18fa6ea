"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints one ``[criterion k] PASS/FAIL`` line (straight to the
terminal, bypassing capture) so a log shows the whole scorecard.  The
expensive Monte Carlo campaigns are built once per session and shared:

* ``campaign_sweep``: 6 parameter series x {1e3, 1e4, 1e5} x 100 trials,
  produced by the real experiment driver (criteria 3 and 5);
* ``campaign_large``: 1000 trials at N = 1e4 with per-word estimation
  errors kept (criteria 4 and 9);
* ``campaign_small``: 1000 trials at N = 1e3 (criterion 4).

Trial seeds are shared across series (common random numbers), which is
what makes the mean-error orderings of criterion 5 stable at this trial
count.
"""

import math
import time

import numpy as np
import pytest

from switchid import (
    ExperimentConfig,
    LssModel,
    Selection,
    SelectionRankError,
    SignalSpec,
    SimConfig,
    build_hankels,
    compute_certificate,
    est_err,
    find_P,
    find_selection,
    gamma_from_P,
    identify_sample,
    markov_roundtrip,
    min_valid_N,
    required_words,
    run_experiment,
    simulate,
    true_markov_map,
    true_realization,
    two_mode_benchmark,
)
from switchid.markov import true_markov

# The fixed selection quoted for the two-mode family: rows {epsilon, (1)},
# columns {(epsilon, 2, 1), ((1), 2, 1)}.
FIXED_SEL = Selection(alpha=((), (1,)), beta=(((), 2, 1), ((1,), 2, 1)))

GRID_N = [1_000, 10_000, 100_000]


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def campaign_sweep():
    """Six (gamma, noise, input) series through the experiment driver."""
    sweeps = [
        dict(gamma_values=[0.1, 0.4, 0.6], Ku_noise_values=[1.0], Ku_input_values=[0.8]),
        dict(gamma_values=[0.6], Ku_noise_values=[1.0], Ku_input_values=[0.5]),
        dict(gamma_values=[0.6], Ku_noise_values=[20.0, 30.0], Ku_input_values=[0.8]),
    ]
    rows, seconds = [], []
    for kw in sweeps:
        cfg = ExperimentConfig(N_grid=GRID_N, trials=100, seed_base=0, **kw)
        t0 = time.perf_counter()
        rows += run_experiment(cfg)
        seconds.append(time.perf_counter() - t0)
    return {"rows": rows, "seconds": seconds}


def _mean_series(rows, gamma, kn, ki):
    out = []
    for N in GRID_N:
        v = [
            r.est_err
            for r in rows
            if (r.gamma, r.ku_noise, r.ku_input, r.N) == (gamma, kn, ki, N)
            and np.isfinite(r.est_err)
        ]
        out.append(float(np.mean(v)))
    return out


@pytest.fixture(scope="session")
def bench_setup():
    model, dist = two_mode_benchmark(0.6)
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    sel = find_selection(model)
    rr_ref = true_realization(model, sel)
    words = required_words(sel, model.nQ)
    mm_true = true_markov_map(model, words)
    stability = find_P(model, dist, 0.6)
    return model, dist, signal, sel, words, mm_true, rr_ref, stability


def _run_trials(bench_setup, N, n_trials, seed_base, keep_word_errors):
    model, dist, signal, sel, words, mm_true, rr_ref, _ = bench_setup
    sigma_u = signal.sigma_u(model.m)
    W = [w for w in words if w != ()]
    word_errs = np.empty((n_trials, len(W))) if keep_word_errors else None
    errs = np.empty(n_trials)
    t0 = time.perf_counter()
    for t in range(n_trials):
        sample = simulate(
            SimConfig(model=model, dist=dist, signal=signal, N=N, seed=seed_base + t)
        )
        mm, rr = identify_sample(sample, sel, sigma_u, dist)
        if keep_word_errors:
            for j, w in enumerate(W):
                word_errs[t, j] = np.linalg.norm(mm[w] - mm_true[w])
        errs[t] = est_err(rr, rr_ref)
    return {
        "est_err": errs,
        "word_errs": word_errs,
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def campaign_large(bench_setup):
    return _run_trials(bench_setup, 10_000, 1000, 50_000, keep_word_errors=True)


@pytest.fixture(scope="session")
def campaign_small(bench_setup):
    return _run_trials(bench_setup, 1_000, 1000, 60_000, keep_word_errors=False)


def test_criterion_1_exact_roundtrip(report):
    t0 = time.perf_counter()
    model, _ = two_mode_benchmark(0.6)
    words = [()]
    frontier = [()]
    for _ in range(5):
        frontier = [w + (c,) for w in frontier for c in (1, 2)]
        words += frontier
    mm = true_markov_map(model, words)
    rr = true_realization(model, FIXED_SEL)
    rt = markov_roundtrip(rr, words)
    worst = max(float(np.max(np.abs(rt[w] - mm[w]))) for w in words)
    dt = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-9 and dt < 1.0,
        f"realization from true Markov parameters reproduces all {len(words)} words "
        f"of length <= 5, max error {worst:.2e} <= 1e-9 ({dt:.2f} s < 1 s)",
    )


def test_criterion_2_hankel_reproduction(report):
    t0 = time.perf_counter()
    model, _ = two_mode_benchmark(0.6)
    mm = true_markov_map(model, required_words(FIXED_SEL, 2))
    hs = build_hankels(mm, FIXED_SEL)
    expect = np.array([[0.0, 1.0], [1.0, 0.27]])
    worst = float(np.max(np.abs(hs.H_ab - expect)))
    dt = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-14 and dt < 1.0,
        f"H_ab equals [[0, 1], [1, a]] with a = 0.27, max deviation {worst:.1e} "
        f"<= 1e-14 ({dt:.2f} s < 1 s)",
    )


def test_criterion_3_consistency_rate(report, campaign_sweep):
    rows = campaign_sweep["rows"]
    meds = []
    for N in GRID_N:
        v = [
            r.est_err
            for r in rows
            if (r.gamma, r.ku_noise, r.ku_input, r.N) == (0.6, 1.0, 0.8, N)
            and np.isfinite(r.est_err)
        ]
        assert len(v) == 100
        meds.append(float(np.median(v)))
    decreasing = meds[0] > meds[1] > meds[2]
    slope = float(np.polyfit(np.log10(GRID_N), np.log10(meds), 1)[0])
    dt = campaign_sweep["seconds"][0]
    report(
        3,
        decreasing and -0.7 <= slope <= -0.3 and dt < 300.0,
        f"median EstErr {meds[0]:.3f} > {meds[1]:.3f} > {meds[2]:.3f} over "
        f"N = 1e3/1e4/1e5, log-log slope {slope:.3f} in [-0.7, -0.3] "
        f"({dt:.0f} s < 300 s)",
    )


def test_criterion_4_bound_coverage(report, bench_setup, campaign_large, campaign_small):
    model, dist, signal, sel, _, _, rr_ref, stability = bench_setup
    delta = 0.05
    campaigns = {1_000: campaign_small, 10_000: campaign_large}
    frac = {}
    n_valid = 0
    for N, camp in campaigns.items():
        bc = compute_certificate(
            model, dist, signal, sel, rr_ref.sigma_n, delta, N, stability=stability
        )
        viol = float(np.mean(camp["est_err"] > bc.bound_EstErr))
        frac[N] = (viol, bc.valid)
        if bc.valid:
            n_valid += 1
            assert viol <= delta
        # The bound is astronomically conservative, so zero violations
        # are expected whether or not the validity condition holds yet.
        assert viol <= delta
    N_star = min_valid_N(model, dist, signal, sel, rr_ref.sigma_n, delta, stability=stability)
    dt = campaign_large["seconds"] + campaign_small["seconds"]
    detail = ", ".join(
        f"N={N}: {v:.3f} violations (validity {'met' if ok else 'not met'})"
        for N, (v, ok) in frac.items()
    )
    report(
        4,
        all(v <= delta for v, _ in frac.values()) and dt < 900.0,
        f"coverage at delta = 0.05 over 1000 trials per N: {detail}; "
        f"validity first holds at N = {N_star:.2e} ({dt:.0f} s < 900 s)",
    )


def test_criterion_5_figure_orderings(report, campaign_sweep):
    rows = campaign_sweep["rows"]
    checks = []
    # Mean error nondecreasing in gamma at fixed noise 1, input 0.8.
    g_series = [_mean_series(rows, g, 1.0, 0.8) for g in (0.1, 0.4, 0.6)]
    # Nonincreasing in input amplitude at gamma 0.6, noise 1.
    i_series = [_mean_series(rows, 0.6, 1.0, ki) for ki in (0.5, 0.8)]
    # Nondecreasing in noise amplitude at gamma 0.6, input 0.8.
    n_series = [_mean_series(rows, 0.6, kn, 0.8) for kn in (1.0, 20.0, 30.0)]
    for idx in (1, 2):  # the largest two N values
        checks.append(all(a[idx] <= b[idx] for a, b in zip(g_series, g_series[1:])))
        checks.append(all(a[idx] >= b[idx] for a, b in zip(i_series, i_series[1:])))
        checks.append(all(a[idx] <= b[idx] for a, b in zip(n_series, n_series[1:])))
    dt = sum(campaign_sweep["seconds"])
    report(
        5,
        all(checks) and dt < 1200.0,
        "mean EstErr at N = 1e4 and 1e5 is nondecreasing in gamma "
        f"({g_series[0][2]:.4f} <= {g_series[1][2]:.4f} <= {g_series[2][2]:.4f} at 1e5), "
        "nonincreasing in input amplitude "
        f"({i_series[0][2]:.4f} >= {i_series[1][2]:.4f}), nondecreasing in noise "
        f"({n_series[0][2]:.4f} <= {n_series[1][2]:.4f} <= {n_series[2][2]:.4f}) "
        f"over 100 trials per point ({dt:.0f} s < 1200 s)",
    )


def test_criterion_6_perturbation_inequalities(report):
    # Randomized instances of the Hankel perturbation bounds.  Per-word
    # radii stay below sigma_n(H) / (2 |W| sqrt(n)); the three claims are
    #   (a) ||H~ - H||_F <= sqrt(sum_w c_w ||dM_w||^2), with c_w the
    #       number of H entries indexed by word w (entries repeat, so the
    #       unweighted sum would be false) and dM_w the perturbation that
    #       reached H~: the largest |H~_ij - H_ij| over w's entries.  The
    #       drawn one differs from it by the rounding of H + dM_w, which
    #       turns on H's last bits (so on the BLAS kernel) and can exceed
    #       the slack;
    #   (b) ||H~^{-1}||_2 <= 2 / sigma_n(H);
    #   (c) ||H~^{-1} - H^{-1}||_F <= (4 sqrt(2) / sigma_n^2) * rhs of (a).
    t0 = time.perf_counter()
    rng = np.random.default_rng(202608)
    viol = [0, 0, 0]
    done = 0
    while done < 1000:
        n = int(rng.integers(1, 5))
        nQ = int(rng.integers(1, 3))
        A = []
        for _ in range(nQ):
            M = rng.standard_normal((n, n))
            A.append(M * (0.5 / max(np.abs(np.linalg.eigvals(M)).max(), 1e-6)))
        model = LssModel(
            n=n, m=1, nQ=nQ,
            A=A,
            B=[rng.standard_normal((n, 1)) for _ in range(nQ)],
            C=rng.standard_normal(n),
            D=rng.standard_normal(1),
        )
        try:
            sel = find_selection(model)
        except SelectionRankError:
            continue
        words = required_words(sel, nQ)
        W = sorted(words - {()}, key=lambda w: (len(w), w))
        mm = true_markov_map(model, words)
        hs = build_hankels(mm, sel)
        sigma_n = float(np.linalg.svd(hs.H_ab, compute_uv=False)[-1])
        if sigma_n <= 1e-8:
            continue
        radius = sigma_n / (2.0 * len(W) * math.sqrt(n))

        cols = [(q,) + mu for mu, q, _ in sel.beta]
        entry_words = {}
        mult = {}
        for i, eta in enumerate(sel.alpha):
            for j, cw in enumerate(cols):
                w = cw + eta
                entry_words[(i, j)] = w
                mult[w] = mult.get(w, 0) + 1

        delta = {
            w: float(rng.uniform(-1, 1)) * float(rng.uniform(0, 1)) * radius for w in W
        }
        H_hat = hs.H_ab.copy()
        for (i, j), w in entry_words.items():
            H_hat[i, j] += delta.get(w, 0.0)

        reached = {}
        for (i, j), w in entry_words.items():
            reached[w] = max(reached.get(w, 0.0), abs(H_hat[i, j] - hs.H_ab[i, j]))

        diff = float(np.linalg.norm(H_hat - hs.H_ab))
        rhs_a = math.sqrt(sum(mult[w] * reached[w] ** 2 for w in reached))
        inv_hat = np.linalg.inv(H_hat)
        inv_true = np.linalg.inv(hs.H_ab)
        lhs_b = float(np.linalg.norm(inv_hat, 2))
        lhs_c = float(np.linalg.norm(inv_hat - inv_true))
        rhs_c = (4.0 * math.sqrt(2.0) / sigma_n**2) * rhs_a

        slack = 1.0 + 1e-10
        if diff > rhs_a * slack:
            viol[0] += 1
        if lhs_b > (2.0 / sigma_n) * slack:
            viol[1] += 1
        if lhs_c > rhs_c * slack:
            viol[2] += 1
        done += 1
    dt = time.perf_counter() - t0
    report(
        6,
        viol == [0, 0, 0] and dt < 60.0,
        f"difference / inverse-norm / inverse-difference bounds over 1000 "
        f"randomized instances: {viol[0]}/{viol[1]}/{viol[2]} violations "
        f"({dt:.1f} s < 60 s)",
    )


def test_criterion_7_stability_certification(report):
    details = []
    ok = True
    for gamma in (0.1, 0.4, 0.6):
        model, dist = two_mode_benchmark(gamma)
        t0 = time.perf_counter()
        cert = find_P(model, dist, gamma)
        dt = time.perf_counter() - t0
        g_check, margin = gamma_from_P(model, cert.P)
        ok = ok and margin > 0.0 and g_check <= gamma and cert.schur_radius < 1.0 and dt < 1.0
        details.append(f"gamma {gamma}: certified {g_check:.4f}, margin {margin:.1e}, {dt:.2f} s")
    report(7, ok, "; ".join(details) + "; all margins > 0, rates <= target, runtimes < 1 s")


def test_criterion_8_lti_reduction(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(1, 5))
        M = rng.standard_normal((n, n))
        A = M * (rng.uniform(0.3, 0.8) / max(np.abs(np.linalg.eigvals(M)).max(), 1e-6))
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal(n)
        D = rng.standard_normal(1)
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        if np.linalg.matrix_rank(ctrb) < n or np.linalg.matrix_rank(obsv) < n:
            continue
        model = LssModel(n=n, m=1, nQ=1, A=[A], B=[B], C=C, D=D)
        sel = find_selection(model)
        est = true_realization(model, sel).as_model()
        for k in range(0, 2 * n + 2):
            w = (1,) * k
            worst = max(worst, float(abs(true_markov(est, w)[0] - true_markov(model, w)[0])))
        count += 1
    dt = time.perf_counter() - t0
    report(
        8,
        worst <= 1e-8 and dt < 10.0,
        f"50 random stable minimal SISO systems (n <= 4): realized impulse "
        f"response matches truth for 2n+1 lags, worst error {worst:.2e} <= 1e-8 "
        f"({dt:.2f} s < 10 s)",
    )


def test_criterion_9_estimator_concentration(report, bench_setup, campaign_large):
    model, dist, signal, sel, _, _, rr_ref, stability = bench_setup
    bc = compute_certificate(
        model, dist, signal, sel, rr_ref.sigma_n, 0.05, 10_000, stability=stability
    )
    word_errs = campaign_large["word_errs"]
    # A trial violates if ANY word error exceeds K(delta, N).
    simultaneous = np.any(word_errs > bc.K_deltaN, axis=1)
    frac = float(np.mean(simultaneous))
    worst = float(word_errs.max())
    dt = campaign_large["seconds"]
    report(
        9,
        frac <= 0.05 and dt < 600.0,
        f"simultaneous per-word deviation <= K(delta, N) = {bc.K_deltaN:.3e} held in "
        f"{(1 - frac) * 100:.1f}% of 1000 trials at N = 1e4 (violation fraction "
        f"{frac:.3f} <= 0.05; largest observed word error {worst:.3f}) "
        f"({dt:.0f} s < 600 s)",
    )
