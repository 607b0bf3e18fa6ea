"""Recover system matrices from Markov parameters, exactly and from data.

The reduced-basis construction picks n row words and n column tuples so
that the small Hankel matrix H_ab is invertible; the realized matrices
reproduce every Markov parameter even though the model is switched and
the basis is far smaller than the full Hankel grid.  First half of the
script does this with exact parameters (errors at machine precision),
second half repeats it from a simulated trajectory.

Run:  python3 demos/02_realization.py
"""

import numpy as np

from switchid import (
    SignalSpec,
    SimConfig,
    build_hankels,
    est_err,
    find_selection,
    identify_sample,
    markov_roundtrip,
    realize,
    required_words,
    simulate,
    true_markov_map,
    two_mode_benchmark,
    word_to_str,
)


def main():
    model, dist = two_mode_benchmark(0.6)

    sel = find_selection(model)
    print("Selected row words:", [word_to_str(w) or "eps" for w in sel.alpha])
    print("Selected columns:  ", [(word_to_str(mu) or "eps", q, l) for mu, q, l in sel.beta])

    truth = true_markov_map(model, required_words(sel, model.nQ))
    hs = build_hankels(truth, sel)
    print("\nH_ab =\n%s" % hs.H_ab)
    sigma = np.linalg.svd(hs.H_ab, compute_uv=False)
    print("Singular values: %s  (smallest drives every error bound)" % sigma)

    rr = realize(hs, truth[()])
    check_words = [w for w in truth if len(w) <= 3]
    rt = markov_roundtrip(rr, check_words)
    worst = max(float(np.max(np.abs(rt[w] - truth[w]))) for w in check_words)
    print("\nExact realization: worst Markov mismatch %.2e over %d words"
          % (worst, len(check_words)))

    # Same pipeline, but the parameters now come from one noisy run;
    # identify_sample estimates the same words, read off the selection.
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    for N in (1_000, 10_000, 100_000):
        sample = simulate(SimConfig(model=model, dist=dist, signal=signal, N=N, seed=3))
        _, rr_hat = identify_sample(sample, sel, signal.sigma_u(model.m), dist)
        print("N = %6d: EstErr = %.4f  (sigma_n of estimated H_ab: %.3f)"
              % (N, est_err(rr_hat, rr), rr_hat.sigma_n))


if __name__ == "__main__":
    main()
