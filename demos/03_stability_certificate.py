"""Certify decay rates with a common quadratic Lyapunov matrix.

A matrix P > 0 with A_q' P A_q < (gamma / nQ)^2 P for every mode q
certifies that the Markov parameters of every mode word of length k
decay like (gamma / nQ)^k, and with them the mean-square state energy.
The search maximizes the slack of these inequalities (a small LMI solved
by a numpy primal-dual interior-point method, which stops once its
duality gap is at most 1e-9 of max(1, slack)), and the
returned P is re-validated by an exact eigenvalue check, so the printed
margin is trustworthy independent of the solver.

Run:  python3 demos/03_stability_certificate.py
"""

import numpy as np

from switchid import find_P, gamma_from_P, min_gamma_certificate, schur_radius, two_mode_benchmark


def main():
    print("%-8s %-10s %-10s %-12s %-10s" % ("target", "certified", "margin", "cond(P)", "schur"))
    for gamma in (0.1, 0.4, 0.6):
        model, dist = two_mode_benchmark(gamma)
        cert = find_P(model, dist, gamma)
        g_check, margin = gamma_from_P(model, cert.P)
        cond = float(np.linalg.cond(cert.P))
        print("%-8.2f %-10.6f %-10.2e %-12.3e %-10.4f"
              % (gamma, cert.gamma, margin, cond, schur_radius(model, dist)))
        assert g_check <= gamma

    # The smallest certifiable rate for the gamma = 0.6 instance, found by
    # bisection over targets.
    model, dist = two_mode_benchmark(0.6)
    best = min_gamma_certificate(model, dist)
    print("\nSmallest certified rate at gamma = 0.6 instance: %.4f" % best.gamma)
    print("(mean-square spectral radius of the same instance: %.4f)"
          % np.sqrt(schur_radius(model, dist)))


if __name__ == "__main__":
    main()
