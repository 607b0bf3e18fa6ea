"""Walk the finite-sample bound from raw constants to a number.

The deviation bound on the realized matrices is a chain of explicit
constants: a decay envelope K_M from the Lyapunov certificate, the
moment constants K_0 and K_{-1}, the concentration radius K(delta, N),
and finally the Hankel-conditioning factor K_2.  The script prints the
whole chain at one (delta, N), then sweeps N to show the 1/sqrt(N) decay
and the (astronomically distant) sample size where the validity
condition starts to hold.  The bound is a certificate, not a forecast:
at reachable N it exceeds the observed error by many orders of
magnitude, which is exactly what the per-row `valid` flag records.

Run:  python3 demos/04_bound_constants.py
"""

from switchid import (
    SignalSpec,
    compute_certificate,
    find_P,
    find_selection,
    min_valid_N,
    true_realization,
    two_mode_benchmark,
)


def main():
    model, dist = two_mode_benchmark(0.6)
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    sel = find_selection(model)
    rr = true_realization(model, sel)
    stability = find_P(model, dist, 0.6)

    bc = compute_certificate(model, dist, signal, sel, rr.sigma_n, 0.05, 10_000,
                             stability=stability)
    print("Constant chain at delta = %.2f, N = %d:" % (bc.delta, bc.N))
    for name in ("m_prime", "n_star", "K_u", "K_u_prime", "K_M", "K_y", "K_gamma",
                 "K_theta", "K_0", "K_minus1", "W_size", "min_pw", "K_tilde",
                 "K_deltaN", "K_2", "bound_EstErr"):
        print("  %-12s %s" % (name, getattr(bc, name)))

    print("\n%-10s %-14s %-10s" % ("N", "bound", "valid"))
    for N in (10**3, 10**4, 10**5, 10**7, 10**9):
        bc = compute_certificate(model, dist, signal, sel, rr.sigma_n, 0.05, N,
                                 stability=stability)
        print("%-10d %-14.4e %-10s" % (N, bc.bound_EstErr, bc.valid))

    N_star = min_valid_N(model, dist, signal, sel, rr.sigma_n, 0.05, stability=stability)
    print("\nValidity condition first holds at N = %.3e" % N_star)


if __name__ == "__main__":
    main()
