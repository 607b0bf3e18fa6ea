"""Finite-sample error constants and stability certificates.

Everything here evaluates closed-form constants.  The chain starts from
a quadratic stability certificate: a positive definite P with

    A_q^T P A_q < (gamma^2 / nQ^2) P     for every mode q,

which forces the averaged dynamics to be mean-square stable and gives
geometric decay of the Markov parameters at rate gamma / nQ.  On top of
the certificate sit the deviation constants for the Markov estimator
(K_M, K_gamma, K_theta, K_0, K_{-1}) and the realization sensitivity
constant K_2, combining into the high-probability bound

    P[ EstErr < K_2 * K(delta, N) ] > 1 - delta

valid once N > 2(2n + 1) and K(delta, N) <= sigma_n(H_ab) / (2 |W| sqrt(n)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    LssModel, SignalSpec, SwitchingDistribution, check_law, check_real, p_word, read_json,
)
from .hokalman import Selection, required_words

GAMMA_FLOOR = 1e-12
GAMMA_INFLATION = 1e-9
# Upper bound c in I <= P <= c I, which keeps the slack maximization bounded.
P_CEILING = 1e6
# Bracket and width at which min_gamma_certificate stops bisecting.
MIN_GAMMA_LO, MIN_GAMMA_HI, MIN_GAMMA_TOL = 1e-4, 0.9999, 1e-3
# A float at or past this one has a square that overflows.
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


class CertificateError(RuntimeError):
    """No stability certificate could be produced or validated.

    Search failure is not a proof of instability; the message carries
    the mean-square spectral radius as a diagnostic.
    """


@dataclass
class StabilityCertificate:
    """A validated quadratic stability certificate.

    ``margin`` is the smallest eigenvalue of (gamma^2/nQ^2) P - A_q^T P A_q
    over all modes; a positive margin makes every claim downstream of the
    certificate sound.  ``schur_radius`` records the spectral radius of
    sum_q p_q A_q (x) A_q as the mean-square stability diagnostic.
    """

    P: np.ndarray
    gamma: float
    margin: float
    schur_radius: float

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("certificate gamma must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "P": self.P.tolist(),
            "gamma": self.gamma,
            "margin": self.margin,
            "schur_radius": self.schur_radius,
        }


def gamma_from_P(model: LssModel, P: np.ndarray) -> tuple[float, float]:
    """Smallest contraction rate a given P certifies, with its margin.

    With P = L L^T the tight rate is
    gamma = nQ * max_q sqrt(lambda_max(L^{-1} A_q^T P A_q L^{-T})).
    Since the inequality is strict only above the tight rate, the
    returned gamma is inflated by a relative 1e-9 (and floored at 1e-12
    for nilpotent degenerate cases) and the margin is evaluated there,
    so margin > 0 always accompanies a usable certificate.

    Raises
    ------
    ValueError
        If P has a non-finite entry, is not symmetric positive definite,
        or gives a NaN eigenvalue.
    CertificateError
        If the tight rate is >= 1, i.e. P certifies nothing.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (model.n, model.n):
        raise ValueError(f"P must be {model.n}x{model.n}")
    if not np.isfinite(P).all():
        raise ValueError("P has a non-finite entry")
    s = max(1.0, np.abs(P).max())  # so that the norms of a large P do not overflow
    if np.linalg.norm(P / s - P.T / s) > 1e-10 * max(1.0 / s, np.linalg.norm(P / s)):
        raise ValueError("P must be symmetric")
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise ValueError("P must be positive definite") from None

    S = [Aq.T @ P @ Aq for Aq in model.A]
    # Each S_q is symmetric, so solve(L, S_q).T = S_q L^{-T}.
    lam = max(0.0, *(_eigvalsh(np.linalg.solve(L, np.linalg.solve(L, Sq).T))[-1] for Sq in S))
    gamma = model.nQ * math.sqrt(lam)
    if gamma >= 1.0:
        raise CertificateError(
            f"P certifies gamma = {gamma:.6f} >= 1, not a stability certificate"
        )
    gamma = max(gamma * (1.0 + GAMMA_INFLATION), GAMMA_FLOOR)
    if gamma >= 1.0:
        raise CertificateError("certified gamma is not below 1 after inflation")

    rho = gamma**2 / model.nQ**2
    return gamma, min(_eigvalsh(rho * P - Sq)[0] for Sq in S)


def _eigvalsh(M: np.ndarray) -> list[float]:
    """Ascending eigenvalues of a symmetric M; a NaN among them (which
    max and min would silently drop) is refused."""
    ev = np.linalg.eigvalsh(M)
    if np.isnan(ev).any():
        raise ValueError("P gives a NaN eigenvalue, so it certifies nothing")
    return ev.tolist()


def schur_radius(model: LssModel, dist: SwitchingDistribution) -> float:
    """Spectral radius of sum_q p_q A_q (x) A_q.

    Below one, second moments of the switched state contract on average;
    quadratic stability implies this, so it doubles as a cheap necessary
    check and a diagnostic when certificate search fails.
    """
    check_law(model, dist)
    M = sum(
        dist.p[c] * np.kron(model.A[c], model.A[c]) for c in range(model.nQ)
    )
    return float(np.abs(np.linalg.eigvals(M)).max())


def _max_slack_P(A: list[np.ndarray], rho: float) -> np.ndarray | None:
    """Margin-maximizing semidefinite feasibility search for P: max t
    subject to I <= P <= P_CEILING I and rho P - A_q^T P A_q >= t I for
    every mode, by a primal-dual interior-point method.

    The unknowns are x = (upper triangle of P, t); every constraint is a
    block S_j = F0_j + sum_k x_k G_jk >= 0 that is affine in x, with a dual
    block Z_j >= 0.  Each iteration takes the HKM direction, whose Schur
    matrix is M_kl = sum_j tr(G_jk S_j^-1 G_jl Z_j), with Mehrotra's
    predictor-corrector, sigma = (mu_aff / mu)^3, and steps 0.95 of the way
    to the boundary of both cones (Vandenberghe & Boyd, SIAM Review 1996).
    The start P = 2I, with t one below the smallest eigenvalue of the mode
    blocks, is strictly feasible; the dual starts at Z_j = I.

    Every feasible t' is at most t + gap + r^T (x - x'), with the duality
    gap sum_j tr(S_j Z_j) and the dual residual r = c - sum_j tr(G_j Z_j),
    c = -e_t.  Once max |r_k| <= 1e-6 (c has norm 1), the search returns
    None if t + gap <= 0, and P once the gap is at most 1e-9 max(1, |t|): t is then
    that close to the largest slack.  If rounding stalls it first, the last
    P is returned while t > 0.
    """
    n = A[0].shape[0]
    iu, ju = np.triu_indices(n)
    K = len(iu)
    E = np.zeros((K, n, n))
    E[np.arange(K), iu, ju] = E[np.arange(K), ju, iu] = 1.0
    eye = np.eye(n)
    J = len(A) + 2
    G = np.zeros((J, K + 1, n, n))
    F0 = np.zeros((J, n, n))
    for q, Aq in enumerate(A):
        G[q, :K] = rho * E - Aq.T @ E @ Aq
        G[q, K] = -eye
    G[-2, :K], F0[-2] = E, -eye  # P - I
    G[-1, :K], F0[-1] = -E, P_CEILING * eye  # P_CEILING I - P

    # G laid out once as (K + 1, blocks * n * n).  Each G_jk is symmetric,
    # so sum_j tr(G_jk X_j) is row k of Gt times X flattened.
    Gt = G.transpose(1, 0, 2, 3).reshape(K + 1, -1)

    def linear(x):  # sum_k x_k G_jk, block by block
        return np.dot(x[None, :], Gt).reshape(F0.shape)

    x = np.zeros(K + 1)
    x[:K] = 2.0 * (iu == ju)
    x[-1] = float(np.linalg.eigvalsh((F0 + linear(x))[: len(A)])[:, 0].min()) - 1.0
    Z = np.broadcast_to(eye, F0.shape).copy()
    c = -np.eye(K + 1)[-1]
    for _ in range(50):
        S = F0 + linear(x)
        gap = float(np.vdot(S, Z))
        if np.abs(c - Gt @ Z.ravel()).max() <= 1e-6:
            if x[-1] + gap <= 0.0:
                return None
            if gap <= 1e-9 * max(1.0, abs(x[-1])):
                break
        # Rounding near the optimum can defeat Cholesky or M's diagonal: as converged as it gets.
        try:
            L = np.linalg.inv(np.linalg.cholesky(np.concatenate([S, Z])))  # S_j = L_j^-1 L_j^-T
            Si = L[:J].transpose(0, 2, 1) @ L[:J]
            M = Gt @ (Si[:, None] @ G @ Z[:, None]).transpose(1, 0, 2, 3).reshape(K + 1, -1).T
            h = np.diag(M)
            if not (h > 0.0).all():
                break
            d = 1.0 / np.sqrt(h)
            Mi = d[:, None] * np.linalg.inv(M * np.outer(d, d)) * d

            def direction(R):
                # Solves S dZ + dS Z = R - S Z with the dual equations.
                U = Si @ R
                dx = Mi @ (Gt @ U.ravel() - c)
                dS = linear(dx)
                dZ = U - Si @ dS @ Z - Z
                dZ = 0.5 * (dZ + dZ.transpose(0, 2, 1))
                # The largest steps along dS and dZ that keep S and Z >= 0.
                lam = np.linalg.eigvalsh(L @ np.concatenate([dS, dZ]) @ L.transpose(0, 2, 1))
                ap, ad = (-1.0 / v if v < 0 else math.inf for v in (lam[:J].min(), lam[J:].min()))
                return dx, dS, dZ, ap, ad

            dx, dS, dZ, ap, ad = direction(np.zeros_like(Z))
            aff = float(np.vdot(S + min(1.0, ap) * dS, Z + min(1.0, ad) * dZ)) / gap  # mu_aff / mu
            dx, dS, dZ, ap, ad = direction(aff**3 * gap / (J * n) * eye - dS @ dZ)
        except np.linalg.LinAlgError:
            break
        x = x + min(1.0, 0.95 * ap) * dx
        Z = Z + min(1.0, 0.95 * ad) * dZ
    if x[-1] <= 0.0:
        return None
    P = np.zeros((n, n))
    P[iu, ju] = x[:K]
    P[ju, iu] = x[:K]
    return P


def certify_P(
    model: LssModel,
    dist: SwitchingDistribution,
    P: np.ndarray,
    target: float,
) -> StabilityCertificate:
    """Accept P as a stability certificate at the target rate, or refuse it.

    This is the one acceptance rule for P, wherever it came from:
    :func:`gamma_from_P` must certify a rate at or below the target with
    a positive margin.  An accepted certificate is therefore sound
    regardless of how P was computed.

    Raises
    ------
    ValueError
        If P is not a symmetric positive definite n x n matrix.
    CertificateError
        If P certifies no rate below one, a rate above the target, or
        a non-positive margin.
    """
    gamma, margin = gamma_from_P(model, P)
    if gamma > target:
        raise CertificateError(
            f"supplied P certifies gamma = {gamma:.6g}, above the target {target:.6g}"
        )
    if margin <= 0.0:
        raise CertificateError(
            f"supplied P certifies gamma = {gamma:.6g} with margin {margin:.3g} <= 0"
        )
    return StabilityCertificate(
        P=P, gamma=gamma, margin=margin, schur_radius=schur_radius(model, dist)
    )


def find_P(
    model: LssModel,
    dist: SwitchingDistribution,
    target: float,
) -> StabilityCertificate:
    """Search for a quadratic stability certificate at a target rate.

    Strategy: one margin-maximizing LMI search (:func:`_max_slack_P`, a
    primal-dual interior-point method in numpy) at a slightly shrunk rate
    gamma_s = target (1 - shrink), walking the shrink down while the
    optimal slack is not positive.  The search stops once its duality gap
    puts the slack within 1e-9 max(1, slack) of the largest one.  The
    first candidate found must pass :func:`certify_P`, so solver
    tolerances cannot make an unsound certificate.  Maximizing the slack
    keeps the numerical solution well inside the feasible set, which is
    what lets that exact validation succeed.

    Raises
    ------
    CertificateError
        When no candidate validates.  This is inconclusive, not a proof
        of instability; the message reports the mean-square spectral
        radius, which at >= 1 rules out any certificate.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target rate must lie in (0, 1)")
    # With I <= P <= c I and A^T P A < P, every |A_ij| <= ||A||_2 < sqrt(c):
    # a larger entry has no certificate in the search box, and its squares
    # could overflow the search and the spectral radius.
    big = max(float(np.abs(Aq).max()) for Aq in model.A)
    if big >= math.sqrt(P_CEILING):
        raise CertificateError(
            f"no quadratic stability certificate found for gamma = {target}: an entry "
            f"of A has magnitude {big:.6g}, and no P with I <= P <= {P_CEILING:g} I "
            f"certifies one of {math.sqrt(P_CEILING):g} or more"
        )
    for shrink in (1e-2, 1e-3, 1e-4):
        P = _max_slack_P(model.A, (target * (1.0 - shrink) / model.nQ) ** 2)
        if P is not None:
            try:
                return certify_P(model, dist, P, target)
            except (ValueError, CertificateError):
                break

    rad = schur_radius(model, dist)
    raise CertificateError(
        f"no quadratic stability certificate found for gamma = {target} "
        f"(inconclusive; mean-square spectral radius = {rad:.6f}"
        + (", which already rules one out)" if rad >= 1.0 else ")")
    )


def min_gamma_certificate(model: LssModel, dist: SwitchingDistribution) -> StabilityCertificate:
    """Bisect for (approximately) the smallest certifiable rate, to
    within MIN_GAMMA_TOL."""
    lo, hi = MIN_GAMMA_LO, MIN_GAMMA_HI
    try:
        cert = find_P(model, dist, hi)
    except CertificateError:
        raise CertificateError(
            f"model not certifiable even at gamma = {hi} "
            f"(schur_radius = {schur_radius(model, dist):.6f})"
        ) from None
    while hi - lo > MIN_GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        try:
            cert = find_P(model, dist, mid)
            hi = cert.gamma
        except CertificateError:
            lo = mid
    return cert


def compute_KM(model: LssModel, cert: StabilityCertificate) -> float:
    """Markov parameter magnitude constant.

    K_M = max(||C|| * max_q ||[B_q I 0]|| * (nQ/gamma) * sqrt(cond(P)),
              ||[D, 1]||)
    where the augmented input matrix [B_q | I_n | 0] feeds input, state
    noise and (vacuously) output noise channels, and cond(P) is the
    eigenvalue ratio of the certificate matrix.  Together with the
    certificate it guarantees ||M'_w|| < K_M (gamma/nQ)^{|w|} for the
    augmented Markov parameters of every word.
    """
    n = model.n
    evals = np.linalg.eigvalsh(cert.P)
    cond = evals[-1] / evals[0]
    # A norm that overflows comes out inf, which compute_certificate refuses.
    with np.errstate(over="ignore"):
        b_norm = max(
            float(np.linalg.norm(np.hstack([Bq, np.eye(n), np.zeros((n, 1))]), 2))
            for Bq in model.B
        )
        first = (
            float(np.linalg.norm(model.C))
            * b_norm
            * (model.nQ / cert.gamma)
            * math.sqrt(cond)
        )
        second = math.sqrt(float(model.D @ model.D) + 1.0)
    return max(first, second)


@dataclass
class BoundCertificate:
    """Every constant of the finite-sample bound, plus validity flags."""

    m_prime: int
    n_star: int
    K_u: float
    K_u_prime: float
    K_M: float
    K_y: float
    K_gamma: float
    K_theta: float
    K_0: float
    K_minus1: float
    W_size: int
    min_pw: float
    min_pw_floor: float
    sigma_n_H: float
    delta: float
    N: int
    K_tilde: float
    K_deltaN: float
    K_2: float
    bound_EstErr: float
    N_min_basic: int
    N_min_hankel: int
    valid_basic: bool
    valid_hankel: bool
    stability: StabilityCertificate

    @property
    def valid(self) -> bool:
        return self.valid_basic and self.valid_hankel

    @property
    def N_min(self) -> int:
        """Smallest N at which both validity conditions hold."""
        return max(self.N_min_basic, self.N_min_hankel)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["stability"] = self.stability.to_dict()
        return d


def compute_certificate(
    model: LssModel,
    dist: SwitchingDistribution,
    signal: SignalSpec,
    sel: Selection,
    sigma_n_H: float,
    delta: float,
    N: int,
    stability: StabilityCertificate,
) -> BoundCertificate:
    """Assemble the full bound certificate for one (delta, N).

    Every constant follows from the given stability certificate, which
    is taken as validated (:func:`certify_P`) and not checked again.  A
    selection that does not fit the model is refused first
    (:meth:`Selection.check_fit`), then a mode law without one
    probability per mode (:func:`check_law`): |W| and min p_w would come
    from another model or law.
    """
    sel.check_fit(model.n, model.nQ, model.m)
    check_law(model, dist)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be positive")
    if sigma_n_H <= 0.0:
        raise ValueError("sigma_n_H must be positive")
    # The chain squares K_u and divides by sigma_n_H**2: a square past
    # float max raises OverflowError, one that underflows to 0 divides by
    # zero.  Whatever else leaves the float range is refused at the end.
    K_u = signal.K_u
    if not K_u < _SQRT_FLOAT_MAX:
        raise ValueError(f"K_u = max(Ku_input, Ku_noise) = {K_u!r}: its square overflows a float")
    if not (sigma_n_H < _SQRT_FLOAT_MAX and sigma_n_H**2 > 0.0):
        raise ValueError(f"sigma_n(H_ab) = {sigma_n_H!r}: its square leaves the float range")

    n, m, nQ = model.n, model.m, model.nQ
    gamma = stability.gamma
    m_prime = m + n + 1
    K_u_prime = max(K_u, K_u**2)
    K_M = float(compute_KM(model, stability))
    K_y = math.sqrt(m_prime) * K_M * K_u / (1.0 - gamma)
    K_gamma = (
        gamma + (2 * n + 1) * (n + 2) * (1.0 - gamma) ** 2 + (1.0 - gamma) ** 3
    ) / (1.0 - gamma) ** 3
    K_theta = 2.0 * (m_prime * K_u + nQ) * math.sqrt(m_prime) * K_u_prime * K_M * K_gamma
    K_0 = math.sqrt(m_prime) * K_u_prime * K_M / (1.0 - gamma) + K_theta

    W = required_words(sel, nQ) - {()}
    min_pw = float(min(p_word(dist, w) for w in W))
    min_pw_floor = float(np.min(dist.p)) ** (2 * n + 1)
    sigma_inv = np.linalg.inv(signal.sigma_u(m))
    K_minus1 = float(np.linalg.norm(sigma_inv)) / min_pw

    n_star = max(n, m)
    K_2 = math.sqrt(len(W)) * max(
        1.0,
        (2.0 * sigma_n_H + n_star * K_minus1 * K_y * K_u * 4.0 * math.sqrt(2.0))
        / sigma_n_H**2,
    )

    log_term = math.log(2.0 * m * len(W) / delta)

    def K_tilde_and_K(N: int) -> tuple[float, float]:
        K_tilde = K_0 * math.sqrt(8.0 * log_term / N)
        return K_tilde, math.sqrt(m) * K_minus1 * K_tilde

    K_tilde, K_deltaN = K_tilde_and_K(N)
    thr = sigma_n_H / (2.0 * len(W) * math.sqrt(n))
    N_min_basic = 2 * (2 * n + 1) + 1
    # K(delta, N) = c_over / sqrt(N) up to rounding: (c_over / thr)^2 starts the search.
    c_over = math.sqrt(m) * K_minus1 * K_0 * math.sqrt(8.0 * log_term)
    bound_EstErr = K_2 * K_deltaN
    if not (math.isfinite(c_over) and math.isfinite(bound_EstErr)):
        raise ValueError(
            f"the bound's constants leave the float range: K_M = {K_M:.6g}, "
            f"K_u = max(Ku_input, Ku_noise) = {K_u!r}, delta = {delta!r}"
        )
    N_min_hankel = _ceil_threshold(c_over / thr, lambda N: K_tilde_and_K(N)[1] <= thr)

    return BoundCertificate(
        m_prime=m_prime,
        n_star=n_star,
        K_u=K_u,
        K_u_prime=K_u_prime,
        K_M=K_M,
        K_y=K_y,
        K_gamma=K_gamma,
        K_theta=K_theta,
        K_0=K_0,
        K_minus1=K_minus1,
        W_size=len(W),
        min_pw=min_pw,
        min_pw_floor=min_pw_floor,
        sigma_n_H=float(sigma_n_H),
        delta=delta,
        N=N,
        K_tilde=K_tilde,
        K_deltaN=K_deltaN,
        K_2=K_2,
        bound_EstErr=bound_EstErr,
        N_min_basic=N_min_basic,
        N_min_hankel=N_min_hankel,
        valid_basic=N >= N_min_basic,
        valid_hankel=N >= N_min_hankel,
        stability=stability,
    )


def _ceil_threshold(ratio: float, holds) -> int:
    """Smallest N >= 1 from which on ``holds(N)``, searched from ceil(ratio^2);
    a ratio whose square leaves the float range is refused."""
    if not ratio < _SQRT_FLOAT_MAX:
        raise ValueError(
            f"the bound's constants leave the float range: the smallest valid N, "
            f"({ratio:.6g})^2, is past float max"
        )
    z = ratio**2
    N = max(1, math.ceil(z))
    # Float ceil can land off the crossing; nudge exactly when the
    # magnitudes still allow integer arithmetic to mean anything.
    if z < 2**52:
        while not holds(N):
            N += 1
        while N > 1 and holds(N - 1):
            N -= 1
    return N


def min_valid_N(
    model: LssModel,
    dist: SwitchingDistribution,
    signal: SignalSpec,
    sel: Selection,
    sigma_n_H: float,
    delta: float,
    stability: StabilityCertificate,
) -> int:
    """Smallest N at which the bound's validity conditions both hold.

    Both thresholds are independent of N, so this reads ``N_min`` off one
    :func:`compute_certificate` call at an arbitrary N, which refuses
    what that function refuses, first a selection that does not fit the
    model.
    """
    return compute_certificate(
        model, dist, signal, sel, sigma_n_H, delta, 1, stability=stability
    ).N_min


def load_P_matrix(path: str) -> np.ndarray:
    """Read a user-supplied P, accepting either a bare matrix or a
    previously saved certificate file."""

    def parse(doc):
        return check_real("P", doc["P"] if isinstance(doc, dict) else doc, 2)

    return read_json(path, parse)
