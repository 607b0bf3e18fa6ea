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
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .core import LssModel, SignalSpec, SwitchingDistribution, p_word, read_json, write_json
from .hokalman import Selection, required_words

GAMMA_FLOOR = 1e-12
GAMMA_INFLATION = 1e-9
# Upper bound c in I <= P <= c I, which keeps the slack maximization bounded.
P_CEILING = 1e6


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
        If P is not symmetric positive definite.
    CertificateError
        If the tight rate is >= 1, i.e. P certifies nothing.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (model.n, model.n):
        raise ValueError(f"P must be {model.n}x{model.n}")
    if np.linalg.norm(P - P.T) > 1e-10 * max(1.0, np.linalg.norm(P)):
        raise ValueError("P must be symmetric")
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise ValueError("P must be positive definite") from None

    lam = 0.0
    for Aq in model.A:
        S = Aq.T @ P @ Aq
        lam = max(lam, float(scipy.linalg.eigh(S, P, eigvals_only=True)[-1]))
    gamma = model.nQ * math.sqrt(max(lam, 0.0))
    if gamma >= 1.0:
        raise CertificateError(
            f"P certifies gamma = {gamma:.6f} >= 1, not a stability certificate"
        )
    gamma = max(gamma * (1.0 + GAMMA_INFLATION), GAMMA_FLOOR)
    if gamma >= 1.0:
        raise CertificateError("certified gamma is not below 1 after inflation")

    rho = gamma**2 / model.nQ**2
    margin = math.inf
    for Aq in model.A:
        gap = rho * P - Aq.T @ P @ Aq
        margin = min(margin, float(np.linalg.eigvalsh(gap)[0]))
    return gamma, margin


def schur_radius(model: LssModel, dist: SwitchingDistribution) -> float:
    """Spectral radius of sum_q p_q A_q (x) A_q.

    Below one, second moments of the switched state contract on average;
    quadratic stability implies this, so it doubles as a cheap necessary
    check and a diagnostic when certificate search fails.
    """
    if dist.nQ != model.nQ:
        raise ValueError("distribution does not match model mode count")
    M = sum(
        dist.p[c] * np.kron(model.A[c], model.A[c]) for c in range(model.nQ)
    )
    return float(np.abs(np.linalg.eigvals(M)).max())


def _lmi_P(model: LssModel, target: float) -> np.ndarray | None:
    """Margin-maximizing semidefinite feasibility search for P.

    Solves max t subject to I <= P <= P_CEILING I and
    (gamma_s/nQ)^2 P - A_q^T P A_q >= t I for every mode, at a slightly
    shrunk rate gamma_s, walking the shrink down if the optimal slack is
    not positive.  Maximizing the slack keeps the numerical solution well
    inside the feasible set, which is what lets the exact validation in
    :func:`gamma_from_P` succeed despite solver tolerances.
    """
    for shrink in (1e-2, 1e-3, 1e-4):
        rho = (target * (1.0 - shrink) / model.nQ) ** 2
        P = _max_slack_P(model.A, rho)
        if P is not None:
            return P
    return None


def _max_slack_P(A: list[np.ndarray], rho: float) -> np.ndarray | None:
    """Log-barrier Newton method for the LMI problem of :func:`_lmi_P`.

    The unknowns are x = (upper triangle of P, t); every constraint is a
    block F_j(x) = F0_j + sum_k x_k G_jk >= 0 that is affine in x.  Each
    barrier stage minimizes -s t - sum_j log det F_j(x) by damped Newton
    steps, after which the optimal t lies within (number of block rows)/s
    of the current one (Boyd & Vandenberghe, Convex Optimization, 11.3).
    The start P = 2I, with t one below the smallest eigenvalue of the mode
    blocks, is strictly feasible.  Returns P once the optimum is pinned
    to a positive t, None once it is pinned to t <= 0.
    """
    n = A[0].shape[0]
    iu, ju = np.triu_indices(n)
    K = len(iu)
    E = np.zeros((K, n, n))
    E[np.arange(K), iu, ju] = 1.0
    E[np.arange(K), ju, iu] = 1.0
    eye = np.eye(n)
    G = np.zeros((len(A) + 2, K + 1, n, n))
    F0 = np.zeros((len(A) + 2, n, n))
    for q, Aq in enumerate(A):
        G[q, :K] = rho * E - Aq.T @ E @ Aq
        G[q, K] = -eye
    G[-2, :K], F0[-2] = E, -eye  # P - I
    G[-1, :K], F0[-1] = -E, P_CEILING * eye  # P_CEILING I - P

    def blocks(x):
        return F0 + np.tensordot(x, G, axes=(0, 1))

    def objective(x, s):
        try:
            L = np.linalg.cholesky(blocks(x))
        except np.linalg.LinAlgError:
            return math.inf
        return -s * x[-1] - 2.0 * float(np.log(np.diagonal(L, axis1=1, axis2=2)).sum())

    x = np.zeros(K + 1)
    x[:K] = 2.0 * (iu == ju)
    x[-1] = float(np.linalg.eigvalsh(blocks(x)[: len(A)])[:, 0].min()) - 1.0
    rows = len(G) * n
    s = 1.0
    for _ in range(20):
        for _ in range(50):
            W = np.linalg.inv(blocks(x))[:, None] @ G
            grad = -np.einsum("jkaa->k", W)
            grad[-1] -= s
            H = np.einsum("jkab,jlba->kl", W, W)
            d = 1.0 / np.sqrt(np.diag(H))
            dx = -d * np.linalg.solve(H * np.outer(d, d), d * grad)
            slope = float(grad @ dx)
            if -slope <= 1e-10:
                break
            f, step = objective(x, s), 1.0
            for _ in range(40):
                if objective(x + step * dx, s) <= f + 0.25 * step * slope:
                    break
                step *= 0.5
            else:
                break  # rounding stalls the step: centred as far as it goes
            x = x + step * dx
        gap = rows / s
        if x[-1] + gap <= 0.0:
            return None
        if gap <= 1e-8 * max(1.0, abs(x[-1])):
            break
        s *= 20.0
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

    Strategy: one margin-maximizing LMI search (:func:`_lmi_P`, numpy
    only), whose candidate must pass :func:`certify_P`, so solver
    tolerances cannot make an unsound certificate.

    Raises
    ------
    CertificateError
        When no candidate validates.  This is inconclusive, not a proof
        of instability; the message reports the mean-square spectral
        radius, which at >= 1 rules out any certificate.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target rate must lie in (0, 1)")
    P = _lmi_P(model, target)
    if P is not None:
        try:
            return certify_P(model, dist, P, target)
        except (ValueError, CertificateError):
            pass

    rad = schur_radius(model, dist)
    raise CertificateError(
        f"no quadratic stability certificate found for gamma = {target} "
        f"(inconclusive; mean-square spectral radius = {rad:.6f}"
        + (", which already rules one out)" if rad >= 1.0 else ")")
    )


def min_gamma_certificate(
    model: LssModel,
    dist: SwitchingDistribution,
    lo: float = 1e-4,
    hi: float = 0.9999,
    tol: float = 1e-3,
) -> StabilityCertificate:
    """Bisect for (approximately) the smallest certifiable rate."""
    try:
        cert = find_P(model, dist, hi)
    except CertificateError:
        raise CertificateError(
            f"model not certifiable even at gamma = {hi} "
            f"(schur_radius = {schur_radius(model, dist):.6f})"
        ) from None
    while hi - lo > tol:
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
    is taken as validated (:func:`certify_P`) and not checked again.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be positive")
    if sigma_n_H <= 0.0:
        raise ValueError("sigma_n_H must be positive")

    n, m, nQ = model.n, model.m, model.nQ
    gamma = stability.gamma
    m_prime = m + n + 1
    K_u = signal.K_u
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
    K_tilde = K_0 * math.sqrt(8.0 * log_term / N)
    K_deltaN = math.sqrt(m) * K_minus1 * K_tilde

    thr = sigma_n_H / (2.0 * len(W) * math.sqrt(n))
    N_min_basic = 2 * (2 * n + 1) + 1
    c_over = math.sqrt(m) * K_minus1 * K_0 * math.sqrt(8.0 * log_term)
    N_min_hankel = _ceil_threshold(c_over, thr)

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
        bound_EstErr=K_2 * K_deltaN,
        N_min_basic=N_min_basic,
        N_min_hankel=N_min_hankel,
        valid_basic=N > 2 * (2 * n + 1),
        valid_hankel=K_deltaN <= thr,
        stability=stability,
    )


def _ceil_threshold(c_over: float, thr: float) -> int:
    """Smallest integer N with c_over / sqrt(N) <= thr."""
    z = (c_over / thr) ** 2
    N = max(1, math.ceil(z))
    # Float ceil can land one off near the boundary; nudge exactly when
    # the magnitudes still allow integer arithmetic to mean anything.
    if z < 2**52:
        while c_over / math.sqrt(N) > thr:
            N += 1
        while N > 1 and c_over / math.sqrt(N - 1) <= thr:
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

    Both thresholds are independent of N, so this reads them off one
    :func:`compute_certificate` call at an arbitrary N.
    """
    bc = compute_certificate(
        model, dist, signal, sel, sigma_n_H, delta, 1, stability=stability
    )
    return max(bc.N_min_basic, bc.N_min_hankel)


def save_bound_certificate(path: str, bc: BoundCertificate) -> None:
    write_json(path, bc.to_dict())


def save_stability_certificate(path: str, cert: StabilityCertificate) -> None:
    write_json(path, cert.to_dict())


def load_P_matrix(path: str) -> np.ndarray:
    """Read a user-supplied P, accepting either a bare matrix or a
    previously saved certificate file."""

    def parse(doc):
        return np.asarray(doc["P"] if isinstance(doc, dict) else doc, dtype=float)

    return read_json(path, parse)
