"""Stability certificates and the finite-sample constant chain."""

import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    CertificateError,
    LssModel,
    SignalSpec,
    SimConfig,
    StabilityCertificate,
    SwitchingDistribution,
    compute_certificate,
    find_P,
    find_selection,
    gamma_from_P,
    identify_sample,
    min_gamma_certificate,
    min_valid_N,
    schur_radius,
    simulate,
    two_mode_benchmark,
)
from switchid.bounds import (
    GAMMA_INFLATION,
    P_CEILING,
    _max_slack_P,
    certify_P,
    compute_KM,
    load_P_matrix,
)
from switchid.core import a_word, model_from_dict, write_json
from switchid.hokalman import Selection, true_realization
from test_hokalman import certifiable_model

BENCH_SEL = Selection(alpha=((), (1,)), beta=(((), 2, 1), ((1,), 2, 1)))


def single_mode(*diag):
    n = len(diag)
    return LssModel(
        n=n, m=1, nQ=1,
        A=[np.diag(diag).astype(float)],
        B=[np.ones((n, 1))],
        C=np.ones(n),
        D=np.zeros(1),
    )


class TestGammaFromP:
    def test_diagonal_single_mode(self):
        # Tight rate is the spectral norm, 0.5; the returned value is
        # only inflated by 1e-9 to make the strict inequality hold.
        model = single_mode(0.5, 0.25)
        gamma, margin = gamma_from_P(model, np.eye(2))
        assert gamma == pytest.approx(0.5, rel=1e-8)
        assert gamma > 0.5
        assert margin > 0.0

    def test_mode_count_scales_rate(self):
        model = LssModel(
            n=1, m=1, nQ=2,
            A=[np.array([[0.3]]), np.array([[0.3]])],
            B=[np.ones((1, 1))] * 2,
            C=np.ones(1), D=np.zeros(1),
        )
        gamma, margin = gamma_from_P(model, np.eye(1))
        assert gamma == pytest.approx(0.6, rel=1e-8)
        assert margin > 0.0

    def test_shaping_P_helps_nilpotent(self):
        # A is nilpotent, yet with P = I it only certifies rate 1 (in
        # fact fails); weighting the second state down brings the
        # certified rate to 0.1.
        model = LssModel(
            n=2, m=1, nQ=1,
            A=[np.array([[0.0, 1.0], [0.0, 0.0]])],
            B=[np.ones((2, 1))], C=np.ones(2), D=np.zeros(1),
        )
        with pytest.raises(CertificateError):
            gamma_from_P(model, np.eye(2))
        gamma, margin = gamma_from_P(model, np.diag([1.0, 100.0]))
        assert gamma == pytest.approx(0.1, rel=1e-8)
        assert margin > 0.0

    def test_zero_dynamics_hits_floor(self):
        model = single_mode(0.0)
        gamma, margin = gamma_from_P(model, np.eye(1))
        assert gamma == 1e-12
        assert margin > 0.0

    def test_rejects_bad_P(self):
        model = single_mode(0.5)
        with pytest.raises(ValueError):
            gamma_from_P(model, np.eye(2))  # wrong shape
        model2 = single_mode(0.5, 0.5)
        with pytest.raises(ValueError):
            gamma_from_P(model2, np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            gamma_from_P(model2, -np.eye(2))  # not positive definite

    def test_symmetry_check_of_a_large_P_does_not_overflow(self, bench):
        # The Frobenius norm of a P with an entry of 1e200 overflowed
        # (a RuntimeWarning), although the rate is scale-free.
        model, _ = bench
        P = np.diag([14068.0, 1e6])
        npt.assert_allclose(gamma_from_P(model, 1e194 * P)[0], gamma_from_P(model, P)[0])
        with pytest.raises(ValueError, match="symmetric"):
            gamma_from_P(model, 1e194 * (P + np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_refuses_non_finite_P(self, bench, bad, entry):
        # max() and min() drop a NaN, so without the check a NaN P came out
        # as a certificate of rate 1e-12 with an infinite margin.
        model, dist = bench
        P = np.eye(2)
        P[entry] = P[entry[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gamma_from_P(model, P)
        with pytest.raises(ValueError, match="non-finite"):
            certify_P(model, dist, P, 0.6)

    def test_refuses_nan_eigenvalue(self):
        # Finite entries whose products overflow leave NaN eigenvalues.
        a = 1e200
        model = LssModel(
            n=2, m=1, nQ=1, A=[np.array([[a, a], [0.0, a]])],
            B=[np.ones((2, 1))], C=np.ones(2), D=np.zeros(1),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN eigenvalue"):
                gamma_from_P(model, np.eye(2))

    @pytest.mark.parametrize("cond", [1.0, 10.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rate_matches_generalized_eigensolver(self, n, cond):
        # Test-only oracle: the largest eigenvalue of the pencil
        # (A_q^T P A_q, P) from LAPACK's generalized symmetric solver.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(1000 * n + int(math.log10(cond)))
        for _ in range(20):
            nQ = int(rng.integers(1, 4))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            P = Q @ np.diag(np.logspace(0.0, math.log10(cond), n)) @ Q.T
            P = (P + P.T) / 2.0
            A = rng.standard_normal((nQ, n, n))
            lam = max(
                scipy_linalg.eigh(Aq.T @ P @ Aq, P, eigvals_only=True)[-1] for Aq in A
            )
            # Scale every mode so that the oracle's tight rate is 0.5.
            scale = 0.5 / (nQ * math.sqrt(lam))
            model = LssModel(
                n=n, m=1, nQ=nQ, A=list(scale * A),
                B=[np.ones((n, 1))] * nQ, C=np.ones(n), D=np.zeros(1),
            )
            gamma, margin = gamma_from_P(model, P)
            assert gamma == pytest.approx(0.5 * (1.0 + GAMMA_INFLATION), rel=1e-10, abs=0.0)
            assert margin > 0.0


class TestSchurRadius:
    def test_single_mode_squares(self):
        model = single_mode(0.5)
        assert schur_radius(model, SwitchingDistribution(p=[1.0])) == pytest.approx(0.25)

    def test_two_mode_average(self):
        model = LssModel(
            n=1, m=1, nQ=2,
            A=[np.array([[0.8]]), np.array([[0.0]])],
            B=[np.ones((1, 1))] * 2,
            C=np.ones(1), D=np.zeros(1),
        )
        dist = SwitchingDistribution(p=[0.5, 0.5])
        assert schur_radius(model, dist) == pytest.approx(0.32)

    def test_benchmark_value(self, bench):
        # Both modes share the scalar pole a, and averaging the Kronecker
        # squares leaves a^2 as the dominant eigenvalue.
        model, dist = bench
        assert schur_radius(model, dist) == pytest.approx(0.27**2)


def three_mode_model():
    # n = 4, nQ = 3 with every ||A_q||_2 = 0.3: takes the search past the
    # n <= 2 of the benchmark family.
    rng = np.random.default_rng(0)
    A = [0.3 * X / np.linalg.norm(X, 2) for X in rng.standard_normal((3, 4, 4))]
    model = LssModel(
        n=4, m=1, nQ=3, A=A, B=[np.ones((4, 1))] * 3, C=np.ones(4), D=np.zeros(1)
    )
    return model, SwitchingDistribution(p=np.full(3, 1.0 / 3.0))


def identify_like_model(seed):
    # The A_q of the benchmark's identify model: n = 4, nQ = 3, drawn from
    # rng [seed, 4] and scaled to ||A_q||_2 = 0.3.
    rng = np.random.default_rng([seed, 4])
    A = []
    for _ in range(3):
        X = rng.standard_normal((4, 4))
        A.append(0.3 * X / np.linalg.norm(X, 2))
    model = LssModel(
        n=4, m=1, nQ=3, A=A, B=[np.ones((4, 1))] * 3, C=np.ones(4), D=np.zeros(1)
    )
    return model, SwitchingDistribution(p=np.full(3, 1.0 / 3.0))


def first_rho(model, target):
    """The rate find_P's first search runs at: its first shrink, 1e-2."""
    return (target * (1.0 - 1e-2) / model.nQ) ** 2


def slack(A, P, rho):
    """min_q lambda_min(rho P - A_q^T P A_q), the quantity the search maximizes."""
    return min(np.linalg.eigvalsh(rho * P - Aq.T @ P @ Aq)[0] for Aq in A)


# Test-only oracle: the log-barrier search that _max_slack_P replaced,
# kept verbatim.  It makes 56-73 Newton iterations on the two-mode family
# and 131-213 on the n = 4, nQ = 3 models, and on the latter it can stop
# at its 50-step cap short of the optimum, so the new search must match
# or beat its slack rather than equal it.
def barrier_max_slack_P(A: list[np.ndarray], rho: float) -> np.ndarray | None:
    """Margin-maximizing semidefinite feasibility search for P: max t
    subject to I <= P <= P_CEILING I and rho P - A_q^T P A_q >= t I for
    every mode, by a log-barrier Newton method.

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

    # G laid out once as (K + 1, blocks * n * n): the product tensordot
    # would form, without its transpose copy on every call.
    Gt = G.transpose(1, 0, 2, 3).reshape(K + 1, -1)

    def blocks(x):
        return F0 + np.dot(x[None, :], Gt).reshape(F0.shape)

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
        f = objective(x, s)  # carried forward from the accepted step below
        for _ in range(50):
            # Near the boundary a block the line search's Cholesky accepted
            # can be singular to inv, and the Hessian singular to solve or
            # not positive on its rounded diagonal: centred as far as it
            # goes, as when the line search stalls below.
            try:
                W = np.linalg.inv(blocks(x))[:, None] @ G
                grad = -np.einsum("jkaa->k", W)
                grad[-1] -= s
                H = np.einsum("jkab,jlba->kl", W, W)
                h = np.diag(H)
                if not (h > 0.0).all():
                    break
                d = 1.0 / np.sqrt(h)
                dx = -d * np.linalg.solve(H * np.outer(d, d), d * grad)
            except np.linalg.LinAlgError:
                break
            slope = float(grad @ dx)
            if -slope <= 1e-10:
                break
            step = 1.0
            for _ in range(40):
                x_try = x + step * dx
                f_try = objective(x_try, s)
                if f_try <= f + 0.25 * step * slope:
                    break
                step *= 0.5
            else:
                break  # rounding stalls the step: centred as far as it goes
            x, f = x_try, f_try
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


class TestFindP:
    def test_benchmark_all_rates(self):
        cases = [(two_mode_benchmark(gamma), gamma) for gamma in (0.1, 0.4, 0.6)]
        cases.append((three_mode_model(), 0.95))
        for (model, dist), gamma in cases:
            cert = find_P(model, dist, gamma)
            assert cert.gamma <= gamma
            assert cert.margin > 0.0
            assert cert.schur_radius < 1.0
            assert np.linalg.eigvalsh(cert.P)[0] > 0.0
            # Independent re-validation of the stored certificate.
            g2, m2 = gamma_from_P(model, cert.P)
            assert g2 <= gamma and m2 > 0.0

    # P's upper triangle, row by row, as float.hex: the primal-dual
    # search's answer on this host's BLAS kernel, bit for bit.  P feeds the
    # certificate and the bound column built from it, so a change that
    # moves one bit re-records these and the manifest (tests/test_golden.py)
    # and says why.
    PINNED_P = {
        0.1: ("0x1.a835e87128666p+8", "-0x1.3b7b4a15a0590p-24", "0x1.e847fffffe49dp+19"),
        0.4: ("0x1.99351a41be10ep+12", "-0x1.a7e647ce78dc0p-18", "0x1.e847ffffc5640p+19"),
        0.6: ("0x1.b7a08ea2077f1p+13", "-0x1.8c5294e906080p-20", "0x1.e847ffffeeb69p+19"),
    }
    PINNED_P_THREE_MODE = (
        "0x1.b55efef51821bp+19", "0x1.ce6e570cb1dcfp+14", "0x1.f058ba73be0efp+16",
        "-0x1.978fba7740d2dp+17", "0x1.695e3dc7576b5p+19", "-0x1.752668cde313dp+16",
        "0x1.82d9eca277751p+16", "0x1.6ef25379b17abp+19", "0x1.19f13d6c1c322p+18",
        "0x1.1573a540d749bp+19",
    )

    @pytest.mark.parametrize("gamma", [0.1, 0.4, 0.6])
    def test_benchmark_P_is_pinned(self, gamma):
        model, dist = two_mode_benchmark(gamma)
        P = find_P(model, dist, gamma).P
        assert tuple(float(v).hex() for v in P[np.triu_indices(2)]) == self.PINNED_P[gamma]
        npt.assert_array_equal(P, P.T)

    def test_three_mode_P_is_pinned(self):
        model, dist = three_mode_model()
        P = find_P(model, dist, 0.95).P
        assert tuple(float(v).hex() for v in P[np.triu_indices(4)]) == self.PINNED_P_THREE_MODE

    def test_single_mode_tightness(self):
        model = single_mode(0.5)
        dist = SwitchingDistribution(p=[1.0])
        cert = find_P(model, dist, 0.6)
        assert 0.5 <= cert.gamma <= 0.6

    def test_unstable_is_refused_with_diagnostic(self):
        model = single_mode(1.0)
        dist = SwitchingDistribution(p=[1.0])
        with pytest.raises(CertificateError, match="spectral radius"):
            find_P(model, dist, 0.9)

    def test_entry_beyond_the_search_box_is_refused_without_a_search(self):
        # I <= P <= 1e6 I and A^T P A < P bound every |A_ij| below 1e3;
        # at 1e200 the search and the spectral radius used to overflow.
        for entry in (1e3, 1e200):
            with pytest.raises(CertificateError, match=re.escape(f"magnitude {entry:g},")):
                find_P(single_mode(0.5, entry), SwitchingDistribution(p=[1.0]), 0.9)

    def test_bad_target(self, bench):
        model, dist = bench
        for target in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                find_P(model, dist, target)

    def test_acceptance_rule(self, bench, monkeypatch):
        # find_P's certificate is exactly what certify_P makes of its P.
        model, dist = bench
        cert = find_P(model, dist, 0.6)
        again = certify_P(model, dist, cert.P, 0.6)
        assert (again.gamma, again.margin, again.schur_radius) == (
            cert.gamma, cert.margin, cert.schur_radius,
        )
        with pytest.raises(CertificateError, match="above the target"):
            certify_P(model, dist, cert.P, 0.5)
        with pytest.raises(ValueError, match="positive definite"):
            certify_P(model, dist, -np.eye(2), 0.6)
        monkeypatch.setattr("switchid.bounds.gamma_from_P", lambda model, P: (0.5, 0.0))
        with pytest.raises(CertificateError, match="margin"):
            certify_P(model, dist, cert.P, 0.6)

    # Near the optimum a block of the search is singular to rounding, which
    # can end a search in a bare LinAlgError.  Which models come close
    # depends on the host's floating-point libraries, so the whole family
    # is run.
    FAMILY = [(n, nQ, seed) for n in (2, 3, 4) for nQ in (1, 2, 3) for seed in range(8)]

    @pytest.mark.parametrize("target", [0.95, 0.9999])
    def test_certifiable_family_is_certified(self, target):
        # The oracle can stop short of the optimum, never past it (up to
        # its stopping rule), so the search's slack must be at least the
        # oracle's.
        for key in self.FAMILY:
            model, dist = certifiable_model(*key)
            cert = find_P(model, dist, target)
            assert cert.gamma <= target and cert.margin > 0.0, key
            rho = first_rho(model, target)
            P, oracle = _max_slack_P(model.A, rho), barrier_max_slack_P(model.A, rho)
            assert slack(model.A, P, rho) >= slack(model.A, oracle, rho) * (1.0 - 1e-9), key

    @pytest.mark.parametrize("gamma", [0.1, 0.4, 0.6])
    def test_benchmark_certificate_agrees_with_the_barrier_oracle(self, gamma, monkeypatch):
        model, dist = two_mode_benchmark(gamma)
        cert = find_P(model, dist, gamma)
        monkeypatch.setattr("switchid.bounds._max_slack_P", barrier_max_slack_P)
        oracle = find_P(model, dist, gamma)
        assert np.linalg.norm(cert.P - oracle.P) <= 1e-8 * np.linalg.norm(oracle.P)
        npt.assert_allclose(cert.gamma, oracle.gamma, rtol=1e-8)
        # The margin is a difference of numbers of size rho ||P|| ~ 1e3 that
        # lands at 5e-6..2e-4: a 1e-15 relative change of P moves it by up
        # to 3e-7 relative, so it is held to 1e-6.
        npt.assert_allclose(cert.margin, oracle.margin, rtol=1e-6)
        # cond(P) = lambda_max / lambda_min with lambda_max at P_CEILING and
        # lambda_min ~ 4e2..1.4e4: the oracle's P, 1e-9 of ||P|| off the
        # optimum, moves it by up to 1.1e-8 relative (at gamma = 0.4).
        ev, ev_oracle = np.linalg.eigvalsh(cert.P), np.linalg.eigvalsh(oracle.P)
        npt.assert_allclose(ev[-1] / ev[0], ev_oracle[-1] / ev_oracle[0], rtol=3e-8)

    # Each iteration of the search factors the stacked S and Z blocks by one
    # Cholesky call; the barrier made 56-73 Newton iterations on the
    # two-mode family and 131-213 on the n = 4, nQ = 3 models.
    GUARD_MODELS = [
        *(pytest.param(two_mode_benchmark(g), g, id=f"two-mode-{g}") for g in (0.1, 0.4, 0.6)),
        pytest.param(three_mode_model(), 0.95, id="three-mode"),
        *(pytest.param(identify_like_model(s), 0.95, id=f"identify-{s}") for s in (1, 2, 3)),
    ]

    @pytest.mark.parametrize("case, target", GUARD_MODELS)
    def test_search_stops_within_30_iterations(self, case, target, monkeypatch):
        model, dist = case
        cholesky = np.linalg.cholesky
        calls, raised = [], []

        def counting(a):
            calls.append(a.shape)
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                raised.append(a.shape)
                raise

        monkeypatch.setattr("switchid.bounds.np.linalg.cholesky", counting)
        P = _max_slack_P(model.A, first_rho(model, target))
        monkeypatch.undo()
        assert len(calls) <= 30, len(calls)
        assert raised == []
        certify_P(model, dist, P, target)

    def test_certifiable_family_min_gamma(self):
        # A subset: the bisection costs about a dozen searches per model.
        # P = I certifies 0.9, and the bisection stops within 1e-3.
        for seed in range(8):
            model, dist = certifiable_model(2, 2, seed)
            assert min_gamma_certificate(model, dist).gamma <= 0.9 + 1e-3, seed

    def test_min_gamma_without_a_certificate_at_the_top_is_refused(self):
        # |A| = 1.5: no rate below 1 is certifiable, so the bisection never starts.
        model = single_mode(1.5)
        dist = SwitchingDistribution(p=[1.0])
        with pytest.raises(CertificateError, match=re.escape(
            "model not certifiable even at gamma = 0.9999 (schur_radius = 2.250000)"
        )):
            min_gamma_certificate(model, dist)

    def test_rejected_candidate_ends_the_search(self, bench, monkeypatch):
        # A candidate certify_P refuses is not retried at a smaller shrink:
        # the search reports the spectral radius, as when none is found.
        model, dist = bench
        calls = []

        def reject(*args):
            calls.append(args)
            raise CertificateError("rejected")

        monkeypatch.setattr("switchid.bounds.certify_P", reject)
        with pytest.raises(CertificateError, match=re.escape(
            "no quadratic stability certificate found for gamma = 0.6 "
            "(inconclusive; mean-square spectral radius = 0.072900)"
        )):
            find_P(model, dist, 0.6)
        assert len(calls) == 1

    def test_min_gamma_bisection(self):
        model = single_mode(0.5)
        dist = SwitchingDistribution(p=[1.0])
        cert = min_gamma_certificate(model, dist)
        assert 0.5 <= cert.gamma < 0.51
        assert cert.margin > 0.0


class TestComputeKM:
    def test_feedthrough_branch(self):
        # Negligible C pushes the max onto ||[D, 1]||.
        model = LssModel(
            n=1, m=2, nQ=1,
            A=[np.array([[0.1]])], B=[np.zeros((1, 2))],
            C=np.array([1e-12]), D=np.array([3.0, 4.0]),
        )
        cert = StabilityCertificate(P=np.eye(1), gamma=0.5, margin=0.1, schur_radius=0.01)
        assert compute_KM(model, cert) == pytest.approx(math.sqrt(26.0))

    def test_scales_linearly_in_C(self, bench):
        model, dist = bench
        cert = find_P(model, dist, 0.6)
        base = compute_KM(model, cert)
        doubled = LssModel(
            n=2, m=1, nQ=2, A=model.A, B=model.B, C=2.0 * model.C, D=model.D
        )
        assert compute_KM(doubled, cert) == pytest.approx(2.0 * base, rel=1e-12)

    def test_dominates_augmented_markov_decay(self, bench):
        # The constant's whole job: ||C A_tail [B_q I 0]|| <= K_M (gamma/nQ)^|w|
        # for every word.  Check all words up to length 6.
        model, dist = bench
        cert = find_P(model, dist, 0.6)
        K_M = compute_KM(model, cert)
        rate = cert.gamma / model.nQ
        B_aug = [np.hstack([Bq, np.eye(2), np.zeros((2, 1))]) for Bq in model.B]
        words = [()]
        frontier = [()]
        for _ in range(6):
            frontier = [w + (c,) for w in frontier for c in (1, 2)]
            words += frontier
        for w in words:
            if len(w) == 0:
                row = np.append(model.D, 1.0)
            else:
                row = model.C @ a_word(model, w[1:]) @ B_aug[w[0] - 1]
            assert np.linalg.norm(row) <= K_M * rate ** len(w) * (1 + 1e-9), w


@pytest.fixture(scope="module")
def bench_chain():
    model, dist = two_mode_benchmark(0.6)
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    cert = find_P(model, dist, 0.6)
    sel = find_selection(model)
    return model, dist, signal, cert, sel


SIGMA_N = 0.874  # approximate sigma_n(H_ab) for the 0.6 benchmark

# Single-mode models and their Ku_input (Ku_noise 1.0), certified at 0.9.
CROSSING_MODELS = [
    (
        {"n": 2, "m": 1, "nQ": 1, "A": [[[0.23, -0.05], [0.25, -0.26]]],
         "B": [[[-0.3], [0.1]]], "C": [1.8, -1.0], "D": [0.0]},
        0.8,
    ),
    (
        {"n": 2, "m": 1, "nQ": 1, "A": [[[-0.03, -0.08], [0.05, 0.27]]],
         "B": [[[1.6], [-0.5]]], "C": [-0.9, 1.5], "D": [0.0]},
        1.0,
    ),
]


class TestBoundCertificate:
    def test_static_constants_frozen(self, bench_chain):
        model, dist, signal, cert, sel = bench_chain
        bc = compute_certificate(
            model, dist, signal, sel, SIGMA_N, 0.05, 10_000, stability=cert
        )
        assert bc.W_size == 10
        assert bc.min_pw == pytest.approx(1.0 / 16.0)
        assert bc.min_pw_floor == pytest.approx(1.0 / 32.0)
        # ||Sigma_u^{-1}||_F / min_w p_w = (3 / 0.64) * 16 = 75.
        assert bc.K_minus1 == pytest.approx(75.0)
        assert bc.m_prime == 4
        assert bc.n_star == 2
        assert bc.K_u == 1.0
        assert bc.K_u_prime == 1.0

    def test_chain_recomputed_from_parts(self, bench_chain):
        model, dist, signal, cert, sel = bench_chain
        delta, N = 0.05, 10_000
        bc = compute_certificate(model, dist, signal, sel, SIGMA_N, delta, N, stability=cert)
        gamma = cert.gamma
        K_y = math.sqrt(4) * bc.K_M * 1.0 / (1 - gamma)
        assert bc.K_y == pytest.approx(K_y, rel=1e-12)
        K_gamma = (gamma + 5 * 4 * (1 - gamma) ** 2 + (1 - gamma) ** 3) / (1 - gamma) ** 3
        assert bc.K_gamma == pytest.approx(K_gamma, rel=1e-12)
        K_theta = 2 * (4 * 1.0 + 2) * math.sqrt(4) * 1.0 * bc.K_M * K_gamma
        assert bc.K_theta == pytest.approx(K_theta, rel=1e-12)
        assert bc.K_0 == pytest.approx(2 * bc.K_M / (1 - gamma) + K_theta, rel=1e-12)
        K_tilde = bc.K_0 * math.sqrt(8 * math.log(2 * 1 * 10 / delta) / N)
        assert bc.K_tilde == pytest.approx(K_tilde, rel=1e-12)
        assert bc.K_deltaN == pytest.approx(75.0 * K_tilde, rel=1e-12)
        K_2 = math.sqrt(10) * max(
            1.0, (2 * SIGMA_N + 2 * 75.0 * K_y * 1.0 * 4 * math.sqrt(2)) / SIGMA_N**2
        )
        assert bc.K_2 == pytest.approx(K_2, rel=1e-12)
        assert bc.bound_EstErr == pytest.approx(bc.K_2 * bc.K_deltaN, rel=1e-12)

    def test_quadrupling_N_halves_K(self, bench_chain):
        model, dist, signal, cert, sel = bench_chain
        bc1 = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 5_000, stability=cert)
        bc4 = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 20_000, stability=cert)
        assert bc4.K_tilde == pytest.approx(bc1.K_tilde / 2.0, rel=1e-12)
        assert bc4.bound_EstErr == pytest.approx(bc1.bound_EstErr / 2.0, rel=1e-12)

    def test_smaller_delta_costs_more(self, bench_chain):
        model, dist, signal, cert, sel = bench_chain
        bounds = [
            compute_certificate(
                model, dist, signal, sel, SIGMA_N, d, 10_000, stability=cert
            ).bound_EstErr
            for d in (0.2, 0.05, 0.01)
        ]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_basic_validity_threshold(self, bench_chain):
        # n = 2 requires N > 2(2n + 1) = 10.
        model, dist, signal, cert, sel = bench_chain
        bc10 = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 10, stability=cert)
        bc11 = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 11, stability=cert)
        assert not bc10.valid_basic
        assert bc11.valid_basic
        assert bc10.N_min_basic == 11

    def test_hankel_validity_at_threshold(self, bench_chain):
        # With an artificially enormous sigma_n the Hankel condition is
        # easy; min_valid_N then collapses to the basic floor, and the
        # validity flag flips exactly there.
        model, dist, signal, cert, sel = bench_chain
        N_star = min_valid_N(model, dist, signal, sel, 1e9, 0.05, stability=cert)
        assert N_star == 11
        bc = compute_certificate(model, dist, signal, sel, 1e9, 0.05, N_star, stability=cert)
        assert bc.valid

    def test_min_valid_N_crossing_is_exact(self, bench_chain):
        # Pick sigma_n so the Hankel condition, not the basic floor,
        # binds; the returned N must be the exact crossing point, where
        # K(delta, N) as the table prints it first falls to the threshold.
        # On the two single-mode models, with the true sigma_n, the crossing
        # lies just under 2^52, where c_over / sqrt(N) and K(delta, N) round
        # apart: once they put the flag at N - 1, once past N.
        chains = [(*bench_chain, 2.0e5)]
        for doc, ku_input in CROSSING_MODELS:
            model, dist, _ = model_from_dict(doc)
            sel = find_selection(model)
            signal = SignalSpec(Ku_input=ku_input, Ku_noise=1.0)
            sigma = true_realization(model, sel).sigma_n
            chains.append((model, dist, signal, find_P(model, dist, 0.9), sel, sigma))
        for model, dist, signal, cert, sel, sigma in chains:
            N_star = min_valid_N(model, dist, signal, sel, sigma, 0.05, stability=cert)
            assert N_star > 11
            at = compute_certificate(model, dist, signal, sel, sigma, 0.05, N_star, stability=cert)
            before = compute_certificate(
                model, dist, signal, sel, sigma, 0.05, N_star - 1, stability=cert
            )
            assert at.valid, N_star
            assert not before.valid, N_star
            thr = sigma / (2.0 * at.W_size * math.sqrt(model.n))
            assert before.K_deltaN > thr >= at.K_deltaN, N_star

    def test_realistic_sigma_needs_astronomical_N(self, bench_chain):
        # At the true sigma_n the constants put the validity threshold
        # far beyond any simulated N; the flag must say so.
        model, dist, signal, cert, sel = bench_chain
        bc = compute_certificate(
            model, dist, signal, sel, SIGMA_N, 0.05, 100_000, stability=cert
        )
        assert not bc.valid_hankel
        assert bc.N_min_hankel > 10**12
        assert bc.bound_EstErr > 0.0 and math.isfinite(bc.bound_EstErr)

    def test_parameter_validation(self, bench_chain):
        model, dist, signal, cert, sel = bench_chain
        with pytest.raises(ValueError):
            compute_certificate(model, dist, signal, sel, SIGMA_N, 0.0, 100, stability=cert)
        with pytest.raises(ValueError):
            compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 0, stability=cert)
        with pytest.raises(ValueError):
            compute_certificate(model, dist, signal, sel, -1.0, 0.05, 100, stability=cert)

    def test_constants_outside_the_float_range_are_refused_by_name(self, bench_chain):
        # Each used to end in OverflowError or ZeroDivisionError.
        model, dist, signal, cert, sel = bench_chain
        loud = SignalSpec(Ku_input=0.8, Ku_noise=1e200)
        cases = [
            (loud, SIGMA_N, 0.05, "K_u = max(Ku_input, Ku_noise) = 1e+200: its square overflows"),
            (signal, 1e200, 0.05, "sigma_n(H_ab) = 1e+200: its square leaves the float range"),
            (signal, 1e-200, 0.05, "sigma_n(H_ab) = 1e-200: its square leaves the float range"),
            (signal, SIGMA_N, 1e-310, "leave the float range: K_M = "),
        ]
        for sig, sigma_n, delta, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                compute_certificate(model, dist, sig, sel, sigma_n, delta, 100, stability=cert)

    def test_zero_input_amplitude_is_refused_by_name(self, bench_chain):
        # Both used to end in LinAlgError: Singular matrix.  identify_sample
        # takes Sigma_u, so its refusal comes from the signal that gives it.
        model, dist, _, cert, sel = bench_chain
        quiet = SignalSpec(Ku_input=0.0, Ku_noise=1.0)
        sample = simulate(SimConfig(model=model, dist=dist, signal=quiet, N=200, seed=1))
        message = re.escape("input amplitude Ku_input = 0.0 must be positive")
        with pytest.raises(ValueError, match=message):
            compute_certificate(model, dist, quiet, sel, SIGMA_N, 0.05, 100, stability=cert)
        with pytest.raises(ValueError, match=message):
            identify_sample(sample, sel, quiet.sigma_u(model.m), dist)

    def test_a_law_of_another_size_is_refused(self, bench_chain):
        # Read with a three-mode law, the two-mode model's certificate used
        # to come out with min p_w = 0.0024 instead of its own law's 0.0625.
        model, _, signal, cert, sel = bench_chain
        law = SwitchingDistribution(p=[0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match=r"^p has 3 entries, the model has nQ = 2$"):
            compute_certificate(model, law, signal, sel, SIGMA_N, 0.05, 100, stability=cert)

    def test_a_selection_that_does_not_fit_the_model_is_refused(self, bench_chain):
        # Channel 2 of the m = 1 model used to give a certificate, with
        # bound_EstErr ~2e12, instead of a refusal.
        model, dist, signal, cert, _ = bench_chain
        sel = Selection(alpha=BENCH_SEL.alpha, beta=(((), 2, 2), ((1,), 2, 1)))
        says = r"^beta: channel 2 outside 1\.\.1$"
        with pytest.raises(ValueError, match=says):
            compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 100, stability=cert)
        with pytest.raises(ValueError, match=says):
            min_valid_N(model, dist, signal, sel, SIGMA_N, 0.05, stability=cert)

    def test_to_dict_is_json_ready(self, bench_chain, tmp_path):
        model, dist, signal, cert, sel = bench_chain
        bc = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 1000, stability=cert)
        path = tmp_path / "bound.json"
        write_json(str(path), bc.to_dict())
        doc = json.loads(path.read_text())
        assert doc["W_size"] == 10
        assert doc["stability"]["gamma"] == pytest.approx(cert.gamma)


def test_stability_certificate_file_roundtrip(tmp_path, bench):
    model, dist = bench
    cert = find_P(model, dist, 0.6)
    path = tmp_path / "stab.json"
    write_json(str(path), cert.to_dict())
    P = load_P_matrix(str(path))
    npt.assert_allclose(P, cert.P)
    # Bare-matrix form is accepted too.
    bare = tmp_path / "P.json"
    bare.write_text(json.dumps(cert.P.tolist()))
    npt.assert_allclose(load_P_matrix(str(bare)), cert.P)


def test_certificate_gamma_range_checked():
    with pytest.raises(ValueError):
        StabilityCertificate(P=np.eye(1), gamma=1.5, margin=0.1, schur_radius=0.5)
