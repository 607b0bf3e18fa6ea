"""Stability certificates and the finite-sample constant chain."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    CertificateError,
    LssModel,
    SignalSpec,
    StabilityCertificate,
    SwitchingDistribution,
    compute_certificate,
    find_P,
    find_selection,
    gamma_from_P,
    min_gamma_certificate,
    min_valid_N,
    schur_radius,
    two_mode_benchmark,
)
from switchid.bounds import (
    certify_P,
    compute_KM,
    load_P_matrix,
    save_bound_certificate,
    save_stability_certificate,
)
from switchid.core import a_word
from switchid.hokalman import Selection

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
        # binds; the returned N must be the exact crossing point.
        model, dist, signal, cert, sel = bench_chain
        sigma = 2.0e5
        N_star = min_valid_N(model, dist, signal, sel, sigma, 0.05, stability=cert)
        assert N_star > 11
        at = compute_certificate(model, dist, signal, sel, sigma, 0.05, N_star, stability=cert)
        before = compute_certificate(
            model, dist, signal, sel, sigma, 0.05, N_star - 1, stability=cert
        )
        assert at.valid
        assert not before.valid

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

    def test_to_dict_is_json_ready(self, bench_chain, tmp_path):
        model, dist, signal, cert, sel = bench_chain
        bc = compute_certificate(model, dist, signal, sel, SIGMA_N, 0.05, 1000, stability=cert)
        path = tmp_path / "bound.json"
        save_bound_certificate(str(path), bc)
        doc = json.loads(path.read_text())
        assert doc["W_size"] == 10
        assert doc["stability"]["gamma"] == pytest.approx(cert.gamma)


def test_stability_certificate_file_roundtrip(tmp_path, bench):
    model, dist = bench
    cert = find_P(model, dist, 0.6)
    path = tmp_path / "stab.json"
    save_stability_certificate(str(path), cert)
    P = load_P_matrix(str(path))
    npt.assert_allclose(P, cert.P)
    # Bare-matrix form is accepted too.
    bare = tmp_path / "P.json"
    bare.write_text(json.dumps(cert.P.tolist()))
    npt.assert_allclose(load_P_matrix(str(bare)), cert.P)


def test_certificate_gamma_range_checked():
    with pytest.raises(ValueError):
        StabilityCertificate(P=np.eye(1), gamma=1.5, margin=0.1, schur_radius=0.5)
