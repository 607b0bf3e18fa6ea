"""Word algebra, model containers and file round-trips."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from switchid import (
    LssModel,
    SignalSpec,
    SwitchingDistribution,
    a_word,
    load_model_file,
    p_word,
    save_model_file,
    two_mode_benchmark,
    word_to_str,
)
from switchid.core import EPSILON, str_to_word

words_12 = st.lists(st.integers(min_value=1, max_value=2), max_size=6).map(tuple)


def test_epsilon_is_empty_tuple():
    assert EPSILON == ()
    assert word_to_str(EPSILON) == ""
    assert str_to_word("") == EPSILON


def test_word_string_forms():
    assert word_to_str((2, 1, 1)) == "2.1.1"
    assert str_to_word("2.1.1") == (2, 1, 1)
    assert str_to_word(" 2.1 ") == (2, 1)


@given(words_12)
def test_word_string_roundtrip(w):
    assert str_to_word(word_to_str(w)) == w


def test_a_word_identity_for_epsilon(bench):
    model, _ = bench
    npt.assert_array_equal(a_word(model, EPSILON), np.eye(2))


def test_a_word_first_letter_acts_first(bench):
    # For w = (2, 1) the product is A_1 A_2: mode 2 is applied to the
    # state first, then mode 1.  By hand, with a = 0.27:
    #   A_1 A_2 = [[0, 0.27], [0, 0.0729]]
    #   A_2 A_1 = [[0, 0],    [0, 0.0729]]
    model, _ = bench
    npt.assert_allclose(a_word(model, (2, 1)), [[0.0, 0.27], [0.0, 0.0729]])
    npt.assert_allclose(a_word(model, (1, 2)), [[0.0, 0.0], [0.0, 0.0729]])


def test_a_word_single_letter(bench):
    model, _ = bench
    npt.assert_array_equal(a_word(model, (1,)), model.A[0])
    npt.assert_array_equal(a_word(model, (2,)), model.A[1])


def test_a_word_rejects_bad_letter(bench):
    model, _ = bench
    with pytest.raises(ValueError):
        a_word(model, (3,))
    with pytest.raises(ValueError):
        a_word(model, (0,))


@given(words_12, words_12)
def test_a_word_concat_is_reversed_product(bench_matrices, v, w):
    model = bench_matrices
    left = a_word(model, v + w)
    right = a_word(model, w) @ a_word(model, v)
    npt.assert_allclose(left, right, atol=1e-12)


@pytest.fixture(scope="module")
def bench_matrices():
    model, _ = two_mode_benchmark(0.6)
    return model


def test_p_word_values(bench):
    _, dist = bench
    assert p_word(dist, EPSILON) == 1.0
    assert p_word(dist, (2, 1)) == pytest.approx(0.25)
    assert p_word(dist, (2, 1, 2, 1)) == pytest.approx(1.0 / 16.0)


@given(words_12, words_12)
def test_p_word_multiplicative(v, w):
    dist = SwitchingDistribution(p=np.array([0.3, 0.7]))
    assert p_word(dist, v + w) == pytest.approx(
        p_word(dist, v) * p_word(dist, w)
    )


def test_p_word_rejects_bad_letter(bench):
    _, dist = bench
    with pytest.raises(ValueError):
        p_word(dist, (1, 3))


class TestLssModel:
    def test_shapes_coerced(self, bench):
        model, _ = bench
        assert model.C.shape == (2,)
        assert model.D.shape == (1,)
        assert model.B[0].shape == (2, 1)

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError, match="nQ"):
            LssModel(
                n=1, m=1, nQ=2,
                A=[np.eye(1)], B=[np.zeros((1, 1))],
                C=np.ones(1), D=np.zeros(1),
            )

    def test_wrong_a_shape(self):
        with pytest.raises(ValueError):
            LssModel(
                n=2, m=1, nQ=1,
                A=[np.eye(3)], B=[np.zeros((2, 1))],
                C=np.ones(2), D=np.zeros(1),
            )

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            LssModel(n=0, m=1, nQ=1, A=[], B=[], C=[], D=[])


class TestSwitchingDistribution:
    def test_nQ(self):
        assert SwitchingDistribution(p=[0.2, 0.3, 0.5]).nQ == 3

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            SwitchingDistribution(p=[1.0, 0.0])

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SwitchingDistribution(p=[0.5, 0.4])


class TestSignalSpec:
    def test_ku_is_max_of_amplitudes(self):
        assert SignalSpec(Ku_input=0.8, Ku_noise=20.0).K_u == 20.0
        assert SignalSpec(Ku_input=0.8, Ku_noise=0.5).K_u == 0.8

    def test_default_sigma_u_is_uniform_covariance(self):
        # Var of U(-K, K) is K^2 / 3.
        S = SignalSpec(Ku_input=0.8, Ku_noise=1.0).sigma_u(3)
        npt.assert_allclose(S, (0.64 / 3.0) * np.eye(3))

    def test_explicit_sigma_u_checked(self):
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=-np.eye(2))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=-0.1, Ku_noise=1.0)


def test_benchmark_family_structure():
    model, dist = two_mode_benchmark(0.6)
    assert (model.n, model.m, model.nQ) == (2, 1, 2)
    assert model.A[0][1, 1] == pytest.approx(0.27)
    assert model.A[1][1, 1] == pytest.approx(0.27)
    npt.assert_array_equal(model.B[0], np.zeros((2, 1)))
    npt.assert_array_equal(model.B[1], [[0.0], [1.0]])
    npt.assert_array_equal(dist.p, [0.5, 0.5])


def test_benchmark_pole_scales_with_gamma():
    for gamma in (0.1, 0.4, 0.6):
        model, _ = two_mode_benchmark(gamma)
        assert model.A[0][1, 1] == pytest.approx(0.45 * gamma)


def test_benchmark_rejects_bad_gamma():
    for gamma in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            two_mode_benchmark(gamma)


def test_model_file_roundtrip(tmp_path, bench):
    model, dist = bench
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0, Sigma_u=0.2 * np.eye(1))
    path = tmp_path / "model.json"
    save_model_file(str(path), model, dist, signal)
    m2, d2, s2 = load_model_file(str(path))
    for q in range(2):
        npt.assert_array_equal(m2.A[q], model.A[q])
        npt.assert_array_equal(m2.B[q], model.B[q])
    npt.assert_array_equal(m2.C, model.C)
    npt.assert_array_equal(m2.D, model.D)
    npt.assert_array_equal(d2.p, dist.p)
    assert s2.Ku_input == signal.Ku_input
    npt.assert_array_equal(s2.Sigma_u, signal.Sigma_u)


def test_model_file_without_extras(tmp_path, bench):
    model, _ = bench
    path = tmp_path / "model.json"
    save_model_file(str(path), model)
    m2, d2, s2 = load_model_file(str(path))
    assert d2 is None and s2 is None
    npt.assert_array_equal(m2.C, model.C)


def test_every_export_resolves():
    import switchid

    missing = [name for name in switchid.__all__ if not hasattr(switchid, name)]
    assert missing == []
