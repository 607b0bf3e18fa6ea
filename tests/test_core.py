"""Word algebra, model containers and file round-trips."""

import ast
import pathlib
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import switchid
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
from switchid.bounds import schur_radius
from switchid.core import EPSILON, check_real, str_to_word
from switchid.hokalman import RealizationResult, Selection, est_err

words_12 = st.lists(st.integers(min_value=1, max_value=2), max_size=6).map(tuple)


def test_epsilon_is_empty_tuple():
    assert EPSILON == ()
    assert word_to_str(EPSILON) == ""
    assert str_to_word("") == EPSILON


def test_word_string_forms():
    assert word_to_str((2, 1, 1)) == "2.1.1"
    assert str_to_word("2.1.1") == (2, 1, 1)


# int() took "+1", " 1", "1_0" and "١" as the letters 1, 1, 10 and 1, and
# strip() took the padding of " 2.1 "; 1 was an AttributeError.
@pytest.mark.parametrize("s", ["+1", " 1", "1_0", "١", " 2.1 ", "1..2", "1.", 1, None])
def test_str_to_word_refuses_what_is_not_a_word_string(s):
    with pytest.raises(ValueError, match=re.escape(f"alpha[1]: {s!r} is not a word")):
        str_to_word(s, "alpha[1]")


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

    @pytest.mark.parametrize(
        "shapes, says",
        [
            # B used to be reshaped to n x m, which reordered a transposed B.
            ({"B": [np.arange(6.0).reshape(3, 2)]}, "B matrices must be 2x3"),
            ({"B": [np.arange(6.0)]}, "B matrices must be 2x3"),
            ({"C": [[1.0, 0.0]]}, "C must have 2 entries"),
            ({"D": np.zeros((3, 1))}, "D must have 3 entries"),
        ],
        ids=["B-transposed", "B-flat", "C-row", "D-column"],
    )
    def test_shapes_are_not_reshaped_to_fit(self, shapes, says):
        args = dict(n=2, m=3, nQ=1, A=[0.1 * np.eye(2)], B=[np.zeros((2, 3))], C=[1, 0],
                    D=[0, 0, 0])
        with pytest.raises(ValueError, match=says):
            LssModel(**{**args, **shapes})

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

    @pytest.mark.parametrize("ku", [1e200, 1e-200, 5e-324])
    def test_default_sigma_u_outside_the_float_range_is_refused(self, ku):
        # 1e200 used to raise OverflowError, the others gave a Sigma_u of 0.
        with pytest.raises(ValueError, match=re.escape(f"Ku_input = {ku!r} is out of range")):
            SignalSpec(Ku_input=ku, Ku_noise=1.0).sigma_u(1)
        # A zero amplitude is refused, a stated Sigma_u beside it too.
        for explicit in (None, np.eye(2)):
            with pytest.raises(ValueError, match=re.escape("Ku_input = 0.0 must be positive")):
                SignalSpec(Ku_input=0.0, Ku_noise=1.0, Sigma_u=explicit).sigma_u(2)

    def test_explicit_sigma_u_checked(self):
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=-np.eye(2))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(Ku_input=-0.1, Ku_noise=1.0)


def lss(**overrides):
    args = dict(n=1, m=1, nQ=2, A=[np.eye(1)] * 2, B=[np.ones((1, 1))] * 2,
                C=np.ones(1), D=np.zeros(1))
    return LssModel(**{**args, **overrides})


NAN = float("nan")


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: lss(A=[np.eye(1), np.array([[NAN]])]), "A[1] has a non-finite entry"),
        (lambda: lss(B=[np.array([[np.inf]]), np.ones((1, 1))]), "B[0] has a non-finite entry"),
        (lambda: lss(C=[-np.inf]), "C has a non-finite entry"),
        (lambda: lss(D=[NAN]), "D has a non-finite entry"),
        (lambda: SwitchingDistribution(p=[NAN, NAN]), "p has a non-finite entry"),
        (lambda: SignalSpec(Ku_input=1.0, Ku_noise=NAN), "Ku_noise is not finite"),
        (lambda: SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=[[NAN]]),
         "Sigma_u has a non-finite entry"),
    ],
    ids=["A", "B", "C", "D", "p", "Ku_noise", "Sigma_u"],
)
def test_non_finite_values_refused_by_name(build, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        build()


def realization(modes=1, A=(1, 1), B=(1, 1)):
    return RealizationResult(
        Abar=[np.zeros(A)] * modes, Bbar=[np.zeros(B)] * modes,
        Cbar=np.zeros(1), Dbar=np.zeros(1), sigma_n=1.0,
    )


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: lss(C=np.ones(2)), "C must have 1 entries"),
        (lambda: lss(D=np.zeros(2)), "D must have 1 entries"),
        (lambda: SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=np.ones((1, 2))),
         "Sigma_u must be square"),
        (lambda: SignalSpec(Ku_input=1.0, Ku_noise=1.0, Sigma_u=np.eye(2)).sigma_u(1),
         "Sigma_u is 2x2, the model has m = 1"),
        (lambda: Selection(alpha=((), (1,)), beta=(((), 1, 1), ((1, 2), 1, 1))),
         "column word (1, 2) longer than n - 1 = 1"),
        (lambda: est_err(realization(modes=2), realization()), "mode counts differ"),
        (lambda: est_err(realization(A=(2, 2)), realization()), "A shapes differ"),
        (lambda: est_err(realization(B=(1, 2)), realization()), "B shapes differ"),
        (lambda: schur_radius(lss(), SwitchingDistribution(p=[1.0])),
         "p has 1 entries, the model has nQ = 2"),
    ],
    ids=["C", "D", "Sigma_u-square", "sigma_u-size", "column-word", "est_err-modes",
         "est_err-A", "est_err-B", "schur_radius-modes"],
)
def test_sizes_that_do_not_match_are_refused_by_name(call, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        call()


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
    # Without "p" the mode law is uniform.
    npt.assert_array_equal(d2.p, [0.5, 0.5])
    assert s2 is None
    npt.assert_array_equal(m2.C, model.C)


@pytest.mark.parametrize(
    "x, ndim, says",
    [
        ([[[0.0], [0.0]], [[0.0], [True]]], 3, "B[1][1][0]: True is not a number"),
        ([[1.0, "0"]], 2, "B[0][1]: '0' is not a number"),
        ([[1.0, None]], 2, "B[0][1]: None is not a number"),
        ([{"x": 1.0}], 1, "B[0]: {'x': 1.0} is not a number"),
        ([1.0, [2.0]], 1, "B[1]: [2.0] is not a number"),
        (1.0, 1, "B: 1.0 is not a list"),
        ([[1.0], 2.0], 2, "B[1]: 2.0 is not a list"),
        ([[1.0, 2.0], [3.0]], 2, "B[1] has shape (1,), B[0] has (2,)"),
        ([[[1.0]], [[1.0], [2.0]]], 3, "B[1] has shape (2, 1), B[0] has (1, 1)"),
        (10**400, 0, "B: 1000"),
    ],
    ids=["bool", "string", "null", "object", "list-for-number", "number-for-list",
         "row-not-a-list", "ragged-rows", "ragged-matrices", "int-beyond-float"],
)
def test_reader_refuses_by_name_and_index(x, ndim, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        check_real("B", x, ndim)


def test_reader_returns_float_arrays_and_leaves_shape_and_finiteness_to_the_classes():
    B = check_real("B", [[[0], [1]], [[2.5], [float("nan")]]], 3)
    assert B.dtype == float and B.shape == (2, 2, 1) and np.isnan(B[1, 1, 0])
    assert check_real("C", [], 1).shape == (0,)
    assert check_real("Ku", 2) == 2.0 and type(check_real("Ku", 2)) is float


def test_input_files_reach_numbers_only_through_the_two_checks():
    # Every number of a JSON input goes through check_integer or check_real;
    # a cast in a parse callback would take true as 1 and "0" as 0 again,
    # and a reshape in LssModel would reorder a transposed B to fit.
    def definition(module, path):
        node = ast.parse(pathlib.Path(switchid.__file__).with_name(module).read_text())
        for name in path.split("."):
            node = next(
                n for n in ast.walk(node)
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
            )
        return node

    casts = {"asarray", "array", "int", "float"}
    rules = [
        ("core.py", "model_from_dict", casts),
        ("hokalman.py", "load_selection.parse", casts),
        ("bounds.py", "load_P_matrix.parse", casts),
        ("experiment.py", "ExperimentConfig.from_dict", casts),
        ("core.py", "LssModel.__post_init__", {"reshape"}),
    ]
    uses = [
        f"{module}:{path}:{ast.unparse(node)}"
        for module, path, banned in rules
        for node in ast.walk(definition(module, path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in banned
    ]
    assert uses == []


def test_each_agreement_between_inputs_is_checked_in_one_place():
    # A law's size is compared with a model's nQ only in check_law, the
    # selection's fit to a model is worded only in Selection.check_fit and
    # the trajectory's input width only in empirical_markov_group; cli.py
    # reads no trajectory's u.shape.  A second copy of a rule is one that
    # some path skips or words differently.
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            yield child, inner
            yield from walk(child, inner)

    size = re.compile(r"(\bnQ|\bp\.size|len\(.*\bp\))$")
    wordings = [
        (re.compile(r"p has \{\} entries"), "check_law"),
        (re.compile(r"(mode|channel) \{\} outside 1\.\.|rows, the model has n = "),
         "Selection.check_fit"),
        (re.compile(r"input columns"), "empirical_markov_group"),
    ]
    found = []
    for path in sorted(pathlib.Path(switchid.__file__).parent.glob("*.py")):
        for node, where in walk(ast.parse(path.read_text()), ""):
            at = f"{path.name}:{node.lineno}" if hasattr(node, "lineno") else path.name
            if isinstance(node, ast.Compare):
                sides = [ast.unparse(x) for x in (node.left, *node.comparators)]
                if sum(bool(size.search(x)) for x in sides) >= 2 and where != "check_law":
                    found.append(f"{at} compares {sides} in {where}")
            elif isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
                found += [
                    f"{at} words {text!r} in {where}"
                    for rule, owner in wordings if rule.search(text) and where != owner
                ]
            elif path.name == "cli.py" and isinstance(node, ast.Attribute):
                if node.attr == "shape" and getattr(node.value, "attr", None) == "u":
                    found.append(f"{at} reads {ast.unparse(node)}")
    assert found == []


def test_every_export_resolves():
    missing = [name for name in switchid.__all__ if not hasattr(switchid, name)]
    assert missing == []
