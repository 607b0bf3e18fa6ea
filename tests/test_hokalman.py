"""Hankel block assembly, selection search and realization."""

import ast
import itertools
import pathlib
import re

import numpy as np
import numpy.testing as npt
import pytest

import switchid
from switchid import (
    LssModel,
    Selection,
    SelectionRankError,
    SimConfig,
    SingularHankelError,
    SwitchingDistribution,
    build_hankels,
    empirical_markov_batch,
    est_err,
    find_selection,
    hokalman,
    identify_sample,
    markov,
    markov_roundtrip,
    realize,
    required_words,
    simulate,
    true_markov_map,
    true_realization,
    two_mode_benchmark,
)
from switchid.core import a_word
from switchid.hokalman import (
    _candidate_rows,
    HankelSet,
    RealizationResult,
    load_selection,
    save_realization,
    save_selection,
)
from switchid.simulate import SampleSet
from test_simulate import group_model, scan_model, simulate_module

# The selection used throughout for the benchmark family: row words
# epsilon and (1), column triples (epsilon, 2, 1) and ((1), 2, 1).
BENCH_SEL = Selection(alpha=((), (1,)), beta=(((), 2, 1), ((1,), 2, 1)))


def observability_row(model, eta):
    """The row functional C A_eta attached to a row word."""
    return model.C @ a_word(model, eta)


def reachability_col(model, mu, q, l):
    """The state vector (A_mu B_q)[:, l] attached to a column triple."""
    return (a_word(model, mu) @ model.B[q - 1])[:, l - 1]


def all_words(nQ, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (c,) for w in frontier for c in range(1, nQ + 1)]
        out += frontier
    return out


def test_required_words_single_mode_scalar():
    sel = Selection(alpha=((),), beta=(((), 1, 1),))
    assert required_words(sel, nQ=1) == {(), (1,), (1, 1)}


def test_required_words_benchmark():
    expect = {
        (),
        (1,), (2,),
        (1, 1), (2, 1), (2, 2),
        (2, 1, 1), (2, 2, 1), (2, 1, 2),
        (2, 1, 1, 1), (2, 1, 2, 1),
    }
    assert required_words(BENCH_SEL, nQ=2) == expect


def test_hankel_blocks_exact(bench):
    # Every entry traced by hand for a = 0.27; H_ab in particular is
    #   [[M_2, M_21], [M_21, M_211]] = [[0, 1], [1, a]].
    model, _ = bench
    a = 0.27
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    hs = build_hankels(mm, BENCH_SEL)
    npt.assert_allclose(hs.H_ab, [[0.0, 1.0], [1.0, a]], atol=1e-15)
    npt.assert_allclose(hs.H_aqb[0], [[1.0, a], [a, a * a]], atol=1e-15)
    npt.assert_allclose(hs.H_aqb[1], [[0.0, 0.0], [a, a * a]], atol=1e-15)
    npt.assert_allclose(hs.H_aq[0], [[0.0], [0.0]], atol=1e-15)
    npt.assert_allclose(hs.H_aq[1], [[0.0], [1.0]], atol=1e-15)
    npt.assert_allclose(hs.H_b, [0.0, 1.0], atol=1e-15)


def test_realize_benchmark_exact_basis(bench):
    # With H_ab = [[0, 1], [1, a]] the inverse is [[-a, 1], [1, 0]] and
    # the realized matrices come out in closed form:
    #   A_1 -> [[0, 0], [1, a]],  A_2 -> [[a, a^2], [0, 0]],
    #   B_2 -> [[1], [0]],        C   -> [0, 1].
    model, _ = bench
    a = 0.27
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    rr = realize(build_hankels(mm, BENCH_SEL), mm[()])
    npt.assert_allclose(rr.Abar[0], [[0.0, 0.0], [1.0, a]], atol=1e-14)
    npt.assert_allclose(rr.Abar[1], [[a, a * a], [0.0, 0.0]], atol=1e-14)
    npt.assert_allclose(rr.Bbar[0], [[0.0], [0.0]], atol=1e-14)
    npt.assert_allclose(rr.Bbar[1], [[1.0], [0.0]], atol=1e-14)
    npt.assert_allclose(rr.Cbar, [0.0, 1.0], atol=1e-14)
    npt.assert_allclose(rr.Dbar, [0.0], atol=1e-15)
    # sigma_min of [[0, 1], [1, a]] in closed form.
    expect_sigma = np.sqrt((2 + a * a - a * np.sqrt(a * a + 4.0)) / 2.0)
    assert rr.sigma_n == pytest.approx(expect_sigma, rel=1e-12)


def test_hankel_factorizes_through_state(rng):
    # H_ab[i, j] = (C A_eta_i) (A_mu_j B_q_j e_l_j): build O and R
    # explicitly from the model and check H_ab = O R.
    n, m, nQ = 3, 2, 2
    model = LssModel(
        n=n, m=m, nQ=nQ,
        A=[0.4 * rng.standard_normal((n, n)) for _ in range(nQ)],
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )
    sel = Selection(
        alpha=((), (1,), (2, 1)),
        beta=(((), 1, 1), ((2,), 1, 2), ((1, 2), 2, 1)),
    )
    mm = true_markov_map(model, required_words(sel, nQ))
    hs = build_hankels(mm, sel)
    O = np.array([observability_row(model, eta) for eta in sel.alpha])
    R = np.array([reachability_col(model, mu, q, l) for mu, q, l in sel.beta]).T
    npt.assert_allclose(hs.H_ab, O @ R, atol=1e-12)


def test_roundtrip_reproduces_markov_parameters(rng):
    # The realized model is similar to the source, so it must reproduce
    # every Markov parameter even though the matrices differ.
    n, m, nQ = 3, 2, 2
    model = LssModel(
        n=n, m=m, nQ=nQ,
        A=[0.35 * rng.standard_normal((n, n)) for _ in range(nQ)],
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )
    sel = find_selection(model)
    words = all_words(nQ, 4)
    mm = true_markov_map(model, set(words) | required_words(sel, nQ))
    rr = realize(build_hankels(mm, sel), mm[()])
    rt = markov_roundtrip(rr, words)
    for w in words:
        npt.assert_allclose(rt[w], mm[w], atol=1e-9, err_msg=str(w))


def test_realize_passthrough_on_identity_hankel():
    X1 = np.array([[0.1, 0.2], [0.3, 0.4]])
    X2 = np.array([[0.5, 0.0], [0.0, 0.6]])
    hs = HankelSet(
        H_ab=np.eye(2),
        H_aqb=[X1, X2],
        H_aq=[np.array([[1.0], [0.0]]), np.array([[0.0], [2.0]])],
        H_b=np.array([1.0, 1.0]),
    )
    rr = realize(hs, np.array([0.5]))
    npt.assert_array_equal(rr.Abar[0], X1)
    npt.assert_array_equal(rr.Abar[1], X2)
    npt.assert_array_equal(rr.Bbar[1], [[0.0], [2.0]])
    npt.assert_array_equal(rr.Dbar, [0.5])
    assert rr.sigma_n == 1.0


def test_realize_refuses_singular():
    hs = HankelSet(
        H_ab=np.array([[1.0, 0.0], [0.0, 0.0]]),
        H_aqb=[np.eye(2)],
        H_aq=[np.ones((2, 1))],
        H_b=np.ones(2),
    )
    with pytest.raises(SingularHankelError):
        realize(hs, np.zeros(1))


def test_realize_refuses_a_table_whose_singular_values_are_nan(bench):
    # An infinite Markov estimate in H_ab makes its SVD read NaN, which
    # compares false against any threshold: it must still read singular.
    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    mm[(2,)] = np.array([np.inf])
    hs = build_hankels(mm, BENCH_SEL)
    assert np.isnan(np.linalg.svd(hs.H_ab, compute_uv=False)).all()
    with pytest.raises(SingularHankelError, match="sigma_min/sigma_max = nan/nan"):
        realize(hs, mm[()])
    assert hokalman._singular(np.array([1.0, np.nan]))


@pytest.mark.parametrize(
    "word, block",
    [
        # Only H_aqb for mode 1 reads this word: realize returned a NaN Abar[0].
        ((2, 1, 1, 1), "H_aqb[1]"),
        # H_ab reads this one: LAPACK's SVD raised LinAlgError.
        ((2, 1, 1), "H_ab"),
    ],
)
def test_realize_refuses_a_non_finite_table_by_its_block(bench, word, block):
    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    mm[word] = np.array([np.nan])
    with pytest.raises(ValueError) as exc:
        realize(build_hankels(mm, BENCH_SEL), mm[()])
    assert str(exc.value) == f"the Hankel block {block} has an entry that is not finite"


def test_scalar_single_mode_realization():
    model = LssModel(
        n=1, m=1, nQ=1,
        A=[np.array([[0.5]])], B=[np.array([[2.0]])],
        C=np.array([3.0]), D=np.array([0.25]),
    )
    sel = Selection(alpha=((),), beta=(((), 1, 1),))
    mm = true_markov_map(model, required_words(sel, 1))
    rr = realize(build_hankels(mm, sel), mm[()])
    # H_ab = [CB] = [6]; A = CAB / CB = 0.5 recovers the pole exactly.
    npt.assert_allclose(rr.Abar[0], [[0.5]], atol=1e-14)
    assert rr.sigma_n == pytest.approx(6.0)


def test_est_err_zero_for_identical(bench):
    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    rr = realize(build_hankels(mm, BENCH_SEL), mm[()])
    assert est_err(rr, rr) == 0.0


def test_est_err_sees_single_entry(bench):
    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    rr1 = realize(build_hankels(mm, BENCH_SEL), mm[()])
    rr2 = realize(build_hankels(mm, BENCH_SEL), mm[()])
    rr2.Abar[1] = rr2.Abar[1].copy()
    rr2.Abar[1][0, 0] += 0.5
    assert est_err(rr1, rr2) == pytest.approx(0.5)
    rr3 = realize(build_hankels(mm, BENCH_SEL), mm[()])
    rr3.Cbar = rr3.Cbar + np.array([0.3, 0.4])
    assert est_err(rr1, rr3) == pytest.approx(0.5)


@pytest.mark.parametrize("field", ["Abar", "Bbar", "Cbar"])
def test_est_err_propagates_nan(bench, field):
    # A NaN in any realized matrix must not score as a clean realization:
    # Python's max(worst, nan) keeps worst.
    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    rr = realize(build_hankels(mm, BENCH_SEL), mm[()])
    bad = realize(build_hankels(mm, BENCH_SEL), mm[()])
    if field == "Cbar":
        bad.Cbar = np.array([bad.Cbar[0], np.nan])
    else:
        mats = getattr(bad, field)
        mats[0] = mats[0].copy()
        mats[0].flat[-1] = np.nan
    assert np.isnan(est_err(bad, rr))
    assert np.isnan(est_err(rr, bad))


def test_est_err_shape_mismatch():
    mk = lambda n: RealizationResult_like(n)
    with pytest.raises(ValueError):
        est_err(mk(2), mk(3))


def RealizationResult_like(n):
    return RealizationResult(
        Abar=[np.eye(n)], Bbar=[np.ones((n, 1))], Cbar=np.ones(n), Dbar=np.zeros(1), sigma_n=1.0
    )


def exhaustive_selection_rows(model):
    """Row words of the best-conditioned n x n Hankel submatrix.

    Scores every pair of n-subsets of candidate rows and columns, so it
    is only viable at n = 2; it serves as the oracle for the greedy
    search of :func:`find_selection`.
    """
    n = model.n
    rows = [()] + [
        w for k in range(1, n) for w in itertools.product(range(1, model.nQ + 1), repeat=k)
    ]
    cols = [
        (mu, q, l) for mu in rows for q in range(1, model.nQ + 1) for l in range(1, model.m + 1)
    ]
    O = np.array([observability_row(model, eta) for eta in rows])
    R = np.array([reachability_col(model, mu, q, l) for mu, q, l in cols]).T
    full = O @ R
    best, best_val = None, -1.0
    for I in itertools.combinations(range(len(rows)), n):
        for J in itertools.combinations(range(len(cols)), n):
            val = np.linalg.svd(full[np.ix_(I, J)], compute_uv=False)[-1]
            if val > best_val:
                best, best_val = I, val
    return {rows[i] for i in best}


def test_find_selection_benchmark_matches_known_best(bench):
    # Greedy lands on the same row/column words as the fixed selection
    # (column order aside) and its sigma_n can only be at least as good.
    model, _ = bench
    sel = find_selection(model)
    assert set(sel.alpha) == {(), (1,)}
    assert set(sel.beta) == {((), 2, 1), ((1,), 2, 1)}
    assert set(sel.alpha) == exhaustive_selection_rows(model)


def greedy_selection_loop(model):
    """Greedy selection scored one candidate pair at a time: the oracle
    for the batched scoring of :func:`find_selection`."""
    n = model.n
    rows = _candidate_rows(model)
    cols = [
        (mu, q, l)
        for mu in rows
        for q in range(1, model.nQ + 1)
        for l in range(1, model.m + 1)
    ]
    O = np.array([model.C @ a_word(model, eta) for eta in rows])
    R = np.array([(a_word(model, mu) @ model.B[q - 1])[:, l - 1] for mu, q, l in cols]).T
    full = O @ R

    def score(I, J):
        s = np.linalg.svd(full[np.ix_(I, J)], compute_uv=False)
        return s[-1]

    I, J = [], []
    for _ in range(n):
        best, best_val = None, -1.0
        for r in range(len(rows)):
            if r in I:
                continue
            for c in range(len(cols)):
                if c in J:
                    continue
                val = score(I + [r], J + [c])
                if val > best_val:
                    best, best_val = (r, c), val
        I.append(best[0])
        J.append(best[1])
    return Selection(
        alpha=tuple(rows[r] for r in I),
        beta=tuple(cols[c] for c in J),
    )


def seeded_model(n, nQ, m, seed):
    rng = np.random.default_rng([seed, n, nQ, m])
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(0.8 * G / np.linalg.norm(G, 2))
    return LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )


def certifiable_model(n, nQ, seed):
    """seeded_model(n, nQ, 1, seed) scaled to ||A_q||_2 = 0.9 / nQ, with
    uniform modes: P = I certifies gamma = 0.9."""
    model = seeded_model(n, nQ, 1, seed)
    model.A = [Aq * (0.9 / nQ / np.linalg.norm(Aq, 2)) for Aq in model.A]
    return model, SwitchingDistribution(np.full(nQ, 1.0 / nQ))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nQ", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_find_selection_matches_greedy_loop(n, nQ, m):
    # Same rows and columns in the same order, so the selection file and
    # every Hankel block built from it are unchanged.
    model = seeded_model(n, nQ, m, seed=11)
    sel, expect = find_selection(model), greedy_selection_loop(model)
    assert sel.alpha == expect.alpha
    assert sel.beta == expect.beta


@pytest.mark.parametrize("gamma", [0.1, 0.4, 0.6])
def test_find_selection_matches_greedy_loop_on_benchmark(gamma):
    model, _ = two_mode_benchmark(gamma)
    sel, expect = find_selection(model), greedy_selection_loop(model)
    assert (sel.alpha, sel.beta) == (expect.alpha, expect.beta)


def test_find_selection_ties_keep_the_earliest_candidate():
    # Two identical modes: every word through mode 2 scores exactly like
    # its mode-1 twin, so only mode-1 words and columns may be picked.
    base = seeded_model(3, 1, 1, seed=5)
    model = LssModel(
        n=3, m=1, nQ=2, A=[base.A[0]] * 2, B=[base.B[0]] * 2, C=base.C, D=base.D
    )
    sel, expect = find_selection(model), greedy_selection_loop(model)
    assert (sel.alpha, sel.beta) == (expect.alpha, expect.beta)
    assert all(2 not in w for w in sel.alpha)
    assert all(q == 1 and 2 not in mu for mu, q, _ in sel.beta)


def integer_model(n, nQ, m, seed):
    """Entries in {-1, 0, 1}: many candidate submatrices score exactly
    alike, so ties decide most greedy steps."""
    rng = np.random.default_rng([seed, n, nQ, m, 7])
    return LssModel(
        n=n, m=m, nQ=nQ,
        A=[rng.integers(-1, 2, (n, n)).astype(float) for _ in range(nQ)],
        B=[rng.integers(-1, 2, (n, m)).astype(float) for _ in range(nQ)],
        C=rng.integers(-1, 2, n).astype(float),
        D=np.zeros(m),
    )


def selection_or_refusal(model):
    try:
        sel = find_selection(model)
    except SelectionRankError:
        return "refused"
    return sel.alpha, sel.beta


def greedy_loop_or_refusal(model):
    """The loop's pick, or "refused" where find_selection's rank check
    would refuse that pick."""
    sel = greedy_selection_loop(model)
    O = np.array([observability_row(model, eta) for eta in sel.alpha])
    R = np.array([reachability_col(model, mu, q, l) for mu, q, l in sel.beta]).T
    if hokalman._singular(np.linalg.svd(O @ R, compute_uv=False)):
        return "refused"
    return sel.alpha, sel.beta


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, nQ, m", [(2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1)])
def test_find_selection_matches_greedy_loop_on_integer_models(n, nQ, m, seed):
    model = integer_model(n, nQ, m, seed)
    assert selection_or_refusal(model) == greedy_loop_or_refusal(model)


def test_find_selection_matches_greedy_loop_at_n5():
    model = seeded_model(5, 2, 1, seed=11)
    sel, expect = find_selection(model), greedy_selection_loop(model)
    assert (sel.alpha, sel.beta) == (expect.alpha, expect.beta)


def test_find_selection_scores_few_candidates_exactly(monkeypatch):
    # Every square SVD inside find_selection is an exact score; the last
    # step's scores also judge the pick's rank.  Scoring every free pair,
    # as a full scan does, would count all the candidates.
    model = seeded_model(4, 3, 1, seed=11)
    n_rows = len(_candidate_rows(model))
    n_cols = n_rows * model.nQ * model.m
    candidates = sum((n_rows - k) * (n_cols - k) for k in range(model.n))
    scored = 0
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        nonlocal scored
        a = np.asarray(a)
        if a.shape[-1] == a.shape[-2]:
            scored += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(hokalman.np.linalg, "svd", counting_svd)
    sel = find_selection(model)
    monkeypatch.undo()
    expect = greedy_selection_loop(model)
    assert (sel.alpha, sel.beta) == (expect.alpha, expect.beta)
    assert 0 < scored < 0.1 * candidates


def test_find_selection_bounds_need_no_svd(monkeypatch):
    # The row and column norms are the only bounds: every SVD is on square
    # k x k matrices, the exact scores.
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(hokalman.np.linalg, "svd", recording_svd)
    find_selection(seeded_model(4, 3, 1, seed=11))
    assert shapes and all(rows == cols for rows, cols in shapes), shapes


def test_find_selection_refuses_overflowing_products():
    # Words of length 2 give C A^2 B ~ 1e400: the candidate matrix is not
    # finite, and the refusal names why instead of LAPACK failing.
    model = LssModel(
        n=3, m=1, nQ=2,
        A=[1e200 * np.eye(3), 0.5 * np.eye(3)],
        B=[np.ones((3, 1))] * 2,
        C=np.ones(3),
        D=np.zeros(1),
    )
    with pytest.raises(SelectionRankError, match="products overflow; the model is far from stable"):
        find_selection(model)


def test_find_selection_lti():
    # Single mode, observable and reachable chain of dimension 2.
    model = LssModel(
        n=2, m=1, nQ=1,
        A=[np.array([[0.0, 1.0], [-0.1, 0.7]])],
        B=[np.array([[0.0], [1.0]])],
        C=np.array([1.0, 0.0]),
        D=np.array([0.0]),
    )
    sel = find_selection(model)
    mm = true_markov_map(model, required_words(sel, 1))
    rr = realize(build_hankels(mm, sel), mm[()])
    words = all_words(1, 5)
    mm_all = true_markov_map(model, words)
    rt = markov_roundtrip(rr, words)
    for w in words:
        npt.assert_allclose(rt[w], mm_all[w], atol=1e-10, err_msg=str(w))


def test_find_selection_refuses_rank_deficient():
    # Unobservable: C = 0 kills every Markov parameter.
    model = LssModel(
        n=2, m=1, nQ=2,
        A=[np.eye(2) * 0.5, np.eye(2) * 0.25],
        B=[np.ones((2, 1)), np.ones((2, 1))],
        C=np.zeros(2),
        D=np.zeros(1),
    )
    with pytest.raises(SelectionRankError):
        find_selection(model)


def test_selection_validation():
    with pytest.raises(ValueError):
        Selection(alpha=(), beta=())
    with pytest.raises(ValueError):
        Selection(alpha=((1, 1),), beta=(((), 1, 1),))  # word longer than n - 1
    with pytest.raises(ValueError):
        Selection(alpha=((), ()), beta=(((), 1, 1),))  # count mismatch
    with pytest.raises(ValueError):
        Selection(alpha=((),), beta=(((), 0, 1),))  # modes are 1-based


def test_build_hankels_missing_word(bench):
    model, _ = bench
    mm = true_markov_map(model, [(), (2,)])
    with pytest.raises(KeyError):
        build_hankels(mm, BENCH_SEL)


def test_selection_json_roundtrip(tmp_path, bench):
    model, _ = bench
    path = tmp_path / "sel.json"
    save_selection(str(path), BENCH_SEL)
    sel2 = load_selection(str(path), model)
    assert sel2.alpha == BENCH_SEL.alpha
    assert sel2.beta == BENCH_SEL.beta


def test_save_realization_contents(tmp_path, bench):
    import json

    model, _ = bench
    mm = true_markov_map(model, required_words(BENCH_SEL, 2))
    rr = realize(build_hankels(mm, BENCH_SEL), mm[()])
    path = tmp_path / "real.json"
    save_realization(str(path), rr, BENCH_SEL)
    doc = json.loads(path.read_text())
    assert doc["n"] == 2 and doc["nQ"] == 2
    assert doc["selection"]["alpha"] == ["", "1"]
    assert doc["sigma_n"] == pytest.approx(rr.sigma_n)


def test_identify_sample_is_estimation_then_realization(bench, bench_signal):
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=5000, seed=7))
    words = required_words(BENCH_SEL, model.nQ)
    sigma_u = bench_signal.sigma_u(model.m)
    mm, rr = identify_sample(sample, BENCH_SEL, sigma_u, dist)
    mm_expect = empirical_markov_batch(sample, words, sigma_u, dist)
    rr_expect = realize(build_hankels(mm_expect, BENCH_SEL), mm_expect[()])
    assert mm.keys() == mm_expect.keys()
    assert all(mm[w].tobytes() == mm_expect[w].tobytes() for w in words)
    got = [*rr.Abar, *rr.Bbar, rr.Cbar, rr.Dbar]
    expect = [*rr_expect.Abar, *rr_expect.Bbar, rr_expect.Cbar, rr_expect.Dbar]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]
    assert rr.sigma_n == rr_expect.sigma_n


def test_identify_sample_refuses_a_sample_without_input(bench, rng):
    # With u = 0 every estimate is zero, so the estimated H_ab is too.
    model, dist = bench
    N = 400
    sample = SampleSet(
        y=rng.standard_normal(N + 1), u=np.zeros(N + 1), q=rng.integers(1, 3, N + 1)
    )
    words = required_words(BENCH_SEL, model.nQ)
    mm = empirical_markov_batch(sample, words, np.eye(1), dist)
    assert all(not mm[w].any() for w in words)
    # The inputs contradict Sigma_u = I, which is refused before realize
    # could find the zero H_ab singular.
    with pytest.raises(ValueError, match=r"^input covariance does not match the trajectory: "
                       r"Sigma_u = \[\[1\.\]\] but the inputs give \[\[0\.\]\]"):
        identify_sample(sample, BENCH_SEL, np.eye(1), dist)


def test_identify_sample_refuses_a_law_the_trajectory_contradicts(bench, bench_signal):
    # Read against the wrong law, this run gives est_err 0.75 (Sigma_u four
    # times too large) or 0.58 (p = (0.8, 0.2)) instead of 0.11.
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=10_000, seed=1))
    sigma_u = bench_signal.sigma_u(model.m)
    identify_sample(sample, BENCH_SEL, sigma_u, dist)
    with pytest.raises(ValueError, match=r"^input covariance does not match the trajectory: "
                       r"Sigma_u = \[\[0\.8533\]\] but the inputs give"):
        identify_sample(sample, BENCH_SEL, 4 * sigma_u, dist)
    skewed = SwitchingDistribution(np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match=r"^mode law does not match the trajectory: "
                       r"p = \[0\.8 0\.2\] but the mode labels occur with frequencies"):
        identify_sample(sample, BENCH_SEL, sigma_u, skewed)


def test_a_sigma_u_of_another_width_is_refused(bench, rng):
    # Two input columns against a 1x1 Sigma_u used to end in numpy's
    # "solve: Input operand 1 has a mismatch in its core dimension 0".
    _, dist = bench
    N = 400
    sample = SampleSet(
        y=rng.standard_normal(N + 1), u=rng.uniform(-1.0, 1.0, (N + 1, 2)),
        q=rng.integers(1, 3, N + 1),
    )
    says = r"^the trajectory has 2 input columns, but Sigma_u is 1x1$"
    with pytest.raises(ValueError, match=says):
        empirical_markov_batch(sample, required_words(BENCH_SEL, 2), np.eye(1), dist)
    with pytest.raises(ValueError, match=says):
        identify_sample(sample, BENCH_SEL, np.eye(1), dist)


@pytest.mark.parametrize(
    "sigma_u", [np.float64(0.2133), [0.2133], np.ones((1, 2))], ids=["0-d", "1-d", "1x2"]
)
def test_a_sigma_u_that_is_not_a_square_matrix_is_refused_by_name(bench, bench_signal, sigma_u):
    # A 0-d Sigma_u used to end in "TypeError: object of type
    # 'numpy.float64' has no len()", before any check named it.
    model, dist = bench
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=300, seed=1))
    says = f"Sigma_u must be a square 2-D array, not of shape {np.shape(sigma_u)}"
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        identify_sample(sample, BENCH_SEL, sigma_u, dist)


@pytest.mark.parametrize(
    "beta, alpha, says",
    [
        ((((), 2, 2), ((1,), 2, 1)), BENCH_SEL.alpha, "beta: channel 2 outside 1..1"),
        (BENCH_SEL.beta, ((), (3,)), "alpha: mode 3 outside 1..2"),
    ],
    ids=["channel", "mode"],
)
def test_a_selection_that_does_not_fit_is_refused_by_its_users(
    bench, bench_signal, beta, alpha, says
):
    # The channel used to end in "IndexError: index 1 is out of bounds" in
    # both; the mode in the letter wording of a_word or the estimator.
    model, dist = bench
    sel = Selection(alpha=alpha, beta=beta)
    sample = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=1000, seed=1))
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        true_realization(model, sel)
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
        identify_sample(sample, sel, bench_signal.sigma_u(model.m), dist)
    rows = Selection(alpha=((), (1,), (2,)), beta=(((), 2, 1), ((1,), 2, 1), ((2,), 2, 1)))
    with pytest.raises(ValueError, match=r"^alpha: 3 rows, the model has n = 2$"):
        true_realization(model, rows)


def test_only_hokalman_calls_the_identification_stages():
    # estimate_group, realize_markov and true_realization hold the one copy
    # of the estimate and truth chains, and estimate_group the one
    # consistency check of a trajectory against its law; another module
    # calling these stages has written a chain or the check out again.  A
    # module may call its own stages: markov's single-trajectory estimator
    # is its group estimator's group of one.
    stages = {
        "build_hankels", "realize", "empirical_markov_batch", "empirical_markov_group",
        "_check_sample_law",
    }
    calls = []
    for path in sorted(pathlib.Path(switchid.__file__).parent.glob("*.py")):
        if path.stem == "hokalman":
            continue
        tree = ast.parse(path.read_text(), str(path))
        own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in stages - own:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


# A group: the samples of one simulate_group, which share u and q and are
# estimated in one pass.


def family_group(signal, N, seed=3):
    return [SimConfig(*two_mode_benchmark(g), signal, N=N, seed=seed) for g in (0.1, 0.4, 0.6)]


def own_A_and_C_group(signal, N):
    # n = 4, nQ = 3, m = 2: the models share B and D and draw their own A and C.
    rng = np.random.default_rng(N)
    first = scan_model(rng)
    models = [first] + [group_model(rng, B=first.B, D=first.D) for _ in range(2)]
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    return [SimConfig(model, dist, signal, N=N, seed=5) for model in models]


@pytest.mark.parametrize("N", [1_000, 10_000])
@pytest.mark.parametrize("group", [family_group, own_A_and_C_group])
def test_a_group_estimates_and_realizes_each_member_as_it_alone_is(bench_signal, group, N):
    cfgs = group(bench_signal, N)
    model, dist = cfgs[0].model, cfgs[0].dist
    sel = find_selection(model)
    sigma_u = bench_signal.sigma_u(model.m)
    words = required_words(sel, dist.nQ)
    samples = simulate_module.simulate_group(cfgs)
    tables = markov.empirical_markov_group(samples, words, sigma_u, dist)
    mmaps = hokalman.estimate_group(samples, sel, sigma_u, dist)
    assert len(tables) == len(mmaps) == len(cfgs)
    for cfg, table, mmap in zip(cfgs, tables, mmaps):
        alone = simulate(cfg)
        expect = empirical_markov_batch(alone, words, sigma_u, dist)
        mm, rr = identify_sample(alone, sel, sigma_u, dist)
        assert table.keys() == mmap.keys() == expect.keys() == mm.keys()
        for w in words:
            assert table[w].tobytes() == mmap[w].tobytes() == expect[w].tobytes() == mm[w].tobytes()
        got = hokalman.realize_markov(mmap, sel)
        for name in ("Abar", "Bbar", "Cbar", "Dbar", "sigma_n"):
            assert np.array(getattr(got, name)).tobytes() == np.array(getattr(rr, name)).tobytes()


def test_a_group_refuses_a_sample_that_does_not_share_u_and_q(bench_signal):
    cfgs = family_group(bench_signal, 300)
    model, dist = cfgs[0].model, cfgs[0].dist
    sigma_u = bench_signal.sigma_u(model.m)
    samples = simulate_module.simulate_group(cfgs)
    first = samples[0]
    own_u = SampleSet(y=samples[1].y, u=first.u.copy(), q=first.q)
    for i, other in [(1, own_u), (2, simulate(cfgs[2]))]:
        group = samples[:i] + [other] + samples[i + 1 :]
        says = (
            f"sample {i} does not share the u and q arrays of sample 0; the samples of a "
            "group read one input and mode sequence"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            markov.empirical_markov_group(group, required_words(BENCH_SEL, 2), sigma_u, dist)
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            hokalman.estimate_group(group, BENCH_SEL, sigma_u, dist)


def test_a_group_names_its_first_member_whose_estimate_overflows(bench_signal):
    # y(500) = 1e308 makes the empty word's estimate overflow; members 1
    # and 2 both overflow, and the first is named, as it alone would be.
    cfgs = family_group(bench_signal, 2_000, seed=1)
    model, dist = cfgs[0].model, cfgs[0].dist
    sigma_u = bench_signal.sigma_u(model.m)
    words = required_words(BENCH_SEL, model.nQ)
    samples = simulate_module.simulate_group(cfgs)
    for sample in samples[1:]:
        sample.y = sample.y.copy()
        sample.y[500] = 1e308
    with pytest.raises(ValueError) as alone:
        empirical_markov_batch(samples[1], words, sigma_u, dist)
    assert str(alone.value).startswith("the Markov estimate of word () is not finite")
    says = f"^{re.escape(f'sample 1: {alone.value}')}$"
    with pytest.raises(ValueError, match=says):
        markov.empirical_markov_group(samples, words, sigma_u, dist)
    with pytest.raises(ValueError, match=says):
        hokalman.estimate_group(samples, BENCH_SEL, sigma_u, dist)
