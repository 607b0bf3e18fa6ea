"""Hankel block assembly, selection search and realization."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    LssModel,
    Selection,
    SelectionRankError,
    SingularHankelError,
    build_hankels,
    est_err,
    find_selection,
    markov_roundtrip,
    realize,
    required_words,
    true_markov_map,
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


def test_selection_json_roundtrip(tmp_path):
    path = tmp_path / "sel.json"
    save_selection(str(path), BENCH_SEL)
    sel2 = load_selection(str(path))
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
