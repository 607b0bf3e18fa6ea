"""Reduced-basis Ho-Kalman realization.

The full switched Hankel matrix has one row per mode word and grows
exponentially with word length.  A rank-n principal structure always
exists for a minimal system, so instead of the full matrix we work with
an n-row selection alpha = {eta_1, ..., eta_n} (words tagging rows) and
an n-column selection beta = {(mu_j, q_j, l_j)} (word, mode, input
channel triples tagging columns).  Four small blocks built from Markov
parameters then determine the system matrices up to similarity:

    H_ab[i, j]     = M_{(q_j) mu_j eta_i}[l_j]            (n x n)
    H_aqb[q][i, j] = M_{(q_j) mu_j (q) eta_i}[l_j]        (n x n per mode)
    H_aq[q][i, :]  = M_{(q) eta_i}                        (n x m per mode)
    H_b[j]         = M_{(q_j) mu_j}[l_j]                  (n,)

and the realization is A_q = H_ab^{-1} H_aqb[q], B_q = H_ab^{-1} H_aq[q],
C = H_b, D = M_epsilon.  Words concatenate input-side first, so the
entry of H_ab factors as (C A_{eta_i}) (A_{mu_j} B_{q_j} e_{l_j}): rows
are observability functionals, columns are reachability vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LssModel, SwitchingDistribution, Word, a_word, check_integer, check_list, model_to_dict,
    read_json, str_to_word, word_to_str, write_json,
)
from .markov import empirical_markov_group, true_markov_map
from .simulate import SampleSet

SINGULAR_RTOL = 1e-10


def _singular(s: np.ndarray) -> bool:
    """Whether singular values s (descending) mark a numerically singular
    matrix: the smallest at most SINGULAR_RTOL times the largest, or NaN."""
    return not s[-1] > SINGULAR_RTOL * max(s[0], 1e-300)


class SingularHankelError(RuntimeError):
    """H_ab is numerically singular; no realization is attempted."""


class SelectionRankError(RuntimeError):
    """No rank-n selection was found; the model looks non-minimal."""


@dataclass
class Selection:
    """An n-row and n-column selection indexing the Hankel blocks.

    ``alpha`` holds n row words of length <= n - 1; ``beta`` holds n
    column triples (mu, q, l) with the same length bound on mu, a mode
    q and a 1-based input channel l.
    """

    alpha: tuple[Word, ...]
    beta: tuple[tuple[Word, int, int], ...]

    def __post_init__(self):
        self.alpha = tuple(tuple(w) for w in self.alpha)
        self.beta = tuple(
            (tuple(mu), check_integer(f"beta[{j}][1]", q), check_integer(f"beta[{j}][2]", l))
            for j, (mu, q, l) in enumerate(self.beta)
        )
        n = len(self.alpha)
        if n == 0 or len(self.beta) != n:
            raise ValueError("selection needs equally many rows and columns, at least one")
        for w in self.alpha:
            if len(w) > n - 1:
                raise ValueError(f"row word {w} longer than n - 1 = {n - 1}")
        for mu, q, l in self.beta:
            if len(mu) > n - 1:
                raise ValueError(f"column word {mu} longer than n - 1 = {n - 1}")
            if q < 1 or l < 1:
                raise ValueError("column mode and channel are 1-based")

    @property
    def n(self) -> int:
        return len(self.alpha)

    def check_fit(self, n: int, nQ: int, m: int) -> None:
        """Refuse a selection that does not index the Hankel blocks of a
        model with n states, nQ modes and m inputs: n rows, modes in
        1..nQ, channels in 1..m; the first rule broken is named."""
        if self.n != n:
            raise ValueError(f"alpha: {self.n} rows, the model has n = {n}")
        for name, words in [("alpha", self.alpha), ("beta", [(q,) + mu for mu, q, _ in self.beta])]:
            bad = [q for w in words for q in w if not 1 <= q <= nQ]
            if bad:
                raise ValueError(f"{name}: mode {bad[0]} outside 1..{nQ}")
        bad = [l for _, _, l in self.beta if l > m]
        if bad:
            raise ValueError(f"beta: channel {bad[0]} outside 1..{m}")


@dataclass
class HankelSet:
    """The four Hankel blocks for one selection."""

    H_ab: np.ndarray
    H_aqb: list[np.ndarray]
    H_aq: list[np.ndarray]
    H_b: np.ndarray


@dataclass
class RealizationResult:
    """System matrices recovered from Hankel blocks, up to similarity."""

    Abar: list[np.ndarray]
    Bbar: list[np.ndarray]
    Cbar: np.ndarray
    Dbar: np.ndarray
    sigma_n: float

    def as_model(self) -> LssModel:
        """Package the realized matrices as a system model."""
        n = self.Abar[0].shape[0]
        m = self.Bbar[0].shape[1]
        return LssModel(
            n=n, m=m, nQ=len(self.Abar), A=self.Abar, B=self.Bbar, C=self.Cbar, D=self.Dbar
        )


def required_words(sel: Selection, nQ: int) -> set[Word]:
    """Every word indexing an entry of the four Hankel blocks, plus epsilon.

    The count is at most n^2 (nQ + 1) + nQ n + n + 1 before duplicates
    collapse; the set form is what estimation actually has to pay for.
    """
    words: set[Word] = {()}
    cols = [(q,) + mu for mu, q, _ in sel.beta]
    for cw in cols:
        words.add(cw)
        for eta in sel.alpha:
            words.add(cw + eta)
            for q in range(1, nQ + 1):
                words.add(cw + (q,) + eta)
    for q in range(1, nQ + 1):
        for eta in sel.alpha:
            words.add((q,) + eta)
    return words


def build_hankels(mmap: dict[Word, np.ndarray], sel: Selection) -> HankelSet:
    """Fill the four Hankel blocks from a Markov parameter table.

    Missing words raise KeyError; use :func:`required_words` to know what
    the table must contain.
    """
    nQ = max((max(w) for w in mmap if w), default=1)
    nQ = max(nQ, max(q for _, q, _ in sel.beta))

    cols = [((q,) + mu, l) for mu, q, l in sel.beta]

    def block(mid: Word) -> np.ndarray:
        # Entry (i, j) is channel l_j of the word (q_j) mu_j mid eta_i.
        rows = [[mmap[cw + mid + eta][l - 1] for cw, l in cols] for eta in sel.alpha]
        return np.array(rows, dtype=float)

    modes = range(1, nQ + 1)
    H_ab = block(())
    H_aqb = [block((q,)) for q in modes]
    H_aq = [
        np.array([np.atleast_1d(mmap[(q,) + eta]) for eta in sel.alpha], dtype=float)
        for q in modes
    ]
    H_b = np.array([mmap[cw][l - 1] for cw, l in cols], dtype=float)
    return HankelSet(H_ab=H_ab, H_aqb=H_aqb, H_aq=H_aq, H_b=H_b)


def _candidate_rows(model: LssModel) -> list[Word]:
    words = [()]
    for k in range(1, model.n):
        words += [w for w in itertools.product(range(1, model.nQ + 1), repeat=k)]
    return words


# Candidates scored exactly by one batched SVD call.
SCORE_CHUNK = 64


def _best_pair(
    full: np.ndarray, I: list[int], J: list[int], allowance: float
) -> tuple[int, int, np.ndarray]:
    """One greedy step: the free (row, column) pair (r, c) maximizing the
    smallest singular value of full[I + [r], J + [c]], the earliest such
    pair in (row, column) order, and that matrix's singular values; see
    :func:`find_selection`."""
    k = len(I) + 1
    free_rows = np.setdiff1d(np.arange(full.shape[0]), I)
    free_cols = np.setdiff1d(np.arange(full.shape[1]), J)
    S = full[np.ix_(I, J)]
    new_row = full[np.ix_(free_rows, J)]
    new_col = full[np.ix_(I, free_cols)].T
    corner = full[np.ix_(free_rows, free_cols)]
    # Upper bounds on sigma_k of M = [[S, new_col], [new_row, corner]]:
    # the norm of its last row and of its last column.
    bound = np.minimum(
        np.hypot(np.hypot.reduce(new_row, axis=1)[:, None], corner),
        np.hypot(np.hypot.reduce(new_col, axis=1), corner),
    )

    # Score in descending bound order until no unscored bound comes within
    # the allowance of the best score.  Flat indices run in (row, column)
    # order.
    bound = bound.ravel()
    order = np.argsort(-bound)
    scored, svals, vals, best = [], [], [], -np.inf
    for start in range(0, len(order), SCORE_CHUNK):
        if bound[order[start]] < best - allowance:
            break
        idx = order[start : start + SCORE_CHUNK]
        i, j = np.divmod(idx, len(free_cols))
        stack = np.empty((len(idx), k, k))
        stack[:, :-1, :-1] = S
        stack[:, :-1, -1] = new_col[j]
        stack[:, -1, :-1] = new_row[i]
        stack[:, -1, -1] = corner[i, j]
        sv = np.linalg.svd(stack, compute_uv=False)
        v = np.where(np.isnan(sv[:, -1]), -np.inf, sv[:, -1])
        best = max(best, v.max())
        scored.append(idx)
        svals.append(sv)
        vals.append(v)
    scored, vals = np.concatenate(scored), np.concatenate(vals)
    tied = np.flatnonzero(vals == best)
    win = tied[np.argmin(scored[tied])]
    i, j = divmod(int(scored[win]), len(free_cols))
    return int(free_rows[i]), int(free_cols[j]), np.concatenate(svals)[win]


def find_selection(model: LssModel) -> Selection:
    """Search for a selection making H_ab as well conditioned as possible.

    Candidate rows are all words of length <= n - 1; candidate columns
    pair those words with a mode and an input channel.  The greedy
    strategy grows the square submatrix one row/column pair at a time,
    each step picking the pair that maximizes the smallest singular
    value; candidates are ordered by word length then lexicographically,
    and ties keep the earliest candidate, so the result is deterministic.

    Each step is a branch-and-bound that picks exactly what scoring every
    free pair would.  With S the (k-1) x (k-1) part already chosen, the
    k x k matrix M of candidate (r, c) adds row r and column c to S, and
    sigma_k(M) is at most the norm of M's new row and the norm of its new
    column.  Candidates are scored exactly in descending bound order,
    SCORE_CHUNK at a time, each M laid out chosen rows and columns first
    and the new ones last, until the next bound falls below the best
    score by more than the allowance 16 k^2 eps max|H|, where H is the
    full candidate matrix.  Rounding in an SVD scales with
    ||M|| <= k max|H|, not with the score, so the allowance is absolute.
    The pick is the earliest maximum over the scored candidates in
    (row, column) order, with NaN never winning.  The last step's
    singular values of the pick, in that same layout, judge its rank.

    Raises
    ------
    SelectionRankError
        If no candidate combination reaches rank n, or the products
        forming the candidate matrix overflow.  For a system that is
        span-reachable and observable a rank-n selection exists.
    """
    n = model.n
    rows = _candidate_rows(model)
    cols = [
        (mu, q, l)
        for mu in rows
        for q in range(1, model.nQ + 1)
        for l in range(1, model.m + 1)
    ]
    # Row eta is the functional C A_eta, column (mu, q, l) the state vector
    # (A_mu B_q)[:, l]; H_ab is a submatrix of their product.
    with np.errstate(over="ignore", invalid="ignore"):
        A_w = {w: a_word(model, w) for w in rows}
        O = np.array([model.C @ A_w[eta] for eta in rows])
        R = np.array([(A_w[mu] @ model.B[q - 1])[:, l - 1] for mu, q, l in cols]).T
        full = O @ R
    if not np.isfinite(full).all():
        raise SelectionRankError(
            "observability/reachability products overflow; the model is far from stable"
        )

    ulp = np.finfo(float).eps * np.abs(full).max()
    I, J = [], []
    for k in range(1, n + 1):
        r, c, s = _best_pair(full, I, J, 16 * k * k * ulp)
        I.append(r)
        J.append(c)
    if _singular(s):
        raise SelectionRankError(
            f"no rank-{n} selection found (best sigma_min {s[-1]:.3e}); "
            "the model does not look minimal"
        )
    return Selection(
        alpha=tuple(rows[r] for r in I),
        beta=tuple(cols[c] for c in J),
    )


def realize(hs: HankelSet, M_eps: np.ndarray) -> RealizationResult:
    """Solve the Hankel blocks for system matrices.

    Uses linear solves against H_ab rather than forming its inverse and
    refuses when the smallest singular value falls below 1e-10 times the
    largest, since everything downstream divides by it.  A block with a
    nan or inf entry is refused by name (ValueError): H_ab, H_aqb[q] or
    H_aq[q] for mode q = 1..nQ, or H_b.  Only an inf in H_ab is left to
    the SVD, whose NaN singular values read singular.
    """
    H_ab = np.asarray(hs.H_ab, dtype=float)
    if np.isnan(H_ab).any():  # LAPACK's SVD does not converge on it
        raise ValueError("the Hankel block H_ab has an entry that is not finite")
    s = np.linalg.svd(H_ab, compute_uv=False)
    if _singular(s):
        raise SingularHankelError(
            f"H_ab numerically singular: sigma_min/sigma_max = {s[-1]:.3e}/{s[0]:.3e}"
        )
    for name, block in [
        *((f"H_aqb[{q}]", H) for q, H in enumerate(hs.H_aqb, 1)),
        *((f"H_aq[{q}]", H) for q, H in enumerate(hs.H_aq, 1)),
        ("H_b", hs.H_b),
    ]:
        if not np.isfinite(block).all():
            raise ValueError(f"the Hankel block {name} has an entry that is not finite")
    Abar = [np.linalg.solve(H_ab, Hq) for Hq in hs.H_aqb]
    Bbar = [np.linalg.solve(H_ab, Hq) for Hq in hs.H_aq]
    Cbar = np.asarray(hs.H_b, dtype=float).copy()
    Dbar = np.asarray(M_eps, dtype=float).reshape(-1).copy()
    return RealizationResult(Abar=Abar, Bbar=Bbar, Cbar=Cbar, Dbar=Dbar, sigma_n=float(s[-1]))


def realize_markov(mmap: dict[Word, np.ndarray], sel: Selection) -> RealizationResult:
    """The realization of a Markov parameter table over the selection: its
    Hankel blocks (:func:`build_hankels`) solved by :func:`realize`, with
    D the empty word's row."""
    return realize(build_hankels(mmap, sel), mmap[()])


def true_realization(model: LssModel, sel: Selection) -> RealizationResult:
    """The realization of the model's true Markov parameters over the
    selection's required words: the reference :func:`est_err` scores an
    estimate from the same selection against.  A selection that does not
    fit the model (:meth:`Selection.check_fit`) is refused (ValueError),
    and a singular H_ab as the selection's fault."""
    sel.check_fit(model.n, model.nQ, model.m)
    try:
        return realize_markov(true_markov_map(model, required_words(sel, model.nQ)), sel)
    except SingularHankelError as exc:
        msg = f"the selection's true H_ab is singular for this model ({exc})"
        raise SingularHankelError(msg) from None


def _check_sample_law(sample: SampleSet, sigma_u: np.ndarray, p: np.ndarray) -> None:
    """Refuse an input covariance or a mode law the trajectory contradicts.

    The estimator divides by Sigma_u and by every word probability p_w,
    so a wrong one scales every Markov estimate.  For correctly stated
    uniform inputs the relative Frobenius deviation of u^T u / (N + 1)
    from Sigma_u has standard deviation about sqrt((m - 0.2) / (N + 1)),
    so the tolerance, never below 8 / sqrt(N + 1), is more than four of
    them for m <= 3.  For labels drawn from p the frequency of mode q has
    standard deviation sqrt(p_q (1 - p_q) / (N + 1)); the tolerance is
    six of them plus one count, 1 / (N + 1).  The labels must already lie
    in 1..nQ, as the estimator makes sure.
    """
    u, q = sample.u, sample.q
    sigma_hat = np.einsum("ti,tj->ij", u, u) / len(u)
    tol = max(0.25, 8.0 / np.sqrt(len(u)))
    dev = np.linalg.norm(sigma_hat - sigma_u) / np.linalg.norm(sigma_u)
    if dev > tol:
        raise ValueError(
            f"input covariance does not match the trajectory: Sigma_u = "
            f"{np.array2string(sigma_u, precision=4)} but the inputs give "
            f"{np.array2string(sigma_hat, precision=4)} (relative Frobenius "
            f"deviation {dev:.3g} > {tol:.3g})"
        )
    # Counted per mode: a quarter of np.bincount's time on long runs.
    freq = np.array([np.count_nonzero(q == c) for c in range(1, len(p) + 1)]) / len(q)
    tol = 6.0 * np.sqrt(p * (1.0 - p) / len(q)) + 1.0 / len(q)
    if np.any(np.abs(freq - p) > tol):
        raise ValueError(
            f"mode law does not match the trajectory: p = "
            f"{np.array2string(p, precision=4)} but the mode labels occur with "
            f"frequencies {np.array2string(freq, precision=4)} (tolerance "
            f"{np.array2string(tol, precision=3)})"
        )


def estimate_group(
    samples: list[SampleSet], sel: Selection, sigma_u: np.ndarray, dist: SwitchingDistribution
) -> list[dict[Word, np.ndarray]]:
    """The Markov estimates over the selection's required words
    (:func:`required_words`) of every sample of a group, which share one u
    and one q (see :func:`empirical_markov_group`): the selection's fit,
    the estimator's checks and the inputs' and labels' agreement with
    their law are checked once, and each table is the one the sample alone
    gives, bit for bit.  Each table is realized by :func:`realize_markov`,
    sample by sample, so a singular H_ab costs only its own sample.

    Refuses, in this order: a ``sigma_u`` that is not a square 2-D array
    (ValueError); a selection that does not fit nQ = dist.nQ and m, the
    order of ``sigma_u`` (ValueError, see :meth:`Selection.check_fit`;
    with no model here, n is the selection's own); what
    :func:`empirical_markov_group` refuses, first a sample that does not
    share the first one's u and q, then a ``sigma_u`` that is not m x m
    for the trajectory's input columns (ValueError); inputs that
    contradict ``sigma_u``, then mode labels that contradict ``dist.p``
    (ValueError, see :func:`_check_sample_law`).
    """
    shape = np.shape(sigma_u)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"Sigma_u must be a square 2-D array, not of shape {shape}")
    sel.check_fit(sel.n, dist.nQ, shape[0])
    mmaps = empirical_markov_group(samples, required_words(sel, dist.nQ), sigma_u, dist)
    _check_sample_law(samples[0], sigma_u, dist.p)
    return mmaps


def identify_sample(
    sample: SampleSet, sel: Selection, sigma_u: np.ndarray, dist: SwitchingDistribution
) -> tuple[dict[Word, np.ndarray], RealizationResult]:
    """Both stages on one trajectory: the Markov estimates over the
    selection's required words, :func:`estimate_group` of the group of
    one, and their realization (:func:`realize_markov`).

    Refuses what estimate_group refuses, then a singular estimated H_ab
    (:class:`SingularHankelError`, as :func:`realize` raises it).
    """
    mmap = estimate_group([sample], sel, sigma_u, dist)[0]
    return mmap, realize_markov(mmap, sel)


def markov_roundtrip(rr: RealizationResult, words) -> dict[Word, np.ndarray]:
    """Markov parameters of the realized model over a word set.

    Realizations recover the matrices only up to similarity, so equality
    of Markov parameters is the basis-free way to compare a realization
    with its source.
    """
    return true_markov_map(rr.as_model(), words)


def est_err(rr_hat: RealizationResult, rr_ref: RealizationResult) -> float:
    """Largest Frobenius deviation across all realized matrices.

    Both realizations must come from the same selection; the deviation
    is max over modes of ||A - A'||_F, ||B - B'||_F and ||C - C'||_F.  A
    NaN in any of them makes the deviation NaN.
    """
    if len(rr_hat.Abar) != len(rr_ref.Abar):
        raise ValueError("mode counts differ")
    # A deviation whose square overflows a float reads inf.
    with np.errstate(over="ignore"):
        norms = [float(np.linalg.norm(rr_hat.Cbar - rr_ref.Cbar))]
        for q in range(len(rr_ref.Abar)):
            if rr_hat.Abar[q].shape != rr_ref.Abar[q].shape:
                raise ValueError("A shapes differ")
            if rr_hat.Bbar[q].shape != rr_ref.Bbar[q].shape:
                raise ValueError("B shapes differ")
            norms.append(float(np.linalg.norm(rr_hat.Abar[q] - rr_ref.Abar[q])))
            norms.append(float(np.linalg.norm(rr_hat.Bbar[q] - rr_ref.Bbar[q])))
    # Python's max(1.0, nan) is 1.0, so a NaN is returned by name.
    return math.nan if any(map(math.isnan, norms)) else max(norms)


# ---------------------------------------------------------------------------
# Selection and realization files.


def selection_to_dict(sel: Selection) -> dict:
    return {
        "alpha": [word_to_str(w) for w in sel.alpha],
        "beta": [[word_to_str(mu), q, l] for mu, q, l in sel.beta],
    }


def save_selection(path: str, sel: Selection) -> None:
    write_json(path, selection_to_dict(sel))


def load_selection(path: str, model: LssModel) -> Selection:
    """Read a selection file, refusing, with the file's name, one that
    does not fit the model (:meth:`Selection.check_fit`)."""

    def parse(doc) -> Selection:
        alpha, beta = check_list("alpha", doc["alpha"]), check_list("beta", doc["beta"])
        sel = Selection(
            alpha=tuple(str_to_word(s, f"alpha[{i}]") for i, s in enumerate(alpha)),
            beta=tuple((str_to_word(w, f"beta[{j}][0]"), q, l) for j, (w, q, l) in enumerate(beta)),
        )
        sel.check_fit(model.n, model.nQ, model.m)
        return sel

    return read_json(path, parse)


def save_realization(path: str, rr: RealizationResult, sel: Selection) -> None:
    doc = model_to_dict(rr.as_model())
    doc["selection"] = selection_to_dict(sel)
    doc["sigma_n"] = rr.sigma_n
    write_json(path, doc)
