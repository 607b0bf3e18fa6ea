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
from dataclasses import dataclass

import numpy as np

from .core import (
    LssModel, Word, a_word, model_to_dict, read_json, str_to_word, word_to_str, write_json
)
from .markov import true_markov_map

SINGULAR_RTOL = 1e-10


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
        self.beta = tuple((tuple(mu), int(q), int(l)) for mu, q, l in self.beta)
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
    n = sel.n
    some_row = next(iter(mmap.values()))
    m = len(np.atleast_1d(some_row))
    nQ = max((max(w) for w in mmap if w), default=1)
    nQ = max(nQ, max(q for _, q, _ in sel.beta))

    cols = [((q,) + mu, l) for mu, q, l in sel.beta]

    H_ab = np.empty((n, n))
    for i, eta in enumerate(sel.alpha):
        for j, (cw, l) in enumerate(cols):
            H_ab[i, j] = mmap[cw + eta][l - 1]

    H_aqb = []
    for q in range(1, nQ + 1):
        Hq = np.empty((n, n))
        for i, eta in enumerate(sel.alpha):
            mid = (q,) + eta
            for j, (cw, l) in enumerate(cols):
                Hq[i, j] = mmap[cw + mid][l - 1]
        H_aqb.append(Hq)

    H_aq = []
    for q in range(1, nQ + 1):
        Hq = np.empty((n, m))
        for i, eta in enumerate(sel.alpha):
            Hq[i, :] = np.atleast_1d(mmap[(q,) + eta])
        H_aq.append(Hq)

    H_b = np.empty(n)
    for j, (cw, l) in enumerate(cols):
        H_b[j] = mmap[cw][l - 1]

    return HankelSet(H_ab=H_ab, H_aqb=H_aqb, H_aq=H_aq, H_b=H_b)


def _candidate_rows(model: LssModel) -> list[Word]:
    words = [()]
    for k in range(1, model.n):
        words += [w for w in itertools.product(range(1, model.nQ + 1), repeat=k)]
    return words


def find_selection(model: LssModel) -> Selection:
    """Search for a selection making H_ab as well conditioned as possible.

    Candidate rows are all words of length <= n - 1; candidate columns
    pair those words with a mode and an input channel.  The greedy
    strategy grows the square submatrix one row/column pair at a time,
    each step picking the pair that maximizes the smallest singular
    value; candidates are ordered by word length then lexicographically,
    and ties keep the earliest candidate, so the result is deterministic.

    Each step scores one candidate row at a time against every free
    column: the k x k submatrices (new row and column last) are stacked
    and scored by one batched SVD, so memory stays at |cols| k^2 floats.
    The batched SVD runs the same LAPACK routine on each matrix, and the
    pick is the earliest maximum in (row, column) order with NaN never
    winning, so the selection equals that of scoring one pair at a time.

    Raises
    ------
    SelectionRankError
        If no candidate combination reaches rank n.  For a system that
        is span-reachable and observable a rank-n selection exists.
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
    O = np.array([model.C @ a_word(model, eta) for eta in rows])
    R = np.array([(a_word(model, mu) @ model.B[q - 1])[:, l - 1] for mu, q, l in cols]).T
    full = O @ R

    I, J = [], []
    for k in range(1, n + 1):
        free = np.array([c for c in range(len(cols)) if c not in J])
        stack = np.empty((len(free), k, k))
        best, best_val = None, -1.0
        for r in range(len(rows)):
            if r in I:
                continue
            sub = full[I + [r]]
            stack[:, :, : k - 1] = sub[:, J]
            stack[:, :, k - 1] = sub[:, free].T
            vals = np.linalg.svd(stack, compute_uv=False)[:, -1]
            c = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
            if vals[c] > best_val:
                best, best_val = (r, int(free[c])), vals[c]
        I.append(best[0])
        J.append(best[1])

    sub = full[np.ix_(I, J)]
    s = np.linalg.svd(sub, compute_uv=False)
    if s[-1] <= SINGULAR_RTOL * max(s[0], 1e-300):
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
    largest, since everything downstream divides by it.
    """
    H_ab = np.asarray(hs.H_ab, dtype=float)
    s = np.linalg.svd(H_ab, compute_uv=False)
    if s[-1] <= SINGULAR_RTOL * max(s[0], 1e-300):
        raise SingularHankelError(
            f"H_ab numerically singular: sigma_min/sigma_max = {s[-1]:.3e}/{s[0]:.3e}"
        )
    Abar = [np.linalg.solve(H_ab, Hq) for Hq in hs.H_aqb]
    Bbar = [np.linalg.solve(H_ab, Hq) for Hq in hs.H_aq]
    Cbar = np.asarray(hs.H_b, dtype=float).copy()
    Dbar = np.asarray(M_eps, dtype=float).reshape(-1).copy()
    return RealizationResult(Abar=Abar, Bbar=Bbar, Cbar=Cbar, Dbar=Dbar, sigma_n=float(s[-1]))


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
    is max over modes of ||A - A'||_F, ||B - B'||_F and ||C - C'||_F.
    """
    if len(rr_hat.Abar) != len(rr_ref.Abar):
        raise ValueError("mode counts differ")
    worst = float(np.linalg.norm(rr_hat.Cbar - rr_ref.Cbar))
    for q in range(len(rr_ref.Abar)):
        if rr_hat.Abar[q].shape != rr_ref.Abar[q].shape:
            raise ValueError("A shapes differ")
        if rr_hat.Bbar[q].shape != rr_ref.Bbar[q].shape:
            raise ValueError("B shapes differ")
        worst = max(
            worst,
            float(np.linalg.norm(rr_hat.Abar[q] - rr_ref.Abar[q])),
            float(np.linalg.norm(rr_hat.Bbar[q] - rr_ref.Bbar[q])),
        )
    return worst


# ---------------------------------------------------------------------------
# Selection and realization files.


def selection_to_dict(sel: Selection) -> dict:
    return {
        "alpha": [word_to_str(w) for w in sel.alpha],
        "beta": [[word_to_str(mu), q, l] for mu, q, l in sel.beta],
    }


def selection_from_dict(d: dict) -> Selection:
    return Selection(
        alpha=tuple(str_to_word(s) for s in d["alpha"]),
        beta=tuple((str_to_word(mu), int(q), int(l)) for mu, q, l in d["beta"]),
    )


def save_selection(path: str, sel: Selection) -> None:
    write_json(path, selection_to_dict(sel))


def load_selection(path: str) -> Selection:
    return read_json(path, selection_from_dict)


def save_realization(path: str, rr: RealizationResult, sel: Selection) -> None:
    doc = model_to_dict(rr.as_model())
    doc["selection"] = selection_to_dict(sel)
    doc["sigma_n"] = rr.sigma_n
    write_json(path, doc)
