"""True and empirical Markov parameters.

For a word w = (w_1, ..., w_k) the Markov parameter is the row

    M_w = C A_{w_k} ... A_{w_2} B_{w_1},     M_epsilon = D,

so the first letter selects the input matrix and the remaining letters,
applied oldest first, select the state transitions.  These rows are what
a single trajectory can reveal about the system: the empirical estimator
correlates y(t) against the input u(t - k) on the event that the mode
sequence q(t - k), ..., q(t - 1) spelled out w, then rescales by the
input covariance and the word probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LssModel,
    SwitchingDistribution,
    Word,
    a_word,
    check_mode_labels,
    p_word,
)
from .simulate import SampleSet


@dataclass
class MarkovMap:
    """A finite word -> row-vector table of Markov parameters.

    ``source`` is "true" for parameters computed from model matrices and
    "empirical" for estimates from data; ``meta`` carries estimation
    context (sample size, seed, input covariance) when empirical.
    """

    entries: dict[Word, np.ndarray]
    source: str = "true"
    meta: dict = field(default_factory=dict)

    def __getitem__(self, w: Word) -> np.ndarray:
        return self.entries[w]

    def __contains__(self, w: Word) -> bool:
        return w in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> list[Word]:
        return sorted(self.entries, key=lambda w: (len(w), w))


def true_markov(model: LssModel, w: Word) -> np.ndarray:
    """Markov parameter of the model for one word, as an (m,) row."""
    if len(w) == 0:
        return model.D.copy()
    model.check_word(w)
    head, tail = w[0], w[1:]
    return model.C @ a_word(model, tail) @ model.B[head - 1]


def true_markov_map(model: LssModel, words) -> MarkovMap:
    """Tabulate :func:`true_markov` over an iterable of words."""
    return MarkovMap(
        entries={tuple(w): true_markov(model, tuple(w)) for w in words},
        source="true",
    )


def empirical_markov_batch(
    sample: SampleSet,
    words,
    sigma_u: np.ndarray,
    dist: SwitchingDistribution,
) -> MarkovMap:
    """Estimate a whole word set from a single trajectory.

    For each word w of length k the estimate is

        (1 / (N - k)) sum_{t=k+1}^N y(t) z_w(t)^T Sigma_u^{-1} / p_w,

    where z_w(t) is u(t - k) when the modes q(t - k), ..., q(t - 1)
    spell w and zero otherwise.  All time indexing is done through
    shifted slices of mode indicator arrays computed once for the set.

    Raises
    ------
    ValueError
        If a mode label lies outside 1..nQ, or the trajectory is not
        longer than some word.
    """
    sigma_u = np.asarray(sigma_u, dtype=float)
    y, u, N = sample.y, sample.u, sample.N
    check_mode_labels(sample.q, dist.nQ)
    masks = [np.asarray(sample.q == c + 1, dtype=float) for c in range(dist.nQ)]
    entries = {}
    for w in sorted(set(tuple(x) for x in words), key=lambda w: (len(w), w)):
        k = len(w)
        if N <= k:
            raise ValueError(f"trajectory too short for |w| = {k}: N = {N}")
        L = N - k
        # Terms t = k+1..N: output y(t), input u(t-k), and the indicator that
        # q(t-k+i) = w[i] for i = 0..k-1, i.e. slice i+1 .. L+i of the modes.
        weights = y[k + 1 : N + 1].copy()
        for i, c in enumerate(w):
            weights *= masks[c - 1][i + 1 : L + i + 1]
        s = weights @ u[1 : L + 1]
        entries[w] = np.linalg.solve(sigma_u, s) / (L * p_word(dist, w))
    return MarkovMap(
        entries=entries,
        source="empirical",
        meta={"N": N, "seed": sample.seed, "Sigma_u": sigma_u.tolist()},
    )
