"""True and empirical Markov parameters.

For a word w = (w_1, ..., w_k) the Markov parameter is the row

    M_w = C A_{w_k} ... A_{w_2} B_{w_1},     M_epsilon = D,

so the first letter selects the input matrix and the remaining letters,
applied oldest first, select the state transitions.  These rows are what
a single trajectory can reveal about the system: the empirical estimator
correlates y(t) against the input u(t - k) on the event that the mode
sequence q(t - k), ..., q(t - 1) spelled out w, then rescales by the
input covariance and the word probability.  A table of Markov
parameters is a plain dict from word to row.
"""

from __future__ import annotations

import bisect

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


def true_markov(model: LssModel, w: Word) -> np.ndarray:
    """Markov parameter of the model for one word, as an (m,) row."""
    if len(w) == 0:
        return model.D.copy()
    model.check_word(w)
    head, tail = w[0], w[1:]
    return model.C @ a_word(model, tail) @ model.B[head - 1]


def true_markov_map(model: LssModel, words) -> dict[Word, np.ndarray]:
    """Tabulate :func:`true_markov` over an iterable of words."""
    return {tuple(w): true_markov(model, tuple(w)) for w in words}


def empirical_markov_batch(
    sample: SampleSet,
    words,
    sigma_u: np.ndarray,
    dist: SwitchingDistribution,
) -> dict[Word, np.ndarray]:
    """Estimate a whole word set from a single trajectory.

    For each word w of length k the estimate is

        (1 / (N - k)) sum_{t=k+1}^N y(t) z_w(t)^T Sigma_u^{-1} / p_w,

    where z_w(t) is u(t - k) when the modes q(t - k), ..., q(t - 1)
    spell w and zero otherwise.  The sums take one pass per word length,
    however many words there are.  Every window of k - 1 modes carries
    the dense id of the prefix of the word set it spells, or one sentinel
    id when it spells none; with the window's next mode label that id
    names a (prefix, label) pair.  One ``np.bincount`` per input channel
    sums y(t) u_j(t - k) over the pairs, which reads off every word of
    length k, and a small table maps the pairs to the length-k ids.  Ids
    stay below the number of prefixes, so no window code can overflow,
    however long the words.

    Raises
    ------
    ValueError
        If a mode label in the trajectory or a letter of a word lies
        outside 1..nQ, or the trajectory is not longer than some word.
    """
    sigma_u = np.asarray(sigma_u, dtype=float)
    y, u, N, nQ = sample.y, sample.u, sample.N, dist.nQ
    check_mode_labels(sample.q, nQ)
    words = sorted(set(tuple(x) for x in words), key=lambda w: (len(w), w))
    for w in words:
        if N <= len(w):
            raise ValueError(f"trajectory too short for |w| = {len(w)}: N = {N}")
        if not all(1 <= c <= nQ for c in w):
            raise ValueError(f"word {w} has a letter outside 1..{nQ}")
    if not words:
        return {}
    # Window s = 1..N - k of length k is q(s), ..., q(s + k - 1), and pairs
    # the output y(s + k) with the input u(s).  Before length k, ids[s - 1]
    # holds nQ times the id of the length k - 1 prefix of the word set that
    # the window spells, or of the sentinel len(prefixes[k - 1]) when it
    # spells none; adding the next label q(s + k - 1) gives the window's
    # (prefix, label) pair, which both names the words of length k and,
    # through a table, gives the ids for length k + 1.
    prefixes = [{(): 0}]
    for w in words:
        for k in range(1, len(w) + 1):
            if k == len(prefixes):
                prefixes.append({})
            prefixes[k].setdefault(w[:k], len(prefixes[k]))
    lengths = [len(w) for w in words]
    m, q = u.shape[1], sample.q
    sums = np.empty((m, len(words)))
    if lengths[0] == 0:
        sums[:, 0] = y[1:] @ u[1:]  # the empty word: every window, one bin
    ids, pairs, weights = np.zeros(N, dtype=np.intp), np.empty(N, dtype=np.intp), np.empty(N)
    for k in range(1, len(prefixes)):
        L, parent = N - k, prefixes[k - 1]
        np.add(ids[:L], q[k:N], out=pairs[:L])
        lo, hi = bisect.bisect_left(lengths, k), bisect.bisect_right(lengths, k)
        if hi > lo:
            bins = [parent[w[:-1]] * nQ + w[-1] for w in words[lo:hi]]
            for j in range(m):
                np.multiply(y[k + 1 :], u[1 : L + 1, j], out=weights[:L])
                by_pair = np.bincount(
                    pairs[:L], weights=weights[:L], minlength=(len(parent) + 1) * nQ + 1
                )
                sums[j, lo:hi] = by_pair[bins]
        if k + 1 < len(prefixes):
            here = prefixes[k]
            table = np.full((len(parent) + 1) * nQ + 1, len(here) * nQ, dtype=np.intp)
            for p, i in here.items():
                table[parent[p[:-1]] * nQ + p[-1]] = i * nQ
            # Every pair indexes the table, so take need not check the range.
            np.take(table, pairs[:L], out=ids[:L], mode="clip")
    scale = np.array([(N - len(w)) * p_word(dist, w) for w in words])
    est = np.linalg.solve(sigma_u, sums) / scale
    return dict(zip(words, est.T.copy()))
