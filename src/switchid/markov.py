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

The estimator's word tables (the sorted words, the dense prefix ids, the
per-length bins and prefix tables, and each word's p_w) depend on the
word set and the mode law alone, so they are built once per word set
and law and kept, read-only, for every trajectory estimated over it.  Trajectories that share their
inputs and modes, the samples of one :func:`simulate_group`, are
estimated in one pass (:func:`empirical_markov_group`): the mode-word
ids and the checks of u and q are made once, the products with each
y and their sums per sample.  A single trajectory is the group of one.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .core import (
    LssModel,
    SwitchingDistribution,
    Word,
    a_word,
    check_mode_labels,
    check_word,
)
from .simulate import SampleSet


def true_markov(model: LssModel, w: Word) -> np.ndarray:
    """Markov parameter of the model for one word, as an (m,) row."""
    if len(w) == 0:
        return model.D.copy()
    check_word(w, model.nQ)
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
    spell w and zero otherwise.  This is the group of one of
    :func:`empirical_markov_group`, which says how the sums are formed
    and what is refused.
    """
    return empirical_markov_group([sample], words, sigma_u, dist)[0]


def empirical_markov_group(
    samples: list[SampleSet],
    words,
    sigma_u: np.ndarray,
    dist: SwitchingDistribution,
) -> list[dict[Word, np.ndarray]]:
    """:func:`empirical_markov_batch` of every sample, in one pass over
    the u and q they share: each is the table the sample alone gives, bit
    for bit.  The samples must hold one u and one q object (``is``), as
    the samples of one :func:`simulate_group` do, so the mode-word event
    and every check of the inputs and labels are made once; only the
    products with y and their sums are made per sample.

    The empty word's sum is the product row y(t) u_j(t) summed, per input
    channel; the others take one pass per word length, however many words
    there are.  Every window of k - 1 modes carries the dense id of the
    prefix it spells, or a sentinel id; with its next mode label that id
    names a (prefix, label) pair.  One ``np.bincount`` per sample and
    input channel sums y(t) u_j(t - k) over the pairs, reading off every
    word of length k, and a small table maps the pairs to the length-k
    ids, below the number of prefixes however long the words.  No sum
    goes through BLAS: no bit depends on its threads.

    Raises
    ------
    ValueError
        In this order: if a sample does not share the first one's u and q,
        naming its index; if Sigma_u is not m x m for the trajectory's m
        input columns; if a mode label in the trajectory lies outside
        1..nQ; if the trajectory is not longer than some word, or a letter
        of a word lies outside 1..nQ; if an estimate is not finite, naming
        the first such word as empirical_markov_batch of the sample names
        it, after the sample's index in a group of more than one, for the
        first such sample in order.
    """
    u, q, ys = samples[0].u, samples[0].q, []
    for i, sample in enumerate(samples):
        if sample.u is not u or sample.q is not q:
            raise ValueError(
                f"sample {i} does not share the u and q arrays of sample 0; the "
                "samples of a group read one input and mode sequence"
            )
        ys.append(sample.y)
    sigma_u = np.asarray(sigma_u, dtype=float)
    N, nQ, m = samples[0].N, dist.nQ, u.shape[1]
    if sigma_u.shape != (m, m):
        shape = "x".join(map(str, sigma_u.shape))
        raise ValueError(f"the trajectory has {m} input columns, but Sigma_u is {shape}")
    check_mode_labels(q, nQ)
    word_set = frozenset(tuple(x) for x in words)
    words, lengths, bad, passes, word_law = _word_tables(word_set, tuple(dist.p.tolist()))
    # The first word, in order of length, that is too short or has a letter
    # outside 1..nQ is named; too short wins on the same word.
    short = bisect.bisect_left(lengths, N)
    if short < len(words) and short <= bad:
        raise ValueError(f"trajectory too short for |w| = {lengths[short]}: N = {N}")
    if bad < len(words):
        raise ValueError(f"word {words[bad]} has a letter outside 1..{nQ}")
    if not words:
        return [{} for _ in samples]
    # Window s = 1..N - k of length k is q(s), ..., q(s + k - 1), and pairs
    # the output y(s + k) with the input u(s).  Before length k, ids[s - 1]
    # holds nQ times the dense id of the window's length k - 1 prefix (see
    # _word_tables); adding the next label q(s + k - 1) gives the window's
    # (prefix, label) pair, which both names the words of length k and,
    # through a table, gives the ids for length k + 1.
    sums = np.empty((len(ys), m, len(words)))
    per_sample = list(zip(ys, sums))
    ids, pairs, weights = np.zeros(N, dtype=np.intp), np.empty(N, dtype=np.intp), np.empty(N)
    # A product or sum past the float range is refused below by the word it
    # reaches, so numpy's own overflow warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        if lengths[0] == 0:  # the empty word: every window, one sum per input channel
            for y, s in per_sample:
                s[:, 0] = [np.multiply(y[1:], u[1:, j], out=weights).sum() for j in range(m)]
        for k, (lo, hi, bins, npairs, table) in enumerate(passes, 1):
            L = N - k
            np.add(ids[:L], q[k:N], out=pairs[:L])
            if hi > lo:
                for y, s in per_sample:
                    for j in range(m):
                        np.multiply(y[k + 1 :], u[1 : L + 1, j], out=weights[:L])
                        by_pair = np.bincount(pairs[:L], weights=weights[:L], minlength=npairs)
                        s[j, lo:hi] = by_pair[bins]
            if table is not None:
                # Every pair indexes the table, so take need not check the range.
                np.take(table, pairs[:L], out=ids[:L], mode="clip")
        # One LAPACK solve per sample, as for a sample alone.
        est = np.linalg.solve(sigma_u, sums) / ((N - word_law[0]) * word_law[1])
    finite = np.isfinite(est).all(axis=1)
    if not finite.all():
        # The first sample whose estimate is not finite, and its first such word.
        i, j = divmod(int(np.argmin(finite)), len(words))
        raise ValueError(
            ("" if len(ys) == 1 else f"sample {i}: ")
            + f"the Markov estimate of word {words[j]} is not finite ({est[i, :, j]}): "
            "the trajectory's y or u, or 1 / p_w, overflows a float"
        )
    return [dict(zip(words, rows)) for rows in np.swapaxes(est, 1, 2).copy()]


@functools.lru_cache(maxsize=32)
def _word_tables(word_set: frozenset, p: tuple):
    """The trajectory-free part of :func:`empirical_markov_group` for one
    word set and mode law p (nQ = len(p)), built once and kept read-only.

    Returns the words sorted by length, then letters; their lengths; the
    index of the first word with a letter outside 1..nQ (len(words) when
    none has one, and then the rest is built); and one pass per word
    length k >= 1: the slice lo:hi of the length-k words, their bins among
    the (prefix, label) pairs, the number of pairs, and the table from a
    pair to nQ times the dense id of the length-k prefix it spells (None
    for the longest length).  The prefixes of length k - 1 have the dense
    ids 0..P - 1 and the sentinel P, which stands for every window that
    spells none of them; pair (i, c) is i * nQ + c, so ids stay below
    (P + 1) * nQ + 1, however long the words.  Last come each word's
    length and p_w, as floats in two rows, p_w the product p_word forms,
    1.0 times the letters' p in order, so that (N - |w|) p_w is the
    estimate's scale to the bit (None when a word has a bad letter).
    """
    nQ = len(p)
    words = tuple(sorted(word_set, key=lambda w: (len(w), w)))
    lengths = tuple(len(w) for w in words)
    bad = next(
        (i for i, w in enumerate(words) if not all(1 <= c <= nQ for c in w)), len(words)
    )
    if bad < len(words):
        return words, lengths, bad, (), None
    prefixes = [{(): 0}]
    for w in words:
        for k in range(1, len(w) + 1):
            if k == len(prefixes):
                prefixes.append({})
            prefixes[k].setdefault(w[:k], len(prefixes[k]))
    passes = []
    for k in range(1, len(prefixes)):
        parent = prefixes[k - 1]
        npairs = (len(parent) + 1) * nQ + 1
        lo, hi = bisect.bisect_left(lengths, k), bisect.bisect_right(lengths, k)
        bins = np.array([parent[w[:-1]] * nQ + w[-1] for w in words[lo:hi]], dtype=np.intp)
        table = None
        if k + 1 < len(prefixes):
            here = prefixes[k]
            table = np.full(npairs, len(here) * nQ, dtype=np.intp)
            for prefix, i in here.items():
                table[parent[prefix[:-1]] * nQ + prefix[-1]] = i * nQ
            table.flags.writeable = False
        bins.flags.writeable = False
        passes.append((lo, hi, bins, npairs, table))
    word_law = np.array([lengths, [math.prod((p[c - 1] for c in w), start=1.0) for w in words]])
    word_law.flags.writeable = False
    return words, lengths, bad, tuple(passes), word_law
