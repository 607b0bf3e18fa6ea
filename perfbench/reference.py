"""Independent reference for one campaign trial on the two-mode family.

It redraws the random streams exactly as the seed code's ``simulate`` does
(modes, then inputs, then state noise, then output noise, from one
generator), but computes the trajectory in closed form and then repeats
estimation and realization with its own code.  Nothing here calls the
package, so a wrong rollout, estimator or realization in the package shows
as a mismatch in ``est_err``.

The two-mode family has A_1 = [[0, 1], [0, a]], A_2 = [[0, 0], [0, a]],
B_1 = 0, B_2 = e_2, C = e_1, D = 0 with a = 0.45 gamma.  So the second
state is a scalar AR(1) filter of w_2 + [q = 2] u, and the first state
copies the previous second state on mode-1 steps and adds w_1.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

# The selection the seed code finds for every member of the family:
# row words (), (1,) and column triples (mu, q, l) = ((), 2, 1), ((1,), 2, 1).
ALPHA = ((), (1,))
BETA = (((), 2, 1), ((1,), 2, 1))


def two_mode_matrices(gamma: float):
    a = 0.9 * gamma / 2.0
    A = [np.array([[0.0, 1.0], [0.0, a]]), np.array([[0.0, 0.0], [0.0, a]])]
    B = [np.zeros((2, 1)), np.array([[0.0], [1.0]])]
    C = np.array([1.0, 0.0])
    return A, B, C


def trajectory(gamma: float, N: int, seed: int, ku_input: float, ku_noise: float, burn_in: int):
    """(y, u, q) for t = 0..N after the burn-in, as the seed code draws them."""
    T = burn_in + N + 1
    rng = np.random.default_rng(seed)
    q = rng.choice(2, size=T, p=np.array([0.5, 0.5])) + 1
    u = rng.uniform(-ku_input, ku_input, size=(T, 1))[:, 0]
    w = rng.uniform(-ku_noise, ku_noise, size=(T, 2))
    v = rng.uniform(-ku_noise, ku_noise, size=T)

    a = 0.9 * gamma / 2.0
    drive = w[:, 1] + np.where(q == 2, u, 0.0)
    x2 = np.zeros(T)
    x2[1:] = lfilter([1.0], [1.0, -a], drive)[:-1]
    x1 = np.zeros(T)
    x1[1:] = np.where(q[:-1] == 1, x2[:-1], 0.0) + w[:-1, 0]
    y = x1 + v
    return y[burn_in:], u[burn_in:], q[burn_in:]


def estimate(y, u, q, word, var_u: float) -> float:
    """Mean of y(t) u(t - k) over windows whose modes q(t - k) .. q(t - 1)
    spell the word, rescaled by the input variance and 0.5 ** k."""
    N = len(y) - 1
    k = len(word)
    t = np.arange(k + 1, N + 1)
    keep = np.ones(len(t), dtype=bool)
    for i, c in enumerate(word):
        keep &= q[t - k + i] == c
    return float(np.sum(y[t[keep]] * u[t[keep] - k])) / ((N - k) * var_u * 0.5**k)


def markov_true(A, B, C, word) -> float:
    x = B[word[0] - 1][:, 0]
    for c in word[1:]:
        x = A[c - 1] @ x
    return float(C @ x)


def realize(M):
    """(A_bar, B_bar, C_bar) from a word -> value table over the fixed selection."""
    cols = [(q,) + mu for mu, q, _ in BETA]
    H_ab = np.array([[M[cw + eta] for cw in cols] for eta in ALPHA])
    A_bar = [
        np.linalg.solve(H_ab, np.array([[M[cw + (q,) + eta] for cw in cols] for eta in ALPHA]))
        for q in (1, 2)
    ]
    B_bar = [np.linalg.solve(H_ab, np.array([M[(q,) + eta] for eta in ALPHA])) for q in (1, 2)]
    C_bar = np.array([M[cw] for cw in cols])
    return A_bar, B_bar, C_bar


def words_needed():
    cols = [(q,) + mu for mu, q, _ in BETA]
    words = set(cols)
    for eta in ALPHA:
        for q in (1, 2):
            words.add((q,) + eta)
        for cw in cols:
            words.add(cw + eta)
            for q in (1, 2):
                words.add(cw + (q,) + eta)
    return sorted(words, key=lambda w: (len(w), w))


def trial_est_err(gamma, N, seed, ku_input, ku_noise, burn_in) -> float:
    """est_err of one campaign trial: largest Frobenius deviation of the
    realized matrices from the ones realized from true Markov parameters."""
    A, B, C = two_mode_matrices(gamma)
    y, u, q = trajectory(gamma, N, seed, ku_input, ku_noise, burn_in)
    var_u = ku_input**2 / 3.0
    words = words_needed()
    hat = realize({w: estimate(y, u, q, w, var_u) for w in words})
    ref = realize({w: markov_true(A, B, C, w) for w in words})
    (A_hat, B_hat, C_hat), (A_ref, B_ref, C_ref) = hat, ref
    diffs = [C_hat - C_ref] + [x - x_ref for x, x_ref in zip(A_hat + B_hat, A_ref + B_ref)]
    return max(float(np.linalg.norm(d)) for d in diffs)
