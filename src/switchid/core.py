"""Domain types and word algebra for linear switched systems.

A linear switched system (LSS) evolves as

    x(t+1) = A_{q(t)} x(t) + B_{q(t)} u(t) + w(t)
    y(t)   = C x(t) + D u(t) + v(t)

where q(t) is a discrete mode in {1, ..., nQ} drawn i.i.d. at every step.
Products of the dynamics matrices are indexed by *words* over the mode
alphabet; everything downstream (Markov parameters, Hankel matrices,
error constants) is phrased in terms of these words.

Words are plain tuples of 1-based mode letters; the empty tuple is the
empty word epsilon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The empty word.
EPSILON: tuple[int, ...] = ()

Word = tuple[int, ...]


def word_to_str(w: Word) -> str:
    """Serialize a word as dot-separated letters, '' for epsilon."""
    return ".".join(str(c) for c in w)


def str_to_word(s: str) -> Word:
    """Parse the dot-separated form produced by :func:`word_to_str`."""
    s = s.strip()
    if not s:
        return EPSILON
    return tuple(int(tok) for tok in s.split("."))


@dataclass
class LssModel:
    """A discrete-time linear switched system with scalar output.

    Parameters
    ----------
    n, m, nQ : int
        State dimension, input dimension, number of modes.
    A : list of (n, n) arrays
        One dynamics matrix per mode, indexed 0-based internally
        (mode q uses ``A[q - 1]``).
    B : list of (n, m) arrays
        One input matrix per mode.
    C : (n,) array
        Output row.
    D : (m,) array
        Feedthrough row.
    """

    n: int
    m: int
    nQ: int
    A: list[np.ndarray]
    B: list[np.ndarray]
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.nQ < 1:
            raise ValueError("n, m and nQ must be positive")
        if len(self.A) != self.nQ or len(self.B) != self.nQ:
            raise ValueError("need exactly nQ matrices in A and B")
        self.A = [np.array(Aq, dtype=float) for Aq in self.A]
        self.B = [np.array(Bq, dtype=float).reshape(self.n, self.m) for Bq in self.B]
        self.C = np.array(self.C, dtype=float).reshape(-1)
        self.D = np.array(self.D, dtype=float).reshape(-1)
        for Aq in self.A:
            if Aq.shape != (self.n, self.n):
                raise ValueError(f"A matrices must be {self.n}x{self.n}")
        if self.C.shape != (self.n,):
            raise ValueError(f"C must have {self.n} entries")
        if self.D.shape != (self.m,):
            raise ValueError(f"D must have {self.m} entries")

    def check_word(self, w: Word) -> None:
        for c in w:
            if not 1 <= c <= self.nQ:
                raise ValueError(f"letter {c} outside mode range 1..{self.nQ}")


@dataclass
class SwitchingDistribution:
    """I.i.d. mode distribution: P[q(t) = q] = p[q - 1] > 0."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.array(self.p, dtype=float).reshape(-1)
        if np.any(self.p <= 0.0):
            raise ValueError("all mode probabilities must be strictly positive")
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("mode probabilities must sum to 1")

    @property
    def nQ(self) -> int:
        return len(self.p)


@dataclass
class SignalSpec:
    """Amplitude bounds and input covariance for the exogenous signals.

    The input u(t) has i.i.d. components uniform on [-Ku_input, Ku_input],
    the state noise w(t) and output noise v(t) are uniform on
    [-Ku_noise, Ku_noise].  Input amplitude and noise amplitude are kept
    separate because experiments vary them independently; the theoretical
    constants use ``K_u = max(Ku_input, Ku_noise)``.

    ``Sigma_u`` defaults to the exact covariance of the uniform sampler,
    (Ku_input^2 / 3) * I_m.
    """

    Ku_input: float
    Ku_noise: float
    Sigma_u: np.ndarray | None = None

    def __post_init__(self):
        if self.Ku_input < 0 or self.Ku_noise < 0:
            raise ValueError("amplitude bounds must be nonnegative")
        if self.Sigma_u is not None:
            S = np.array(self.Sigma_u, dtype=float)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValueError("Sigma_u must be square")
            if np.linalg.norm(S - S.T) > 1e-12 * max(1.0, np.linalg.norm(S)):
                raise ValueError("Sigma_u must be symmetric")
            if np.any(np.linalg.eigvalsh(S) <= 0.0):
                raise ValueError("Sigma_u must be positive definite")
            self.Sigma_u = S

    @property
    def K_u(self) -> float:
        """The single amplitude bound entering the error constants."""
        return max(self.Ku_input, self.Ku_noise)

    def sigma_u(self, m: int) -> np.ndarray:
        """Input covariance, explicit or the uniform-law default."""
        if self.Sigma_u is not None:
            if self.Sigma_u.shape != (m, m):
                raise ValueError(f"Sigma_u must be {m}x{m}")
            return self.Sigma_u
        return (self.Ku_input**2 / 3.0) * np.eye(m)


def a_word(model: LssModel, w: Word) -> np.ndarray:
    """Product of dynamics matrices along a word.

    For w = (w_1, ..., w_k) returns A_{w_k} ... A_{w_1}; note that the
    first letter acts first, so the product is built up by multiplying
    on the left.  The empty word gives the identity.
    """
    model.check_word(w)
    M = np.eye(model.n)
    for c in w:
        M = model.A[c - 1] @ M
    return M


def check_mode_labels(q: np.ndarray, nQ: int) -> None:
    """Refuse a mode sequence with a label outside 1..nQ, naming the first."""
    bad = (q < 1) | (q > nQ)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"mode label {q[t]} at step {t} outside 1..{nQ}")


def p_word(dist: SwitchingDistribution, w: Word) -> float:
    """Probability of observing the mode word w: product of p[w_i], 1 for epsilon."""
    out = 1.0
    for c in w:
        if not 1 <= c <= dist.nQ:
            raise ValueError(f"letter {c} outside mode range 1..{dist.nQ}")
        out *= dist.p[c - 1]
    return out


def two_mode_benchmark(gamma: float) -> tuple[LssModel, SwitchingDistribution]:
    """Standard two-mode benchmark family with tunable stability margin.

    Both modes share a scalar pole ``a = 0.45 * gamma`` and the LTI
    subsystems of the individual modes have zero transfer functions, so
    the coupling coefficient ``a`` is visible only through mixed-mode
    Markov parameters.  This makes the family a minimal stress test for
    switched-system identification: no per-mode LTI method can recover
    it.  Modes are equiprobable.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    a = 0.9 * gamma / 2.0
    A1 = np.array([[0.0, 1.0], [0.0, a]])
    A2 = np.array([[0.0, 0.0], [0.0, a]])
    B1 = np.array([[0.0], [0.0]])
    B2 = np.array([[0.0], [1.0]])
    C = np.array([1.0, 0.0])
    D = np.array([0.0])
    model = LssModel(n=2, m=1, nQ=2, A=[A1, A2], B=[B1, B2], C=C, D=D)
    dist = SwitchingDistribution(p=np.array([0.5, 0.5]))
    return model, dist


# ---------------------------------------------------------------------------
# JSON files.  Matrices are serialized as nested row lists; floats go
# through repr() via json, which round-trips doubles exactly.


def write_json(path: str, doc) -> None:
    """Write ``doc`` as indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path: str, parse):
    """Load a JSON file and return ``parse(doc)``.

    Text that is not JSON, or a missing key, a value of the wrong type or
    a list too short found while parsing, is reported as a ValueError
    naming the file.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed file {path}: {type(exc).__name__}: {exc}") from None


def model_to_dict(
    model: LssModel,
    dist: SwitchingDistribution | None = None,
    signal: SignalSpec | None = None,
) -> dict:
    d = {
        "n": model.n,
        "m": model.m,
        "nQ": model.nQ,
        "A": [Aq.tolist() for Aq in model.A],
        "B": [Bq.tolist() for Bq in model.B],
        "C": model.C.tolist(),
        "D": model.D.tolist(),
    }
    if dist is not None:
        d["p"] = dist.p.tolist()
    if signal is not None:
        d["signal"] = {
            "Ku_input": signal.Ku_input,
            "Ku_noise": signal.Ku_noise,
        }
        if signal.Sigma_u is not None:
            d["signal"]["Sigma_u"] = signal.Sigma_u.tolist()
    return d


def model_from_dict(
    d: dict,
) -> tuple[LssModel, SwitchingDistribution | None, SignalSpec | None]:
    model = LssModel(
        n=int(d["n"]),
        m=int(d["m"]),
        nQ=int(d["nQ"]),
        A=[np.asarray(Aq, dtype=float) for Aq in d["A"]],
        B=[np.asarray(Bq, dtype=float) for Bq in d["B"]],
        C=np.asarray(d["C"], dtype=float),
        D=np.asarray(d["D"], dtype=float),
    )
    dist = SwitchingDistribution(p=np.asarray(d["p"], dtype=float)) if "p" in d else None
    signal = None
    if "signal" in d:
        s = d["signal"]
        sig_u = np.asarray(s["Sigma_u"], dtype=float) if "Sigma_u" in s else None
        signal = SignalSpec(
            Ku_input=float(s["Ku_input"]),
            Ku_noise=float(s["Ku_noise"]),
            Sigma_u=sig_u,
        )
    return model, dist, signal


def save_model_file(
    path: str,
    model: LssModel,
    dist: SwitchingDistribution | None = None,
    signal: SignalSpec | None = None,
) -> None:
    write_json(path, model_to_dict(model, dist, signal))


def load_model_file(
    path: str,
) -> tuple[LssModel, SwitchingDistribution | None, SignalSpec | None]:
    return read_json(path, model_from_dict)
