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
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# The empty word.
EPSILON: tuple[int, ...] = ()

Word = tuple[int, ...]


def word_to_str(w: Word) -> str:
    """Serialize a word as dot-separated letters, '' for epsilon."""
    return ".".join(str(c) for c in w)


def str_to_word(s: str, name: str = "word") -> Word:
    """Parse the dot-separated form produced by :func:`word_to_str`,
    refusing by name a non-string or a letter that is not ASCII digits."""
    if not isinstance(s, str):
        raise ValueError(f"{name}: {s!r} is not a word string")
    if not s:
        return EPSILON
    if not all(tok.isascii() and tok.isdigit() for tok in s.split(".")):
        raise ValueError(f"{name}: {s!r} is not a word: dot-separated ASCII digits")
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

    A matrix of another shape, or a NaN or infinite entry, is refused,
    naming the matrix; nothing is reshaped to fit.
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
        self.B = [np.array(Bq, dtype=float) for Bq in self.B]
        self.C = np.array(self.C, dtype=float)
        self.D = np.array(self.D, dtype=float)
        for name, mats, cols in [("A", self.A, self.n), ("B", self.B, self.m)]:
            if any(M.shape != (self.n, cols) for M in mats):
                raise ValueError(f"{name} matrices must be {self.n}x{cols}")
        if self.C.shape != (self.n,):
            raise ValueError(f"C must have {self.n} entries")
        if self.D.shape != (self.m,):
            raise ValueError(f"D must have {self.m} entries")
        named = [(f"A[{i}]", Aq) for i, Aq in enumerate(self.A)]
        named += [(f"B[{i}]", Bq) for i, Bq in enumerate(self.B)]
        for name, M in named + [("C", self.C), ("D", self.D)]:
            if not np.isfinite(M).all():
                raise ValueError(f"{name} has a non-finite entry")


@dataclass
class SwitchingDistribution:
    """I.i.d. mode distribution: P[q(t) = q] = p[q - 1] > 0."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.array(self.p, dtype=float).reshape(-1)
        if not np.isfinite(self.p).all():
            raise ValueError("p has a non-finite entry")
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
        for name in ("Ku_input", "Ku_noise"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        if self.Ku_input < 0 or self.Ku_noise < 0:
            raise ValueError("amplitude bounds must be nonnegative")
        if self.Sigma_u is not None:
            S = np.array(self.Sigma_u, dtype=float)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise ValueError("Sigma_u must be square")
            if not np.isfinite(S).all():
                raise ValueError("Sigma_u has a non-finite entry")
            if np.linalg.norm(S - S.T) > 1e-12 * max(1.0, np.linalg.norm(S)):
                raise ValueError("Sigma_u must be symmetric")
            if np.any(np.linalg.eigvalsh(S) <= 0.0):
                raise ValueError("Sigma_u must be positive definite")
            self.Sigma_u = S

    @property
    def K_u(self) -> float:
        """The single amplitude bound entering the error constants."""
        return max(self.Ku_input, self.Ku_noise)

    def check_width(self, m: int, name: str = "Sigma_u") -> None:
        """Refuse an explicit Sigma_u that is not m x m, calling it name."""
        if self.Sigma_u is not None and self.Sigma_u.shape != (m, m):
            shape = "x".join(map(str, self.Sigma_u.shape))
            raise ValueError(f"{name} is {shape}, the model has m = {m}")

    def sigma_u(self, m: int) -> np.ndarray:
        """Input covariance, explicit or the uniform-law default.  The
        estimator and the bound invert it, so a zero Ku_input is refused
        even beside an explicit Sigma_u, as is one whose variance or its
        inverse leaves the float range; simulate does not call this."""
        if self.Ku_input == 0:
            raise ValueError(
                f"input amplitude Ku_input = {self.Ku_input!r} must be positive: "
                "the estimator and the bound invert the input covariance Sigma_u"
            )
        if self.Sigma_u is not None:
            self.check_width(m)
            return self.Sigma_u
        try:
            var = self.Ku_input**2 / 3.0
        except OverflowError:
            var = math.inf
        if not 1.0 / sys.float_info.max < var < math.inf:
            raise ValueError(
                f"Ku_input = {self.Ku_input!r} is out of range: Sigma_u = (Ku_input^2 / 3) I "
                "or its inverse leaves the float range"
            )
        return var * np.eye(m)


def check_word(w: Word, nQ: int) -> None:
    """Refuse a word with a letter outside the mode range 1..nQ, naming the first."""
    for c in w:
        if not 1 <= c <= nQ:
            raise ValueError(f"letter {c} outside mode range 1..{nQ}")


def check_law(model: LssModel, dist: SwitchingDistribution) -> None:
    """Refuse a mode law without one probability per mode of the model."""
    if dist.nQ != model.nQ:
        raise ValueError(f"p has {dist.nQ} entries, the model has nQ = {model.nQ}")


def a_word(model: LssModel, w: Word) -> np.ndarray:
    """Product of dynamics matrices along a word.

    For w = (w_1, ..., w_k) returns A_{w_k} ... A_{w_1}; note that the
    first letter acts first, so the product is built up by multiplying
    on the left.  The empty word gives the identity.
    """
    check_word(w, model.nQ)
    M = np.eye(model.n)
    for c in w:
        M = model.A[c - 1] @ M
    return M


def check_integer(name: str, x) -> int:
    """x as an int, refusing by name a bool or a value that is not an integer (2.0 too)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name}: {x!r} is not an integer")
    return int(x)


def check_list(name: str, x) -> list:
    """x itself, refusing by name a value that is not a list."""
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{name}: {x!r} is not a list")
    return x


def check_real(name: str, x, ndim: int = 0):
    """x as a float or, for ndim >= 1, a list nested ndim deep as a float array.

    This is how every number in a JSON input enters the package.  A bool,
    a string, null, an object, a number where a list belongs or rows of
    unequal length are refused by name and 0-based index
    (``B[1][1][0]: True is not a number``).  Shapes and finiteness are
    left to the class that takes the value.
    """
    if ndim == 0:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name}: {x!r} is not a number")
        try:
            return float(x)
        except OverflowError:
            raise ValueError(f"{name}: {x!r} is beyond the float range") from None
    items = check_list(name, x)
    if ndim == 1:
        return np.array([check_real(f"{name}[{i}]", v) for i, v in enumerate(items)], dtype=float)
    rows = [check_real(f"{name}[{i}]", v, ndim - 1) for i, v in enumerate(items)]
    for i, row in enumerate(rows):
        if row.shape != rows[0].shape:
            raise ValueError(f"{name}[{i}] has shape {row.shape}, {name}[0] has {rows[0].shape}")
    return np.array(rows, dtype=float)


def check_mode_labels(q: np.ndarray, nQ: int) -> None:
    """Refuse a mode sequence with a label outside 1..nQ, naming the first.
    The range is read from the extremes; only a sequence outside it is
    searched for the first label at fault."""
    if q.size and 1 <= q.min() and q.max() <= nQ:
        return
    bad = (q < 1) | (q > nQ)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"mode label {q[t]} at step {t} outside 1..{nQ}")


def p_word(dist: SwitchingDistribution, w: Word) -> float:
    """Probability of observing the mode word w: product of p[w_i], 1 for epsilon."""
    check_word(w, dist.nQ)
    out = 1.0
    for c in w:
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

    Text that is not JSON, or a missing key, a value of the wrong type, a
    list too short or a value ``parse`` refuses, is reported as a
    ValueError naming the file.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
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


def model_from_dict(d: dict) -> tuple[LssModel, SwitchingDistribution, SignalSpec | None]:
    """Model, mode law and signal spec; without ``"p"`` the modes are uniform.

    Every number is read by :func:`check_integer` or :func:`check_real`.
    A ``p`` without nQ entries (:func:`check_law`, after the law's own
    checks) or a ``signal.Sigma_u`` that is not m x m is refused here, so
    the error names the file that holds it.
    """
    dims = {name: check_integer(name, d[name]) for name in ("n", "m", "nQ")}
    ndims = {"A": 3, "B": 3, "C": 1, "D": 1}
    model = LssModel(**dims, **{name: check_real(name, d[name], k) for name, k in ndims.items()})
    p = check_real("p", d["p"], 1) if "p" in d else np.full(model.nQ, 1.0 / model.nQ)
    dist = SwitchingDistribution(p=p)
    check_law(model, dist)
    signal = None
    if "signal" in d:
        s = d["signal"]
        ku = {name: check_real(f"signal.{name}", s[name]) for name in ("Ku_input", "Ku_noise")}
        sig_u = check_real("signal.Sigma_u", s["Sigma_u"], 2) if "Sigma_u" in s else None
        signal = SignalSpec(**ku, Sigma_u=sig_u)
        signal.check_width(model.m, "signal.Sigma_u")
    return model, dist, signal


def save_model_file(
    path: str,
    model: LssModel,
    dist: SwitchingDistribution | None = None,
    signal: SignalSpec | None = None,
) -> None:
    write_json(path, model_to_dict(model, dist, signal))


def load_model_file(path: str) -> tuple[LssModel, SwitchingDistribution, SignalSpec | None]:
    return read_json(path, model_from_dict)
