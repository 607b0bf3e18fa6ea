"""Spans around the switchid layers, recorded from the benchmark's side.

``Tracer.install`` replaces each function in ``LAYER_FUNCTIONS`` by a timing
wrapper in every switchid module that refers to it, so that a call is seen
whichever module makes it: ``switchid.experiment.simulate`` and
``switchid.simulate.simulate`` are the same function and both get the same
wrapper.  ``core`` and ``svgplot`` are not wrapped; their time counts as
self time of the caller.  Spans are recorded only while ``phase`` is set, so
the benchmark's own checks, which call some of the same functions, leave no
spans.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np
from switchid.hokalman import SINGULAR_RTOL

LAYER_FUNCTIONS = {
    "simulate": ("simulate", "load_trajectory", "save_trajectory"),
    "markov": ("empirical_markov_batch", "true_markov_map"),
    "hokalman": (
        "find_selection",
        "required_words",
        "build_hankels",
        "realize",
        "est_err",
        "save_realization",
    ),
    "bounds": ("find_P", "gamma_from_P", "compute_certificate", "min_valid_N"),
    "experiment": ("run_experiment", "write_results_csv", "write_figures"),
}
SWITCHID_MODULES = ("", ".core", ".simulate", ".markov", ".hokalman", ".bounds", ".experiment", ".cli")

# simulate.simulate is reported at each trajectory length the workloads use.
SIMULATE_NS = (1_000, 10_000, 100_000)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: str
    error: str | None = None
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module("switchid" + m) for m in SWITCHID_MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module("switchid." + layer)
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapped)
        # Each candidate the selection search scores costs one SVD; count them.
        self._patched.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._count_svd(np.linalg.svd)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    span.info = note(args, out)

        return traced

    def _count_svd(self, svd):
        @functools.wraps(svd)
        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == "hokalman.find_selection":
                info = self.spans[self._stack[-1]].info
                info["svd"] = info.get("svd", 0) + 1
            return svd(*args, **kwargs)

        return counted

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def _note_realize(args, out):
    if out is None:
        return {}
    s = np.linalg.svd(np.asarray(args[0].H_ab), compute_uv=False)
    return {"sigma_n_margin": out.sigma_n / (SINGULAR_RTOL * max(s[0], 1e-300))}


_NOTES = {
    "simulate.simulate": lambda a, out: {"N": a[0].N, "steps": a[0].burn_in + a[0].N + 1},
    "simulate.load_trajectory": lambda a, out: {"rows": 0 if out is None else out.N + 1},
    "markov.empirical_markov_batch": lambda a, out: {
        "words": 0 if out is None else len(out),
        "N": a[0].N,
    },
    "hokalman.realize": _note_realize,
}


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], ops: int, overhead_ms_per_op: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}.

    Per-call figures use every span, set-up included; ``<layer>.self_ms_per_op``
    uses the spans of the timed operations only.  A function the workload
    never calls reports 0 calls and 0 ms per call.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    self_s = _self_times(spans)

    def total_s(name, pred=lambda s: True):
        return sum(s.end - s.start for s in by_name[name] if pred(s))

    def per_call_ms(name, pred=lambda s: True):
        n = sum(1 for s in by_name[name] if pred(s))
        return 1e3 * total_s(name, pred) / n if n else 0.0

    out = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.ms_per_call"] = (per_call_ms(name), "ms")
        op_self = sum(
            t for s, t in zip(spans, self_s) if s.phase == "ops" and s.name.startswith(layer + ".")
        )
        out[f"{layer}.self_ms_per_op"] = (1e3 * op_self / max(ops, 1), "ms")

    sims = by_name["simulate.simulate"]
    for N in SIMULATE_NS:
        out[f"simulate.simulate.ms_per_call.N{N}"] = (
            per_call_ms("simulate.simulate", lambda s, N=N: s.info.get("N") == N),
            "ms",
        )
    out["simulate.simulate.steps_per_s"] = (
        _rate(sum(s.info.get("steps", 0) for s in sims), total_s("simulate.simulate")),
        "1/s",
    )
    loads = by_name["simulate.load_trajectory"]
    out["simulate.load_trajectory.rows_per_s"] = (
        _rate(sum(s.info.get("rows", 0) for s in loads), total_s("simulate.load_trajectory")),
        "1/s",
    )

    ests = by_name["markov.empirical_markov_batch"]
    out["markov.words_per_call"] = (
        sum(s.info.get("words", 0) for s in ests) / len(ests) if ests else 0.0,
        "count",
    )
    out["markov.empirical_markov_batch.word_samples_per_s"] = (
        _rate(
            sum(s.info.get("words", 0) * s.info.get("N", 0) for s in ests),
            total_s("markov.empirical_markov_batch"),
        ),
        "1/s",
    )

    sels = by_name["hokalman.find_selection"]
    out["hokalman.find_selection.candidates_scored"] = (
        sum(s.info.get("svd", 0) for s in sels) / len(sels) if sels else 0.0,
        "count",
    )
    reals = by_name["hokalman.realize"]
    margins = [s.info["sigma_n_margin"] for s in reals if "sigma_n_margin" in s.info]
    out["hokalman.realize.singular_frac"] = (
        sum(s.error == "SingularHankelError" for s in reals) / len(reals) if reals else 0.0,
        "ratio",
    )
    out["hokalman.realize.sigma_n_margin"] = (min(margins) if margins else 0.0, "ratio")

    finds = by_name["bounds.find_P"]
    out["bounds.find_P.ok_frac"] = (
        sum(s.error is None for s in finds) / len(finds) if finds else 0.0,
        "ratio",
    )

    runs = [(s, t) for s, t in zip(spans, self_s) if s.name == "experiment.run_experiment"]
    out["experiment.run_experiment.self_s"] = (
        sum(t for _, t in runs) / len(runs) if runs else 0.0,
        "s",
    )
    out["trace.overhead_ms_per_op"] = (overhead_ms_per_op, "ms")
    out["trace.spans"] = (len(spans), "count")
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
