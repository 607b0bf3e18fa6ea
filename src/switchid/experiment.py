"""Monte Carlo error-versus-N study.

The driver sweeps a parameter grid (stability rate gamma, noise
amplitude, input amplitude, trajectory length), runs seeded trials at
every grid point, and records the realization error of each trial
against the reference realization built from true Markov parameters
with the same selection.  Since estimate and reference share a
selection, errors are plain matrix differences and no basis alignment
is ever involved.

Rows are plain records ready for CSV; trials that fail (singular
empirical Hankel at small N) keep their row with a NaN error, so the
failure rate is itself a measurable statistic rather than a silent
retry.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from itertools import product

import numpy as np

from .bounds import CertificateError, compute_certificate, find_P
from .core import (
    LssModel,
    SignalSpec,
    SwitchingDistribution,
    check_integer,
    load_model_file,
    read_json,
    two_mode_benchmark,
)
from .hokalman import (
    RealizationResult,
    Selection,
    SingularHankelError,
    est_err,
    find_selection,
    identify_sample,
    true_realization,
)
from .simulate import DEFAULT_BURN_IN, SimConfig, simulate
from .svgplot import line_chart

@dataclass
class ExperimentConfig:
    """Grid, trial count and seeding for one study.

    With ``model_file`` unset every gamma value instantiates the
    two-mode benchmark family; with a model file the model is fixed and
    gamma only sets the stability rate to certify against.  The file's
    ``signal`` is not used: inputs and noise always come from
    ``Ku_input_values`` and ``Ku_noise_values``.
    """

    model_file: str | None = None
    delta: float = 0.05
    N_grid: list[int] = field(default_factory=lambda: [1_000, 3_000, 10_000, 30_000, 100_000])
    trials: int = 100
    gamma_values: list[float] = field(default_factory=lambda: [0.1, 0.4, 0.6])
    Ku_noise_values: list[float] = field(default_factory=lambda: [1.0])
    Ku_input_values: list[float] = field(default_factory=lambda: [0.8])
    seed_base: int = 0
    output_dir: str = "out"
    burn_in: int = DEFAULT_BURN_IN
    threads: int = 1

    def __post_init__(self):
        check_integer("trials", self.trials)
        for x in self.N_grid:
            check_integer("N_grid", x)
        for name in ("seed_base", "burn_in", "threads"):
            check_integer(name, getattr(self, name))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in ("N_grid", "gamma_values", "Ku_noise_values", "Ku_input_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(N < 1 for N in self.N_grid):
            raise ValueError("trajectory lengths must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.seed_base < 0:
            raise ValueError("seed_base must be nonnegative")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), not {self.delta!r}")
        for gamma in self.gamma_values:
            if not 0.0 < gamma < 1.0:
                raise ValueError(f"gamma_values: {gamma!r} does not lie in (0, 1)")
        for ku in self.Ku_noise_values:
            if not 0.0 <= ku < np.inf:
                raise ValueError(f"Ku_noise_values: {ku!r} is not a finite nonnegative amplitude")
        for ku in self.Ku_input_values:
            if not 0.0 < ku < np.inf:
                raise ValueError(
                    f"Ku_input_values: {ku!r} is not a finite positive amplitude; the "
                    "estimator inverts Sigma_u = Ku_input^2 / 3 I"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"an experiment config is a JSON object, not {type(d).__name__}")
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        return cls(**known)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        return read_json(path, cls.from_dict)


@dataclass
class ExperimentRow:
    """One (grid point, trial) outcome: one line of results.csv, whose
    columns are these fields in order."""

    gamma: float
    ku_noise: float
    ku_input: float
    N: int
    trial: int
    seed: int
    est_err: float
    bound: float
    valid: bool
    wall_ms: float = field(metadata={"format": "{:.3f}".format})


RESULTS_HEADER = [f.name for f in fields(ExperimentRow)]
# results.csv cells by field type (annotations are strings here): floats
# round-trip through repr, flags are 0/1; a field's "format" metadata
# replaces the writer.
_WRITE = {"float": lambda x: repr(float(x)), "int": str, "bool": lambda x: str(int(x))}
_READ = {"float": float, "int": int, "bool": lambda s: bool(int(s))}


def _run_one_trial(
    model: LssModel,
    dist: SwitchingDistribution,
    signal: SignalSpec,
    sigma_u: np.ndarray,
    N: int,
    burn_in: int,
    sel: Selection,
    words: set,
    rr_ref: RealizationResult,
    seed: int,
) -> tuple[float, float]:
    """Simulate, estimate, realize; returns (est_err, wall_ms)."""
    t0 = time.perf_counter()
    sample = simulate(
        SimConfig(model=model, dist=dist, signal=signal, N=N, burn_in=burn_in, seed=seed)
    )
    try:
        _, rr_hat = identify_sample(sample, sel, words, sigma_u, dist)
        err = est_err(rr_hat, rr_ref)
    except SingularHankelError:
        err = float("nan")
    return err, (time.perf_counter() - t0) * 1e3


def _plan(cfg: ExperimentConfig) -> list[tuple[str | None, dict, functools.partial]]:
    """Resolve every grid point, in run order, before the first trial.

    A point is the note to report before it (a gamma's missing
    certificate, at that gamma's first point), the row fields it fixes
    and its trial as a function of the seed.  Each distinct model is
    searched and realized once: per gamma for the built-in family, once
    for a model file.  Every refusal the config decides is raised here:
    an N too short for the estimator, and a bound or Sigma_u outside the
    float range.
    """
    fixed = None if cfg.model_file is None else load_model_file(cfg.model_file)[:2]
    truths = {}
    for gamma in cfg.gamma_values:
        key = None if fixed else gamma
        if key not in truths:
            model, dist = fixed or two_mode_benchmark(gamma)
            sel = find_selection(model)
            truths[key] = (model, dist, sel, *true_realization(model, sel))
    # A trajectory of N + 1 samples has N - |w| + 1 windows for a word w,
    # so the shortest N that runs is the longest required word plus one.
    shortest = max(len(w) for *_, words, _ in truths.values() for w in words) + 1
    too_short = [N for N in cfg.N_grid if N < shortest]
    if too_short:
        raise ValueError(
            f"N_grid: N = {too_short[0]} is too short: the estimator needs words of "
            f"length {shortest - 1}, so the shortest N that runs is {shortest}"
        )

    plan = []
    for gamma in cfg.gamma_values:
        model, dist, sel, words, rr_ref = truths[None if fixed else gamma]
        try:
            stability, note = find_P(model, dist, gamma), None
        except CertificateError as exc:
            stability, note = None, f"gamma={gamma}: no certificate ({exc}): bound = NaN"
        for ku_noise, ku_input, N in product(cfg.Ku_noise_values, cfg.Ku_input_values, cfg.N_grid):
            signal = SignalSpec(Ku_input=ku_input, Ku_noise=ku_noise)
            point = dict(gamma=gamma, ku_noise=ku_noise, ku_input=ku_input, N=N)
            if stability is None:
                point.update(bound=float("nan"), valid=False)
            else:
                bc = compute_certificate(
                    model, dist, signal, sel, rr_ref.sigma_n, cfg.delta, N, stability=stability
                )
                point.update(bound=bc.bound_EstErr, valid=bc.valid)
            run_trial = functools.partial(
                _run_one_trial, model, dist, signal, signal.sigma_u(model.m), N, cfg.burn_in,
                sel, words, rr_ref,
            )
            plan.append((note, point, run_trial))
            note = None
    return plan


def run_experiment(cfg: ExperimentConfig, progress=None) -> list[ExperimentRow]:
    """Run the whole grid; returns rows sorted by grid point and trial.

    ``progress`` may be a callable taking one status string.  The grid is
    planned first, so a refusal the config decides comes before any
    trial.  A gamma with no stability certificate gives its rows
    bound = NaN and valid = False, and ``progress`` is told why once for
    that gamma.  With cfg.threads > 1 trials run in a process pool of
    min(cfg.threads, os.cpu_count()) workers; results are gathered
    in submission order so the output is identical to a serial run
    (wall clock times aside).
    """
    plan = _plan(cfg)
    progress = progress or (lambda _: None)
    rows: list[ExperimentRow] = []
    seeds = range(cfg.seed_base, cfg.seed_base + cfg.trials)
    parallel = cfg.threads > 1
    pool = nullcontext()
    if parallel:
        # Imported here: at module level it costs every CLI call ~20 ms.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at once, so it gets no more
        # than there are CPUs to run them.
        pool = ProcessPoolExecutor(max_workers=min(cfg.threads, os.cpu_count() or 1))
    with pool:
        trial_map = functools.partial(pool.map, chunksize=4) if parallel else map
        for note, point, run_trial in plan:
            if note is not None:
                progress(note)
            outcomes = list(trial_map(run_trial, seeds))
            rows += [
                ExperimentRow(**point, trial=trial, seed=seed, est_err=err, wall_ms=wall)
                for trial, (seed, (err, wall)) in enumerate(zip(seeds, outcomes))
            ]
            good = [err for err, _ in outcomes if np.isfinite(err)]
            mean = float(np.mean(good)) if good else float("nan")
            progress(
                "gamma={gamma} ku={ku_noise} ku_inp={ku_input} N={N}: ".format(**point)
                + f"mean est_err {mean:.4g} over {len(good)}/{len(outcomes)} trials"
            )
    return rows


def write_results_csv(path: str, rows: list[ExperimentRow]) -> None:
    cells = [(f.name, f.metadata.get("format", _WRITE[f.type])) for f in fields(ExperimentRow)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in rows:
            writer.writerow([write(getattr(r, name)) for name, write in cells])


def load_results_csv(path: str) -> list[ExperimentRow]:
    cells = [(f.name, _READ[f.type]) for f in fields(ExperimentRow)]
    with open(path, newline="") as fh:
        return [
            ExperimentRow(**{name: read(rec[name]) for name, read in cells})
            for rec in csv.DictReader(fh)
        ]


def _mean_series(rows, N_grid, key, value, fixed):
    """Mean est_err per N for rows matching one swept value and the
    anchors for the other parameters; failed trials are excluded."""
    ys = []
    for N in N_grid:
        errs = [
            r.est_err
            for r in rows
            if r.N == N
            and getattr(r, key) == value
            and all(getattr(r, k) == v for k, v in fixed.items())
            and np.isfinite(r.est_err)
        ]
        ys.append(float(np.mean(errs)) if errs else float("nan"))
    return ys


def write_figures(cfg: ExperimentConfig, rows: list[ExperimentRow]) -> list[str]:
    """One log-log figure per swept parameter, anchored at the first
    value of the other sweeps.  Returns the written paths."""
    anchors = {
        "gamma": cfg.gamma_values[0],
        "ku_noise": cfg.Ku_noise_values[0],
        "ku_input": cfg.Ku_input_values[0],
    }
    sweeps = [
        ("gamma", cfg.gamma_values, "gamma"),
        ("ku_noise", cfg.Ku_noise_values, "noise amplitude"),
        ("ku_input", cfg.Ku_input_values, "input amplitude"),
    ]
    paths = []
    for key, values, label in sweeps:
        fixed = {k: v for k, v in anchors.items() if k != key}
        series = []
        for value in values:
            ys = _mean_series(rows, cfg.N_grid, key, value, fixed)
            series.append((f"{label} = {value:g}", [float(N) for N in cfg.N_grid], ys))
        path = os.path.join(cfg.output_dir, f"esterr_vs_N_{key}.svg")
        fixed_desc = ", ".join(f"{k} = {v:g}" for k, v in fixed.items())
        line_chart(
            path,
            series,
            xlabel="trajectory length N",
            ylabel="mean estimation error",
            title=f"Estimation error vs N ({fixed_desc})",
        )
        paths.append(path)
    return paths
