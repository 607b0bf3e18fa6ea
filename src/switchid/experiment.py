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
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .bounds import CertificateError, compute_certificate, find_P
from .core import (
    SignalSpec,
    check_integer,
    check_list,
    check_real,
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
    required_words,
    true_realization,
)
from .simulate import (
    DEFAULT_BURN_IN,
    SimConfig,
    forcing_difference,
    rollout_group,
    seed_stream,
    simulate,
)
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
        # open() takes an int as a file descriptor (0 is stdin, True is 1).
        for name, kinds in [("model_file", (str, type(None))), ("output_dir", str)]:
            if not isinstance(getattr(self, name), kinds):
                raise ValueError(f"{name}: {getattr(self, name)!r} is not a path string")
        for name, low in [("trials", 1), ("threads", 1), ("seed_base", 0), ("burn_in", 0)]:
            if check_integer(name, getattr(self, name)) < low:
                raise ValueError(f"{name} must be " + ("at least 1" if low else "nonnegative"))
        for name in ("N_grid", "gamma_values", "Ku_noise_values", "Ku_input_values"):
            if not check_list(name, getattr(self, name)):
                raise ValueError(f"{name} must be non-empty")
        for N in self.N_grid:
            if check_integer("N_grid", N) < 1:
                raise ValueError("trajectory lengths must be positive")
        if not 0.0 < check_real("delta", self.delta) < 1.0:
            raise ValueError(f"delta must lie in (0, 1), not {self.delta!r}")
        for gamma in self.gamma_values:
            if not 0.0 < check_real("gamma_values", gamma) < 1.0:
                raise ValueError(f"gamma_values: {gamma!r} does not lie in (0, 1)")
        for ku in self.Ku_noise_values:
            if not 0.0 <= check_real("Ku_noise_values", ku) < np.inf:
                raise ValueError(f"Ku_noise_values: {ku!r} is not a finite nonnegative amplitude")
        for ku in self.Ku_input_values:
            if not 0.0 < check_real("Ku_input_values", ku) < np.inf:
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
    columns are these fields in order.

    ``wall_ms`` is the row's share of the run's trial time: its trial's
    own estimation and realization time, plus an even share of its
    group's rollout (the trials of one (N, seed) that share their forcing
    roll out in one scan) and an even share of the draw of the (N, seed)
    stream, divided evenly among the rows that share the trial's outcome.
    The column adds up to the time the run spent in trials."""

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


class _Trial(NamedTuple):
    """One distinct trial of the grid, for any seed: its simulation config
    (seed 0, no stream) and what its estimate is realized and scored with."""

    sim: SimConfig
    sigma_u: np.ndarray
    sel: Selection
    rr_ref: RealizationResult


def _run_group(trials: list[_Trial], cfgs: list[SimConfig]) -> list[tuple[float, float]]:
    """Roll out cfgs, the configs of trials, which share their forcing,
    then estimate and realize each; returns each trial's (est_err,
    wall_ms), wall_ms its own estimation and realization time plus an
    even share of the rollout.  A function of its own so that its return
    frees the samples before the unit's next rollout."""
    t0 = time.perf_counter()
    # rollout_group rolls the group out in one scan; each sample is then
    # read through simulate, config by config, so that a wrapper of this
    # module's simulate (perfbench's perturbed rollout) sees every trial.
    samples = [simulate(cfg) for cfg in rollout_group(cfgs)]
    share_ms = (time.perf_counter() - t0) * 1e3 / len(cfgs)
    outcomes = []
    for trial, sample in zip(trials, samples):
        t0 = time.perf_counter()
        try:
            _, rr_hat = identify_sample(sample, trial.sel, trial.sigma_u, trial.sim.dist)
            err = est_err(rr_hat, trial.rr_ref)
        except SingularHankelError:
            err = float("nan")
        outcomes.append((err, (time.perf_counter() - t0) * 1e3 + share_ms))
    return outcomes


def _run_unit(
    trials: dict[int, dict], groups: dict[int, list], unit: tuple[int, int]
) -> list[tuple[float, float]]:
    """Every distinct trial of one (N, seed): the seed's stream is drawn
    once, to the longest layout any of them reads, and each group of
    groups[N] rolls out from it in one scan (:func:`_run_group`).
    Returns each trial's (est_err, wall_ms), in the order of trials[N],
    its wall_ms holding an even share of the draw."""
    N, seed = unit
    at_N = trials[N]
    t0 = time.perf_counter()
    stream = seed_stream(seed, [t.sim for t in at_N.values()])
    draw_ms = (time.perf_counter() - t0) * 1e3 / len(at_N)
    outcomes = {}
    for keys in groups[N]:
        cfgs = [replace(at_N[k].sim, seed=seed, stream=stream) for k in keys]
        for k, (err, ms) in zip(keys, _run_group([at_N[k] for k in keys], cfgs)):
            outcomes[k] = err, ms + draw_ms
    return [outcomes[k] for k in at_N]


def _plan(cfg: ExperimentConfig) -> tuple[list, dict[int, dict], dict[int, list]]:
    """Resolve every grid point, in run order, before the first trial.

    Returns (plan, trials, groups).  A point of the plan is the note to
    report before it (a gamma's missing certificate, at that gamma's
    first point), the row fields it fixes and the key of its trial in
    trials[N], the distinct trials of each N in grid order.  The key is
    (gamma or None, ku_noise, ku_input, N), so points whose trials are
    identical (same model, signal and N: a model file under several
    gammas) share one trial.  groups[N] holds the keys of trials[N] by
    the forcing they share (:func:`forcing_difference`: n, m, nQ, B, D,
    the mode law, the signal and burn_in), each group in grid order: the
    built-in family's gammas of one (ku_noise, ku_input) form one group,
    and a model file's, already one trial, a group of one.  Each distinct
    model is searched and realized once: per gamma for the built-in
    family, once for a model file; each trial's :func:`identify_sample`
    reads the word set off the selection.  Every refusal the config
    decides is raised here: an N shorter than the longest required word
    allows, and a bound or Sigma_u outside the float range.
    """
    fixed = None if cfg.model_file is None else load_model_file(cfg.model_file)[:2]
    truths = {}
    for gamma in cfg.gamma_values:
        key = None if fixed else gamma
        if key not in truths:
            model, dist = fixed or two_mode_benchmark(gamma)
            sel = find_selection(model)
            truths[key] = (model, dist, sel, true_realization(model, sel))
    # A trajectory of N + 1 samples has N - |w| + 1 windows for a word w,
    # so the shortest N that runs is the longest required word plus one.
    shortest = 1 + max(
        len(w) for model, _, sel, _ in truths.values() for w in required_words(sel, model.nQ)
    )
    too_short = [N for N in cfg.N_grid if N < shortest]
    if too_short:
        raise ValueError(
            f"N_grid: N = {too_short[0]} is too short: the estimator needs words of "
            f"length {shortest - 1}, so the shortest N that runs is {shortest}"
        )

    plan, trials = [], {}
    for gamma in cfg.gamma_values:
        key = None if fixed else gamma
        model, dist, sel, rr_ref = truths[key]
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
            same = (key, ku_noise, ku_input, N)
            at_N = trials.setdefault(N, {})
            if same not in at_N:
                sim = SimConfig(model=model, dist=dist, signal=signal, N=N, burn_in=cfg.burn_in)
                at_N[same] = _Trial(sim, signal.sigma_u(model.m), sel, rr_ref)
            plan.append((note, point, same))
            note = None

    groups = {}
    for N, at_N in trials.items():
        firsts = []  # each group's first config and its keys
        for key, trial in at_N.items():
            for sim, keys in firsts:
                if forcing_difference(sim, trial.sim) is None:
                    keys.append(key)
                    break
            else:
                firsts.append((trial.sim, [key]))
        groups[N] = [keys for _, keys in firsts]
    return plan, trials, groups


def _finite_mean(errs) -> tuple[float, int]:
    """Mean of the finite est_err, NaN when none, and their count: a grid
    point's progress line and its figure point both read this."""
    good = [err for err in errs if np.isfinite(err)]
    return (float(np.mean(good)) if good else float("nan")), len(good)


def run_experiment(cfg: ExperimentConfig, progress=None) -> list[ExperimentRow]:
    """Run the whole grid; returns rows sorted by grid point and trial.

    ``progress`` may be a callable taking one status string.  The grid is
    planned first, so a refusal the config decides comes before any
    trial.  A gamma with no stability certificate gives its rows
    bound = NaN and valid = False, and ``progress`` is told why once for
    that gamma, before its first point's line.

    Trials run in units of (N, seed), N in the order the grid first
    reaches it: each unit draws the seed's stream once and rolls out
    every distinct trial of that N from it, the trials that share their
    forcing in one scan (:func:`_run_unit`), so the grid points of one N
    share their random numbers.  Results are read N by N into one table
    keyed by trial; a point's progress line comes in grid order, once its
    trial is in the table.  Rows that share a trial share its outcome and
    split its wall_ms evenly.

    With cfg.threads > 1 one map over every unit runs in a process pool
    of min(cfg.threads, os.cpu_count()) workers, so no worker waits at
    an N boundary; results come in submission order, so the output is
    that of a serial run (wall clock times aside).
    """
    plan, trials, groups = _plan(cfg)
    progress = progress or (lambda _: None)
    seeds = range(cfg.seed_base, cfg.seed_base + cfg.trials)
    shares = Counter(same for _, _, same in plan)  # rows per trial
    done, reported = {}, 0  # trial key -> its (est_err, wall_ms) per seed
    parallel = cfg.threads > 1
    pool = nullcontext()
    if parallel:
        # Imported here: at module level it costs every CLI call ~20 ms.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at once, so it gets no more
        # than there are CPUs to run them.
        pool = ProcessPoolExecutor(max_workers=min(cfg.threads, os.cpu_count() or 1))
    with pool:
        unit_map = functools.partial(pool.map, chunksize=4) if parallel else map
        units = [(N, seed) for N in trials for seed in seeds]
        results = unit_map(functools.partial(_run_unit, trials, groups), units)
        for at_N in trials.values():
            done.update(zip(at_N, zip(*[next(results) for _ in seeds])))
            while reported < len(plan) and plan[reported][2] in done:
                note, point, same = plan[reported]
                if note is not None:
                    progress(note)
                mean, count = _finite_mean(err for err, _ in done[same])
                progress(
                    "gamma={gamma} ku={ku_noise} ku_inp={ku_input} N={N}: ".format(**point)
                    + f"mean est_err {mean:.4g} over {count}/{len(seeds)} trials"
                )
                reported += 1
    return [
        ExperimentRow(**point, trial=trial, seed=seed, est_err=err, wall_ms=ms / shares[same])
        for _, point, same in plan
        for trial, (seed, (err, ms)) in enumerate(zip(seeds, done[same]))
    ]


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


def write_figures(cfg: ExperimentConfig, rows: list[ExperimentRow]) -> list[str]:
    """One log-log figure per swept parameter, anchored at the first
    value of the other sweeps; a point is its rows' :func:`_finite_mean`.
    Returns the written paths."""
    errs = {}  # (gamma, ku_noise, ku_input, N) -> est_err of its rows, in row order
    for r in rows:
        errs.setdefault((r.gamma, r.ku_noise, r.ku_input, r.N), []).append(r.est_err)
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
            at = {**anchors, key: value}.values()
            ys = [_finite_mean(errs.get((*at, N), ()))[0] for N in cfg.N_grid]
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
