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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import CertificateError, StabilityCertificate, compute_certificate, find_P
from .core import (
    LssModel,
    SignalSpec,
    SwitchingDistribution,
    load_model_file,
    read_json,
    two_mode_benchmark,
)
from .hokalman import (
    RealizationResult,
    Selection,
    SingularHankelError,
    build_hankels,
    est_err,
    find_selection,
    realize,
    required_words,
)
from .markov import empirical_markov_batch, true_markov_map
from .simulate import DEFAULT_BURN_IN, SimConfig, simulate
from .svgplot import line_chart

RESULTS_HEADER = [
    "gamma",
    "ku_noise",
    "ku_input",
    "N",
    "trial",
    "seed",
    "est_err",
    "bound",
    "valid",
    "wall_ms",
]


@dataclass
class ExperimentConfig:
    """Grid, trial count and seeding for one study.

    With ``model_file`` unset every gamma value instantiates the
    two-mode benchmark family; with a model file the model is fixed and
    gamma only sets the stability rate to certify against.
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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in ("N_grid", "gamma_values", "Ku_noise_values", "Ku_input_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(N < 1 for N in self.N_grid):
            raise ValueError("trajectory lengths must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
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
    """One (grid point, trial) outcome."""

    gamma: float
    ku_noise: float
    ku_input: float
    N: int
    trial: int
    seed: int
    est_err: float
    bound: float
    valid: bool
    wall_ms: float


def _run_one_trial(
    model: LssModel,
    dist: SwitchingDistribution,
    signal: SignalSpec,
    N: int,
    burn_in: int,
    seed: int,
    sel: Selection,
    words: set,
    rr_ref: RealizationResult,
) -> tuple[float, float]:
    """Simulate, estimate, realize; returns (est_err, wall_ms)."""
    t0 = time.perf_counter()
    sample = simulate(
        SimConfig(model=model, dist=dist, signal=signal, N=N, burn_in=burn_in, seed=seed)
    )
    mmap = empirical_markov_batch(sample, words, signal.sigma_u(model.m), dist)
    try:
        rr_hat = realize(build_hankels(mmap, sel), mmap[()])
        err = est_err(rr_hat, rr_ref)
    except SingularHankelError:
        err = float("nan")
    return err, (time.perf_counter() - t0) * 1e3


def run_experiment(cfg: ExperimentConfig, progress=None) -> list[ExperimentRow]:
    """Run the whole grid; returns rows sorted by grid point and trial.

    ``progress`` may be a callable taking one status string.  A gamma
    with no stability certificate gives its rows bound = NaN and
    valid = False, and ``progress`` is told why once for that gamma.  With
    cfg.threads > 1 trials run in a process pool; results are gathered
    in submission order so the output is identical to a serial run
    (wall clock times aside).
    """
    rows: list[ExperimentRow] = []
    base_model = base_dist = None
    if cfg.model_file is not None:
        base_model, base_dist, _ = load_model_file(cfg.model_file)
        if base_dist is None:
            base_dist = SwitchingDistribution(np.full(base_model.nQ, 1.0 / base_model.nQ))

    pool = ProcessPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        for gamma in cfg.gamma_values:
            if base_model is None:
                model, dist = two_mode_benchmark(gamma)
            else:
                model, dist = base_model, base_dist
            sel = find_selection(model)
            words = required_words(sel, model.nQ)
            mmap_true = true_markov_map(model, words)
            rr_ref = realize(build_hankels(mmap_true, sel), mmap_true[()])

            stability: StabilityCertificate | None
            try:
                stability = find_P(model, dist, gamma)
            except CertificateError as exc:
                stability = None
                if progress is not None:
                    progress(f"gamma={gamma}: no certificate ({exc}): bound = NaN")

            for ku_noise in cfg.Ku_noise_values:
                for ku_input in cfg.Ku_input_values:
                    signal = SignalSpec(Ku_input=ku_input, Ku_noise=ku_noise)
                    for N in cfg.N_grid:
                        if stability is not None:
                            bc = compute_certificate(
                                model,
                                dist,
                                signal,
                                sel,
                                rr_ref.sigma_n,
                                cfg.delta,
                                N,
                                stability=stability,
                            )
                            bound, valid = bc.bound_EstErr, bc.valid
                        else:
                            bound, valid = float("nan"), False

                        args = [
                            (model, dist, signal, N, cfg.burn_in, cfg.seed_base + trial,
                             sel, words, rr_ref)
                            for trial in range(cfg.trials)
                        ]
                        if pool is None:
                            outcomes = [_run_one_trial(*a) for a in args]
                        else:
                            outcomes = list(pool.map(_run_one_trial_star, args, chunksize=4))
                        for trial, (err, wall) in enumerate(outcomes):
                            rows.append(
                                ExperimentRow(
                                    gamma=gamma,
                                    ku_noise=ku_noise,
                                    ku_input=ku_input,
                                    N=N,
                                    trial=trial,
                                    seed=cfg.seed_base + trial,
                                    est_err=err,
                                    bound=bound,
                                    valid=valid,
                                    wall_ms=wall,
                                )
                            )
                        if progress is not None:
                            good = [o[0] for o in outcomes if np.isfinite(o[0])]
                            mean = float(np.mean(good)) if good else float("nan")
                            progress(
                                f"gamma={gamma} ku={ku_noise} ku_inp={ku_input} N={N}: "
                                f"mean est_err {mean:.4g} over {len(good)}/{len(outcomes)} trials"
                            )
    finally:
        if pool is not None:
            pool.shutdown()
    return rows


def _run_one_trial_star(args):
    return _run_one_trial(*args)


def write_results_csv(path: str, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    repr(float(r.gamma)),
                    repr(float(r.ku_noise)),
                    repr(float(r.ku_input)),
                    r.N,
                    r.trial,
                    r.seed,
                    repr(float(r.est_err)),
                    repr(float(r.bound)),
                    int(r.valid),
                    f"{r.wall_ms:.3f}",
                ]
            )


def load_results_csv(path: str) -> list[ExperimentRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                ExperimentRow(
                    gamma=float(rec["gamma"]),
                    ku_noise=float(rec["ku_noise"]),
                    ku_input=float(rec["ku_input"]),
                    N=int(rec["N"]),
                    trial=int(rec["trial"]),
                    seed=int(rec["seed"]),
                    est_err=float(rec["est_err"]),
                    bound=float(rec["bound"]),
                    valid=bool(int(rec["valid"])),
                    wall_ms=float(rec["wall_ms"]),
                )
            )
    return rows


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
