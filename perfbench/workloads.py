"""The benchmark's workloads: input generation, one timed step, output checks.

Every workload is a closed loop with one caller: a step starts when the
previous one has returned.  ``setup`` writes the inputs the program receives
(model file, trajectory files, experiment config) through the package's own
writers.  ``step`` does what one CLI command does with them and returns its
raw outputs; ``check`` runs after the step's clock has stopped and turns the
outputs into one ``Op`` per operation.  Failures the program signals with its
own exceptions count as failed operations, not as crashes.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference
import switchid.bounds as bounds
import switchid.core as core
import switchid.experiment as experiment
import switchid.hokalman as hokalman
import switchid.markov as markov

# The package re-exports the function simulate under the submodule's name.
simulate = importlib.import_module("switchid.simulate")

GAMMAS = (0.1, 0.4, 0.6)
N_GRID = (1_000, 10_000, 100_000)
KU_INPUT, KU_NOISE = 0.8, 1.0
DELTA = 0.05

# A campaign trial's est_err must match the independent reference to this
# relative tolerance.  Reordered sums move it by ~1e-15 (measured worst
# 9e-16 at the seed commit); a wrong normalisation or an off-by-one in the
# rollout or estimator moves it by 1e-4 or more.
EST_ERR_RTOL = 1e-7
# Markov parameters of the truth realization must match the true ones to
# this tolerance relative to the largest of them.
ROUNDTRIP_RTOL = 1e-9

# The identify model: every A_q has spectral norm 0.3, so P = I certifies
# gamma = nQ * 0.3 = 0.9, below the stated rate.
IDENTIFY_DIMS = dict(n=4, m=1, nQ=3)
IDENTIFY_A_NORM = 0.3
IDENTIFY_RATE = 0.95

REFUSALS = (
    hokalman.SingularHankelError,
    hokalman.SelectionRankError,
    simulate.DivergenceError,
    bounds.CertificateError,
)


@dataclass
class Op:
    ok: bool
    reason: str | None = None
    ms: float | None = None


def identify_model(seed: int):
    """Seeded n = 4, nQ = 3, m = 1 model with uniform modes."""
    rng = np.random.default_rng([seed, 4])
    n, m, nQ = IDENTIFY_DIMS["n"], IDENTIFY_DIMS["m"], IDENTIFY_DIMS["nQ"]
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(IDENTIFY_A_NORM * G / np.linalg.norm(G, 2))
    model = core.LssModel(
        n=n,
        m=m,
        nQ=nQ,
        A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n),
        D=rng.standard_normal(m),
    )
    dist = core.SwitchingDistribution(np.full(nQ, 1.0 / nQ))
    return model, dist, core.SignalSpec(Ku_input=KU_INPUT, Ku_noise=KU_NOISE)


def sorted_words(sel, nQ):
    return sorted(hokalman.required_words(sel, nQ), key=lambda w: (len(w), w))


def certificate_reason(model, cert, gamma_target) -> str | None:
    """Re-validate an accepted certificate with gamma_from_P; None if sound."""
    try:
        gamma, margin = bounds.gamma_from_P(model, cert.P)
    except (ValueError, bounds.CertificateError):
        return "check: P certifies no rate"
    if not (margin > 0.0 and gamma <= gamma_target):
        return "check: certificate not revalidated"
    return None


def roundtrip_reason(rr_ref, mmap_true, words, err) -> str | None:
    """The truth realization must reproduce the true Markov parameters and
    the estimate's error must be finite; None if both hold."""
    back = hokalman.markov_roundtrip(rr_ref, words)
    scale = max(float(np.max(np.abs(mmap_true[w]))) for w in words)
    worst = max(float(np.max(np.abs(back[w] - mmap_true[w]))) for w in words)
    if not worst <= ROUNDTRIP_RTOL * scale:
        return "check: truth realization roundtrip"
    if not math.isfinite(err):
        return "check: est_err not finite"
    return None


class Campaign:
    """run_experiment, write_results_csv and write_figures on the two-mode
    family; one step runs ``trials`` seeded trials at every grid point."""

    name = "campaign"
    probe_mix = {"rollout": 1.0}

    def __init__(self, workdir, seed, trials=1, n_grid=N_GRID):
        self.workdir = workdir
        self.seed = seed
        self.trials = trials
        self.n_grid = list(n_grid)
        self.config_path = os.path.join(workdir, "campaign.json")
        self.outdir = os.path.join(workdir, "campaign_out")
        self.grid_points = 0
        self.nan_bounds = 0

    def setup(self):
        cfg = experiment.ExperimentConfig(
            delta=DELTA,
            N_grid=self.n_grid,
            trials=self.trials,
            gamma_values=list(GAMMAS),
            Ku_noise_values=[KU_NOISE],
            Ku_input_values=[KU_INPUT],
            output_dir=self.outdir,
            threads=1,
        )
        with open(self.config_path, "w") as fh:
            json.dump(cfg.to_dict(), fh)

    def step(self, i):
        cfg = experiment.ExperimentConfig.load(self.config_path)
        cfg.seed_base = self.seed * 1_000_000 + i * cfg.trials
        os.makedirs(cfg.output_dir, exist_ok=True)
        try:
            rows = experiment.run_experiment(cfg)
        except REFUSALS as exc:
            return cfg, exc
        csv_path = os.path.join(cfg.output_dir, "results.csv")
        experiment.write_results_csv(csv_path, rows)
        figures = experiment.write_figures(cfg, rows)
        return cfg, (rows, csv_path, figures)

    def check(self, out, step_ms) -> list[Op]:
        cfg, result = out
        expected = len(cfg.gamma_values) * len(cfg.N_grid) * cfg.trials
        if isinstance(result, Exception):
            return [Op(False, type(result).__name__, step_ms / expected)] * expected
        rows, csv_path, figures = result
        if len(rows) != expected:
            return [Op(False, "check: row count", step_ms / expected)] * expected
        points = {(r.gamma, r.N) for r in rows}
        self.grid_points += len(points)
        self.nan_bounds += len({(r.gamma, r.N) for r in rows if math.isnan(r.bound)})

        files_reason = None
        saved = [r.est_err for r in experiment.load_results_csv(csv_path)]
        if not np.array_equal(saved, [r.est_err for r in rows], equal_nan=True):
            files_reason = "check: results.csv"
        elif not all(os.path.getsize(p) > 0 for p in figures) or len(figures) != 3:
            files_reason = "check: figures"

        ops = []
        for r in rows:
            if math.isnan(r.est_err):
                ops.append(Op(False, "SingularHankelError", r.wall_ms))
                continue
            ref = reference.trial_est_err(r.gamma, r.N, r.seed, r.ku_input, r.ku_noise, cfg.burn_in)
            if files_reason is not None:
                ops.append(Op(False, files_reason, r.wall_ms))
            elif not abs(r.est_err - ref) <= EST_ERR_RTOL * abs(ref):
                ops.append(Op(False, "check: est_err differs from reference", r.wall_ms))
            else:
                ops.append(Op(True, None, r.wall_ms))
        return ops

    def summary(self) -> dict:
        frac = self.nan_bounds / self.grid_points if self.grid_points else 0.0
        return {"bound_fail_frac": (frac, "ratio")}


class Identify:
    """What ``switchid identify --trajectory`` does, on seeded n = 4, nQ = 3
    trajectory files written in set-up."""

    name = "identify"
    probe_mix = {"parse": 0.5, "factor": 0.5}

    def __init__(self, workdir, seed, N=100_000, trajectories=2):
        self.workdir = workdir
        self.seed = seed
        self.N = N
        self.model_path = os.path.join(workdir, "identify_model.json")
        self.traj_paths = [os.path.join(workdir, f"identify_{j}.csv") for j in range(trajectories)]
        self.out_path = os.path.join(workdir, "identify_realization.json")

    def setup(self):
        model, dist, signal = identify_model(self.seed)
        core.save_model_file(self.model_path, model, dist, signal)
        for j, path in enumerate(self.traj_paths):
            cfg = simulate.SimConfig(
                model=model, dist=dist, signal=signal, N=self.N, seed=self.seed * 1_000 + j
            )
            simulate.save_trajectory(path, simulate.simulate(cfg))

    def step(self, i):
        model, dist, signal = core.load_model_file(self.model_path)
        sample = simulate.load_trajectory(self.traj_paths[i % len(self.traj_paths)])
        try:
            sel = hokalman.find_selection(model)
            words = sorted_words(sel, model.nQ)
            mmap = markov.empirical_markov_batch(sample, words, signal.sigma_u(model.m), dist)
            rr_hat = hokalman.realize(hokalman.build_hankels(mmap, sel), mmap[()])
            mmap_true = markov.true_markov_map(model, words)
            rr_ref = hokalman.realize(hokalman.build_hankels(mmap_true, sel), mmap_true[()])
        except REFUSALS as exc:
            return exc
        err = hokalman.est_err(rr_hat, rr_ref)
        hokalman.save_realization(self.out_path, rr_hat, sel)
        return words, mmap_true, rr_ref, err

    def check(self, out, step_ms) -> list[Op]:
        if isinstance(out, Exception):
            return [Op(False, type(out).__name__, step_ms)]
        words, mmap_true, rr_ref, err = out
        reason = roundtrip_reason(rr_ref, mmap_true, words, err)
        return [Op(reason is None, reason, step_ms)]

    def summary(self) -> dict:
        return {}


class Certify:
    """find_P at a target rate, then compute_certificate over N and
    min_valid_N; targets cycle over the two-mode family at each gamma and
    the identify model at its stated rate."""

    name = "certify"
    probe_mix = {"factor": 1.0}

    def __init__(self, workdir, seed, n_grid=N_GRID):
        self.workdir = workdir
        self.seed = seed
        self.n_grid = list(n_grid)
        self.model_path = os.path.join(workdir, "certify_model.json")
        self.targets = []

    def setup(self):
        model, dist, signal = identify_model(self.seed)
        core.save_model_file(self.model_path, model, dist, signal)
        loaded = core.load_model_file(self.model_path)
        family = [core.two_mode_benchmark(g) + (core.SignalSpec(KU_INPUT, KU_NOISE), g) for g in GAMMAS]
        self.targets = []
        for model, dist, signal, gamma in family + [loaded + (IDENTIFY_RATE,)]:
            sel = hokalman.find_selection(model)
            mmap_true = markov.true_markov_map(model, sorted_words(sel, model.nQ))
            rr = hokalman.realize(hokalman.build_hankels(mmap_true, sel), mmap_true[()])
            self.targets.append((model, dist, signal, sel, rr.sigma_n, gamma))

    def step(self, i):
        model, dist, signal, sel, sigma_n, gamma = target = self.targets[i % len(self.targets)]
        try:
            cert = bounds.find_P(model, dist, gamma)
        except REFUSALS as exc:
            return target, exc
        certs = [
            bounds.compute_certificate(model, dist, signal, sel, sigma_n, DELTA, N, stability=cert)
            for N in self.n_grid
        ]
        n_min = bounds.min_valid_N(model, dist, signal, sel, sigma_n, DELTA, stability=cert)
        return target, (cert, certs, n_min)

    def check(self, out, step_ms) -> list[Op]:
        (model, _, _, _, _, gamma), result = out
        if isinstance(result, Exception):
            return [Op(False, type(result).__name__, step_ms)]
        cert, certs, n_min = result
        reason = certificate_reason(model, cert, gamma)
        if reason is None and not all(
            bc.stability is cert and math.isfinite(bc.bound_EstErr) for bc in certs
        ):
            reason = "check: bound certificate"
        if reason is None and not n_min >= 1:
            reason = "check: min_valid_N"
        return [Op(reason is None, reason, step_ms)]

    def summary(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Campaign, Identify, Certify)}
