"""Monte Carlo driver: row layout, determinism, outputs."""

import csv
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from switchid import (
    ExperimentConfig,
    run_experiment,
    save_model_file,
    two_mode_benchmark,
    write_figures,
    write_results_csv,
)
from switchid import experiment
from switchid.experiment import RESULTS_HEADER, ExperimentRow, _mean_series, load_results_csv


def tiny_config(**overrides):
    base = dict(
        N_grid=[300, 1000],
        trials=4,
        gamma_values=[0.6],
        Ku_noise_values=[1.0],
        Ku_input_values=[0.8],
        seed_base=100,
        burn_in=50,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_rows():
    return run_experiment(tiny_config())


def test_row_grid_and_seeds(tiny_rows):
    assert len(tiny_rows) == 8
    assert [r.N for r in tiny_rows] == [300] * 4 + [1000] * 4
    assert [r.trial for r in tiny_rows] == [0, 1, 2, 3] * 2
    assert [r.seed for r in tiny_rows] == [100, 101, 102, 103] * 2
    for r in tiny_rows:
        assert r.gamma == 0.6 and r.ku_noise == 1.0 and r.ku_input == 0.8
        assert np.isfinite(r.est_err) and r.est_err > 0.0
        assert r.wall_ms > 0.0


def test_bound_constant_within_grid_point(tiny_rows):
    by_N = {}
    for r in tiny_rows:
        by_N.setdefault(r.N, set()).add(r.bound)
    for N, bounds in by_N.items():
        assert len(bounds) == 1, f"bound not constant at N={N}"
    # Larger N, smaller bound (both invalid at these sizes, but the
    # certificate value itself is still monotone).
    assert max(by_N[1000]) < max(by_N[300])
    assert all(not r.valid for r in tiny_rows)


def test_same_seed_base_reproduces_everything_but_wall(tiny_rows):
    again = run_experiment(tiny_config())
    for a, b in zip(tiny_rows, again):
        assert (a.gamma, a.ku_noise, a.ku_input, a.N, a.trial, a.seed) == (
            b.gamma, b.ku_noise, b.ku_input, b.N, b.trial, b.seed
        )
        assert a.est_err == b.est_err
        assert a.bound == b.bound


def test_common_random_numbers_across_N(tiny_rows):
    # Same seed at different N means the shorter trajectory is not a
    # prefix of the longer (fresh draws), but trials are aligned by seed
    # so grid points are positively coupled; just check seeds repeat.
    seeds_300 = [r.seed for r in tiny_rows if r.N == 300]
    seeds_1000 = [r.seed for r in tiny_rows if r.N == 1000]
    assert seeds_300 == seeds_1000


def test_csv_roundtrip(tmp_path, tiny_rows):
    path = tmp_path / "results.csv"
    write_results_csv(str(path), tiny_rows)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == RESULTS_HEADER
    assert header == [
        "gamma", "ku_noise", "ku_input", "N", "trial", "seed",
        "est_err", "bound", "valid", "wall_ms",
    ]
    back = load_results_csv(str(path))
    assert len(back) == len(tiny_rows)
    for a, b in zip(back, tiny_rows):
        assert a.est_err == b.est_err  # repr round-trips doubles
        assert a.bound == b.bound
        assert a.valid == b.valid
        assert a.seed == b.seed


def test_csv_deterministic_bytes_except_wall(tmp_path, tiny_rows):
    rows2 = run_experiment(tiny_config())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(str(p1), tiny_rows)
    write_results_csv(str(p2), rows2)
    strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert strip(p1) == strip(p2)


def test_trial_with_a_singular_empirical_hankel_keeps_a_nan_row(tmp_path):
    # At N = 5 the empirical H_ab of seeds 1, 2 and 3 is singular.
    cfg = tiny_config(N_grid=[5], seed_base=0, burn_in=200, output_dir=str(tmp_path))
    said = []
    rows = run_experiment(cfg, progress=said.append)
    assert [np.isnan(r.est_err) for r in rows] == [False, True, True, True]
    assert said == [
        f"gamma=0.6 ku=1.0 ku_inp=0.8 N=5: mean est_err {rows[0].est_err:.4g} over 1/4 trials"
    ]
    path = tmp_path / "results.csv"
    write_results_csv(str(path), rows)
    assert [line.split(",")[6] for line in path.read_text().splitlines()[2:]] == ["nan"] * 3
    back = load_results_csv(str(path))
    assert back[0].est_err == rows[0].est_err and all(np.isnan(r.est_err) for r in back[1:])
    # The figures average the finite errors alone.
    fixed = {"ku_noise": 1.0, "ku_input": 0.8}
    assert _mean_series(rows, [5], "gamma", 0.6, fixed) == [rows[0].est_err]
    for figure in write_figures(cfg, rows):
        assert not re.search(r"\bnan\b", Path(figure).read_text(), re.IGNORECASE)


def test_nan_est_err_survives_csv(tmp_path):
    row = ExperimentRow(
        gamma=0.6, ku_noise=1.0, ku_input=0.8, N=10, trial=0, seed=0,
        est_err=float("nan"), bound=1.0, valid=False, wall_ms=1.0,
    )
    path = tmp_path / "nan.csv"
    write_results_csv(str(path), [row])
    back = load_results_csv(str(path))
    assert np.isnan(back[0].est_err)


def test_figures_written_and_parse(tmp_path, tiny_rows):
    cfg = tiny_config(output_dir=str(tmp_path))
    paths = write_figures(cfg, tiny_rows)
    assert len(paths) == 3
    for p in paths:
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
    with open(paths[0]) as fh:
        text = fh.read()
    assert "gamma = 0.6" in text
    assert "trajectory length N" in text


def test_threads_do_not_change_results():
    serial = run_experiment(tiny_config(trials=2, N_grid=[300]))
    parallel = run_experiment(tiny_config(trials=2, N_grid=[300], threads=2))
    assert [r.est_err for r in serial] == [r.est_err for r in parallel]


@pytest.mark.parametrize(
    "threads, cpus, workers", [(100_000, 2, 2), (4, None, 1), (3, 8, 3)],
    ids=["above-cpus", "cpus-unknown", "below-cpus"],
)
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, threads, cpus, workers):
    # The pool starts all its workers at its first map; a fake pool that
    # maps serially records the size asked for, so no process is started.
    import concurrent.futures
    import os

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rows = run_experiment(tiny_config(trials=2, N_grid=[300], threads=threads))
    assert sizes == [workers]
    serial = run_experiment(tiny_config(trials=2, N_grid=[300]))
    assert [r.est_err for r in rows] == [r.est_err for r in serial]


def test_progress_callback_called():
    seen = []
    run_experiment(tiny_config(trials=1, N_grid=[300]), progress=seen.append)
    assert len(seen) == 1
    assert "N=300" in seen[0]



def test_uncertifiable_gamma_reports_why_bound_is_nan(tmp_path):
    # The gamma = 0.6 family member cannot be certified at rate 0.1; the
    # trials still run, and the reason for the NaN bound is reported once.
    model, dist = two_mode_benchmark(0.6)
    path = tmp_path / "model.json"
    save_model_file(str(path), model, dist)
    seen = []
    cfg = tiny_config(model_file=str(path), gamma_values=[0.1], trials=1, N_grid=[300, 400])
    rows = run_experiment(cfg, progress=seen.append)
    assert len(rows) == 2
    assert all(np.isnan(r.bound) and not r.valid for r in rows)
    assert all(np.isfinite(r.est_err) for r in rows)
    notes = [line for line in seen if "no certificate" in line]
    assert len(notes) == 1
    assert notes[0].startswith("gamma=0.1: no certificate (no quadratic stability certificate")
    assert notes[0].endswith("bound = NaN")


def test_one_selection_search_per_distinct_model(monkeypatch, tmp_path):
    calls = []
    search = experiment.find_selection
    monkeypatch.setattr(experiment, "find_selection", lambda m: calls.append(m) or search(m))
    gammas = [0.1, 0.4, 0.6]
    run_experiment(tiny_config(gamma_values=gammas, trials=1, N_grid=[300]))
    assert len(calls) == 3
    path = tmp_path / "model.json"
    save_model_file(str(path), *two_mode_benchmark(0.6))
    calls.clear()
    run_experiment(tiny_config(model_file=str(path), gamma_values=gammas, trials=1, N_grid=[300]))
    assert len(calls) == 1


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.N_grid == [1_000, 3_000, 10_000, 30_000, 100_000]
        assert cfg.trials == 100
        assert cfg.gamma_values == [0.1, 0.4, 0.6]
        assert cfg.delta == 0.05

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        cfg2 = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg2 == cfg

    def test_load_json(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 7, "N_grid": [500]}))
        cfg = ExperimentConfig.load(str(path))
        assert cfg.trials == 7
        assert cfg.N_grid == [500]
        assert cfg.gamma_values == [0.1, 0.4, 0.6]  # defaults fill in

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"trails": 5})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(N_grid=[])
        with pytest.raises(ValueError):
            ExperimentConfig(N_grid=[0])
        with pytest.raises(ValueError):
            ExperimentConfig(threads=0)
        for delta in (0.0, 1.0, 5.0, float("nan")):
            with pytest.raises(ValueError, match="delta must lie in"):
                ExperimentConfig(delta=delta)
        with pytest.raises(ValueError, match="seed_base must be nonnegative"):
            ExperimentConfig(seed_base=-1)
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            ExperimentConfig(burn_in=-1)

    def test_rates_and_input_amplitudes(self):
        for gamma in (0.0, 1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="does not lie in"):
                ExperimentConfig(gamma_values=[0.4, gamma])
        for ku in (0.0, -0.8, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="is not a finite positive amplitude"):
                ExperimentConfig(Ku_input_values=[ku])
        for ku in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="is not a finite nonnegative amplitude"):
                ExperimentConfig(Ku_noise_values=[ku])
        ExperimentConfig(gamma_values=[1e-9, 0.999], Ku_noise_values=[0.0], Ku_input_values=[1e-3])

    @pytest.mark.parametrize(
        "field, value", [("trials", True), ("N_grid", [1000, 2e3]), ("burn_in", 200.0)]
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field}: .* is not an integer"):
            ExperimentConfig(**{field: value})
