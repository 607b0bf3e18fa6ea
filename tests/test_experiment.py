"""Monte Carlo driver: row layout, determinism, outputs."""

import csv
import dataclasses
import itertools
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

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
from switchid.experiment import RESULTS_HEADER, ExperimentRow, _finite_mean, load_results_csv
from test_simulate import SIMULATE_PEAK_ROWS, simulate_module


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
    # The progress line and the figures average the finite errors alone.
    assert _finite_mean(r.est_err for r in rows) == (rows[0].est_err, 1)
    for figure in write_figures(cfg, rows):
        assert not re.search(r"\bnan\b", Path(figure).read_text(), re.IGNORECASE)


PROGRESS_LINE = re.compile(
    r"gamma=(\S+) ku=(\S+) ku_inp=(\S+) N=(\d+): mean est_err (\S+) over (\d+)/\d+ trials"
)


def check_figure_points_against_progress(cfg, monkeypatch):
    """Run cfg, draw its figures, and check that every figure point is the
    mean its grid point's progress line prints.  Returns what each line
    printed: {(gamma, ku_noise, ku_input, N): (mean, count)}."""
    said, drawn = [], []
    rows = run_experiment(cfg, progress=said.append)
    monkeypatch.setattr(experiment, "line_chart", lambda path, series, **_: drawn.append(series))
    write_figures(cfg, rows)
    printed = {}
    for line in said:
        if match := PROGRESS_LINE.fullmatch(line):
            g, ku, ku_inp, N, mean, count = match.groups()
            printed[(float(g), float(ku), float(ku_inp), int(N))] = (mean, int(count))
    # Figure k sweeps the k-th of these, the others held at their first value.
    sweeps = [cfg.gamma_values, cfg.Ku_noise_values, cfg.Ku_input_values]
    checked = 0
    for axis, series in enumerate(drawn):
        for value, (_, xs, ys) in zip(sweeps[axis], series, strict=True):
            at = [values[0] for values in sweeps]
            at[axis] = value
            for N, y in zip(xs, ys, strict=True):
                assert f"{y:.4g}" == printed[(*at, int(N))][0]
                checked += 1
    assert checked == len(cfg.N_grid) * sum(map(len, sweeps))
    assert all((mean == "nan") == (count == 0) for mean, count in printed.values())
    return printed


@pytest.mark.parametrize(
    "overrides, counts",
    [
        # The experiment-N-5 call: 1 of 4 trials realizes at each gamma.
        (dict(N_grid=[5], gamma_values=[0.1, 0.4, 0.6], seed_base=0, burn_in=200), {5: {1}}),
        # Seeds 7-10 with a burn-in of 10 all give a singular H_ab at N = 5.
        (
            dict(N_grid=[5, 300], gamma_values=[0.1, 0.6], Ku_noise_values=[1.0, 0.5],
                 seed_base=7, burn_in=10),
            {5: {0}, 300: {4}},
        ),
    ],
    ids=["N-5", "every-trial-fails"],
)
def test_each_figure_point_is_the_mean_its_progress_line_prints(monkeypatch, overrides, counts):
    printed = check_figure_points_against_progress(tiny_config(**overrides), monkeypatch)
    assert {N: {c for k, (_, c) in printed.items() if k[3] == N} for N in counts} == counts


def test_figure_points_of_a_model_file_under_three_gammas(monkeypatch, tmp_path):
    # The three gammas' rows share each trial's outcome; each point is
    # still the mean its own progress line prints.
    path = tmp_path / "model.json"
    save_model_file(str(path), *two_mode_benchmark(0.6))
    cfg = tiny_config(model_file=str(path), gamma_values=[0.1, 0.4, 0.6], trials=3)
    printed = check_figure_points_against_progress(cfg, monkeypatch)
    assert len(printed) == 6
    assert len({mean for mean, _ in printed.values()}) == 2  # one per N


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
    serial, parallel = [], []
    rows = run_experiment(tiny_config(trials=2), progress=serial.append)
    pooled = run_experiment(tiny_config(trials=2, threads=2), progress=parallel.append)
    assert [r.est_err for r in rows] == [r.est_err for r in pooled]
    assert serial == parallel and len(serial) == 2


@pytest.mark.parametrize(
    "threads, cpus, workers", [(100_000, 2, 2), (4, None, 1), (3, 8, 3)],
    ids=["above-cpus", "cpus-unknown", "below-cpus"],
)
def test_pool_has_at_most_one_worker_per_cpu(monkeypatch, threads, cpus, workers):
    # The pool starts all its workers at its first map; a fake pool that
    # maps serially records the size asked for, so no process is started.
    # It is mapped once over every (N, seed) unit, so no worker waits at
    # the turn from one N to the next.
    import concurrent.futures
    import os

    sizes, maps = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            maps.append(list(iterable))
            return map(fn, maps[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rows = run_experiment(tiny_config(trials=2, threads=threads))
    assert sizes == [workers]
    assert maps == [[(300, 100), (300, 101), (1000, 100), (1000, 101)]]
    serial = run_experiment(tiny_config(trials=2))
    assert [r.est_err for r in rows] == [r.est_err for r in serial]


@pytest.mark.parametrize("from_file", [False, True], ids=["family", "model-file"])
def test_wall_ms_adds_up_to_the_draws_and_the_trials(monkeypatch, tmp_path, from_file):
    # A clock that moves 1 ms per reading makes each draw, each group's
    # rollout and estimation, and each realization and scoring take 1 ms:
    # the column sums to one draw and one group per (N, seed) unit, whose
    # trials form one group, and one realization per distinct trial and
    # seed.  A model file under three gammas runs one trial per unit, and
    # its three rows split it.
    ticks = itertools.count()
    monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 1e3))
    cfg = tiny_config(gamma_values=[0.1, 0.4, 0.6], trials=2)
    if from_file:
        path = tmp_path / "model.json"
        save_model_file(str(path), *two_mode_benchmark(0.6))
        cfg = dataclasses.replace(cfg, model_file=str(path))
    rows = run_experiment(cfg)
    units, distinct = 2 * 2, 1 if from_file else 3
    assert len(rows) == 12
    assert sum(r.wall_ms for r in rows) == pytest.approx(units * (2 + distinct))
    assert [r.wall_ms for r in rows] == pytest.approx([(2 + distinct) / 3] * 12)


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


def test_one_generator_per_N_and_seed(monkeypatch):
    # The grid points of one N share their seeds, so each (N, seed)
    # stream is drawn once and read by every gamma's trial.
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed)
    )
    rows = run_experiment(tiny_config(gamma_values=[0.1, 0.4, 0.6], trials=2))
    assert made == [100, 101, 100, 101]
    assert len(rows) == 12


def count_rollouts(monkeypatch):
    """The configs of every group rollout a run makes, one list per scan."""
    scans = []
    rollout = simulate_module.simulate_group
    monkeypatch.setattr(
        simulate_module, "simulate_group", lambda cfgs: scans.append(cfgs) or rollout(cfgs)
    )
    return scans


def test_identical_trials_run_once_and_share_their_outcome(monkeypatch, tmp_path):
    # A model file under three gammas gives one trial, rolled out alone,
    # per (N, seed).
    path = tmp_path / "model.json"
    save_model_file(str(path), *two_mode_benchmark(0.6))
    scans = count_rollouts(monkeypatch)
    gammas = [0.1, 0.4, 0.6]
    rows = run_experiment(tiny_config(model_file=str(path), gamma_values=gammas, trials=2))
    assert [[(cfg.N, cfg.seed) for cfg in cfgs] for cfgs in scans] == [
        [(300, 100)], [(300, 101)], [(1000, 100)], [(1000, 101)]
    ]
    per_gamma = [[(r.est_err, r.wall_ms) for r in rows if r.gamma == g] for g in gammas]
    assert per_gamma[0] == per_gamma[1] == per_gamma[2]
    assert [r.gamma for r in rows] == [g for g in gammas for _ in range(4)]


def test_the_family_rolls_its_gammas_out_as_one_group(monkeypatch):
    # The family's gammas share B, D, the mode law and the signal, so each
    # (N, seed) unit makes one scan of three models, in grid order; a second
    # noise amplitude makes a second group of each unit.
    scans = count_rollouts(monkeypatch)
    gammas = [0.1, 0.4, 0.6]
    run_experiment(tiny_config(gamma_values=gammas, trials=2))
    assert [[(cfg.N, cfg.seed) for cfg in cfgs] for cfgs in scans] == [
        [(N, seed)] * 3 for N in (300, 1000) for seed in (100, 101)
    ]
    family = [two_mode_benchmark(g)[0].A for g in gammas]
    for cfgs in scans:
        assert all(
            np.array_equal(cfg.model.A, A) for cfg, A in zip(cfgs, family, strict=True)
        )
    scans.clear()
    run_experiment(tiny_config(gamma_values=gammas, Ku_noise_values=[1.0, 0.5], trials=1))
    assert [[cfg.signal.Ku_noise for cfg in cfgs] for cfgs in scans] == [[1.0] * 3, [0.5] * 3] * 2


def test_a_singular_member_of_a_group_costs_only_its_own_trial(monkeypatch):
    # A member whose outputs are all zero estimates every Markov parameter
    # as zero, so its H_ab is singular; the group's other trials keep the
    # outcome they have without it.
    cfg = tiny_config(N_grid=[1000], gamma_values=[0.1, 0.4, 0.6])
    _, trials, groups = experiment._plan(cfg)
    (keys,) = groups[1000]
    group = [trials[1000][k] for k in keys]
    cfgs = [dataclasses.replace(trial.sim, seed=3) for trial in group]
    expect = experiment._run_group(group, cfgs)
    simulate = experiment.simulate

    def silence_second(cfg):
        sample = simulate(cfg)
        if cfg.model is cfgs[1].model:
            sample.y = np.zeros_like(sample.y)
        return sample

    monkeypatch.setattr(experiment, "simulate", silence_second)
    got = experiment._run_group(group, cfgs)
    assert [np.isnan(err) for err, _ in got] == [False, True, False]
    assert [got[0][0], got[2][0]] == [expect[0][0], expect[2][0]]


def test_the_family_estimates_its_gammas_as_one_group(monkeypatch):
    # Each (N, seed) unit's three gammas share their selection, so one
    # estimation pass serves them.
    passes = []
    estimate = experiment.estimate_group

    def counting(samples, *args):
        passes.append(len(samples))
        return estimate(samples, *args)

    monkeypatch.setattr(experiment, "estimate_group", counting)
    run_experiment(tiny_config(gamma_values=[0.1, 0.4, 0.6], trials=2))
    assert passes == [3] * 4


def test_progress_keeps_grid_order_and_waits_for_earlier_points(monkeypatch):
    # Units run N by N, each one group rollout: the N = 300 points are done
    # after 2 rollouts, the rest after 4; each line comes once every
    # earlier point is done.
    scans = count_rollouts(monkeypatch)
    said = []
    run_experiment(
        tiny_config(gamma_values=[0.1, 0.4], trials=2),
        progress=lambda line: said.append((len(scans), line.split(":")[0])),
    )
    assert said == [
        (2, "gamma=0.1 ku=1.0 ku_inp=0.8 N=300"),
        (4, "gamma=0.1 ku=1.0 ku_inp=0.8 N=1000"),
        (4, "gamma=0.4 ku=1.0 ku_inp=0.8 N=300"),
        (4, "gamma=0.4 ku=1.0 ku_inp=0.8 N=1000"),
    ]


def test_a_unit_holds_its_stream_beside_one_rollout():
    # Traced peak of a whole run at N = 1e5 over three gammas, in rows of
    # T = 100 201 floats: one simulate's peak, the R - 1 = 2 output rows
    # the group's other models add to it, the held stream's 1 + m + n + 1
    # rows, and half a row to spare.
    cfg = tiny_config(N_grid=[100_000], trials=1, gamma_values=[0.1, 0.4, 0.6], burn_in=200)
    run_experiment(dataclasses.replace(cfg, N_grid=[300]))  # warm any lazy imports
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = two_mode_benchmark(0.6)[0]
    R = len(cfg.gamma_values)
    assert peak / (8 * 100_201) <= SIMULATE_PEAK_ROWS[2] + R - 1 + model.m + model.n + 2 + 0.5


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
