"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from switchid.bounds import StabilityCertificate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def tiny(name, workdir, seed=3):
    if name == "campaign":
        return workloads.Campaign(workdir, seed, trials=1, n_grid=(300, 1_000))
    if name == "identify":
        return workloads.Identify(workdir, seed, N=20_000, trajectories=1)
    return workloads.Certify(workdir, seed, n_grid=(1_000,))


def fail_frac(ops):
    return sum(not op.ok for op in ops) / len(ops)


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_named_with_units(tmp_path, name):
    wl = tiny(name, str(tmp_path))
    wl.setup()
    ops, busy = run.measure(wl, 0)[False]
    assert ops and fail_frac(ops) == 0.0
    metrics, lines = run.end_to_end(name, wl, ops, busy, setup_s=0.1)
    assert {k: u for k, (_, u) in metrics.items()} == END_TO_END
    assert all(v > 0 for v, _ in metrics.values())
    shown = " ".join(lines)
    assert all(f" {k} " in f" {shown} " for k in list(END_TO_END) + ["fail_frac"])


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_gives_every_per_layer_metric(tmp_path, name):
    import switchid.experiment

    original = switchid.experiment.simulate
    wl = tiny(name, str(tmp_path))
    wl.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        wl.setup()
        tracer.phase = None
        acc = run.measure(wl, 0, tracer)
    finally:
        tracer.uninstall()
    assert switchid.experiment.simulate is original
    assert tracer.spans and all(s.phase in ("setup", "ops") for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, len(acc[True][0]), 0.5)
    assert {k: u for k, (_, u) in metrics.items()} == PER_LAYER


def test_reference_matches_package_trials(tmp_path):
    wl = tiny("campaign", str(tmp_path))
    wl.setup()
    ops = wl.check(wl.step(0), 1.0)
    assert len(ops) == 6 and all(op.ok for op in ops)


def test_perturbed_rollout_fails_campaign_check(tmp_path, monkeypatch):
    import switchid.experiment

    simulate = switchid.experiment.simulate

    def off_by_one(cfg):
        sample = simulate(cfg)
        sample.y = np.concatenate([[0.0], sample.y[:-1]])
        return sample

    monkeypatch.setattr(switchid.experiment, "simulate", off_by_one)
    wl = tiny("campaign", str(tmp_path))
    wl.setup()
    ops = wl.check(wl.step(0), 1.0)
    assert fail_frac(ops) == 1.0
    assert all(op.reason == "check: est_err differs from reference" for op in ops)


def test_perturbed_realization_fails_identify_check(tmp_path, monkeypatch):
    realize = workloads.hokalman.realize

    def perturbed(hs, M_eps):
        rr = realize(hs, M_eps)
        rr.Abar[0] = rr.Abar[0] + 1e-3
        return rr

    wl = tiny("identify", str(tmp_path))
    wl.setup()
    assert wl.check(wl.step(0), 1.0)[0].ok
    monkeypatch.setattr(workloads.hokalman, "realize", perturbed)
    op = wl.check(wl.step(0), 1.0)[0]
    assert not op.ok and op.reason == "check: truth realization roundtrip"


@pytest.mark.parametrize(
    "P, ok",
    [(np.eye(4), True), (np.diag([1.0, 1e4, 1.0, 1.0]), False)],
)
def test_certificate_is_revalidated(tmp_path, monkeypatch, P, ok):
    # find_P finds no certificate without an SDP solver, so hand one in:
    # P = I certifies the identify model's stated rate, a distorted P does not.
    def given(model, dist, gamma):
        return StabilityCertificate(P=P, gamma=gamma, margin=1.0, schur_radius=0.5)

    monkeypatch.setattr(workloads.bounds, "find_P", given)
    wl = tiny("certify", str(tmp_path))
    wl.setup()
    identify_target = len(wl.targets) - 1
    op = wl.check(wl.step(identify_target), 1.0)[0]
    assert op.ok is ok
    if not ok:
        assert op.reason.startswith("check:")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
