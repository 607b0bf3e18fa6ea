"""Command line behaviour: happy paths, file outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import switchid
from switchid import save_model_file, two_mode_benchmark
from switchid.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_no_subcommand_prints_help(capsys):
    rc, out, _ = run(capsys, )
    assert rc == 1
    assert "simulate" in out and "experiment" in out


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frobnicate"])
    assert exc.value.code == 1


def test_simulate_prints_summary(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    rc, out, _ = run(
        capsys, "simulate", "--gamma", "0.6", "--N", "400", "--seed", "5",
        "--out", str(out_file),
    )
    assert rc == 0
    assert "simulated N = 400" in out
    assert "mode frequencies" in out
    assert out_file.exists()
    header = out_file.read_text().splitlines()[0]
    assert header == "t,y,u_1,q"


def test_identify_from_saved_trajectory(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "5000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    out_file = tmp_path / "real.json"
    rc, out, _ = run(
        capsys, "identify", "--trajectory", str(traj), "--out", str(out_file)
    )
    assert rc == 0
    assert "sigma_n(H_ab) estimate" in out
    doc = json.loads(out_file.read_text())
    assert doc["n"] == 2
    assert "selection" in doc

    # A trajectory file names no model: est_err is scored only against a
    # truth the caller names.
    traj = tmp_path / "traj01.csv"
    rc, _, _ = run(
        capsys, "simulate", "--gamma", "0.1", "--N", "5000", "--seed", "2", "--out", str(traj)
    )
    assert rc == 0
    rc, out, _ = run(capsys, "identify", "--trajectory", str(traj))
    assert rc == 0
    assert "est_err =" not in out and "(true" not in out
    assert "no truth model named" in out
    rc, out, _ = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.1")
    assert rc == 0
    assert "est_err =" in out and "(true" in out


def test_identify_refuses_mismatched_input_covariance(capsys, tmp_path):
    # Inputs drawn at amplitude 0.8 have four times the variance that
    # --ku-input 0.4 states.
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "5000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    rc, out, err = run(
        capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6", "--ku-input", "0.4"
    )
    assert rc == 1
    assert "input covariance does not match" in err
    assert "est_err" not in out


def test_identify_refuses_out_of_range_mode_label(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "2000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    lines = traj.read_text().splitlines()
    fields = lines[10].split(",")
    lines[10] = ",".join(fields[:-1] + ["3"])  # step 9 claims a third mode
    traj.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "identify", "--trajectory", str(traj))
    assert rc == 1
    assert "mode label 3 at step 9 outside 1..2" in err


def test_identify_refuses_row_with_missing_field(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "2000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    lines = traj.read_text().splitlines()
    t, y, _, q = lines[10].split(",")
    lines[10] = ",".join([t, y, q])  # u_1 dropped: the row would read u = q
    traj.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6")
    assert rc == 1
    assert f"{traj}, line 11: 3 fields, the header has 4" in err
    assert "est_err" not in out


def test_identify_refuses_row_with_non_number_field(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "2000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    lines = traj.read_text().splitlines()
    t, _, u, q = lines[10].split(",")
    lines[10] = ",".join([t, "abc", u, q])
    traj.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6")
    assert rc == 1
    assert f"error: {traj}, line 11: field 'y' is not a number: 'abc'" in err
    assert "est_err" not in out


@pytest.mark.parametrize(
    "text, reason",
    [("", "empty file, no header"), ("t,y,u_1,q\n", "no data rows")],
    ids=["empty", "header-only"],
)
def test_identify_refuses_trajectory_without_rows(capsys, tmp_path, text, reason):
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    rc, out, err = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6")
    assert rc == 1
    assert f"error: {traj}: {reason}" in err
    assert "est_err" not in out


def test_identify_refuses_short_run(capsys):
    rc, _, err = run(capsys, "identify", "--N", "8")
    assert rc == 1
    assert "too short" in err


def test_selection_output(capsys, tmp_path):
    out_file = tmp_path / "sel.json"
    rc, out, _ = run(capsys, "selection", "--gamma", "0.6", "--out", str(out_file))
    assert rc == 0
    assert "sigma_n(H_ab) = 0.874" in out
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"alpha", "beta"}


def test_stability_finds_certificate(capsys, tmp_path):
    out_file = tmp_path / "stab.json"
    rc, out, _ = run(capsys, "stability", "--gamma", "0.4", "--out", str(out_file))
    assert rc == 0
    assert "certificate found" in out
    doc = json.loads(out_file.read_text())
    assert 0.0 < doc["gamma"] <= 0.4
    assert doc["margin"] > 0.0


def test_stability_accepts_good_user_P(capsys, tmp_path):
    # First find a certificate, then feed its P back in for validation.
    stab = tmp_path / "stab.json"
    rc, _, _ = run(capsys, "stability", "--gamma", "0.6", "--out", str(stab))
    assert rc == 0
    rc, out, _ = run(capsys, "stability", "--gamma", "0.6", "--P", str(stab))
    assert rc == 0
    assert "supplied P accepted" in out
    # The --P path applies the same acceptance rule as the search, so it
    # reports the rate and margin the saved certificate holds.
    doc = json.loads(stab.read_text())
    assert f"certified gamma = {doc['gamma']:.6g}\n" in out
    assert f"margin = {doc['margin']:.6g}\n" in out


def test_stability_rejects_bad_user_P(capsys, tmp_path):
    # Identity certifies nothing for this family (rate comes out >= 1),
    # which is a numerical refusal, exit code 2.
    P_file = tmp_path / "P.json"
    P_file.write_text(json.dumps(np.eye(2).tolist()))
    rc, _, err = run(capsys, "stability", "--gamma", "0.6", "--P", str(P_file))
    assert rc == 2
    assert "error" in err

    # A P found at 0.6 is a valid certificate, but not at the target 0.1
    # for the same model (with --model, --gamma is only the target).
    model_file = tmp_path / "model.json"
    save_model_file(str(model_file), *two_mode_benchmark(0.6))
    stab = tmp_path / "stab.json"
    rc, _, _ = run(
        capsys, "stability", "--model", str(model_file), "--gamma", "0.6", "--out", str(stab)
    )
    assert rc == 0
    rc, _, err = run(
        capsys, "stability", "--model", str(model_file), "--gamma", "0.1", "--P", str(stab)
    )
    assert rc == 2
    assert "above the target" in err


def test_stability_unstable_model_exits_2(capsys, tmp_path):
    from switchid import LssModel, SwitchingDistribution

    model = LssModel(
        n=1, m=1, nQ=1,
        A=[np.array([[1.2]])], B=[np.ones((1, 1))],
        C=np.ones(1), D=np.zeros(1),
    )
    path = tmp_path / "model.json"
    save_model_file(str(path), model, SwitchingDistribution(p=[1.0]))
    rc, _, err = run(capsys, "stability", "--model", str(path), "--gamma", "0.9")
    assert rc == 2
    assert "no quadratic stability certificate" in err


def test_missing_model_file_exits_3(capsys):
    rc, _, err = run(capsys, "simulate", "--model", "/nonexistent/model.json")
    assert rc == 3
    assert "error" in err


@pytest.mark.parametrize(
    "command, option, text",
    [
        ("simulate", "--model", json.dumps({"n": 1, "nQ": 1, "A": [[[0.5]]], "B": [[[1.0]]],
                                            "C": [1.0], "D": [0.0]})),
        ("identify", "--selection", json.dumps({"alpha": [""]})),
        ("stability", "--P", json.dumps({"gamma": 0.6})),
        ("experiment", "--config", json.dumps({"trials": "3"})),
        ("stability", "--P", "[[1, 0], [0, 1]"),
    ],
    ids=["model-without-m", "selection-without-beta", "P-without-P", "config-trials-string",
         "not-json"],
)
def test_malformed_json_exits_1_naming_the_file(capsys, tmp_path, command, option, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    rc, _, err = run(capsys, command, option, str(path), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert f"error: malformed file {path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"trials": 2.5}, "trials: 2.5 is not an integer"),
        ({"N_grid": [300.5]}, "N_grid: 300.5 is not an integer"),
    ],
    ids=["trials-float", "N_grid-float"],
)
def test_experiment_refuses_non_integer_counts(capsys, tmp_path, doc, reason):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gamma_values": [0.6], "N_grid": [300], **doc}))
    out_dir = tmp_path / "out"
    rc, _, err = run(capsys, "experiment", "--config", str(path), "--out", str(out_dir))
    assert rc == 1
    assert f"error: malformed file {path}" in err and reason in err
    assert not out_dir.exists()


def test_python_m_switchid_runs_the_cli():
    src = os.path.dirname(os.path.dirname(switchid.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "switchid", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "usage:" in proc.stdout and "experiment" in proc.stdout


def test_bound_table(capsys, tmp_path):
    out_file = tmp_path / "bound.csv"
    rc, out, _ = run(
        capsys, "bound", "--gamma", "0.6", "--N-grid", "1000", "100000",
        "--out", str(out_file),
    )
    assert rc == 0
    assert "smallest N with a valid bound" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("m_prime,")


def test_bound_single_certificate_json(capsys, tmp_path):
    out_file = tmp_path / "bound.json"
    rc, _, _ = run(capsys, "bound", "--N", "50000", "--out", str(out_file))
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["N"] == 50000
    assert doc["W_size"] == 10


def test_user_model_via_file_matches_builtin(capsys, tmp_path):
    model, dist = two_mode_benchmark(0.6)
    path = tmp_path / "model.json"
    save_model_file(str(path), model, dist)
    rc, out_file, _ = run(capsys, "selection", "--model", str(path))
    assert rc == 0
    rc2, out_builtin, _ = run(capsys, "selection", "--gamma", "0.6")
    assert out_file == out_builtin


def test_experiment_end_to_end(capsys, tmp_path):
    cfg = {
        "N_grid": [300],
        "trials": 2,
        "gamma_values": [0.6],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "experiment", "--config", str(cfg_path))
    assert rc == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "config.json").exists()
    assert (out_dir / "esterr_vs_N_gamma.svg").exists()
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 trials


def test_experiment_flag_overrides(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gamma_values": [0.6], "N_grid": [300]}))
    rc, _, _ = run(
        capsys, "experiment", "--config", str(cfg_path), "--trials", "1",
        "--out", str(tmp_path / "o2"),
    )
    assert rc == 0
    saved = json.loads((tmp_path / "o2" / "config.json").read_text())
    assert saved["trials"] == 1
    assert saved["output_dir"] == str(tmp_path / "o2")
