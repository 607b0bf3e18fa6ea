"""Command line behaviour: happy paths, file outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import switchid
from switchid import SignalSpec, SwitchingDistribution, save_model_file, two_mode_benchmark
from switchid.cli import main
from test_hokalman import certifiable_model


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
        capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6", "--out", str(out_file)
    )
    assert rc == 0
    assert "sigma_n(H_ab) estimate" in out
    doc = json.loads(out_file.read_text())
    assert doc["n"] == 2
    assert "selection" in doc

    # A trajectory file carries no structure: without a model file or the
    # benchmark family named, identification is refused rather than fitted
    # to the built-in family.
    traj = tmp_path / "traj01.csv"
    rc, _, _ = run(
        capsys, "simulate", "--gamma", "0.1", "--N", "5000", "--seed", "2", "--out", str(traj)
    )
    assert rc == 0
    rc, out, err = run(capsys, "identify", "--trajectory", str(traj))
    assert rc == 1
    assert "needs the structure" in err and "--model" in err and "--gamma" in err
    assert out == ""
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
    rc, _, err = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6")
    assert rc == 1
    assert "mode label 3 at step 9 outside 1..2" in err


def test_identify_refuses_mode_law_the_trajectory_contradicts(capsys, tmp_path):
    # Modes drawn with p = [0.8, 0.2] come out 0.8004/0.1996 here.  Read
    # against a uniform law, stated or by omitting p, every estimate would
    # be divided by the wrong p_w (est_err 0.31 against 0.20).
    model, _ = two_mode_benchmark(0.6)
    paths = {}
    for name, p in [("p82", [0.8, 0.2]), ("p55", [0.5, 0.5]), ("nop", None)]:
        paths[name] = tmp_path / f"{name}.json"
        save_model_file(str(paths[name]), model, SwitchingDistribution(p) if p else None)
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(
        capsys, "simulate", "--model", str(paths["p82"]), "--N", "20000", "--seed", "3",
        "--out", str(traj),
    )
    assert rc == 0
    rc, out, _ = run(capsys, "identify", "--model", str(paths["p82"]), "--trajectory", str(traj))
    assert rc == 0 and "est_err = 0.201484" in out
    for name in ("p55", "nop"):
        rc, out, err = run(
            capsys, "identify", "--model", str(paths[name]), "--trajectory", str(traj)
        )
        assert rc == 1 and out == ""
        assert (
            "mode law does not match the trajectory: p = [0.5 0.5] but the mode "
            "labels occur with frequencies [0.8004 0.1996] (tolerance [0.021 0.021])"
        ) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_identify_refuses_non_finite_input(capsys, tmp_path, value):
    # A NaN input used to pass the covariance check (dev > tol is False
    # for NaN) and score est_err as if the file were clean.
    traj = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--N", "2000", "--seed", "2", "--out", str(traj))
    assert rc == 0
    lines = traj.read_text().splitlines()
    t, y, _, q = lines[10].split(",")
    lines[10] = ",".join([t, y, value, q])
    traj.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "identify", "--trajectory", str(traj), "--gamma", "0.6")
    assert rc == 1
    assert f"{traj}, line 11: field 'u_1' is not finite: {value!r}" in err
    assert "est_err" not in out


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


def two_input_model_file(tmp_path):
    from switchid import LssModel

    model = LssModel(
        n=2, m=2, nQ=2,
        A=[np.array([[0.3, 0.1], [0.0, 0.2]]), np.array([[0.1, 0.0], [0.2, -0.3]])],
        B=[np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])],
        C=np.array([1.0, 0.5]), D=np.zeros(2),
    )
    path = tmp_path / "m2.json"
    save_model_file(str(path), model)
    return path


@pytest.mark.parametrize("file_m, model_m", [(2, 1), (1, 2)])
def test_identify_refuses_trajectory_of_other_input_width(capsys, tmp_path, file_m, model_m):
    # Two input columns against m = 1 used to end in numpy's core-dimension
    # complaint; one against m = 2 in a covariance mismatch.
    m2 = two_input_model_file(tmp_path)
    traj = tmp_path / "traj.csv"
    models = {1: ["--gamma", "0.6"], 2: ["--model", str(m2)]}
    rc, _, _ = run(capsys, "simulate", *models[file_m], "--N", "2000", "--out", str(traj))
    assert rc == 0
    rc, out, err = run(capsys, "identify", *models[model_m], "--trajectory", str(traj))
    assert rc == 1
    assert f"error: {traj}: {file_m} input columns, the model has m = {model_m}" in err
    assert "Traceback" not in err and "est_err" not in out


BENCH_SELECTION = {"alpha": ["", "1"], "beta": [["", 2, 1], ["1", 2, 1]]}


@pytest.mark.parametrize(
    "command, doc, reason",
    [
        ("identify", {**BENCH_SELECTION, "beta": [["", 2, 2], ["1", 2, 1]]},
         "beta: channel 2 outside 1..1"),
        ("bound", {**BENCH_SELECTION, "beta": [["", 2, 2], ["1", 2, 1]]},
         "beta: channel 2 outside 1..1"),
        ("identify", {**BENCH_SELECTION, "alpha": ["", "3"]},
         "alpha: mode 3 outside 1..2"),
        ("bound", {**BENCH_SELECTION, "beta": [["", 3, 1], ["1", 2, 1]]},
         "beta: mode 3 outside 1..2"),
        ("identify", {"alpha": ["", "1", "2"], "beta": [["", 2, 1], ["1", 2, 1], ["2", 2, 1]]},
         "alpha: 3 rows, the model has n = 2"),
    ],
    ids=["identify-channel-2", "bound-channel-2", "identify-row-word-3", "bound-column-mode-3",
         "identify-3-rows"],
)
def test_selection_that_does_not_fit_the_model_exits_1(capsys, tmp_path, command, doc, reason):
    # These used to end in an IndexError traceback or, for three rows on
    # n = 2, in "H_ab numerically singular" with exit 2.
    path = tmp_path / "sel.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, command, "--selection", str(path), "--N", "2000")
    assert rc == 1
    assert f"error: malformed file {path}" in err and reason in err
    assert "Traceback" not in err and "est_err" not in out


@pytest.mark.parametrize("command", ["identify", "bound"])
def test_selection_singular_for_the_model_is_named(capsys, tmp_path, command):
    # Two equal row words fit the model's sizes but give a singular H_ab.
    # This used to print only "H_ab numerically singular", which does not
    # say that the user's selection is at fault.
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({**BENCH_SELECTION, "alpha": ["", ""]}))
    rc, out, err = run(capsys, command, "--selection", str(path), "--N", "2000")
    assert rc == 2
    assert "error: the selection's true H_ab is singular for this model" in err
    assert "sigma_min/sigma_max = 0.000e+00/1.414e+00" in err
    assert out == ""


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


def test_certifiable_models_certify_through_the_cli(capsys, tmp_path):
    # Some of these used to exit 2 with "error: Singular matrix" at
    # --gamma 0.95, although P = I certifies 0.9 for every one.
    path = tmp_path / "model.json"
    for seed in range(8):
        save_model_file(str(path), *certifiable_model(2, 2, seed))
        for command in ("stability", "bound"):
            rc, _, err = run(capsys, command, "--model", str(path), "--gamma", "0.95")
            assert (rc, err) == (0, ""), (seed, command)


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


def set_A_entry(doc, bad):
    doc["A"][1][0][1] = bad


def set_p_entry(doc, bad):
    doc["p"][0] = bad


def set_ku_input(doc, bad):
    doc["signal"]["Ku_input"] = bad


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "edit, reason",
    [
        (set_A_entry, "A[1] has a non-finite entry"),
        (set_p_entry, "p has a non-finite entry"),
        (set_ku_input, "Ku_input is not finite"),
    ],
    ids=["A", "p", "Ku_input"],
)
@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_non_finite_model_exits_1_naming_the_field(capsys, tmp_path, command, edit, reason, bad):
    # Before the check a NaN in A made simulate blame the dynamics ("state
    # blew up") and stability print LAPACK's bare complaint, both exit 2.
    path = tmp_path / "model.json"
    save_model_file(str(path), *two_mode_benchmark(0.6), SignalSpec(Ku_input=0.8, Ku_noise=1.0))
    doc = json.loads(path.read_text())
    edit(doc, bad)
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, command, "--model", str(path), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert reason in err


def set_p_length(doc):
    doc["p"] = [0.3, 0.3, 0.4]


def set_sigma_u_shape(doc):
    doc["signal"]["Sigma_u"] = [[0.2, 0.0], [0.0, 0.2]]


def set_dimensions(**dims):
    return lambda doc: doc.update(dims)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (set_p_length, "p has 3 entries, the model has nQ = 2"),
        (set_sigma_u_shape, "signal.Sigma_u is 2x2, the model has m = 1"),
        (set_dimensions(n=2.5), "n: 2.5 is not an integer"),
        (set_dimensions(m=True), "m: True is not an integer"),
        (set_dimensions(nQ=2.0), "nQ: 2.0 is not an integer"),
    ],
    ids=["p-length", "Sigma_u-shape", "n-fraction", "m-bool", "nQ-float"],
)
@pytest.mark.parametrize("command", ["selection", "simulate", "experiment"])
def test_model_of_other_size_exits_1_naming_the_file(capsys, tmp_path, command, edit, reason):
    # selection ignored the p and the Sigma_u; simulate and experiment ran
    # on the Sigma_u, and experiment left an empty output directory behind
    # the p.  A dimension was read through int(), so n = 2.5 ran as n = 2.
    path = tmp_path / "model.json"
    save_model_file(str(path), *two_mode_benchmark(0.6), SignalSpec(Ku_input=0.8, Ku_noise=1.0))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--trials", "1", "--N-grid", "300"] if command == "experiment" else []
    rc, _, err = run(capsys, command, "--model", str(path), "--out", str(out), *extra)
    assert rc == 1
    assert f"error: malformed file {path}: ValueError: {reason}" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_stability_refuses_non_finite_P(capsys, tmp_path, bad):
    path = tmp_path / "P.json"
    path.write_text(json.dumps([[bad, 0.0], [0.0, 1.0]]))
    rc, _, err = run(capsys, "stability", "--gamma", "0.4", "--P", str(path))
    assert rc == 1
    assert "P has a non-finite entry" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["stability", "--gamma", "0.4"],
        ["experiment", "--trials", "1", "--N-grid", "1000", "--out", "out"],
    ],
    ids=["import", "stability", "experiment"],
)
def test_runs_without_scipy(tmp_path, argv):
    # A None entry in sys.modules makes every scipy import fail, so a
    # scipy import anywhere on these paths turns this test red.
    src = os.path.dirname(os.path.dirname(switchid.__file__))
    code = f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {src!r}); import switchid"
    if argv:
        code += f"; from switchid.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_out_the_process_pool():
    # Only experiment --threads > 1 needs concurrent.futures, so the import
    # that every CLI call pays for does not load it.
    src = os.path.dirname(os.path.dirname(switchid.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import switchid; "
        "sys.exit('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--trials", "0"], "trials must be at least 1"),
        (["--trials", "-2"], "trials must be at least 1"),
        (["--threads", "0"], "threads must be at least 1"),
        (["--seed", "-1"], "seed_base must be nonnegative"),
    ],
    ids=["trials-0", "trials-neg", "threads-0", "seed-neg"],
)
def test_experiment_flags_are_checked_as_config_values(capsys, tmp_path, flags, reason):
    # Flags used to be assigned past the config checks: --trials 0 wrote a
    # header-only results.csv and --threads 0 ran serially.
    out_dir = tmp_path / "out"
    rc, _, err = run(capsys, "experiment", *flags, "--N-grid", "300", "--out", str(out_dir))
    assert rc == 1
    assert f"error: {reason}" in err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("command, seed", [("simulate", "-1"), ("identify", "-3")])
def test_negative_seed_is_refused_by_name(capsys, command, seed):
    # numpy's generator refused it first, as "expected non-negative integer".
    rc, _, err = run(capsys, command, "--seed", seed, "--N", "300")
    assert rc == 1
    assert "error: seed must be nonnegative" in err


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"gamma_values": [1.5]}, "gamma_values: 1.5 does not lie in (0, 1)"),
        ({"gamma_values": [0.6, 0.0]}, "gamma_values: 0.0 does not lie in (0, 1)"),
        ({"gamma_values": [1.0]}, "gamma_values: 1.0 does not lie in (0, 1)"),
        ({"Ku_input_values": [0]}, "Ku_input_values: 0 is not a finite positive amplitude"),
        ({"Ku_noise_values": [1.0, -1]}, "Ku_noise_values: -1 is not a finite nonnegative"),
        ({"Ku_input_values": [1e200]}, "K_u = max(Ku_input, Ku_noise) = 1e+200"),
        ({"Ku_noise_values": [1e200]}, "K_u = max(Ku_input, Ku_noise) = 1e+200"),
        ({"delta": 1e-310}, "delta = 1e-310"),
    ],
    ids=["gamma-1.5", "gamma-0", "gamma-1", "ku-input-0", "ku-noise-neg", "ku-input-1e200",
         "ku-noise-1e200", "delta-1e-310"],
)
def test_experiment_refuses_settings_before_creating_the_output(capsys, tmp_path, doc, reason):
    # These used to be refused only inside run_experiment, after the output
    # directory was made; Ku_input 0 ended in LAPACK's "Singular matrix",
    # and the last three in an OverflowError traceback.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N_grid": [300], "trials": 1, **doc}))
    out_dir = tmp_path / "out"
    rc, _, err = run(capsys, "experiment", "--config", str(path), "--out", str(out_dir))
    assert rc == 1
    assert reason in err
    assert not out_dir.exists()


@pytest.mark.parametrize("N", [3, 4])
def test_experiment_refuses_too_short_N_before_creating_the_output(capsys, tmp_path, N):
    # The two-mode family's longest required word has length 4.  Such an N
    # used to fail in the first trial, after gamma 0.1's selection and
    # certificate searches, leaving an empty output directory.
    out_dir = tmp_path / "out"
    rc, out, err = run(
        capsys, "experiment", "--N-grid", "1000", str(N), "--trials", "1", "--out", str(out_dir)
    )
    assert rc == 1
    assert (
        f"error: N_grid: N = {N} is too short: the estimator needs words of length 4, "
        "so the shortest N that runs is 5"
    ) in err
    assert out == "" and not out_dir.exists()


def test_experiment_refuses_an_unusable_output_location_before_the_first_trial(capsys, tmp_path):
    # It used to be found only when the results were written, after every
    # trial had run and printed its progress line.
    afile = tmp_path / "afile"
    afile.write_text("")
    rc, out, err = run(
        capsys, "experiment", "--trials", "1", "--N-grid", "300", "--out", str(afile)
    )
    assert rc == 3
    assert out == "" and err.count("error:") == 1 and "File exists" in err


@pytest.mark.parametrize(
    "ku_noise, code, reason, out",
    [
        (1e200, 1, "K_u = max(Ku_input, Ku_noise) = 1e+200", "a/b"),
        (1e13, 2, "state blew up", "a/b"),
        (1e200, 1, "K_u = max(Ku_input, Ku_noise) = 1e+200", "a/../b"),
    ],
    ids=["planned", "in-a-trial", "dot-dot"],
)
def test_experiment_refused_on_the_way_removes_the_directories_it_made(
    capsys, tmp_path, ku_noise, code, reason, out
):
    # The output directory, and the parents made for it, exist before the
    # first trial; a refusal takes them away again and nothing else.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N_grid": [300], "trials": 1, "Ku_noise_values": [ku_noise]}))
    (tmp_path / "kept").mkdir()
    out_dir = f"{tmp_path / 'kept'}/{out}"
    rc, _, err = run(capsys, "experiment", "--config", str(path), "--out", out_dir)
    assert rc == code and reason in err
    assert os.listdir(tmp_path / "kept") == []


@pytest.mark.parametrize("text, kind", [('"abc"', "str"), ("[1, 2]", "list"), ("3", "int")])
def test_experiment_config_that_is_not_an_object_is_refused_as_such(capsys, tmp_path, text, kind):
    # "abc" was refused as unknown keys ['a', 'b', 'c'].
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc, out, err = run(capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "o"))
    assert rc == 1 and out == ""
    assert f"error: malformed file {path}: ValueError: an experiment config is a JSON " in err
    assert f"object, not {kind}" in err


def test_experiment_runs_at_the_shortest_N(capsys, tmp_path):
    out_dir = tmp_path / "out"
    rc, _, _ = run(capsys, "experiment", "--N-grid", "5", "--trials", "1", "--out", str(out_dir))
    assert rc == 0
    assert (out_dir / "results.csv").exists()


@pytest.mark.parametrize("command", ["identify", "bound"])
def test_zero_input_amplitude_is_refused_where_sigma_u_is_inverted(capsys, command):
    rc, out, err = run(capsys, command, "--ku-input", "0", "--N", "2000")
    assert rc == 1
    assert "Ku_input = 0.0 must be positive" in err
    assert "Singular matrix" not in err and out == ""


def test_zero_input_amplitude_still_simulates(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    rc, _, _ = run(capsys, "simulate", "--ku-input", "0", "--N", "50", "--out", str(out_file))
    assert rc == 0
    sample = switchid.load_trajectory(str(out_file))
    assert not sample.u.any()


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


def test_bound_N_takes_several_lengths(capsys, tmp_path):
    # --N and --N-grid name one option, so --N with several lengths writes
    # the same table as --N-grid.
    grid, several = tmp_path / "grid.csv", tmp_path / "several.csv"
    rc, out, _ = run(capsys, "bound", "--N-grid", "1000", "100000", "--out", str(grid))
    assert rc == 0
    assert run(capsys, "bound", "--N", "1000", "100000", "--out", str(several)) == (
        0, out.replace(str(grid), str(several)), ""
    )
    assert several.read_bytes() == grid.read_bytes()


def test_bound_single_certificate_json(capsys, tmp_path):
    out_file = tmp_path / "bound.json"
    rc, _, _ = run(capsys, "bound", "--N", "50000", "--out", str(out_file))
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["N"] == 50000
    assert doc["W_size"] == 10


def test_bound_names_a_delta_that_overflows_its_constants(capsys):
    # 2 m |W| / delta overflowed to inf, and math.ceil(inf) raised.
    rc, out, err = run(capsys, "bound", "--delta", "1e-310")
    assert rc == 1 and out == ""
    assert err.startswith("error: the bound's constants leave the float range: K_M = ")
    assert err.endswith(", K_u = max(Ku_input, Ku_noise) = 1.0, delta = 1e-310\n")


def test_user_model_via_file_matches_builtin(capsys, tmp_path):
    model, dist = two_mode_benchmark(0.6)
    path = tmp_path / "model.json"
    save_model_file(str(path), model, dist)
    rc, out_file, _ = run(capsys, "selection", "--model", str(path))
    assert rc == 0
    rc2, out_builtin, _ = run(capsys, "selection", "--gamma", "0.6")
    assert out_file == out_builtin


@pytest.mark.parametrize(
    "argv",
    [
        ("identify", "--N", "5000", "--seed", "4"),
        ("bound", "--N", "1000", "100000"),
        ("experiment", "--trials", "2", "--N-grid", "300", "1000"),
    ],
    ids=["identify", "bound", "experiment"],
)
def test_model_file_without_p_has_uniform_modes(capsys, tmp_path, argv):
    model, dist = two_mode_benchmark(0.6)
    path, out_path = tmp_path / "model.json", tmp_path / "out"
    outputs = []
    for law in (None, dist):
        save_model_file(str(path), model, law)
        rc, out, err = run(capsys, *argv, "--model", str(path), "--out", str(out_path))
        assert rc == 0 and err == ""
        if out_path.is_dir():
            files = {f: (out_path / f).read_text() for f in os.listdir(out_path)}
            # Timings aside.
            files["results.csv"] = [l.rsplit(",", 1)[0] for l in files["results.csv"].split()]
        else:
            files = out_path.read_bytes()
        outputs.append((out, files))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["bound", "identify"])
def test_ku_noise_keeps_the_model_files_input_covariance(capsys, tmp_path, command):
    # Sigma_u = 0.22 differs from the sampler's 0.8^2 / 3 = 0.2133 yet
    # passes identify's covariance check.  Restating the file's own noise
    # amplitude used to reset Sigma_u and move every number printed.
    model, dist = two_mode_benchmark(0.6)
    path, plain = tmp_path / "model.json", tmp_path / "plain.json"
    save_model_file(str(path), model, dist, SignalSpec(0.8, 1.0, Sigma_u=np.array([[0.22]])))
    save_model_file(str(plain), model, dist, SignalSpec(0.8, 1.0))
    base = ("--gamma", "0.6", "--N", "20000")
    rc, out, _ = run(capsys, command, "--model", str(path), *base)
    assert rc == 0
    assert run(capsys, command, "--model", str(path), *base, "--ku-noise", "1.0") == (0, out, "")
    # --ku-input replaces the input law, and with it Sigma_u.
    reset = run(capsys, command, "--model", str(path), *base, "--ku-input", "0.8")
    assert reset == run(capsys, command, "--model", str(plain), *base) != (0, out, "")


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
