"""The command line's exit contract under bad input.

Every call exits 0, 1, 2 or 3.  A nonzero exit prints exactly one
``error:`` line and no traceback (an exception escaping ``cli.main``
fails the test), and a successful call prints no nan, except where
``experiment`` names a gamma without a certificate or a grid point whose
trials all failed.  Flag values,
mutated model files and mutated experiment configs are drawn by
hypothesis, derandomized with a fixed example budget; trajectories stay
at N <= 1e4 and no call starts a pool.  An experiment refused with exit
1 or 3 has printed nothing and left no output directory.
"""

import copy
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from switchid import SignalSpec, two_mode_benchmark
from switchid.core import model_to_dict
from test_golden import run_cli

FLOATS = [
    "0", "-1", "0.5", "nan", "inf", "-inf", "1e200", "-1e200", "1e-200", "1e-310", "5e-324", "abc",
]
INTS = ["0", "-1", "1", "5", "300", "10000", "2.5", "1e3", "abc"]
FLAGS = {
    "--gamma": FLOATS,
    "--ku-input": FLOATS,
    "--ku-noise": FLOATS,
    "--delta": FLOATS,
    "--N": INTS,
    "--burn-in": INTS,
    "--seed": INTS,
}
COMMANDS = {
    "simulate": ["--gamma", "--ku-input", "--ku-noise", "--N", "--burn-in", "--seed"],
    "identify": ["--gamma", "--ku-input", "--ku-noise", "--N", "--burn-in", "--seed"],
    "selection": ["--gamma"],
    "stability": ["--gamma"],
    "bound": ["--gamma", "--ku-input", "--ku-noise", "--delta", "--N"],
}
MODEL = model_to_dict(*two_mode_benchmark(0.6), SignalSpec(Ku_input=0.8, Ku_noise=1.0))
# Where a model file can go wrong: its sizes, one entry of each matrix,
# the mode law and the signal amplitudes.
MODEL_SITES = [
    ("n",), ("m",), ("nQ",), ("A", 0, 0, 1), ("A", 1, 1, 1), ("B", 1, 1, 0), ("C", 0),
    ("D", 0), ("p", 0), ("signal", "Ku_input"), ("signal", "Ku_noise"),
]
MODEL_VALUES = [
    0, -1, 3, 2.5, True, None, "x", [], float("nan"), float("inf"), 1e200, -1e200, 1e-200, 5e-324,
]


@st.composite
def model_files(draw):
    doc = copy.deepcopy(MODEL)
    for site in draw(st.lists(st.sampled_from(MODEL_SITES), max_size=2)):
        *path, last = site
        parent = doc
        for key in path:
            parent = parent[key]
        parent[last] = draw(st.sampled_from(MODEL_VALUES))
    return json.dumps(doc)


@st.composite
def calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAGS[flag]))]
    model = draw(st.none() | model_files())
    return argv, model


@settings(
    derandomize=True, max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(call=calls())
# Each of these ended in an OverflowError traceback.
@example(call=(["bound", "--ku-input", "1e200"], None))
@example(call=(["bound", "--ku-noise", "1e200"], None))
@example(call=(["bound", "--delta", "1e-310"], None))
def test_every_exit_keeps_the_contract(call, tmp_path):
    argv, model = call
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(model)
        argv = argv + ["--model", str(path)]
    rc, out, err = run_cli(argv)
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE), out
    else:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert "Traceback" not in err, err


# Experiment config documents: one entry mutated, first or last in a
# list, or a document that is not an object.  Every value a run accepts
# keeps it small: at most 2 trials of N <= 1000, in the calling process.
CONFIG = {
    "gamma_values": [0.4, 0.6], "Ku_input_values": [0.8, 0.5], "Ku_noise_values": [1.0, 0.5],
    "N_grid": [300, 1000], "delta": 0.05, "trials": 1, "burn_in": 50, "seed_base": 0,
    "threads": 1,
}
AMPLITUDES = [0, -1, 0.5, 1e13, 1e150, 1e200, 1e-200, 5e-324, float("nan"), "x", None]
COUNTS = [0, -1, 1, 2, 2.5, True, 1e200, "x", None, []]
CONFIG_VALUES = {
    "gamma_values": [0, 1, -0.5, 1e-200, 0.999, 0.1, float("nan"), "x", None],
    "Ku_input_values": AMPLITUDES,
    "Ku_noise_values": AMPLITUDES,
    "N_grid": [0, -1, 3, 4, 5, 2.5, True, 1e200, "x", None],
    "delta": [0, 1, 1e-310, 1e-200, 0.5, float("nan"), float("inf"), "x", None],
    "trials": COUNTS,
    "burn_in": COUNTS,
    "seed_base": COUNTS + [2**64],
}
NOT_OBJECTS = ['"abc"', "[1, 2]", "3", "null", "true"]
PROGRESS = r"gamma=\S+ ku=\S+ ku_inp=\S+ N=\d+: mean est_err (\S+) over (\d+)/\d+ trials"
# A gamma without a certificate, and the lines that close a run.
NOTES = r"gamma=\S+: no certificate \(.*\): bound = NaN|(results|figure) written to .*"


@st.composite
def config_files(draw):
    doc = copy.deepcopy(CONFIG)
    key = draw(st.sampled_from(sorted(CONFIG_VALUES)))
    value = draw(st.sampled_from(CONFIG_VALUES[key]))
    if isinstance(doc[key], list):
        doc[key][draw(st.sampled_from([0, -1]))] = value
    else:
        doc[key] = value
    return json.dumps(doc)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(text=config_files() | st.sampled_from(NOT_OBJECTS))
# Each of these was refused only after trials had run.
@example(text=json.dumps({**CONFIG, "Ku_input_values": [0.8, 1e200]}))
@example(text=json.dumps({**CONFIG, "Ku_noise_values": [1.0, 1e200]}))
@example(text='"abc"')
def test_every_experiment_exit_keeps_the_contract(text, tmp_path_factory):
    work = tmp_path_factory.mktemp("experiment")
    path, out_dir = work / "cfg.json", work / "out"
    path.write_text(text)
    rc, out, err = run_cli(["experiment", "--config", str(path), "--out", str(out_dir)])
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc == 0:
        # A grid point's mean is nan only when every one of its trials failed.
        for line in out.splitlines():
            progress = re.fullmatch(PROGRESS, line)
            assert progress or re.fullmatch(NOTES, line), line
            assert not progress or (progress[1] == "nan") == (progress[2] == "0"), line
    else:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert "Traceback" not in err, err
        # Exit 2 may follow trials: a diverging trajectory is only found
        # by simulating it.
        assert rc == 2 or out == "", out
        assert not out_dir.exists()
