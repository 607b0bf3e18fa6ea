"""The command line's exit contract under bad input.

Every call exits 0, 1, 2 or 3.  A nonzero exit prints exactly one
``error:`` line and no traceback (an exception escaping ``cli.main``
fails the test), and a successful call prints no nan, except where
``experiment`` names a gamma without a certificate or a grid point whose
trials all failed.  Flag values,
mutated model, selection and P files and mutated experiment configs are
drawn by hypothesis, derandomized with a fixed example budget;
trajectories stay at N <= 1e4 and no call starts a pool.  An experiment
refused with exit 1 or 3 has printed nothing and left no output
directory.  A bool, a string or null where a file holds a number, or a
non-string where it holds a word, exits 1 naming the field.
"""

import copy
import json
import re

import pytest
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


# A selection and a P that the two-mode family at gamma = 0.6 accepts, each
# with the calls that read it, where it can go wrong and the values drawn.
SELECTION = {"alpha": ["", "1"], "beta": [["1", 2, 1], ["", 2, 1]]}
P_FILE = {"P": [[14068.0, 0.0], [0.0, 1e6]]}
FILES = {
    "--selection": (
        [["bound", "--N", "1000"], ["identify", "--N", "2000"]],
        SELECTION,
        [("alpha",), ("alpha", 0), ("alpha", 1), ("beta",), ("beta", 1), ("beta", 0, 0),
         ("beta", 1, 0), ("beta", 0, 1), ("beta", 1, 1), ("beta", 0, 2), ("beta", 1, 2)],
        ["", "1", "2", "2.1", "3", "+1", " 1", "1_0", "x", 0, 1, 2, 3, -1, 2.7, 2.0, True, None,
         []],
    ),
    "--P": ([["stability"]], P_FILE, [("P",), ("P", 1), ("P", 0, 0), ("P", 0, 1), ("P", 1, 1)],
            MODEL_VALUES + ["1", [[1.0]]]),
}


def set_site(doc, site, value):
    *path, last = site
    for key in path:
        doc = doc[key]
    doc[last] = value


def mutated(draw, doc, sites, values):
    doc = copy.deepcopy(doc)
    sites = draw(st.lists(st.sampled_from(sites), max_size=2))
    picks = [(site, draw(st.sampled_from(values))) for site in sites]
    # The longer site first: ("P", 0, 0) is set before ("P",) replaces its list.
    for site, value in sorted(picks, key=lambda pick: -len(pick[0])):
        set_site(doc, site, value)
    return json.dumps(doc)


@st.composite
def model_files(draw):
    return mutated(draw, MODEL, MODEL_SITES, MODEL_VALUES)


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
    check_exit(*run_cli(argv))


def check_exit(rc, out, err):
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE), out
    else:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert "Traceback" not in err, err


@st.composite
def file_calls(draw):
    option = draw(st.sampled_from(sorted(FILES)))
    argvs, doc, sites, values = FILES[option]
    return draw(st.sampled_from(argvs)) + [option], mutated(draw, doc, sites, values)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(call=file_calls())
def test_every_selection_and_P_file_exit_keeps_the_contract(call, tmp_path_factory):
    argv, text = call
    path = tmp_path_factory.mktemp("file") / "input.json"
    path.write_text(text)
    check_exit(*run_cli(argv + [str(path)]))


NOT_NUMBERS = [True, False, "1", "0", "x", None]
NOT_WORDS = [True, False, 1, 0, None]
# Each site that holds a number or a word, the call that reads it and the
# values of the wrong JSON type for it.  Before one reader took every
# number, a bool B entry ran as 0 or 1 (exit 0) and an int alpha word
# ended in an AttributeError traceback.
TYPED_SITES = (
    [(["selection", "--model"], MODEL, site, NOT_NUMBERS) for site in MODEL_SITES]
    + [(["bound", "--selection"], SELECTION, site, NOT_WORDS)
       for site in [("alpha", 0), ("alpha", 1), ("beta", 0, 0), ("beta", 1, 0)]]
    + [(["bound", "--selection"], SELECTION, ("beta", j, k), NOT_NUMBERS)
       for j in (0, 1) for k in (1, 2)]
    + [(["stability", "--P"], P_FILE, ("P", i, j), NOT_NUMBERS) for i in (0, 1) for j in (0, 1)]
)


def field(site):
    head, *keys = site
    return head + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


@pytest.mark.parametrize(
    "argv, doc, site, values", TYPED_SITES, ids=[field(site) for _, _, site, _ in TYPED_SITES]
)
def test_a_value_of_the_wrong_type_is_refused_by_name(argv, doc, site, values, tmp_path):
    name = field(site)
    path = tmp_path / "input.json"
    for value in values:
        wrong = copy.deepcopy(doc)
        set_site(wrong, site, value)
        path.write_text(json.dumps(wrong))
        rc, _, err = run_cli(argv + [str(path)])
        assert rc == 1 and "Traceback" not in err, (value, rc, err)
        assert err.startswith(f"error: malformed file {path}: ValueError: {name}: "), (value, err)
        assert err.count("error:") == 1, err


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
