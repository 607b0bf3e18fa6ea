"""Today's command-line outputs, held to a checked-in manifest.

``tests/golden.json`` lists CLI calls and the sha256 digests of what each
one prints and writes, plus the refusals the README quotes.  Every call
runs in-process through ``cli.main`` in an empty directory with relative
file names, so its outputs do not depend on where it runs.

A call's digests are: its stdout whole and line by line (``stdout``,
``stdout:3``); every file it writes, whole (``real.json``) and part by
part: a JSON file key by key (``real.json{C}``, nested keys dotted,
``b.json{stability.P}``) and a CSV file column by column
(``traj.csv[y]``).  A ``wall_ms`` column is only checked to read
``\\d+\\.\\d{3}``, and the file's whole digest leaves it out.  A moved
value thus names its call and its line, key or column, both in the test
failure and in the manifest's diff.

A change that moves an output on purpose regenerates the manifest and
commits it:

    PYTHONPATH=src python tests/test_golden.py

which prints one line per digest that moved: the call, the key, and the
first 8 hex digits of the old and the new digest.

The manifest's ``files`` are written into every directory before its
call runs.  File contents are text; a lone surrogate such as ``\\udcff``
stands for the byte 0xff, which is not UTF-8.
"""

import csv
import hashlib
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from switchid.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.json")
README = GOLDEN.parents[1] / "README.md"
MANIFEST = json.loads(GOLDEN.read_text())


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def write_files(files: dict) -> None:
    for name, text in files.items():
        Path(name).write_bytes(text.encode("utf-8", "surrogateescape"))


def _json_leaves(key, doc):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _json_leaves(f"{key}.{k}" if key else k, v)
    else:
        yield key, doc


def file_digests(path: str) -> dict:
    data = Path(path).read_bytes()
    digests = {path: sha(data)}
    if path.endswith(".json"):
        for key, value in _json_leaves("", json.loads(data)):
            digests[f"{path}{{{key}}}"] = sha(json.dumps(value))
    elif path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        header = rows[0]
        for j, name in enumerate(header):
            if name == "wall_ms":
                cells = [r[j] for r in rows[1:]]
                assert all(re.fullmatch(r"\d+\.\d{3}", c) for c in cells), f"{path}: {cells}"
                digests[path] = sha("".join(",".join(r[:j] + r[j + 1:]) + "\n" for r in rows))
            else:
                digests[f"{path}[{name}]"] = sha("\n".join(r[j] for r in rows[1:]))
    return digests


def _files_here() -> set:
    return {str(Path(d, f)) for d, _, names in os.walk(".") for f in names}


def call_digests(call: dict) -> dict:
    """Run one manifest call in the current, empty directory and digest
    what it prints and the files it writes."""
    write_files(MANIFEST["files"])
    for argv in call["setup"]:
        rc, _, err = run_cli(argv)
        assert rc == 0, f"{call['name']}: setup {argv} exited {rc}: {err}"
    before = _files_here()
    rc, out, err = run_cli(call["argv"])
    assert rc == 0 and err == "", f"{call['name']}: exit {rc}, stderr {err!r}"
    digests = {"stdout": sha(out)}
    for i, line in enumerate(out.splitlines(), 1):
        digests[f"stdout:{i}"] = sha(line)
    for path in sorted(_files_here() - before):
        digests.update(file_digests(os.path.relpath(path)))
    return digests


@pytest.mark.parametrize("call", MANIFEST["calls"], ids=lambda c: c["name"])
def test_call_outputs_match_manifest(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = call_digests(call), call["digests"]
    moved = [k for k in want if k in got and got[k] != want[k]]
    gone = [k for k in want if k not in got]
    new = [k for k in got if k not in want]
    assert not (moved or gone or new), (
        f"{call['name']}: moved {moved}, no longer written {gone}, new {new}"
    )


@pytest.mark.parametrize("case", MANIFEST["refusals"], ids=lambda c: c["name"])
def test_refusal_reads_as_the_readme_quotes_it(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_files(MANIFEST["files"])
    write_files(case.get("files", {}))
    rc, out, err = run_cli(case["argv"])
    assert rc == case["exit"], f"exit {rc}, stderr {err!r}"
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    # FILE and PATH name the case's input file, L the line at fault.
    names = list(case.get("files", {})) or [""]
    fill = {"FILE": names[0], "PATH": names[0], "L": str(case.get("L"))}
    wording = re.sub(r"\b(FILE|PATH|L)\b", lambda m: fill[m[0]], case["says"])
    assert wording in errors[0]
    assert case["says"] in " ".join(README.read_text().split())


@pytest.mark.parametrize(
    "name", ["identify-input-covariance-contradicted", "identify-mode-law-contradicted"]
)
def test_law_refusals_point_to_no_flag_or_file(name, tmp_path, monkeypatch):
    # identify_sample refuses for API callers and --gamma runs too, which
    # have no model file to check.
    monkeypatch.chdir(tmp_path)
    case = next(c for c in MANIFEST["refusals"] if c["name"] == name)
    write_files(MANIFEST["files"])
    write_files(case["files"])
    rc, _, err = run_cli(case["argv"])
    assert rc == 1 and case["says"] in err
    assert "model file" not in err and "--ku-input" not in err


if __name__ == "__main__":
    home = os.getcwd()
    for call in MANIFEST["calls"]:
        with tempfile.TemporaryDirectory() as where:
            os.chdir(where)
            old, new = call["digests"], call_digests(call)
            os.chdir(home)
        # One line per digest that moved, appeared or went ("-").
        for key in [*old, *(k for k in new if k not in old)]:
            if old.get(key) != new.get(key):
                print(f"{call['name']} {key}: {old.get(key, '-')[:8]} -> {new.get(key, '-')[:8]}")
        call["digests"] = new
    GOLDEN.write_text(json.dumps(MANIFEST, indent=1) + "\n")
