"""The CLI's stdout and exit code on a fixed corpus, against a recorded file.

The corpus is the benchmark's ``cli`` workload for seeds 1 and 2, with and
without ``--json``, and the argv of ``test_cli.py`` that are not usage
errors.  Rewrite the recorded file only for an intended change of output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from pathlib import Path

import pytest

from painleq.cli import run_cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

_WORKLOAD = [
    ["classify", "--rhs", "6*y^2 + x"],
    ["invariants", "--rhs", "2*y^3 + x*y + a"],
    ["map", "--rhs", "2*y^3 + x*y + 2"],
    ["verify", "--rhs", "6*y^2 + x", "--target", "painleve1",
     "--x-new", "x", "--y-new", "y"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + 3*y^2", "--y-new", "y"],
    ["map", "--P", "1/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
    ["classify", "--rhs", "1/0"],
    ["classify", "--rhs", "ln(0)"],
    ["map", "--rhs", "2*y^3 + x*y + 1"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + 2*y^2", "--y-new", "y"],
    ["map", "--P", "4/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
    ["classify", "--rhs", "sin(y)^2+cos(y)^2*y^3+x"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + 5*y^2", "--y-new", "y"],
    ["map", "--P", "4/3/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
    ["classify", "--rhs", "y/(x-x)"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + 1/3*y^2",
     "--y-new", "y"],
    ["map", "--P", "2/3/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
    ["map", "--rhs", "2*y^3 + x*y + 3/2"],
    ["map", "--P", "5/2/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + 5/3*y^2",
     "--y-new", "y"],
    ["map", "--P", "5/4/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0"],
]

_TEST_CLI = [
    ["classify", "--rhs", "y", "--json"],
    ["classify", "--rhs", "-2*y^3 - 3*x*y - 5*y - 7", "--json"],
    ["map", "--rhs", "6*y^2 + x", "--json"],
    ["map", "--P", "b/x", "--Q3=-1/x", "--R3", "1/y", "--S", "0", "--json"],
    ["map", "--rhs", "2*y^3 + x*y + 1", "--p2zam-as-printed", "--json"],
    ["invariants", "--P", "0", "--Q3", "6*x", "--R3", "0", "--S", "y",
     "--json"],
    ["pullback", "--P", "0", "--Q3", "6*x", "--R3", "0", "--S", "0",
     "--x-new", "x", "--y-new", "y"],
    ["classify", "--rhs", "2*y^3 + x*y + a", "--json"],
    ["classify", "--rhs", "2*y^3 + x*y + a", "--param", "a=3", "--json"],
    ["verify", "--rhs", "6*y^2 + x", "--target", "painleve1",
     "--x-new", "x", "--y-new=-y"],
    ["verify", "--rhs", "2*y^3 + x*y + 5", "--target", "painleve2",
     "--x-new", "x", "--y-new", "y", "--J", "5", "--json"],
    ["pullback", "--rhs", "6*y^2 + x", "--x-new", "x + y^2", "--y-new", "y",
     "--json"],
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1", "--x-new", "x",
     "--y-new", "y", "--precision", "30", "--samples", "1"],
    ["invariants", "--rhs", "2*y^3 + x*y + a"],
]

CORPUS = [*_WORKLOAD, *([*argv, "--json"] for argv in _WORKLOAD), *_TEST_CLI]


def _run(argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_output_matches_the_recorded_file(golden, argv):
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(a) for a in CORPUS], indent=1) + "\n")
