"""Exit codes, report shapes and round-trippable JSON output."""

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

from painleq.cli import run_cli
from painleq.exprkernel import normalize
from painleq.invariants import InvariantPipeline
from painleq.parsing import parse_expression


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--json"])
    return code, json.loads(text)


def test_classify_painleve1():
    code, text = run(["classify", "--rhs", "6*y^2 + x"])
    assert code == 0
    assert "PainleveI" in text
    assert "condition 7" in text


def test_classify_painleve2_symbolic():
    code, doc = run_json(["classify", "--rhs", "2*y^3 + x*y + a"])
    assert code == 0
    assert doc["class"] == "PainleveII"
    assert doc["invariants"]["J"] == "a"
    assert doc["map"] is None


def test_classify_not_equivalent():
    code, doc = run_json(["classify", "--rhs", "y"])
    assert code == 2
    assert doc["class"] == "NotEquivalent"


def test_classify_indeterminate_kamke():
    code, doc = run_json(["classify", "--rhs", "-2*y^3 - 3*x*y - 5*y - 7"])
    assert code == 3
    assert doc["class"] == "Indeterminate"
    assert any("J^2" in w for w in doc["warnings"])


@pytest.mark.parametrize("rhs, undecided", [
    ("2*y^3 + x*y + 1 + (sin(2*y) - 2*sin(y)*cos(y))*p^2",
     "Theorem 2 condition 4"),
    ("2*y^3 + x*y + 1 + sin(2*x) - 2*sin(x)*cos(x)", "Theorem 2 condition 6"),
])
def test_undecided_theorem_is_indeterminate(rhs, undecided):
    """Painleve II plus a term that vanishes identically, but in atoms the
    zero tester cannot reduce: Theorems 1 and 3 fail, and one condition of
    Theorem 2 stays unknown, so the answer is undecided, not NotEquivalent,
    and J^2 is never taken from samples."""
    code, doc = run_json(["classify", "--rhs", rhs])
    assert code == 3
    assert doc["class"] == "Indeterminate"
    named = [w for w in doc["warnings"] if "is undecided" in w]
    assert len(named) == 1 and named[0].startswith(undecided)
    assert not any("not constant" in w or "numerically" in w
                   for w in doc["warnings"])


def test_json_schema_keys_and_condition_entries():
    _, doc = run_json(["classify", "--rhs", "6*y^2 + x"])
    assert set(doc) == {"class", "conditions", "invariants", "map", "warnings"}
    for c in doc["conditions"]:
        assert set(c) == {"label", "paper_ref", "verdict"}
        assert c["verdict"] in ("zero", "nonzero", "unknown")


def test_json_expressions_reparse():
    _, doc = run_json(["map", "--rhs", "6*y^2 + x"])
    for name, text in doc["invariants"].items():
        assert text is None or parse_expression(text) is not None
    m = doc["map"]
    for key in ("x_new", "y_new"):
        e = parse_expression(m[key])
        assert normalize(e - sp.Symbol(key[0])) == 0  # identity map


def test_map_painleve3_zero_is_null_with_warning():
    code, doc = run_json(["map", "--P", "b/x", "--Q3=-1/x", "--R3", "1/y",
                          "--S", "0"])
    assert code == 0
    assert doc["class"].startswith("PainleveIII")
    assert doc["map"] is None
    assert any("no explicit change of variables" in w for w in doc["warnings"])


def test_map_as_printed_flag_fails_arbitration():
    code, doc = run_json(["map", "--rhs", "2*y^3 + x*y + 1",
                          "--p2zam-as-printed"])
    assert code == 3
    assert doc["map"] is None
    assert any("map emission failed" in w for w in doc["warnings"])


def test_map_corrected_succeeds():
    code, doc = run_json(["map", "--rhs", "2*y^3 + x*y + 1"])
    assert code == 0
    assert doc["map"]["max_residual"] < 1e-9
    assert doc["invariants"]["J"] == "1"


def test_coefficient_flags_divide_by_three():
    _, doc = run_json(["invariants", "--P", "0", "--Q3", "6*x", "--R3", "0",
                       "--S", "y"])
    # stored Q is one third of the raw coefficient
    code, text = run(["pullback", "--P", "0", "--Q3", "6*x", "--R3", "0",
                      "--S", "0", "--x-new", "x", "--y-new", "y"])
    assert "Q = 2*x" in text


def test_param_binding():
    code, doc = run_json(["classify", "--rhs", "2*y^3 + x*y + a",
                          "--param", "a=3"])
    assert code == 0
    assert doc["invariants"]["J"] == "3"


def test_verify_pass_and_fail():
    code, doc = run_json(["verify", "--rhs", "6*y^2 + x",
                          "--target", "painleve1",
                          "--x-new", "x", "--y-new", "y"])
    assert code == 0 and doc["map"]["max_residual"] == 0.0
    code, _ = run(["verify", "--rhs", "6*y^2 + x", "--target", "painleve1",
                   "--x-new", "x", "--y-new=-y"])
    assert code == 2


def test_verify_painleve2_with_parameter():
    code, doc = run_json(["verify", "--rhs", "2*y^3 + x*y + 5",
                          "--target", "painleve2",
                          "--x-new", "x", "--y-new", "y", "--J", "5"])
    assert code == 0


def test_pullback_round_trips_through_classify():
    code, doc = run_json(["pullback", "--rhs", "6*y^2 + x",
                          "--x-new", "x + y^2", "--y-new", "y"])
    assert code == 0
    rhs = doc["invariants"]["rhs"]
    code2, doc2 = run_json(["classify", "--rhs", rhs])
    assert code2 == 0 and doc2["class"] == "PainleveI"


@pytest.mark.parametrize("argv", [
    ["classify"],                                   # no input source
    ["classify", "--rhs", "x", "--P", "x"],         # two input sources
    ["classify", "--rhs", "6*y^2 +"],               # parse error
    ["classify", "--rhs", "x", "--param", "oops"],  # malformed binding
    ["classify", "--rhs", "p^4"],                   # not cubic in y'
    ["classify", "--rhs", "1/0"],                   # undefined input
    ["classify", "--rhs", "y/(x-x)"],
    ["classify", "--rhs", "ln(0)"],
    ["classify", "--rhs", "x", "--param", "x=1"],   # binds a variable
    ["classify", "--rhs", "x", "--param", "y=1"],
    ["classify", "--rhs", "x", "--param", "p=1"],
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1",  # zero Jacobian
     "--x-new", "x", "--y-new", "0"],
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1",  # undefined map
     "--x-new", "1/(x-x)", "--y-new", "y"],
    ["classify", "--rhs", "1/(sin(y)^2+cos(y)^2-1)"],  # undefined once reduced
    ["classify", "--P", "1/(sin(y)^2+cos(y)^2-1)"],
    ["map", "--rhs", "6*y^2+x", "--samples", "0"],  # numeric options
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1",
     "--x-new", "x", "--y-new", "y", "--samples=-3"],
    ["map", "--rhs", "6*y^2+x", "--precision", "8"],
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1",
     "--x-new", "x", "--y-new", "y", "--precision", "29"],
    ["verify", "--rhs", "2*y^3+x*y", "--target", "painleve2",  # undefined J
     "--x-new", "x", "--y-new", "y", "--J", "1/0"],
    ["verify", "--rhs", "2*y^3+x*y", "--target", "painleve2",
     "--x-new", "x", "--y-new", "y", "--J", "1/(x-x)"],
    ["pullback", "--rhs", "6*y^2+x",                  # undefined map
     "--x-new", "1/0", "--y-new", "y"],
    ["pullback", "--rhs", "6*y^2+x", "--x-new", "x", "--y-new", "ln(0)"],
    ["classify", "--rhs", "6*y^2+x", "--samples", "0"],  # flags of map only
    ["invariants", "--rhs", "6*y^2+x", "--precision", "60"],
    ["pullback", "--rhs", "6*y^2+x", "--x-new", "x", "--y-new", "y",
     "--samples", "5"],
    ["classify", "--rhs", "6*y^2+x", "--p2zam-as-printed"],
    ["verify", "--rhs", "6*y^2+x", "--target", "painleve1",
     "--x-new", "x", "--y-new", "y", "--p2zam-as-printed"],
    ["pullback", "--rhs", "6*y^2+x", "--x-new", "x+y^2", "--y-new", "y",
     "--seed", "5"],                                  # seeds nothing
])
def test_usage_errors_exit_one(argv):
    code, _ = run(argv)
    assert code == 1


def test_verify_accepts_the_precision_floor():
    code, _ = run(["verify", "--rhs", "6*y^2+x", "--target", "painleve1",
                   "--x-new", "x", "--y-new", "y", "--precision", "30",
                   "--samples", "1"])
    assert code == 0


def test_trigonometric_identity_input_ends_in_time():
    """Once hung computing xi and Gamma after Theorem 2 condition 4 failed."""
    def give_up(signum, frame):
        raise TimeoutError("classify ran for more than 30 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    try:
        code, _ = run(["classify", "--rhs", "sin(y)^2+cos(y)^2*y^3+x"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3)


def test_trigonometric_identity_input_failures_are_exact():
    """One sin/cos pair of y: the reduced form decides nonzero exactly."""
    _, text = run(["classify", "--rhs", "sin(y)^2+cos(y)^2*y^3+x"])
    fails = [line for line in text.splitlines() if line.startswith("warning: ")
             and " fails (" in line]
    assert len(fails) == 3
    assert all("(canonical form" in line for line in fails)
    assert "exceeds tolerance" not in text


def test_invariants_builds_one_pipeline(monkeypatch):
    built = []
    init = InvariantPipeline.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InvariantPipeline, "__init__", counting)
    code, _ = run(["invariants", "--rhs", "2*y^3 + x*y + a"])
    assert code == 0 and len(built) == 1


def test_unknown_subcommand_exit_one():
    code, _ = run(["bogus"])
    assert code == 1


def test_importing_the_cli_loads_no_heavy_optional_module():
    """Every CLI process pays for its imports; these five are installed
    alongside sympy but the CLI needs none of them."""
    heavy = ("numpy", "scipy", "hypothesis", "pytest", "IPython")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import sys, painleq.cli; "
             f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
