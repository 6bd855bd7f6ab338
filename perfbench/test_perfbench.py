"""Tests of the benchmark itself: seeded inputs, the known-answer oracle, the
whole-pass loop and the traced per-layer run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest
import sympy as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from painleq.transform import PointMap  # noqa: E402

X, Y = sp.symbols("x y")
PER_LAYER = [m["name"] for m in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = [(c.text, c.argv) for c in inputs.cases_for(workload, 7)]
    assert first == [(c.text, c.argv) for c in inputs.cases_for(workload, 7)]
    assert first != [(c.text, c.argv) for c in inputs.cases_for(workload, 8)]


PII = {"kind": "painleve2", "a": "2", "x_new": "2*x + 1", "y_new": "x + 3*y"}


def _pii_map(y_new, J):
    return PointMap(sp.sympify("2*x + 1"), sp.sympify(y_new), J=sp.Integer(J))


def test_oracle_accepts_the_hidden_map_and_its_pii_mirror():
    assert oracle.check_inprocess(PII, "painleve2", 2, _pii_map("x + 3*y", 2)) == ""
    assert oracle.check_inprocess(PII, "painleve2", 2, _pii_map("-x - 3*y", -2)) == ""


def test_oracle_rejects_a_wrong_class():
    assert oracle.check_inprocess(PII, "painleve1", None, None)
    assert oracle.check_inprocess({"kind": "not_equivalent"}, "painleve2", 1)


def test_oracle_rejects_j_with_the_wrong_sign_pairing():
    assert oracle.check_inprocess(PII, "painleve2", 2, _pii_map("x + 3*y", -2))
    assert oracle.check_inprocess(PII, "painleve2", 2, _pii_map("-x - 3*y", 2))
    assert oracle.check_inprocess(PII, "painleve2", sp.nan, None)
    assert oracle.check_inprocess(PII, "painleve2", 3, _pii_map("x + 3*y", 3))


def test_oracle_rejects_a_map_off_by_one_in_x_new():
    pi = {"kind": "painleve1", "x_new": "x*sin(y)", "y_new": "x*cos(y)"}
    good = PointMap(X * sp.sin(Y), X * sp.cos(Y))
    assert oracle.check_inprocess(pi, "painleve1", None, good) == ""
    off = PointMap(X * sp.sin(Y) + 1, X * sp.cos(Y))
    assert "differs" in oracle.check_inprocess(pi, "painleve1", None, off)


def test_cli_oracle_follows_the_exit_code_contract():
    usage = {"exit": (1,), "class": None}
    assert oracle.check_cli(usage, 1, None) == ""
    assert oracle.check_cli(usage, 2, {"class": "NotEquivalent"})
    pi = {"exit": (0,), "class": "PainleveI"}
    assert oracle.check_cli(pi, 0, {"class": "PainleveI"}) == ""
    assert oracle.check_cli(pi, 0, {"class": "PainleveII"})


def test_closed_loop_runs_whole_passes(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(run, "_quiesce", lambda: None)
    monkeypatch.setattr(run, "RUN_DEADLINE_S", math.inf)

    def attempt(case):  # one second per input: a pass of three takes 3 s
        now[0] += 1.0
        return run.Outcome(case, 1.0, "", "")

    assert len(run.closed_loop("abc", attempt, 10)) == 9
    assert len(run.closed_loop("abc", attempt, 4)) == 3
    assert len(run.closed_loop("abc", attempt, 0)) == 3


def test_tail_has_ten_samples_beyond_it_in_each_pass():
    value, pct = run.tail([float(i) for i in range(16)], 16)
    assert value == 5.0 and pct == 37.5
    two = [float(i) for i in range(16)] + [float(i) + 1 for i in range(16)]
    assert run.tail(two, 16) == (5.5, 37.5)


def _traced(workload, names, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_DEADLINE_S", math.inf)
    cases = [c for c in inputs.cases_for(workload, 1) if c.name in names]
    _, correct, _, metrics, _ = run.per_layer(workload, cases, 0, 1,
                                              tmp_path / "trace.json")
    assert correct
    assert json.loads((tmp_path / "trace.json").read_text())
    return metrics


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    metrics = _traced("disguised", {"painleve1/shear_y"}, tmp_path, monkeypatch)
    assert list(metrics) == PER_LAYER
    assert metrics["transform.verify_calls"] > 0
    assert metrics["invariants.Theta_terms"] > 0
    assert metrics["transform.pullback_s"] > 0


def test_reject_never_reaches_map_emission(tmp_path, monkeypatch):
    metrics = _traced("reject", {"autonomous_y2/shear_y"}, tmp_path, monkeypatch)
    assert list(metrics) == PER_LAYER
    assert metrics["transform.verify_calls"] == 0
    assert metrics["transform.emit_s"] == 0
    assert metrics["exprkernel.normalize_calls"] > 0
