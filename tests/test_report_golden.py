"""The in-process classification reports of a fixed corpus, against a
recorded file.

The corpus is the benchmark's ``disguised`` and ``reject`` inputs for seeds
1 and 2, and six more texts: Painleve I, II(a) and III(0,b,0,0) as printed,
alpha = 0, a trig identity hiding a cubic, and a Theorem 2 whose J^2 is
undecided.  For each text the file holds the class, J, the diagnostics and
every theorem report (conditions with labels, paper references, verdicts,
notes and ``holds``; ``passed``; invariants as ``srepr``; warnings).
Rewrite the recorded file only for an intended change of reports::

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import sys
from pathlib import Path

import pytest
import sympy as sp

from painleq.classify import classify
from painleq.parsing import extract_cubic_coefficients, parse_expression

GOLDEN = Path(__file__).parent / "data" / "report_golden.jsonl"

_EXTRA = [
    ("painleve1", "6*y^2 + x"),
    ("painleve2", "2*y^3 + x*y + a"),
    ("alpha_zero", "y"),
    ("painleve3_zero", "b/x - p/x + p^2/y"),
    ("trig_identity", "sin(y)^2+cos(y)^2*y^3+x"),
    ("j_squared_undecided", "2*y^3 + x*y + 1 + sin(2*x) - 2*sin(x)*cos(x)"),
]


def _report(text: str) -> dict:
    cls = classify(extract_cubic_coefficients(parse_expression(text)))
    return {
        "kind": cls.kind,
        "J": None if cls.J is None else sp.srepr(cls.J),
        "diagnostics": list(cls.diagnostics),
        "reports": {target: {
            "passed": r.passed,
            "conditions": [[c.label, c.paper_ref, c.verdict.status,
                            c.verdict.note, c.holds] for c in r.conditions],
            "invariants": {k: sp.srepr(v) for k, v in r.invariants.items()},
            "warnings": list(r.warnings),
        } for target, r in cls.reports.items()},
    }


def _recorded() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


# the recording run writes the file that the tests read
@pytest.mark.parametrize("entry", [] if __name__ == "__main__" else _recorded(),
                         ids=lambda e: f"{e['index']}-{e['name']}")
def test_report_matches_the_recorded_file(entry):
    got = _report(entry["text"])
    for key, want in entry["report"].items():
        assert got[key] == want, key


def _corpus() -> list[tuple[str, str]]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import inputs
    cases = [(f"{workload}{seed}/{c.name}", c.text)
             for workload in ("disguised", "reject") for seed in (1, 2)
             for c in inputs.cases_for(workload, seed)]
    return cases + _EXTRA


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(
        json.dumps({"index": i, "name": name, "text": text,
                    "report": _report(text)}) + "\n"
        for i, (name, text) in enumerate(_corpus())))
