"""Spans around painleq's public names, recorded from outside the package.

``Tracer.install`` replaces each traced name where it is looked up (module
globals, ``InvariantPipeline``'s cached stage properties and its omega
helper) and
``Tracer.uninstall`` puts the originals back.  A span records its name,
start, end, parent and the input it belongs to; spans stay in memory until
``write`` dumps them once.  ``layer_metrics`` folds them into the per-layer
metrics named in README.md.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

import sympy as sp

from painleq.invariants import InvariantPipeline

__all__ = ["STAGES", "Tracer"]

STAGES = ("A", "B", "G", "H", "F5", "N", "phi", "M", "Omega", "omega",
          "Theta", "theta", "L", "L1", "W", "V", "gamma", "xi", "Gamma")

# span name -> (module attribute, modules whose global it is looked up in)
_FUNCTIONS = {
    "parse_expression": ("parse_expression", ("parsing", "cli")),
    "extract_cubic_coefficients": ("extract_cubic_coefficients",
                                   ("parsing", "cli")),
    "normalize": ("normalize", ("exprkernel", "invariants", "classify",
                                "transform", "parsing", "cli")),
    "zero_test": ("is_identically_zero", ("exprkernel", "invariants",
                                          "classify", "transform")),
    "check_painleve1": ("check_painleve1", ("classify",)),
    "check_painleve2": ("check_painleve2", ("classify",)),
    "check_painleve3zero": ("check_painleve3zero", ("classify",)),
    "classify": ("classify", ("classify", "cli")),
    "map_painleve1": ("map_painleve1", ("transform", "cli")),
    "map_painleve2": ("map_painleve2", ("transform", "cli")),
    "verify_map": ("verify_map", ("transform", "cli")),
    "pullback_ode": ("pullback_ode", ("transform", "cli")),
    "run_cli": ("run_cli", ("cli",)),
}
# by module path: painleq re-exports the function classify under the name of
# its module
_MODULES = {name: importlib.import_module(f"painleq.{name}") for name in
            ("parsing", "exprkernel", "invariants", "classify", "transform",
             "cli")}
_PARSE = ("parse_expression", "extract_cubic_coefficients")
_CLASSIFY = ("classify", "check_painleve1", "check_painleve2",
             "check_painleve3zero")
_EMIT = ("map_painleve1", "map_painleve2")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    input_id: int
    end: float = 0.0
    info: dict = field(default_factory=dict)
    result: object = None   # a stage's value, until its terms are counted


def _terms(value) -> int:
    """Terms of the expanded numerator plus those of the expanded
    denominator, summed over a pair's components."""
    parts = value if isinstance(value, tuple) else (value,)
    return sum(len(sp.Add.make_args(sp.expand(side))) for part in parts
               for side in sp.sympify(part).as_numer_denom())


def _describe(name: str, result) -> dict:
    """What a span keeps about its result, besides its timing."""
    if name == "zero_test":
        if result.is_unknown:
            return {"verdict": "unknown"}
        return {"verdict": "sampled" if result.note.startswith("sample")
                else "exact"}
    if name == "verify_map":
        return {"passed": bool(result[0])}
    if name == "classify":
        return {"conditions": sum(len(r.conditions)
                                  for r in result.reports.values())}
    return {}


class Tracer:
    """Records spans for the traced names while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.input_id = -1

    def _run(self, name: str, fn, args, kwargs):
        span = Span(name, 0.0, self._stack[-1] if self._stack else None,
                    self.input_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name.startswith("stage."):
            span.result = result  # counting terms is slow: done after the run
        else:
            span.info = _describe(name, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, (attr, modules) in _FUNCTIONS.items():
            traced = self._wrap(name, getattr(_MODULES[modules[0]], attr))
            for mod in modules:
                self._replace(_MODULES[mod], attr, traced)
        for stage in STAGES:
            if stage == "omega":
                # the theorem checks reach omega through Theta, which calls
                # this method directly; the omega property delegates to it
                self._replace(InvariantPipeline, "_omega_pair", self._wrap(
                    "stage.omega", InvariantPipeline._omega_pair))
                continue
            prop = InvariantPipeline.__dict__[stage]
            new = functools.cached_property(self._wrap(f"stage.{stage}",
                                                       prop.func))
            new.__set_name__(InvariantPipeline, stage)
            self._replace(InvariantPipeline, stage, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_stage_terms(self) -> None:
        for s in self.spans:
            if s.result is not None:
                s.info, s.result = {"terms": _terms(s.result)}, None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        self._count_stage_terms()
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "input": s.input_id, **s.info}
                       for s in self.spans], fh)

    def layer_metrics(self, inputs: int) -> dict[str, float]:
        """Per-layer metrics over ``inputs`` traced inputs: times and counts
        per input, term counts per stage computation, yield as a ratio."""
        self._count_stage_terms()
        own = self.self_times()
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        terms: dict[str, int] = {}
        computed: dict[str, int] = {}
        verdicts = {"exact": 0, "sampled": 0, "unknown": 0}
        conditions = verified = 0
        for s, t in zip(self.spans, own):
            total[s.name] = total.get(s.name, 0.0) + t
            count[s.name] = count.get(s.name, 0) + 1
            if "terms" in s.info:
                terms[s.name] = terms.get(s.name, 0) + s.info["terms"]
                computed[s.name] = computed.get(s.name, 0) + 1
            if "verdict" in s.info:
                verdicts[s.info["verdict"]] += 1
            conditions += s.info.get("conditions", 0)
            verified += s.info.get("passed", False)
        n = max(inputs, 1)

        def per_input(names, table=total):
            return sum(table.get(k, 0) for k in names) / n

        m = {
            "parsing.parse_s": per_input(_PARSE),
            "parsing.calls": per_input(_PARSE, count),
            "exprkernel.normalize_s": per_input(("normalize",)),
            "exprkernel.normalize_calls": per_input(("normalize",), count),
            "exprkernel.zero_test_s": per_input(("zero_test",)),
            "exprkernel.zero_test_calls": per_input(("zero_test",), count),
        }
        for k, v in verdicts.items():
            m[f"exprkernel.verdict_{k}"] = v / n
        for stage in STAGES:
            key = f"stage.{stage}"
            m[f"invariants.{stage}_s"] = per_input((key,))
            m[f"invariants.{stage}_terms"] = (terms[key] / computed[key]
                                              if key in computed else 0.0)
        tries = count.get("verify_map", 0)
        m.update({
            "classify.self_s": per_input(_CLASSIFY),
            "classify.conditions": conditions / n,
            "transform.emit_s": per_input(_EMIT),
            "transform.verify_s": per_input(("verify_map",)),
            "transform.verify_calls": per_input(("verify_map",), count),
            "transform.branch_yield": verified / tries if tries else 0.0,
        })
        return m

