"""Command line front end.

Subcommands::

    classify    run the three theorem checks and report the class
    invariants  report the pseudoinvariants and weight-0 invariants
    map         classify, then emit and verify the change of variables
    verify      check a user-supplied map numerically against a target class
    pullback    transport the input equation backward through a map

The input equation is given either as a full right-hand side (``--rhs``,
cubic in the symbol p = y') or as the four coefficients ``--P --Q3 --R3 --S``
where Q3 and R3 are the raw y' and y'^2 coefficients; the tool divides them
by 3 to match the stored convention and echoes the stored values.  Exit
codes: 0 definitive classification or successful verification, 2 not
equivalent (or failed verification), 3 indeterminate, 1 usage or parse
errors (a map with zero Jacobian included).
"""

from __future__ import annotations

import argparse
import json
import sys

import sympy as sp

from .classify import (Classification, InvariantReport, SqrtOfNonPositive,
                       classify)
# normalize stays a module global: perfbench/tracing.py replaces it here by
# module attribute
from .exprkernel import DEFAULT_SEED, X, Y, is_identically_zero, normalize
from .invariants import (BothComponentsZero, BranchDisagreement,
                         GammaUndefined, InvariantPipeline)
from .parsing import (ExprSyntaxError, NotCubicInDerivative, OdeCubic,
                      extract_cubic_coefficients, parse_expression, to_grammar)
from .transform import (DEFAULT_SAMPLES, AllSamplesSingular,
                        BranchVerificationFailed, DegenerateMap, PointMap,
                        map_painleve1, map_painleve2, pullback_ode, verify_map)

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_EQUIVALENT = 2
EXIT_INDETERMINATE = 3

CLASS_NAMES = {
    "painleve1": "PainleveI",
    "painleve2": "PainleveII",
    "painleve3_zero": "PainleveIII(0,b,0,0)",
    "not_equivalent": "NotEquivalent",
    "indeterminate": "Indeterminate",
}

NO_MAP_CLASSES = {
    "painleve3_zero": "no explicit change of variables is available for this "
                      "class: all of its weight-0 invariants are constants",
}


class UsageError(ValueError):
    """Bad flag combination or unparsable expression input."""


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input equation")
    src.add_argument("--rhs", help="right-hand side of y'' as an expression "
                                   "in x, y and p = y'")
    src.add_argument("--P", dest="coef_P", help="coefficient of y'^0")
    src.add_argument("--Q3", dest="coef_Q3",
                     help="raw coefficient of y' (divided by 3 internally)")
    src.add_argument("--R3", dest="coef_R3",
                     help="raw coefficient of y'^2 (divided by 3 internally)")
    src.add_argument("--S", dest="coef_S", help="coefficient of y'^3")
    common.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind a symbolic parameter (value may itself be "
                             "symbolic); repeatable")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help="sample count for numeric verification")
    common.add_argument("--precision", type=int, default=60,
                        help="working decimal digits for numeric evaluation")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a machine-readable JSON report")
    common.add_argument("--p2zam-as-printed", action="store_true",
                        help="use the uncorrected sixth-root x-formula for "
                             "the Painleve II map (fails verification; kept "
                             "for arbitration)")

    mapargs = argparse.ArgumentParser(add_help=False)
    mapargs.add_argument("--x-new", required=True,
                         help="first component of the point map")
    mapargs.add_argument("--y-new", required=True,
                         help="second component of the point map")

    parser = argparse.ArgumentParser(
        prog="painleq",
        description="Point-equivalence test for Painleve I, Painleve II and "
                    "Painleve III with three zero parameters.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("classify", parents=[common],
                   help="run the theorem checks and report the class")
    sub.add_parser("invariants", parents=[common],
                   help="report pseudoinvariants and weight-0 invariants")
    sub.add_parser("map", parents=[common],
                   help="classify and emit the verified change of variables")
    ver = sub.add_parser("verify", parents=[common, mapargs],
                         help="verify a supplied map against a target class")
    ver.add_argument("--target", required=True,
                     choices=("painleve1", "painleve2"))
    ver.add_argument("--J", default=None,
                     help="Painleve II parameter carried by the map")
    sub.add_parser("pullback", parents=[common, mapargs],
                   help="pull the input equation back through a map")
    return parser


def _parse(text: str, what: str) -> sp.Expr:
    try:
        return parse_expression(text)
    except ExprSyntaxError as exc:
        raise UsageError(f"cannot parse {what}: {exc}") from None


def _bindings(pairs: list[str]) -> dict[sp.Symbol, sp.Expr]:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in ("x", "y", "p"):
            raise UsageError(f"--param cannot bind the variable {name}")
        out[sp.Symbol(name)] = _parse(value, f"--param {name}")
    return out


def _finite(e: sp.Expr, what: str) -> sp.Expr:
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise UsageError(f"{what} is undefined: it divides by zero or takes "
                         "ln(0)")
    return e


def _load_ode(args) -> OdeCubic:
    coeffs = (args.coef_P, args.coef_Q3, args.coef_R3, args.coef_S)
    if (args.rhs is None) == all(c is None for c in coeffs):
        raise UsageError("provide exactly one input source: --rhs, or the "
                         "coefficient flags --P/--Q3/--R3/--S")
    subs = _bindings(args.param)
    if args.rhs is not None:
        rhs = _finite(_parse(args.rhs, "--rhs").subs(subs, simultaneous=True),
                      "--rhs")
        try:
            return extract_cubic_coefficients(rhs)
        except NotCubicInDerivative as exc:
            raise UsageError(f"--rhs is not cubic in the derivative: {exc}") from None
    parts = []
    for flag, text in zip(("--P", "--Q3", "--R3", "--S"), coeffs):
        e = sp.Integer(0) if text is None else _parse(text, flag)
        parts.append(normalize(_finite(e.subs(subs, simultaneous=True), flag)))
    try:
        return OdeCubic(P=parts[0], Q=normalize(parts[1] / 3),
                        R=normalize(parts[2] / 3), S=parts[3])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _expr_str(e) -> str | None:
    if e is None or e is sp.nan:
        return None
    return to_grammar(e)


def _conditions_json(reports: dict[str, InvariantReport]) -> list[dict]:
    return [{"label": c.label, "paper_ref": c.paper_ref,
             "verdict": c.verdict.status}
            for rep in reports.values() for c in rep.conditions]


def _map_json(pmap: PointMap | None) -> dict | None:
    if pmap is None:
        return None
    return {"x_new": _expr_str(pmap.x_new), "y_new": _expr_str(pmap.y_new),
            "branch": pmap.branch, "max_residual": pmap.max_residual}


def _report_dict(cls: Classification | None, invariants: dict,
                 pmap: PointMap | None, warnings: list[str]) -> dict:
    reports = cls.reports if cls is not None else {}
    return {
        "class": CLASS_NAMES[cls.kind] if cls is not None else None,
        "conditions": _conditions_json(reports),
        "invariants": {k: _expr_str(v) for k, v in invariants.items()},
        "map": _map_json(pmap),
        "warnings": list(warnings),
    }


def _emit(doc: dict, as_json: bool, out, inv_label: str = "invariants") -> None:
    if as_json:
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    if doc["class"] is not None:
        out.write(f"class: {doc['class']}\n")
    for c in doc["conditions"]:
        out.write(f"  [{c['verdict']:>7}] {c['label']}\n")
    if doc["invariants"]:
        out.write(f"{inv_label}:\n")
        for name, text in doc["invariants"].items():
            out.write(f"  {name} = {text}\n")
    m = doc["map"]
    if m is not None:
        out.write(f"map: x_new = {m['x_new']}\n     y_new = {m['y_new']}\n")
        out.write(f"     branch {m['branch']}, max residual {m['max_residual']}\n")
    for w in doc["warnings"]:
        out.write(f"warning: {w}\n")


def _classification_exit(cls: Classification) -> int:
    if cls.equivalent:
        return EXIT_OK
    return EXIT_INDETERMINATE if cls.kind == "indeterminate" else EXIT_NOT_EQUIVALENT


def _passing_report(cls: Classification) -> InvariantReport | None:
    if cls.equivalent:
        return cls.reports[cls.kind]
    return None


def _gather_invariants(cls: Classification) -> tuple[dict, list[str]]:
    rep = _passing_report(cls)
    warnings = list(dict.fromkeys(
        [w for r in cls.reports.values() for w in r.warnings]
        + list(cls.diagnostics)))
    inv = {}
    if rep is not None:
        inv.update(rep.invariants)
        if cls.J is not None:
            inv["J"] = cls.J
    return inv, warnings


def _cmd_classify(args, out) -> int:
    ode = _load_ode(args)
    cls = classify(ode, seed=args.seed)
    inv, warnings = _gather_invariants(cls)
    _emit(_report_dict(cls, inv, None, warnings), args.as_json, out)
    return _classification_exit(cls)


def _cmd_invariants(args, out) -> int:
    ode = _load_ode(args)
    pipe = InvariantPipeline(ode, seed=args.seed)
    cls = classify(ode, seed=args.seed, pipe=pipe)
    inv, warnings = _gather_invariants(cls)
    pseudo = {}
    names = ["alpha", "N", "Omega", "M", "xi", "Gamma"]
    try:
        if pipe.zero_verdict(pipe.N).is_zero:
            names[3:] = ["Theta", "theta", "L", "L1", "W", "V"]
        else:
            warnings.append("Theta, theta, L, L1, W, V omitted: they are "
                            "well defined only when N = 0")
    except BothComponentsZero:
        names = []
    for name in names:
        try:
            p = pipe.pseudo(name)
        except (BothComponentsZero, GammaUndefined, BranchDisagreement,
                ZeroDivisionError):
            continue
        if len(p.components) == 1:
            pseudo[name] = p.expr
        else:
            for i, comp in enumerate(p.components, start=1):
                pseudo[f"{name}{i}"] = comp
    pseudo.update(inv)
    _emit(_report_dict(cls, pseudo, None, warnings), args.as_json, out)
    return _classification_exit(cls)


def _cmd_map(args, out) -> int:
    ode = _load_ode(args)
    cls = classify(ode, seed=args.seed)
    inv, warnings = _gather_invariants(cls)
    pmap = None
    if cls.kind in NO_MAP_CLASSES:
        warnings.append(NO_MAP_CLASSES[cls.kind])
    elif cls.equivalent:
        rep = cls.reports[cls.kind]
        try:
            if cls.kind == "painleve1":
                pmap = map_painleve1(rep, samples=args.samples,
                                     seed=args.seed, precision=args.precision)
            else:
                pmap = map_painleve2(rep, samples=args.samples,
                                     seed=args.seed,
                                     as_printed=args.p2zam_as_printed,
                                     precision=args.precision)
        except (BranchVerificationFailed, DegenerateMap,
                AllSamplesSingular) as exc:
            warnings.append(f"map emission failed: {exc}")
            _emit(_report_dict(cls, inv, None, warnings), args.as_json, out)
            return EXIT_INDETERMINATE
        if pmap.J is not None:
            inv["J"] = pmap.J
    _emit(_report_dict(cls, inv, pmap, warnings), args.as_json, out)
    return _classification_exit(cls)


def _cmd_verify(args, out) -> int:
    ode = _load_ode(args)
    subs = _bindings(args.param)
    j = None if args.J is None else _parse(args.J, "--J").subs(subs, simultaneous=True)
    pmap = PointMap(*(_finite(_parse(text, flag).subs(subs, simultaneous=True), flag)
                      for text, flag in ((args.x_new, "--x-new"),
                                         (args.y_new, "--y-new"))),
                    branch="user", J=j)
    if is_identically_zero(pmap.jacobian()).is_zero:
        raise UsageError(f"map ({pmap.x_new}, {pmap.y_new}) has zero Jacobian")
    try:
        ok, residual = verify_map(ode, args.target, pmap,
                                  samples=args.samples, seed=args.seed,
                                  precision=args.precision)
    except AllSamplesSingular as exc:
        _emit(_report_dict(None, {}, None, [str(exc)]), args.as_json, out)
        return EXIT_INDETERMINATE
    pmap = PointMap(pmap.x_new, pmap.y_new, branch="user", J=j,
                    verified=ok, max_residual=float(residual))
    note = "verification passed" if ok else "verification failed"
    _emit(_report_dict(None, {}, pmap, [note]), args.as_json, out)
    return EXIT_OK if ok else EXIT_NOT_EQUIVALENT


def _cmd_pullback(args, out) -> int:
    target = _load_ode(args)
    subs = _bindings(args.param)
    pmap = PointMap(_parse(args.x_new, "--x-new").subs(subs, simultaneous=True),
                    _parse(args.y_new, "--y-new").subs(subs, simultaneous=True))
    try:
        ode = pullback_ode(target, pmap)
    except (DegenerateMap, NotCubicInDerivative) as exc:
        raise UsageError(str(exc)) from None
    doc = _report_dict(None, {"P": ode.P, "Q": ode.Q, "R": ode.R, "S": ode.S,
                              "rhs": ode.rhs()}, None, [])
    _emit(doc, args.as_json, out, inv_label="coefficients")
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "pullback": _cmd_pullback,
}


def run_cli(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # NotEquivalent, so remap
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.subcommand](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SqrtOfNonPositive as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
