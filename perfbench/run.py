#!/usr/bin/env python3
"""Known-answer benchmark for painleq.

    python3 perfbench/run.py --workload disguised --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client, one process, closed loop: the next input starts when the previous
one has ended.  A run takes whole passes over its workload's inputs, as many
as best fill ``--seconds`` (at least one), so every run measures the same mix.
Each input's answer is known by construction and checked after its timing
stops.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The lines
before it repeat the metrics with units, the failures, and the sample count
behind each percentile.  See README.md for the metrics and workloads.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("disguised", "reject", "cli")
SETUP_REPEATS = 3
INPUT_LIMIT_S = 12.0   # per in-process input
CLI_LIMIT_S = 6.0      # per CLI invocation, spawn to exit
IMPORT_REPEATS = 3     # interpreter starts timed for cli.import_s
# No input starts later than this after process start, so that a runaway
# program still lets the run end within three minutes.
RUN_DEADLINE_S = 140.0
TAIL_BEYOND = 10       # samples above the tail percentile, per pass
TRACE_DIR = ROOT / ".perfbench"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# metric name -> unit, for every end-to-end and per-layer metric
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in BENCHMARK[kind]}


class InputTimeout(BaseException):
    """Raised in the main thread when an input exceeds its time limit.

    A BaseException, so that no ``except Exception`` inside painleq or sympy
    swallows it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    name: str
    elapsed: float
    failure: str    # empty when the known answer came back
    defect: str     # the known defect the case carries, if any


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_painleq():
    """Import painleq from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import painleq
    except ImportError as exc:
        sys.exit(f"error: cannot import painleq from {SRC}: {exc}")
    if not Path(painleq.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: painleq imported from {painleq.__file__}, not {SRC}")
    return painleq


# -- one input ------------------------------------------------------------

def _attempt_inprocess(case, with_map: bool) -> Outcome:
    """parse -> classify -> map emission (when asked and the class has one),
    timed from handing over the text until the final result."""
    import oracle
    from painleq import parsing, transform
    # painleq re-exports the function classify under the module's name
    classify = sys.modules["painleq.classify"].classify

    kind = J = pmap = None
    start = time.perf_counter()
    try:
        with time_limit(INPUT_LIMIT_S):
            ode = parsing.extract_cubic_coefficients(
                parsing.parse_expression(case.text))
            cls = classify(ode)
            kind, J = cls.kind, cls.J
            if with_map and kind == "painleve1":
                pmap = transform.map_painleve1(cls.reports[kind])
            elif with_map and kind == "painleve2":
                pmap = transform.map_painleve2(cls.reports[kind])
        failure = None
    except InputTimeout:
        failure = f"exceeded the {INPUT_LIMIT_S:g} s limit"
    except Exception as exc:  # any error is an outcome to count, not a crash
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if failure is None:
        failure = oracle.check_inprocess(case.expect, kind, J, pmap)
    return Outcome(case.name, elapsed, failure, case.defect)


def _attempt_subprocess(case) -> Outcome:
    """One ``python -m painleq.cli`` process, timed from spawn to exit."""
    import oracle

    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "painleq.cli", *case.argv],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CLI_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        elapsed = time.perf_counter() - start
        return Outcome(case.name, elapsed,
                       f"exceeded the {CLI_LIMIT_S:g} s limit", case.defect)
    elapsed = time.perf_counter() - start
    return Outcome(case.name, elapsed,
                   oracle.check_cli(case.expect, proc.returncode,
                                    _json_or_none(proc.stdout)), case.defect)


def _attempt_run_cli(case) -> Outcome:
    """The same argv through ``run_cli`` in this process."""
    import oracle
    import painleq.cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with time_limit(CLI_LIMIT_S):
            code = painleq.cli.run_cli(list(case.argv), out=out)
        failure = None
    except InputTimeout:
        failure = f"exceeded the {CLI_LIMIT_S:g} s limit"
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if failure is None:
        failure = oracle.check_cli(case.expect, code,
                                   _json_or_none(out.getvalue()))
    return Outcome(case.name, elapsed, failure, case.defect)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _attempt_for(workload: str, in_process_cli: bool = False):
    if workload == "cli":
        return _attempt_run_cli if in_process_cli else _attempt_subprocess
    with_map = workload == "disguised"
    return lambda case: _attempt_inprocess(case, with_map)


# -- loops ------------------------------------------------------------------

def _quiesce() -> None:
    """Start every input from the same state: an empty sympy cache (a CLI
    user classifies one equation per process) and no garbage left over from
    the previous input.  Runs outside the input's timing."""
    from sympy.core.cache import clear_cache

    clear_cache()
    gc.collect()


def closed_loop(cases, attempt, seconds: float, tracer=None) -> list[Outcome]:
    """Whole passes over ``cases``: the first pass, then as many passes in
    all as best fill ``seconds``.  No input starts after RUN_DEADLINE_S."""
    outcomes = []
    start = time.perf_counter()
    total = len(cases)
    while len(outcomes) < total and time.perf_counter() - _T0 < RUN_DEADLINE_S:
        _quiesce()
        if tracer is not None:
            tracer.input_id = len(outcomes)
        outcomes.append(attempt(cases[len(outcomes) % len(cases)]))
        if len(outcomes) == len(cases):
            first_pass = time.perf_counter() - start
            total *= max(1, round(seconds / first_pass))
    return outcomes


def _generate(workload: str, seed: int):
    """Build the inputs SETUP_REPEATS times; returns them and the median
    generation time.  Every repeat must give byte-identical text."""
    import inputs

    times, texts, cases = [], set(), None
    for _ in range(SETUP_REPEATS):
        _quiesce()
        start = time.perf_counter()
        cases = inputs.cases_for(workload, seed)
        times.append(time.perf_counter() - start)
        texts.add(tuple((c.text, c.argv) for c in cases))
    if len(texts) != 1:
        sys.exit("error: the same seed produced different inputs")
    return cases, statistics.median(times)


# -- metrics ----------------------------------------------------------------

def tail(latencies: list[float], pass_len: int) -> tuple[float, float]:
    """(value, percentile): in each whole pass, the latency with TAIL_BEYOND
    samples above it; the median of that over passes.  The percentile is
    fixed by the pass length, so it stays the same when more passes fit."""
    passes = [sorted(latencies[i:i + pass_len])
              for i in range(0, len(latencies), pass_len)]
    whole = [p for p in passes if len(p) == pass_len] or passes[:1]
    n = len(whole[0])
    index = max(n - TAIL_BEYOND - 1, 0)
    return (statistics.median(p[index] for p in whole),
            100.0 * (index + 1) / n)


def _summary(outcomes: list[Outcome]) -> tuple[bool, int, list[str]]:
    """(correct, failed, report lines).  ``correct`` is false only when a
    case without a known defect fails; known defects still count as failed."""
    lines, correct = [], True
    failed = [o for o in outcomes if o.failure]
    for o in failed:
        if o.defect:
            lines.append(f"  failed  {o.name}: {o.failure}  [known defect {o.defect}]")
        else:
            correct = False
            lines.append(f"  WRONG   {o.name}: {o.failure}")
    return correct, len(failed), list(dict.fromkeys(lines))


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, cases, seconds, setup_s):
    outcomes = closed_loop(cases, _attempt_for(workload), seconds)
    latencies = [o.elapsed for o in outcomes]
    correct, failed, lines = _summary(outcomes)
    tail_value, tail_pct = tail(latencies, len(cases))
    metrics = {
        "setup_s": setup_s,
        "eq_per_s": len(outcomes) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "fail_ratio": failed / len(outcomes),
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    lines.append(f"  latency_tail_s is p{tail_pct:.0f} of each pass of "
                 f"{len(cases)}; {len(outcomes)} samples in "
                 f"{len(outcomes) // len(cases)} passes; fail_ratio is "
                 f"{failed}/{len(outcomes)}")
    return outcomes, correct, failed, metrics, lines


def per_layer(workload, cases, seconds, seed, trace_out):
    """Traced passes, counted as in the untraced run.  Comparing
    ``trace.eq_per_s`` with the untraced runs' ``eq_per_s`` gives the tracing
    overhead (baseline.py reports it)."""
    import inputs
    import tracing

    extra = {"transform.pullback_s": 0.0, "cli.import_s": 0.0, "cli.run_s": 0.0}
    if workload != "cli":
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            _quiesce()
            inputs.cases_for(workload, seed)
        finally:
            setup_tracer.uninstall()
        pulls = [s.end - s.start for s in setup_tracer.spans
                 if s.name == "pullback_ode" and s.parent is None]
        extra["transform.pullback_s"] = statistics.mean(pulls) if pulls else 0.0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(cases, _attempt_for(workload, in_process_cli=True),
                             seconds, tracer)
    finally:
        tracer.uninstall()

    if workload == "cli":
        runs = [s.end - s.start for s in tracer.spans if s.name == "run_cli"]
        extra["cli.run_s"] = statistics.median(runs)
        extra["cli.import_s"] = _time_cli_import()

    metrics = tracer.layer_metrics(len(traced))
    metrics.update(extra)
    metrics["trace.eq_per_s"] = len(traced) / sum(o.elapsed for o in traced)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_out)
    correct, failed, lines = _summary(traced)
    lines.append(f"  {len(traced)} inputs traced, spans in {trace_out}")
    return traced, correct, failed, metrics, lines


def _time_cli_import() -> float:
    """Median wall time of interpreter start plus ``import painleq.cli``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import painleq.cli"], cwd=ROOT,
                       env=_child_env(), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- entry points -------------------------------------------------------------

def run_one(args) -> int:
    _import_painleq()
    sys.path.insert(0, str(HERE))
    import_s = time.perf_counter() - _T0
    cases, gen_s = _generate(args.workload, args.seed)
    if args.trace:
        outcomes, correct, failed, metrics, lines = per_layer(
            args.workload, cases, args.seconds, args.seed,
            TRACE_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        outcomes, correct, failed, metrics, lines = end_to_end(
            args.workload, cases, args.seconds, import_s + gen_s)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(outcomes)} inputs, {failed} failed")
    if args.workload != "cli":
        import inputs
        print(f"  {inputs.transcendental_share(cases):.1%} of the pass holds "
              "transcendental atoms")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:34} {value:14.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':34} {'unit':>6} " + " ".join(f"{w:>12}" for w in WORKLOADS))
    for name in names:
        row = [results[w]["metrics"][name]["value"] for w in WORKLOADS]
        print(f"{name:34} {UNITS[name]:>6} " + " ".join(f"{v:12.4g}" for v in row))
    print(f"{'attempted / failed':41} " + " ".join(
        f"{results[w]['attempted']:>7} / {results[w]['failed']:<2}" for w in WORKLOADS))
    ok = all(r["correct"] for r in results.values())
    print("known answers:", "all as expected" if ok else "UNEXPECTED FAILURES")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
