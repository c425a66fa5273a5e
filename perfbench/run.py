"""fraglang benchmark: one workload per run, in-process, one caller on one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enum-sweep --seed 1 --seconds 30 --trace 0

Workloads: enum-sweep, typed-traces, cli-session (see perfbench/README.md).
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose rounds alternate with untraced ones to measure the
tracing overhead.  The lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Summary, bind, time_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 15
MIN_ROUNDS = 3  # each op's time is the fastest of at least three repeats

END_TO_END = ("throughput_per_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb", "setup_s")
COUNTS = (
    "population.ill_typed",
    "population.value",
    "population.typed_stuck",
    "population.typed_steppable",
    "steps.total",
    "requests.by_exit_code.0",
    "requests.by_exit_code.1",
    "requests.by_exit_code.2",
)
TRACE_FIGURES = ("trace.round_untraced_s", "trace.round_traced_s", "trace.overhead_s", "trace.spans")
TAXES = {"typing": ("typecheck.infer", "oracle.mono_infer"),
         "stepping": ("semantics.drive_step", "oracle.mono_step")}
SHARES = {"typecheck.infer.typed_share": "typecheck.infer",
          "semantics.drive_step.step_share": "semantics.drive_step"}


def spanned_functions() -> list[str]:
    return sorted({layer.name for w in WORKLOADS.values() for layer in w.SPANNED})


def per_layer_names() -> list[str]:
    names = [f"{fn}.{figure}" for fn in spanned_functions() for figure in ("calls", "self_s", "per_s")]
    names += list(SHARES)
    for tax in TAXES:
        names += [f"tax.{tax}", f"tax.{tax}.modular_s", f"tax.{tax}.mono_s"]
    return names + list(COUNTS) + ["deep_input.failed"] + list(TRACE_FIGURES)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "recursionlimit": sys.getrecursionlimit(),
    }


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "fraglang" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fraglang sources under {src}")
    sys.path.insert(0, str(src))


def _run_rounds(workload, inputs, seconds: float, tracer: Tracer | None,
                setups: list[float], seed: int) -> tuple[Summary, Summary]:
    """Closed loop of whole rounds until ``seconds`` have passed.

    Traced runs alternate untraced and traced rounds, at least two of each.
    Between rounds, further set-ups are timed and appended to ``setups``,
    evenly over the run until there are SETUPS of them: set-ups made back to
    back all meet the same moment of a shared machine.
    Returns the summaries of the untraced and of the traced rounds.
    """
    plain = bind(inputs.mods, workload.LAYERS, None)
    traced = bind(inputs.mods, workload.LAYERS, tracer) if tracer is not None else None
    untraced_rounds, traced_rounds = Summary(), Summary()
    start = perf_counter()
    deadline = start + seconds
    while True:
        due = 1 + (SETUPS - 1) * min(1.0, (perf_counter() - start) / seconds)
        while len(setups) < due:
            gc.collect()
            setups.append(time_setup(workload, seed))
        gc.collect()
        if tracer is not None and traced_rounds.rounds < untraced_rounds.rounds:
            traced_rounds.add(workload.run_round(inputs, traced, tracer))
        else:
            untraced_rounds.add(workload.run_round(inputs, plain, None))
        if tracer is None:
            done = untraced_rounds.rounds >= MIN_ROUNDS
        else:
            done = traced_rounds.rounds >= 2
        if done and perf_counter() >= deadline:
            while len(setups) < SETUPS:
                gc.collect()
                setups.append(time_setup(workload, seed))
            return untraced_rounds, traced_rounds


def _check_counts(counts: list[dict], expected: dict | None) -> list[str]:
    problems = []
    if expected is None:
        problems.append(f"no recorded counts; this run counted {counts[0]}")
        expected = counts[0]
    for i, got in enumerate(counts):
        for key, want in expected.items():
            if got.get(key) != want:
                problems.append(f"round {i}: count {key} is {got.get(key)}, expected {want}")
    return problems


def _layer_metrics(workload, tracer: Tracer, untraced: Summary, traced: Summary) -> tuple[dict, list[str]]:
    by_name = tracer.by_name()
    rounds = traced.rounds
    values: dict[str, float] = {}
    problems = []
    for fn in spanned_functions():
        entry = by_name.get(fn, {"calls": 0, "self_s": 0.0, "useful": 0})
        self_s = entry["self_s"] / rounds
        values[f"{fn}.calls"] = entry["calls"] / rounds
        values[f"{fn}.self_s"] = self_s
        values[f"{fn}.per_s"] = values[f"{fn}.calls"] / self_s if self_s > 0 else 0.0
    for layer in workload.SPANNED:
        if by_name.get(layer.name, {}).get("calls", 0) == 0:
            problems.append(f"trace coverage: {layer.name} recorded no spans")
    for share, fn in SHARES.items():
        calls = by_name.get(fn, {}).get("calls", 0)
        values[share] = by_name[fn]["useful"] / calls if calls else 0.0
    for tax, (modular, mono) in TAXES.items():
        modular_s, mono_s = values[f"{modular}.self_s"], values[f"{mono}.self_s"]
        values[f"tax.{tax}"] = modular_s / mono_s if mono_s > 0 else 0.0
        values[f"tax.{tax}.modular_s"] = modular_s
        values[f"tax.{tax}.mono_s"] = mono_s
    counts = traced.counts[0]
    for key in COUNTS:
        values[key] = counts.get(key.replace("population.", ""), 0)
    untraced_s = untraced.round_s()
    traced_s = traced.round_s()
    values["trace.round_untraced_s"] = untraced_s
    values["trace.round_traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = tracer.span_count() / rounds
    return values, problems


UNITS = {"calls": "count", "self_s": "s", "per_s": "1/s"}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.startswith("tax."):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    workload = WORKLOADS[args.workload]
    recorded = json.loads((HERE / "expected_counts.json").read_text())

    # Set-up is import plus seeded input generation.  The rounds run on the
    # first set-up; the others are spread over the run (see _run_rounds) and
    # the median of all of them counts.
    gc.collect()
    started = perf_counter()
    inputs = workload.setup(args.seed)
    setups = [perf_counter() - started]
    if not Path(inputs.mods.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: fraglang was not imported from {ROOT / 'src'}")
    workload.prepare(inputs)
    expected = workload.expected_counts(inputs, recorded)

    tracer = Tracer() if args.trace else None
    untraced, traced = _run_rounds(workload, inputs, args.seconds, tracer, setups, args.seed)
    problems = untraced.problems + traced.problems
    problems += _check_counts(untraced.counts + traced.counts, expected)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    # The deep-input probe fails today by design; it is reported in the
    # error_share line and as deep_input.failed, not in the result's counts,
    # which cover the rounds only.
    deep = workload.deep_inputs(inputs)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    print(f"rounds untraced={untraced.rounds} traced={traced.rounds}; ops per round {untraced.ops_per_round()}; "
          "counts per round " + json.dumps(untraced.counts[0]))
    for name, value, unit in workload.report(untraced):
        print(f"{name} {value:.6g} {unit}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setups)
    print(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"setup_s {setup_s:.6g} s")
    share_failed, share_attempted = failed + deep.failed, attempted + deep.attempted
    print(f"error_share {share_failed / share_attempted:.6g} failed/attempted "
          f"({share_failed}/{share_attempted}; deep-input probe {deep.failed}/{deep.attempted})")
    for note in deep.problems + problems[:20]:
        print("failure: " + note)

    if args.trace:
        values, coverage = _layer_metrics(workload, tracer, untraced, traced)
        values["deep_input.failed"] = deep.failed
        problems += coverage
        for note in coverage:
            print("failure: " + note)
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)}
                   for name in per_layer_names()}
    else:
        values = {
            "throughput_per_s": (untraced.throughput(), "1/s"),
            "op_p50_ms": (untraced.percentile_ms(workload.LATENCY_KIND, 50), "ms"),
            "op_p95_ms": (untraced.percentile_ms(workload.LATENCY_KIND, 95), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
