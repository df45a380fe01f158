"""policytrace benchmark: one workload, one seed, one JSON result line.

    python3 prtbench/run.py --workload offline_4k --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It imports `policytrace` from the
checkout's `src/` and drives `prt-forge` in-process (`policytrace.cli.main`)
from this single thread; the only other threads are the program's own
`--concurrency` workers. All files go under `.bench_build/prtbench/`.

A run:
  1. writes a synthetic corpus for the seed (`synth.py`);
  2. computes the reference outputs, and for a warm workload fills the cache,
     in a child process (`prepare.py`). A workload whose timed runs already
     use the reference configuration (offline_4k) needs no separate
     reference run: its first repetition is the reference for the others;
  3. with `--trace 0`, times `import policytrace.cli` plus `prt-forge
     validate` in fresh processes (`setup_s`), a few before the child
     process, a few after it and a few after the timed repetitions, so
     that the median does not rest on one stretch of machine load;
  4. repeats the workload's command sequence while the measured time stays
     within `--seconds` (at least once), checking after every repetition
     that each output matches the reference byte for byte and says what the
     generated inputs imply. Where re-running a command meets the same state
     (no cache, or a warm one), `gen` and `report` are re-run a few more
     times after each repetition, outside `pipeline_s`, so that their short
     timings get more samples;
  5. prints each metric by name with its unit, then the JSON result line.

With `--trace 1` it alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones plus the tracing overhead, and writes
the spans of the last traced repetition to
`.bench_build/prtbench/traces/<workload>.spans.jsonl`.

Workloads (BENCHMARK.json lists the first two and why each was chosen;
warm_resume_1k is run by hand, see baseline.json for why):
  offline_4k      4,000/4,000 cases, no delay, no cache, --concurrency 1:
                  gen, assess base, assess fewshot_prt (rand, k=3), report,
                  export-sft.
  netdelay_c8     128/128 cases, 20 ms per provider call, cold cache,
                  --concurrency 8: gen, assess base, selfrefine,
                  selfrefine_prt (rel, k=3), report.
  warm_resume_1k  1,000/1,000 cases, the netdelay_c8 commands at
                  --concurrency 2, with the cache filled and each results
                  file cut to its first half beforehand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pipeline
import synth
import tracer
from standin import StandIn, StandInProvider

SETUP_RUNS_PER_POINT = 4
STAGE_RESAMPLES = 3
CHILD_TIMEOUT_S = 170
# Times import + `prt-forge validate` inside a fresh interpreter.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io
import policytrace.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = policytrace.cli.main(["--config", sys.argv[2], "validate"])
print(time.perf_counter() - start, code)
"""
# Metrics printed for a reader but left out of BENCHMARK.json: both are 0
# whenever the benchmark passes (no failures; warm_resume_1k reaches the
# provider zero times), and a relative bound on 0 means nothing.
_PRINTED_ONLY = {"provider_calls_per_case": "calls", "error_frac": "ratio"}


@dataclass
class Rep:
    traced: bool
    pipeline_s: float
    commands: list[pipeline.CommandResult]
    provider_calls: int
    resamples: list[pipeline.CommandResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    prompt_tokens: int = 0
    cost_usd: float = 0.0
    digests: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)


def measure_setup(config: Path, times: list[float]) -> int:
    """Append the seconds of import + validate in fresh processes; return failures."""
    failed = 0
    for _ in range(SETUP_RUNS_PER_POINT):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(pipeline.SRC), str(config)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds, code = proc.stdout.split() if proc.returncode == 0 else ("nan", "-1")
        if code != "0":
            failed += 1
            sys.stderr.write(proc.stderr)
            continue
        times.append(float(seconds))
    return failed


def run_rep(cli, wl: pipeline.Workload, work: Path, config: Path, index: int, traced: bool,
            stand_in: StandIn, reference: dict | None,
            test_cases: list[dict]) -> tuple[Rep, object]:
    out = work / f"rep{index}"
    out.mkdir()
    cache = {"none": None, "cold": work / f"cache{index}", "warm": work / "cache"}[wl.cache]
    resumed = 0
    if wl.cache == "warm":
        for path in (work / "resume_seed").iterdir():
            shutil.copyfile(path, out / path.name)
        resumed = wl.n // 2
    stand_in.reset()
    trace = None
    wrap = lambda name, thunk: thunk()  # noqa: E731
    if traced:
        trace = tracer.Tracer()
        trace.install(extra=[(StandInProvider, "generate", "gateway.provider")])
        wrap = lambda name, thunk: trace.span(f"cli.{name}", thunk)  # noqa: E731

    start = time.perf_counter()
    try:
        commands = pipeline.run_pipeline(cli.main, wl, config, out, cache, wl.concurrency, wrap)
    finally:
        pipeline_s = time.perf_counter() - start
        if trace is not None:
            trace.remove()
    rep = Rep(traced, pipeline_s, commands, stand_in.provider_calls())
    if not traced and wl.cache != "cold":
        for _ in range(STAGE_RESAMPLES):
            rep.resamples += [pipeline.run_command(cli.main, c.argv) for c in commands
                              if c.name in ("gen", "report")]

    # Untimed: check the outputs, then count operations and failures.
    rep.problems = pipeline.check_outputs(wl, commands, test_cases, resumed)
    for c in rep.resamples:
        if c.code != 0 or c.output is None or c.output.get("generated", wl.n) != wl.n:
            rep.problems.append(f"re-run {c.name} exited {c.code} with {c.output}")
    rep.digests = pipeline.output_digests(out)
    for name in sorted(set(rep.digests) | set(reference or {})):
        if reference is not None and rep.digests.get(name) != reference.get(name):
            rep.problems.append(f"{name} differs from the reference")
    outs = [c.output or {} for c in commands]
    gen_cases = sum(o.get("generated", 0) + o.get("quarantined", 0)
                    for c, o in zip(commands, outs) if c.name == "gen")
    assess_cases = sum(o.get("executed", 0) + len(o.get("failed_cases", []))
                       for c, o in zip(commands, outs) if c.name == "assess")
    rep.attempted = (gen_cases + assess_cases + len(commands) + len(rep.resamples)
                     + len(reference or {}))
    rep.failed = (sum(o.get("quarantined", 0) + len(o.get("failed_cases", [])) for o in outs)
                  + len(rep.problems))
    rep.prompt_tokens = sum(t["prompt_tokens"] for path in out.glob("*.results.jsonl")
                            for line in path.read_text(encoding="utf-8").splitlines()
                            for t in json.loads(line)["turns"])
    rep.cost_usd = sum(row["cost_usd"] or 0.0 for c, o in zip(commands, outs)
                       if c.name == "report" for row in o.get("runs", []))
    if trace is not None:
        rep.layer = tracer.layer_metrics(trace.spans, stand_in.gauges)
    shutil.rmtree(out)
    if wl.cache == "cold":
        shutil.rmtree(cache, ignore_errors=True)
    return rep, trace


def end_to_end(wl: pipeline.Workload, reps: list[Rep]) -> dict[str, float]:
    """Median of each end-to-end metric over repetitions; for `gen` and
    `report`, over every run of the command, re-runs included."""
    samples: dict[str, list[float]] = {}
    for rep in reps:
        assess = [c for c in rep.commands if c.name == "assess"]
        for name, value in [
            ("pipeline_s", rep.pipeline_s),
            ("assess_cases_per_s", sum((c.output or {}).get("executed", 0) for c in assess)
             / sum(c.seconds for c in assess)),
            ("provider_calls_per_case", rep.provider_calls / (2 * wl.n)),
            ("prompt_tokens_per_case", rep.prompt_tokens / wl.n),
            ("usd_per_1k_cases", 1000 * rep.cost_usd / wl.n),
        ] + [
            ("gen_cases_per_s", ((c.output or {}).get("generated", 0)
                                 + (c.output or {}).get("quarantined", 0)) / c.seconds)
            for c in rep.commands + rep.resamples if c.name == "gen"
        ] + [("report_s", c.seconds) for c in rep.commands + rep.resamples if c.name == "report"]:
            samples.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = pipeline.import_cli()
    wl = pipeline.WORKLOADS[args.workload]

    base = pipeline.ROOT / ".bench_build" / "prtbench"
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times: list[float] = []
    setup_failed = 0
    try:
        config = synth.write_corpus(work / "corpus", wl.n, args.seed)
        test_cases = pipeline.load_test_cases(config)
        if not args.trace:
            setup_failed += measure_setup(config, setup_times)
        prepared = {"digests": None, "problems": []}
        if wl.needs_reference:
            subprocess.run([sys.executable, str(pipeline.BENCH_DIR / "prepare.py"),
                            "--workload", args.workload, "--config", str(config),
                            "--work", str(work)], check=True, timeout=CHILD_TIMEOUT_S)
            prepared = json.loads((work / "reference.json").read_text(encoding="utf-8"))
        reference = prepared["digests"]
        problems = list(prepared["problems"])
        if not args.trace:
            setup_failed += measure_setup(config, setup_times)

        reps: list[Rep] = []
        last_trace = None
        with StandIn(cli, wl.delay_s) as stand_in:
            while True:
                traced = bool(args.trace) and len(reps) % 2 == 1
                rep, trace = run_rep(cli, wl, work, config, len(reps), traced, stand_in,
                                     reference, test_cases)
                reference = reference or rep.digests
                reps.append(rep)
                last_trace = trace or last_trace
                measured = sum(r.pipeline_s for r in reps)
                enough = not args.trace or len(reps) >= 2
                if enough and measured + rep.pipeline_s > args.seconds:
                    break
        if not args.trace:
            setup_failed += measure_setup(config, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rep in reps:
        problems += rep.problems
    attempted = (sum(r.attempted for r in reps) + int(wl.needs_reference) + len(setup_times)
                 + setup_failed)
    failed = sum(r.failed for r in reps) + len(prepared["problems"]) + setup_failed
    for problem in dict.fromkeys(problems):
        print(f"PROBLEM: {problem}")

    if args.trace:
        traced = [r for r in reps if r.traced]
        untraced = [r for r in reps if not r.traced]
        values = {k: statistics.median(r.layer[k] for r in traced) for k in traced[0].layer}
        values["trace.overhead_s"] = (statistics.median(r.pipeline_s for r in traced)
                                      - statistics.median(r.pipeline_s for r in untraced))
        declared = spec["per_layer"]
        trace_dir = base / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        last_trace.write(trace_dir / f"{args.workload}.spans.jsonl")
        printed = {}
    else:
        values = end_to_end(wl, reps)
        values["setup_s"] = statistics.median(setup_times) if setup_times else float("nan")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["error_frac"] = failed / attempted
        declared = spec["end_to_end"]
        printed = _PRINTED_ONLY

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{sum(r.pipeline_s for r in reps):.2f} s measured")
    for i, rep in enumerate(reps):
        steps = " ".join(f"{c.name}={c.seconds:.3f}" for c in rep.commands)
        print(f"# rep {i}{' traced' if rep.traced else ''}: {rep.pipeline_s:.3f} s ({steps})")
    for name, unit in [(n, m["unit"]) for n, m in metrics.items()] + list(printed.items()):
        print(f"{name:40s} {values[name]:>16.6f} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
