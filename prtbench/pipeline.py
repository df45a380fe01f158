"""Workload definitions and the in-process `prt-forge` command sequence.

Shared by the timed runs (`run.py`) and the untimed reference/prep runs
(`prepare.py`). Each command goes through `policytrace.cli.main`, exactly as
a user's `prt-forge` invocation would, with its stdout captured and parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_cli():
    """Import `policytrace.cli` from this checkout's `src/`, never from elsewhere."""
    package = SRC / "policytrace"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"prtbench: no policytrace sources at {package}")
    sys.path.insert(0, str(SRC))
    import policytrace.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"prtbench: imported policytrace from {cli.__file__}, not {package}")
    return cli


@dataclass(frozen=True)
class Workload:
    n: int  # train cases, and as many test cases
    delay_s: float  # injected per provider call
    concurrency: int
    cache: str  # "none", "cold" (fresh each repetition) or "warm" (filled in prep)
    assess: tuple[tuple[str, ...], ...]  # assess argument tails
    export: bool  # run export-sft at the end

    @property
    def needs_reference(self) -> bool:
        """Whether timed runs differ from the reference configuration
        (--concurrency 1, no cache, no delay) and so need a reference run."""
        return (self.concurrency, self.cache, self.delay_s) != (1, "none", 0.0)


_BASE = ("--strategy", "base")
_REFINE = (("--strategy", "selfrefine"),
           ("--strategy", "selfrefine_prt", "--select", "rel", "--k", "3"))

WORKLOADS = {
    "offline_4k": Workload(4000, 0.0, 1, "none",
                           (_BASE, ("--strategy", "fewshot_prt", "--select", "rand", "--k", "3")),
                           export=True),
    "netdelay_c8": Workload(128, 0.020, 8, "cold", (_BASE,) + _REFINE, export=False),
    "warm_resume_1k": Workload(1000, 0.020, 2, "warm", (_BASE,) + _REFINE, export=False),
}


@dataclass
class CommandResult:
    name: str  # gen, assess, report, export-sft
    argv: list[str]
    seconds: float
    code: int
    output: Optional[dict]  # the command's JSON stdout


def run_command(main: Callable, argv: list[str]) -> CommandResult:
    """Run one prt-forge command in-process and time it."""
    buf = io.StringIO()
    name = next(a for a in argv if a in ("gen", "assess", "report", "export-sft", "validate"))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    try:
        output = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        output = None
    return CommandResult(name, argv, seconds, code, output)


def store_path(out: Path) -> Path:
    return out / f"{synth.POLICY_ID}_{synth.EXPERT}.prts.jsonl"


def run_pipeline(
    main: Callable,
    wl: Workload,
    config: Path,
    out: Path,
    cache: Optional[Path],
    concurrency: int,
    wrap: Callable[[str, Callable[[], CommandResult]], CommandResult] = lambda name, f: f(),
) -> list[CommandResult]:
    """The workload's command sequence: gen, assess..., report, [export-sft].

    `wrap(name, thunk)` runs each command; the traced run passes one that
    records a span around it.
    """
    common = ["--config", str(config), "--out-dir", str(out), "--concurrency", str(concurrency)]
    if cache is not None:
        common += ["--cache-dir", str(cache)]
    store = str(store_path(out))

    def run(argv: list[str]) -> CommandResult:
        return wrap(argv[len(common)], lambda: run_command(main, argv))

    results = [run(common + ["gen"])]
    for tail in wl.assess:
        extra = ["--prt-store", store] if "--select" in tail else []
        results.append(run(common + ["assess", *tail, *extra]))
    paths = [r.output["results"] for r in results[1:] if r.output and "results" in r.output]
    if len(paths) == len(wl.assess):
        results.append(run(common + ["report", *paths]))
    if wl.export:
        results.append(run(common + ["export-sft", "--prt-store", store, "--val-fraction", "0.1"]))
    return results


_COMPARED = ("report.json", "sft.jsonl", "sft.train.jsonl", "sft.val.jsonl")


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every output compared against the reference.

    The trace store is compared without its `created_at` timestamps.
    """
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".prts.jsonl"):
            lines = []
            for line in path.read_text(encoding="utf-8").splitlines():
                obj = json.loads(line)
                obj.pop("created_at", None)
                lines.append(json.dumps(obj, sort_keys=True))
            data = "\n".join(lines).encode("utf-8")
        elif path.name.endswith(".results.jsonl") or path.name in _COMPARED:
            data = path.read_bytes()
        else:
            continue
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def load_test_cases(config: Path) -> list[dict]:
    lines = (config.parent / "cases.jsonl").read_text(encoding="utf-8").splitlines()
    return [c for c in map(json.loads, lines) if c["split"] == "test"]


def expected_accuracy(strategy_label: str, test_cases: list[dict]) -> float:
    kind = strategy_label.split("(")[0]
    correct = sum(synth.learner_verdict(kind, c["case_text"]) == c["verdict"] for c in test_cases)
    return 100.0 * correct / len(test_cases)


def check_outputs(wl: Workload, results: list[CommandResult], test_cases: list[dict],
                  resumed: int) -> list[str]:
    """What the command outputs must say, worked out from the generated inputs alone."""
    problems = []
    n = wl.n
    by_name: dict[str, list[CommandResult]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
        if r.code != 0:
            problems.append(f"{r.name} exited {r.code}")
        if r.output is None:
            problems.append(f"{r.name} printed no JSON summary")
    outs = {name: [r.output for r in rs if r.output] for name, rs in by_name.items()}

    for gen in outs.get("gen", []):
        if (gen["generated"], gen["quarantined"]) != (n, 0):
            problems.append(f"gen: {gen['generated']} generated, {gen['quarantined']} quarantined")
    assess = outs.get("assess", [])
    if len(assess) != len(wl.assess):
        problems.append(f"{len(assess)} of {len(wl.assess)} assess runs reported")
    for a in assess:
        if a["total"] != n or a["failed_cases"] or a["skipped"] != resumed:
            problems.append(f"assess {a['run_id']}: total {a['total']}, "
                            f"skipped {a['skipped']}, failed {len(a['failed_cases'])}")
        if a["executed"] != n - resumed:
            problems.append(f"assess {a['run_id']}: executed {a['executed']}")
    reports = outs.get("report", [])
    if len(reports) != 1:
        problems.append("report missing")
    for rep in reports:
        for row in rep["runs"]:
            want = expected_accuracy(row["strategy"], test_cases)
            if row["n"] != n or not math.isclose(row["accuracy_pct"], want, rel_tol=1e-12):
                problems.append(f"report {row['run_id']}: n {row['n']}, "
                                f"accuracy {row['accuracy_pct']} (want {want})")
            if "error" in row.get("clause_relevance", {"error": "missing"}):
                problems.append(f"report {row['run_id']}: no clause relevance")
    if wl.export:
        exports = outs.get("export-sft", [])
        if len(exports) != 1 or exports[0]["records"] != n or (
                exports[0]["train_records"] + exports[0]["val_records"] != n):
            problems.append(f"export-sft: {exports}")
    return problems
