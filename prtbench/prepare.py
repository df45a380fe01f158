"""Untimed work for one benchmark run, in a process of its own.

    python3 prtbench/prepare.py --workload NAME --config CORPUS/config.json --work DIR

Runs the workload's commands once at `--concurrency 1`, with no cache and no
delay, and writes the digests of its outputs to DIR/reference.json; every
timed repetition must reproduce them byte for byte. For a warm workload it
then fills DIR/cache with the same commands and keeps each results file cut
to its first half, at a line boundary, in DIR/resume_seed.

It runs apart from the timed process so that the timed process's peak memory
and the program's module-level state reflect the timed work only.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import pipeline
from standin import StandIn


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    wl = pipeline.WORKLOADS[args.workload]
    cli = pipeline.import_cli()
    test_cases = pipeline.load_test_cases(args.config)

    with StandIn(cli, delay_s=0.0):
        out = args.work / "reference"
        results = pipeline.run_pipeline(cli.main, wl, args.config, out, None, 1)
        problems = pipeline.check_outputs(wl, results, test_cases, resumed=0)
        digests = pipeline.output_digests(out)
        shutil.rmtree(out)

        if wl.cache == "warm":
            out = args.work / "prep"
            results = pipeline.run_pipeline(cli.main, wl, args.config, out, args.work / "cache", 1)
            problems += pipeline.check_outputs(wl, results, test_cases, resumed=0)
            if pipeline.output_digests(out) != digests:
                problems.append("cache-filling run differs from the reference")
            seed_dir = args.work / "resume_seed"
            seed_dir.mkdir()
            for path in out.glob("*.results.jsonl"):
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                (seed_dir / path.name).write_text("".join(lines[: len(lines) // 2]),
                                                  encoding="utf-8")
            shutil.rmtree(out)

    (args.work / "reference.json").write_text(
        json.dumps({"digests": digests, "problems": problems}, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
