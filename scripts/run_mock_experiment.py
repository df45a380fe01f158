#!/usr/bin/env python3
"""Run the full pipeline offline against the scripted mock provider.

Writes the mock corpus of `mock_corpus.py` to disk, generates a trace store, assesses the test
split with every strategy, and prints the metrics/significance report. Useful
as a smoke test and as a template for wiring a real provider config.

Usage: python scripts/run_mock_experiment.py [out_dir]
"""

import sys
from pathlib import Path

from mock_corpus import build_corpus
from policytrace.cli import main


def run(out_dir: Path) -> int:
    config = build_corpus(out_dir / "corpus")
    out = out_dir / "out"
    base = ["--config", str(config), "--out-dir", str(out)]

    steps = [
        base + ["validate"],
        base + ["gen"],
        base + ["assess", "--strategy", "base"],
        base + ["assess", "--strategy", "fewshot", "--prt-store", _store(out)],
        base
        + [
            "assess",
            "--strategy",
            "fewshot_prt",
            "--select",
            "rand",
            "--prt-store",
            _store(out),
        ],
        base + ["assess", "--strategy", "selfrefine"],
        base
        + [
            "assess",
            "--strategy",
            "selfrefine_prt",
            "--select",
            "rel",
            "--prt-store",
            _store(out),
        ],
        base + ["export-sft", "--prt-store", _store(out), "--val-fraction", "0.2"],
    ]
    for argv in steps:
        print(f"\n$ prt-forge {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            return code

    results = sorted(str(p) for p in out.glob("*.results.jsonl"))
    print(f"\n$ prt-forge report {' '.join(results)}")
    return main(base + ["report"] + results)


def _store(out: Path) -> str:
    return str(out / "synthpol_mock-expert.prts.jsonl")


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("mock_experiment")
    sys.exit(run(target))
