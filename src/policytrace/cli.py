"""Operator entry point: manifest-driven runs binding all modules together.

Subcommands: gen, assess, report, export-sft, validate. Configuration comes from a
JSON file read into a `Config`, plus flag overrides (flags win). gen, report and
export-sft each write their outputs and a command manifest (`<command>.manifest.json`,
the effective config) in one `write_atomic` call once their work has succeeded, so a
refused or failed command leaves its out dir as it was; an assess run's manifest
records what identifies the run instead (strategy, models, seed, pool and template
hashes). Exit code 0 means no errors and no quarantined/flagged records above the
configured thresholds.

Each command imports what only it runs when it runs, so `validate` and `gen`
start without loading `assess`, `select`, `report` and the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .clauses import load_registry
from .corpus import load_dataset, load_policy, split_counts
from .gateway import GatewayError, ModelHandle, estimate_tokens, load_provider_config
from .prompts import SelectionMode, StrategyKind
from .records import file_stem, read_record, to_json

# Kept at module level for the benchmark: its stand-in provider replaces
# `load_provider_config` here, and `prtbench/tracer.py` finds every module it
# wraps in `sys.modules`, `sftexport` too when a run never exports.
from .sftexport import export_sft


@dataclass(frozen=True)
class Config:
    """A config file's keys, each with its JSON type and default (None: not set).
    The corpus and providers files are relative to `base`, the config file's
    directory; `out_dir`, `cache_dir` and `prt_store` to the working directory."""

    policy_file: Optional[str] = None
    registry_file: Optional[str] = None
    dataset_file: Optional[str] = None
    providers_file: Optional[str] = None
    policy_id: Optional[str] = None
    policy_title: Optional[str] = None
    expert_model: Optional[str] = None
    learner_model: Optional[str] = None
    judge_model: Optional[str] = None
    prt_store: Optional[str] = None
    cache_dir: Optional[str] = None
    out_dir: str = "out"
    k: int = 3
    seed: int = 42
    concurrency: int = 1
    quarantine_threshold: float = 0.25
    flag_threshold: float = 0.5
    base: Optional[Path] = field(default=None, metadata={"json": False})


class CliError(ValueError):
    pass


def _load_config(args: argparse.Namespace) -> Config:
    config = Config()
    if args.config:
        path = Path(args.config)
        config = read_record(path, Config, "config", CliError, base=path.resolve().parent)
    flags = ("seed", "concurrency", "cache_dir", "out_dir", "k", "prt_store")
    config = replace(config, **{flag: value for flag in flags
                                if (value := getattr(args, flag, None)) is not None})
    if config.concurrency < 1:
        raise CliError(f"concurrency must be >= 1, got {config.concurrency}")
    for key in ("quarantine_threshold", "flag_threshold"):
        if not 0 <= (value := getattr(config, key)) <= 1:  # NaN too
            raise CliError(f"{key} must be in [0, 1], got {value}")
    return config


def _resolve(config: Config, key: str) -> Path:
    value = getattr(config, key)
    if value is None:
        raise CliError(f"config field missing: {key}")
    return config.base / value if config.base else Path(value)  # an absolute value stays


def _load_handles(config: Config) -> dict[str, ModelHandle]:
    cache_dir = Path(config.cache_dir) if config.cache_dir else None
    return load_provider_config(_resolve(config, "providers_file"), cache_dir=cache_dir)


def _handle(handles: dict[str, ModelHandle], config: Config, role: str) -> ModelHandle:
    model_id = getattr(config, f"{role}_model")
    if not model_id:
        raise CliError(f"config field missing: {role}_model")
    if model_id not in handles:
        raise CliError(f"{role}_model {model_id!r} not in providers file")
    return handles[model_id]


def _load_corpus(config: Config):
    registry = load_registry(_resolve(config, "registry_file"))
    policy = load_policy(_resolve(config, "policy_file"), registry, config.policy_id,
                         config.policy_title or "")
    dataset = load_dataset(_resolve(config, "dataset_file"), registry)
    return registry, policy, dataset


def _manifest(args: argparse.Namespace, config: Config, out_dir: Path) -> dict[Path, list[str]]:
    """{path: lines} of the command's manifest, started now, for its writer to write
    with its outputs."""
    from datetime import datetime, timezone

    payload = {
        "command": args.command,
        "effective_config": {k: v for k, v in to_json(config).items() if v is not None},
        "started_at": datetime.now(timezone.utc).isoformat(),
    }
    return {out_dir / f"{args.command}.manifest.json":
            [json.dumps(payload, indent=2, sort_keys=True) + "\n"]}


def cmd_gen(args: argparse.Namespace, config: Config, out_dir: Path) -> tuple[dict, int]:
    from .prtgen import generate_augmented_dataset, prt_stats, write_prt_store

    command_manifest = _manifest(args, config, out_dir)
    registry, policy, dataset = _load_corpus(config)
    expert = _handle(_load_handles(config), config, "expert")

    aug, quarantine = generate_augmented_dataset(dataset, policy, expert, config.concurrency)
    store_path = out_dir / (file_stem(f"{policy.policy_id}_{expert.model_id}") + ".prts.jsonl")
    quarantined = [{"case_id": cid, "reason": err.reason, "detail": str(err)}
                   for cid, err in quarantine]
    write_prt_store(aug, store_path,  # the manifest and quarantine.json first, the store last
                    {**command_manifest,
                     out_dir / "quarantine.json": [json.dumps(quarantined, indent=2) + "\n"]})

    summary: dict = {
        "store": str(store_path),
        "generated": len(aug),
        "quarantined": len(quarantine),
    }
    if aug.triples:
        stats = prt_stats([prt for _, _, prt in aug.triples])
        summary["prt_stats"] = {
            "mu_word": stats.mu_word,
            "sigma_word": stats.sigma_word,
            "mu_sent": stats.mu_sent,
            "sigma_sent": stats.sigma_sent,
        }

    total = len(aug) + len(quarantine)
    if total and len(quarantine) / total > config.quarantine_threshold:
        print(f"quarantine fraction exceeds threshold {config.quarantine_threshold}", file=sys.stderr)
        return summary, 1
    return summary, 0


def cmd_assess(args: argparse.Namespace, config: Config, out_dir: Path) -> tuple[dict, int]:
    from .assess import Strategy, run_dataset
    from .prtgen import load_prt_store

    strategy = Strategy(
        kind=StrategyKind(args.strategy),
        selection=SelectionMode(args.select) if args.select else None,
        k=config.k,
    )

    registry, policy, dataset = _load_corpus(config)
    handles = _load_handles(config)
    learner = _handle(handles, config, "learner")
    judge = _handle(handles, config, "judge") if config.judge_model else None

    pool = None
    if strategy.needs_pool:
        if not config.prt_store:
            raise CliError("--prt-store (or config prt_store) required for this strategy")
        pool = load_prt_store(config.prt_store, dataset)

    results_path, summary = run_dataset(
        dataset,
        policy,
        strategy,
        learner,
        out_dir,
        pool=pool,
        judge=judge,
        seed=config.seed,
        concurrency=config.concurrency,
    )
    for case_id, reason in summary.failure_reasons.items():
        print(f"error: case {case_id}: {reason}", file=sys.stderr)
    flagged = summary.total and len(summary.flagged_cases) / summary.total > config.flag_threshold
    return {
        "results": str(results_path),
        "run_id": summary.run_id,
        "total": summary.total,
        "executed": summary.executed,
        "skipped": summary.skipped,
        "accuracy_pct": summary.accuracy_pct,
        "unparsed": summary.unparsed,
        "failed_cases": summary.failed_cases,
        "flagged_cases": summary.flagged_cases,
    }, 1 if summary.failed_cases or flagged else 0


def cmd_report(args: argparse.Namespace, config: Config, out_dir: Path) -> tuple[dict, int]:
    from .assess import load_run
    from .report import build_report, write_report

    command_manifest = _manifest(args, config, out_dir)
    runs = [load_run(Path(path)) for path in args.results]
    policy_ids = sorted({manifest.policy_id for manifest, _ in runs})
    if len(policy_ids) > 1:
        raise CliError(f"mixed-policy inputs rejected: {policy_ids}")
    run_ids: set[str] = set()
    for manifest, _ in runs:  # else its rows would collide in metrics.csv and pareto.csv
        if manifest.run_id in run_ids:
            raise CliError(f"run {manifest.run_id} given twice")
        run_ids.add(manifest.run_id)

    corpus = None
    if None not in (config.registry_file, config.policy_file, config.dataset_file):
        corpus = _load_corpus(config)  # for clause relevance, by judge if judge_model is set
        if corpus[1].policy_id != policy_ids[0]:
            raise CliError(f"runs of policy {policy_ids[0]}, corpus of {corpus[1].policy_id}")
        test_ids = {case.case_id for case in corpus[2].test}
        for manifest, results in runs:  # else `n`, accuracy and cost would count the case
            foreign = next((r.case_id for r in results if r.case_id not in test_ids), None)
            if foreign is not None:
                raise CliError(f"run {manifest.run_id}: case {foreign} is not a test case "
                               "of the dataset")
    use_judge = bool(corpus and config.judge_model)
    handles = _load_handles(config) if config.providers_file or use_judge else {}
    judge = _handle(handles, config, "judge") if use_judge else None

    report = build_report(runs, handles, corpus, judge, config.concurrency)
    write_report(report, out_dir, command_manifest)
    return report, 0


def cmd_export_sft(args: argparse.Namespace, config: Config, out_dir: Path) -> tuple[dict, int]:
    from .prtgen import load_prt_store

    command_manifest = _manifest(args, config, out_dir)
    _registry, policy, dataset = _load_corpus(config)
    if not config.prt_store:
        raise CliError("--prt-store (or config prt_store) required")
    aug = load_prt_store(config.prt_store, dataset)

    sft_path = out_dir / "sft.jsonl"
    summary = export_sft(aug, policy, sft_path, args.val_fraction, config.seed,
                         command_manifest)

    result = {
        "records": summary.n_records,
        "full_policy_fallbacks": summary.n_full_policy_fallbacks,
        "out": str(sft_path),
    }
    if args.val_fraction:
        result["train_records"] = summary.n_records - summary.n_val
        result["val_records"] = summary.n_val
    return result, 0


def cmd_validate(args: argparse.Namespace, config: Config, out_dir: Path) -> tuple[dict, int]:
    registry, policy, dataset = _load_corpus(config)  # refuses a train/test overlap
    return {
        "policy_id": policy.policy_id,
        "policy_tokens": estimate_tokens(policy.full_text),
        "clauses": len(policy.clause_ids),
        "registry_entries": len(registry),
        "splits": split_counts(dataset),
        "disjoint": True,
    }, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prt-forge",
        description="Generate policy reasoning traces, run compliance assessments, and report metrics.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=None)
    parser.add_argument("--cache-dir", dest="cache_dir", default=None)
    parser.add_argument("--out-dir", dest="out_dir", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a trace store from the train split")
    p_gen.set_defaults(func=cmd_gen)

    p_assess = sub.add_parser("assess", help="assess test cases with one strategy")
    p_assess.add_argument(
        "--strategy", required=True, choices=[k.value for k in StrategyKind]
    )
    p_assess.add_argument("--select", choices=[m.value for m in SelectionMode], default=None)
    p_assess.add_argument("--k", type=int, default=None)
    p_assess.add_argument("--prt-store", dest="prt_store", default=None)
    p_assess.set_defaults(func=cmd_assess)

    p_report = sub.add_parser("report", help="metrics, significance, cost, frontier")
    p_report.add_argument("results", nargs="+", help="result .jsonl files (shared policy)")
    p_report.set_defaults(func=cmd_report)

    p_export = sub.add_parser("export-sft", help="compile instruction-tuning records")
    p_export.add_argument("--prt-store", dest="prt_store", default=None)
    p_export.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.0)
    p_export.set_defaults(func=cmd_export_sft)

    p_validate = sub.add_parser("validate", help="check corpus files and split hygiene")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command: load the config, run the command and print its JSON summary.
    A refused input, a provider failing past its retries or a failed read or write,
    the summary's print too, is one `error:` line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        summary, code = args.func(args, config, Path(config.out_dir))
        print(json.dumps(summary, indent=2))
        return code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GatewayError, OSError) as err:  # a provider failed past its retries, or a file
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
