"""Operator entry point: manifest-driven runs binding all modules together.

Subcommands: gen, assess, report, export-sft, validate. Configuration comes
from a JSON file plus flag overrides (flags win). gen, report and export-sft
write the effective config into a command manifest (`<command>.manifest.json`);
an assess run's manifest records what identifies the run instead (strategy,
models, seed, pool and template hashes). Exit code 0 means no errors and no
quarantined/flagged records above the configured thresholds.

Each command imports what only it runs when it runs, so `validate` and `gen`
start without loading `assess`, `select`, `report` and the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .clauses import load_registry
from .corpus import load_dataset, load_policy, read_object, split_counts
from .gateway import GatewayError, ModelHandle, load_provider_config
from .prompts import SelectionMode, StrategyKind

# Kept at module level for the benchmark: its stand-in provider replaces
# `load_provider_config` here, and `prtbench/tracer.py` finds every module it
# wraps in `sys.modules`, `sftexport` too when a run never exports.
from .sftexport import export_sft, split_train_val

DEFAULT_CONFIG = {
    "k": 3,
    "seed": 42,
    "concurrency": 1,
    "quarantine_threshold": 0.25,
    "flag_threshold": 0.5,
}


class CliError(ValueError):
    pass


def _load_config(args: argparse.Namespace) -> dict:
    config = dict(DEFAULT_CONFIG)
    if args.config:
        config.update(read_object(Path(args.config), "config", CliError))
        config["_config_dir"] = str(Path(args.config).resolve().parent)
        for key, default in DEFAULT_CONFIG.items():  # a float default also takes an int
            value = config[key]
            if isinstance(value, bool) or not isinstance(value, (int, type(default))):
                kind = "an integer" if isinstance(default, int) else "a number"
                raise CliError(f"config {args.config}: {key} must be {kind}, got {value!r}")
    for flag in ("seed", "concurrency", "cache_dir", "out_dir"):
        value = getattr(args, flag, None)
        if value is not None:
            config[flag] = value
    config.setdefault("out_dir", "out")
    if config["concurrency"] < 1:
        raise CliError(f"concurrency must be >= 1, got {config['concurrency']}")
    return config


def _resolve(config: dict, key: str) -> Path:
    if key not in config:
        raise CliError(f"config field missing: {key}")
    path = Path(config[key])
    if not path.is_absolute() and "_config_dir" in config:
        path = Path(config["_config_dir"]) / path
    return path


def _load_handles(config: dict) -> dict[str, ModelHandle]:
    cache_dir = Path(config["cache_dir"]) if config.get("cache_dir") else None
    return load_provider_config(_resolve(config, "providers_file"), cache_dir=cache_dir)


def _handle(handles: dict[str, ModelHandle], config: dict, role: str) -> ModelHandle:
    model_id = config.get(f"{role}_model")
    if not model_id:
        raise CliError(f"config field missing: {role}_model")
    if model_id not in handles:
        raise CliError(f"{role}_model {model_id!r} not in providers file")
    return handles[model_id]


def _load_corpus(config: dict):
    registry = load_registry(_resolve(config, "registry_file"))
    policy = load_policy(
        _resolve(config, "policy_file"),
        registry,
        policy_id=config.get("policy_id"),
        title=config.get("policy_title", ""),
    )
    dataset = load_dataset(_resolve(config, "dataset_file"), registry)
    return registry, policy, dataset


def _write_manifest(out_dir: Path, name: str, command: str, config: dict) -> None:
    from datetime import datetime, timezone

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "effective_config": {k: v for k, v in config.items() if not k.startswith("_")},
        "started_at": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def cmd_gen(args: argparse.Namespace) -> int:
    from .prtgen import generate_augmented_dataset, prt_stats, write_prt_store

    config = _load_config(args)
    out_dir = Path(config["out_dir"])
    _write_manifest(out_dir, "gen.manifest.json", "gen", config)

    registry, policy, dataset = _load_corpus(config)
    expert = _handle(_load_handles(config), config, "expert")

    aug, quarantine = generate_augmented_dataset(dataset, policy, expert, config["concurrency"])
    store_path = out_dir / f"{policy.policy_id}_{expert.model_id}.prts.jsonl"
    write_prt_store(aug, store_path)

    quarantine_path = out_dir / "quarantine.json"
    quarantine_path.write_text(
        json.dumps(
            [{"case_id": cid, "reason": err.reason, "detail": str(err)} for cid, err in quarantine],
            indent=2,
        )
        + "\n",
        "utf-8",
    )

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
    print(json.dumps(summary, indent=2))

    total = len(aug) + len(quarantine)
    if total and len(quarantine) / total > config["quarantine_threshold"]:
        print(f"quarantine fraction exceeds threshold {config['quarantine_threshold']}", file=sys.stderr)
        return 1
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    from .assess import Strategy, run_dataset
    from .prtgen import load_prt_store

    config = _load_config(args)
    out_dir = Path(config["out_dir"])
    strategy = Strategy(
        kind=StrategyKind(args.strategy),
        selection=SelectionMode(args.select) if args.select else None,
        k=args.k if args.k is not None else config["k"],
    )

    registry, policy, dataset = _load_corpus(config)
    handles = _load_handles(config)
    learner = _handle(handles, config, "learner")
    judge = _handle(handles, config, "judge") if config.get("judge_model") else None

    pool = None
    if strategy.needs_pool:
        store = args.prt_store or config.get("prt_store")
        if not store:
            raise CliError("--prt-store (or config prt_store) required for this strategy")
        pool = load_prt_store(store, dataset)

    results_path, summary = run_dataset(
        dataset,
        policy,
        strategy,
        learner,
        out_dir,
        pool=pool,
        judge=judge,
        seed=config["seed"],
        concurrency=config["concurrency"],
    )
    print(
        json.dumps(
            {
                "results": str(results_path),
                "run_id": summary.run_id,
                "total": summary.total,
                "executed": summary.executed,
                "skipped": summary.skipped,
                "accuracy_pct": summary.accuracy_pct,
                "unparsed": summary.unparsed,
                "failed_cases": summary.failed_cases,
                "flagged_cases": summary.flagged_cases,
            },
            indent=2,
        )
    )
    for case_id, reason in summary.failure_reasons.items():
        print(f"error: case {case_id}: {reason}", file=sys.stderr)
    if summary.failed_cases:
        return 1
    if summary.total and len(summary.flagged_cases) / summary.total > config["flag_threshold"]:
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .assess import load_run
    from .report import build_report, write_report

    config = _load_config(args)
    out_dir = Path(config["out_dir"])
    _write_manifest(out_dir, "report.manifest.json", "report", config)

    runs = [load_run(Path(path)) for path in args.results]
    policy_ids = sorted({manifest["policy_id"] for manifest, _ in runs})
    if len(policy_ids) > 1:
        raise CliError(f"mixed-policy inputs rejected: {policy_ids}")

    handles = _load_handles(config) if config.get("providers_file") else {}
    corpus = judge = None
    if all(k in config for k in ("registry_file", "policy_file", "dataset_file")):
        corpus = _load_corpus(config)  # for clause relevance, by judge if judge_model is set
        judge = _handle(handles, config, "judge") if config.get("judge_model") else None

    report = build_report(runs, handles, corpus, judge, config["concurrency"])
    write_report(report, out_dir)
    print(json.dumps(report, indent=2))
    return 0


def cmd_export_sft(args: argparse.Namespace) -> int:
    from .prtgen import load_prt_store

    config = _load_config(args)
    out_dir = Path(config["out_dir"])
    _write_manifest(out_dir, "export-sft.manifest.json", "export-sft", config)

    _registry, policy, dataset = _load_corpus(config)
    store = args.prt_store or config.get("prt_store")
    if not store:
        raise CliError("--prt-store (or config prt_store) required")
    aug = load_prt_store(store, dataset)

    sft_path = out_dir / "sft.jsonl"
    summary = export_sft(aug, policy, sft_path)

    result = {
        "records": summary.n_records,
        "full_policy_fallbacks": summary.n_full_policy_fallbacks,
        "out": str(sft_path),
    }
    if args.val_fraction:
        n_train, n_val = split_train_val(
            sft_path,
            args.val_fraction,
            config["seed"],
            out_dir / "sft.train.jsonl",
            out_dir / "sft.val.jsonl",
        )
        result["train_records"] = n_train
        result["val_records"] = n_val
    print(json.dumps(result, indent=2))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    registry, policy, dataset = _load_corpus(config)  # refuses a train/test overlap
    summary = {
        "policy_id": policy.policy_id,
        "policy_tokens": policy.approx_token_count,
        "clauses": len(policy.clause_ids),
        "registry_entries": len(registry),
        "splits": split_counts(dataset),
        "disjoint": True,
    }
    print(json.dumps(summary, indent=2))
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GatewayError as err:  # a provider failed past its retries
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
