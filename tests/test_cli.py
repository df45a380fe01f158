import json

import pytest

from policytrace.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(corpus_dir, tmp_path):
    out = tmp_path / "out"
    return corpus_dir, out


def test_validate_ok(workdir, capsys):
    corpus, out = workdir
    code = run_cli("--config", corpus / "config.json", "validate")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy_id"] == "synthpol"
    assert payload["splits"] == {"train": 6, "test": 6}
    assert payload["disjoint"] is True
    assert payload["clauses"] == 5


def test_gen_writes_store_and_manifest(workdir, capsys):
    corpus, out = workdir
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "gen")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generated"] == 6
    assert payload["quarantined"] == 0
    assert (out / "gen.manifest.json").exists()
    store = out / "synthpol_mock-expert.prts.jsonl"
    assert store.exists()
    assert len(store.read_text(encoding="utf-8").splitlines()) == 6
    quarantine = json.loads((out / "quarantine.json").read_text(encoding="utf-8"))
    assert quarantine == []


def _gen(corpus, out):
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "gen") == 0
    return out / "synthpol_mock-expert.prts.jsonl"


def test_assess_base(workdir, capsys):
    corpus, out = workdir
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    )
    assert code == 0
    captured = capsys.readouterr().out
    payload = json.loads(captured)
    assert payload["total"] == 6
    assert payload["executed"] == 6
    assert payload["accuracy_pct"] == 50.0
    assert payload["failed_cases"] == []


def test_assess_reports_each_failed_case_on_stderr(workdir, capsys):
    corpus, out = workdir
    providers_path = corpus / "providers.json"
    providers = json.loads(providers_path.read_text(encoding="utf-8"))
    providers["script"] = [
        {"pattern": "A school logged its lawful basis", "text": "Final Judgment: COMPLIANT"}
    ]
    providers_path.write_text(json.dumps(providers), encoding="utf-8")
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    )
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["failed_cases"] == ["c02", "c03", "c04", "c05", "c06"]
    errors = captured.err.splitlines()
    assert [line.split(":")[1].strip() for line in errors] == [
        "case c02", "case c03", "case c04", "case c05", "case c06"
    ]
    assert all("UnmatchedPromptError: no script pattern" in line for line in errors)


def test_gen_passes_concurrency(workdir, capsys, monkeypatch):
    from policytrace import cli

    seen = []
    real = cli.generate_augmented_dataset

    def spy(dataset, policy, expert, concurrency):
        seen.append(concurrency)
        return real(dataset, policy, expert, concurrency)

    monkeypatch.setattr(cli, "generate_augmented_dataset", spy)
    corpus, out = workdir
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "--concurrency", 3, "gen")
    assert code == 0
    assert seen == [3]


def test_assess_rejects_k_below_one(workdir, capsys):
    corpus, out = workdir
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "fewshot",
        "--k", 0,
    )
    assert code == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_assess_prt_strategy_requires_store(workdir, capsys):
    corpus, out = workdir
    code = run_cli(
        "--config",
        corpus / "config.json",
        "--out-dir",
        out,
        "assess",
        "--strategy",
        "fewshot_prt",
        "--select",
        "rand",
    )
    assert code == 2
    assert "prt-store" in capsys.readouterr().err


def test_assess_fewshot_prt_with_store(workdir, capsys):
    corpus, out = workdir
    store = _gen(corpus, out)
    capsys.readouterr()
    code = run_cli(
        "--config",
        corpus / "config.json",
        "--out-dir",
        out,
        "assess",
        "--strategy",
        "fewshot_prt",
        "--select",
        "rand",
        "--k",
        3,
        "--prt-store",
        store,
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 6
    results_file = out / f"{payload['run_id']}.results.jsonl"
    lines = results_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert all(len(json.loads(l)["turns"]) == 1 for l in lines)


def test_report_two_runs(workdir, capsys):
    corpus, out = workdir
    store = _gen(corpus, out)
    run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    )
    run_cli(
        "--config",
        corpus / "config.json",
        "--out-dir",
        out,
        "assess",
        "--strategy",
        "fewshot_prt",
        "--select",
        "rand",
        "--prt-store",
        store,
    )
    capsys.readouterr()
    results = sorted(out.glob("*.results.jsonl"))
    assert len(results) == 2
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", *results)
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["runs"]) == 2
    for row in report["runs"]:
        assert row["cost_usd"] is not None and row["cost_usd"] > 0
        assert row["accuracy_pct"] == 50.0
        assert "clause_relevance" in row
    # Both runs are 50% accurate and never disagree per-case in a way that
    # yields variance... if a comparison exists it carries corrected columns.
    for comp in report["comparisons"]:
        if "error" not in comp:
            assert "p_bonferroni" in comp and "p_holm" in comp

    pareto = (out / "pareto.csv").read_text(encoding="utf-8").splitlines()
    assert pareto[0] == "run_id,cost_usd,accuracy_pct,on_frontier"
    assert len(pareto) == 3
    metrics = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert len(metrics) == 3


def test_report_rejects_mixed_policy(workdir, capsys, tmp_path):
    corpus, out = workdir
    run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    )
    results = sorted(out.glob("*.results.jsonl"))
    # Forge a second run with a different policy_id in its manifest.
    other = tmp_path / "other"
    other.mkdir()
    forged_results = other / "forged.results.jsonl"
    forged_results.write_text(results[0].read_text(encoding="utf-8"), encoding="utf-8")
    manifest = json.loads(
        results[0].with_name(results[0].name.replace(".results.jsonl", ".manifest.json"))
        .read_text(encoding="utf-8")
    )
    manifest["policy_id"] = "otherpol"
    (other / "forged.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        "--config",
        corpus / "config.json",
        "--out-dir",
        out,
        "report",
        results[0],
        forged_results,
    )
    assert code == 2
    assert "mixed-policy" in capsys.readouterr().err


def test_export_sft_command(workdir, capsys):
    corpus, out = workdir
    store = _gen(corpus, out)
    capsys.readouterr()
    code = run_cli(
        "--config",
        corpus / "config.json",
        "--out-dir",
        out,
        "export-sft",
        "--prt-store",
        store,
        "--val-fraction",
        "0.5",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 6
    assert payload["train_records"] == 3
    assert payload["val_records"] == 3
    assert (out / "sft.jsonl").exists()
    assert (out / "export-sft.manifest.json").exists()


def test_flag_overrides_config_seed(workdir, capsys):
    corpus, out = workdir
    code = run_cli(
        "--config",
        corpus / "config.json",
        "--seed",
        "7",
        "--out-dir",
        out,
        "assess",
        "--strategy",
        "base",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    manifest = json.loads(
        (out / f"{payload['run_id']}.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["seed"] == 7


def test_unknown_model_rejected(workdir, corpus_dir, capsys):
    corpus, out = workdir
    config = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
    config["learner_model"] = "ghost"
    bad = corpus / "bad_config.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("--config", bad, "--out-dir", out, "assess", "--strategy", "base")
    assert code == 2
    assert "ghost" in capsys.readouterr().err
