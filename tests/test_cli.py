import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import policytrace
from conftest import SECTION_POLICY_TEXT, SECTIONS, build_section_registry
from mock_corpus import CASE_TEXTS, LEARNER_SCRIPT, POLICY_TEXT, dataset_jsonl_lines
from policytrace import cli, gateway, prtgen
from policytrace.clauses import save_registry
from policytrace.cli import main
from policytrace.gateway import MockProvider, MockScriptEntry, estimate_tokens


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
    assert payload["policy_tokens"] == estimate_tokens(POLICY_TEXT)


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


@pytest.mark.parametrize("expert, stem", [
    ("org/expert", "synthpol_org-expert"),
    ("/../../escaped", "synthpol_-..-..-escaped"),
], ids=["org_slash_model", "parent_dirs"])
def test_gen_writes_its_store_directly_in_the_out_dir_whatever_the_expert_id(
    workdir, capsys, expert, stem
):
    corpus, out = workdir
    for name in ("config.json", "providers.json"):
        path = corpus / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"mock-expert"', json.dumps(expert)), encoding="utf-8")
    deep = out / "deep"
    assert run_cli("--config", corpus / "config.json", "--out-dir", deep, "gen") == 0
    assert json.loads(capsys.readouterr().out)["store"] == str(deep / f"{stem}.prts.jsonl")
    assert sorted(p.name for p in deep.iterdir()) == [
        "gen.manifest.json", "quarantine.json", f"{stem}.prts.jsonl"]
    assert [p.name for p in out.iterdir()] == ["deep"]


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
    seen = []
    real = prtgen.generate_augmented_dataset

    def spy(dataset, policy, expert, concurrency):
        seen.append(concurrency)
        return real(dataset, policy, expert, concurrency)

    monkeypatch.setattr(prtgen, "generate_augmented_dataset", spy)
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


def test_assess_rel_without_a_judge_is_refused_before_the_run_starts(workdir, capsys):
    corpus, out = workdir
    store = _gen(corpus, out)
    capsys.readouterr()
    config = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
    del config["judge_model"]
    (corpus / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess",
        "--strategy", "fewshot_prt", "--select", "rel", "--prt-store", store,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: relevance selection requires a judge handle\n"
    assert captured.out == ""
    assert sorted(out.glob("*.results.jsonl")) == []
    assert sorted(p.name for p in out.glob("*.manifest.json")) == ["gen.manifest.json"]


@pytest.mark.parametrize("traces, k", [(6, 7), (0, 3)], ids=["k_above_pool", "empty_store"])
def test_assess_refuses_a_k_out_of_the_pools_range_before_writing_anything(workdir, capsys,
                                                                           traces, k):
    corpus, out = workdir
    store = _gen(corpus, out)
    lines = store.read_text(encoding="utf-8").splitlines(True)
    store.write_text("".join(lines[:traces]), encoding="utf-8")  # 0: gen quarantined every case
    capsys.readouterr()
    fresh = out.parent / "assess_out"
    code = run_cli("--config", corpus / "config.json", "--out-dir", fresh, "assess",
                   "--strategy", "fewshot_prt", "--select", "rand", "--k", k, "--prt-store", store)
    assert code == 2
    assert capsys.readouterr() == ("", f"error: k_out_of_range: k={k}, pool size {traces}\n")
    assert not fresh.exists()


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


def test_report_records_why_clause_relevance_failed(workdir, capsys):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    (corpus / "cases.jsonl").write_text(  # no case has gold clauses to score against
        "".join(json.dumps({**json.loads(line), "clauses": []}) + "\n"
                for line in dataset_jsonl_lines()), encoding="utf-8")
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results) == 0
    (row,) = json.loads((out / "report.json").read_text(encoding="utf-8"))["runs"]
    assert row["clause_relevance"] == {
        "error": "MetricsError: no_gold_annotations: no record has gold clauses"}


def test_report_refuses_a_case_outside_the_test_split_and_writes_nothing(workdir, capsys):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    lines = results.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"case_id": "c01"', '"case_id": "t01"')  # a train case
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    report_out = out / "report"
    assert run_cli("--config", corpus / "config.json", "--out-dir", report_out,
                   "report", results) == 2
    assert capsys.readouterr().err == (
        "error: run synthpol_base_mock-learner_s42: case t01 is not a test case of the dataset\n")
    assert not report_out.exists()


def test_report_lists_a_pair_of_runs_over_disjoint_cases_with_its_error(workdir, capsys):
    corpus, out = workdir
    for strategy in ("base", "selfrefine"):
        assert run_cli(
            "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", strategy
        ) == 0
    results = sorted(out.glob("*.results.jsonl"))
    for path, keep in zip(results, (slice(None, 3), slice(3, None))):  # c01-c03, c04-c06
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        path.write_text("".join(line + "\n" for line in lines[keep]), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "report", *results) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    a, b = (row["run_id"] for row in report["runs"])
    assert report["comparisons"] == [
        {"a": a, "b": b, "error": "need at least 2 paired observations"}
    ]


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


def _without(*keys):
    return lambda manifest: json.dumps({k: v for k, v in manifest.items() if k not in keys})


@pytest.mark.parametrize(
    "damage, detail",
    [
        (_without("learner_model"), ": missing key 'learner_model'"),
        (_without("run_id", "strategy"), ": missing key 'run_id'"),
        (lambda manifest: "{not json", ": Expecting property name"),
    ],
    ids=["missing_key", "missing_keys", "not_json"],
)
def test_report_names_a_broken_run_manifest(workdir, capsys, damage, detail):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    manifest_path = results.with_name(results.name.replace(".results.jsonl", ".manifest.json"))
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest_path.write_text(damage(manifest), encoding="utf-8")
    capsys.readouterr()
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest_path}{detail}"), err


def test_export_sft_without_a_trace_store_is_one_error_line_and_exit_2(workdir, capsys):
    corpus, out = workdir
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "export-sft") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --prt-store (or config prt_store) required\n"
    assert not out.exists()


def test_report_refuses_a_results_file_under_another_name(workdir, capsys):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    renamed = shutil.copy(results, out / "renamed.jsonl")
    capsys.readouterr()
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", renamed)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {renamed} is not a <run_id>.results.jsonl results file\n", err


@pytest.mark.parametrize("copied", [False, True], ids=["same_file", "copy_elsewhere"])
def test_report_refuses_a_run_given_twice(workdir, capsys, tmp_path, copied):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    (results,) = out.glob("*.results.jsonl")
    (manifest,) = out.glob("*.manifest.json")
    twice = results
    if copied:  # the same run under another directory: one run_id, two files
        (tmp_path / "copy").mkdir()
        shutil.copy(manifest, tmp_path / "copy")
        twice = shutil.copy(results, tmp_path / "copy")
    capsys.readouterr()
    code = run_cli("--config", config, "--out-dir", out, "report", results, twice)
    assert code == 2
    assert capsys.readouterr().err == "error: run synthpol_base_mock-learner_s42 given twice\n"
    assert not (out / "report.json").exists()
    assert not (out / "report.manifest.json").exists()


def test_report_refuses_runs_of_another_policy_than_its_corpus(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    (results,) = out.glob("*.results.jsonl")
    _write_config(corpus, policy_id="otherpol")
    capsys.readouterr()
    assert run_cli("--config", config, "--out-dir", out, "report", results) == 2
    assert capsys.readouterr().err == "error: runs of policy synthpol, corpus of otherpol\n"
    assert not (out / "report.json").exists()  # refused before clause relevance is scored


def test_report_refuses_a_results_file_with_no_record(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    (results,) = out.glob("*.results.jsonl")
    results.write_text("\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("--config", config, "--out-dir", out, "report", results) == 2
    assert capsys.readouterr().err == f"error: {results}: no results\n"


@pytest.mark.parametrize("with_corpus", [True, False], ids=["corpus", "no_corpus"])
def test_report_with_a_judge_and_no_providers_file_names_the_missing_field(
    workdir, capsys, with_corpus
):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    (results,) = out.glob("*.results.jsonl")
    no_corpus = {} if with_corpus else dict.fromkeys(("registry_file", "policy_file"))
    _write_config(corpus, providers_file=None, **no_corpus)
    capsys.readouterr()
    code = run_cli("--config", config, "--out-dir", out, "report", results)
    if with_corpus:  # the judge would score clause relevance, and no file names its provider
        assert code == 2
        assert capsys.readouterr().err == "error: config field missing: providers_file\n"
    else:  # no clause relevance, so no judge: the report goes on without costs
        assert code == 0
        assert json.loads(capsys.readouterr().out)["runs"][0]["cost_usd"] is None


def test_a_policy_file_that_is_not_utf8_is_an_error_naming_it(workdir, capsys):
    corpus, out = workdir
    policy = corpus / "policy.txt"
    policy.write_bytes(policy.read_bytes() + b"\xff")
    code = run_cli("--config", corpus / "config.json", "validate")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {policy}: 'utf-8' codec can't decode byte 0xff"), err


def test_gen_reports_a_provider_error_and_exits_2(workdir, capsys):
    corpus, out = workdir
    providers = json.loads((corpus / "providers.json").read_text(encoding="utf-8"))
    providers["script"] = [{"pattern": "no prompt holds this", "text": "unused"}]
    (corpus / "providers.json").write_text(json.dumps(providers), encoding="utf-8")
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "gen")
    assert code == 2  # not 1, which means the quarantine threshold was exceeded
    err = capsys.readouterr().err
    assert err.startswith("error: UnmatchedPromptError: no script pattern matches prompt"), err


def test_gen_exits_1_when_the_quarantined_fraction_exceeds_the_threshold(workdir, capsys):
    corpus, out = workdir
    providers_path = corpus / "providers.json"
    providers = json.loads(providers_path.read_text(encoding="utf-8"))
    # The expert answers t01, one of the six train cases, with a reply that is no trace.
    providers["script"].insert(0, {"pattern": CASE_TEXTS["t01"], "text": "No numbered steps."})
    providers_path.write_text(json.dumps(providers), encoding="utf-8")
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    # 1/6 is under 0.25, the default, and not above 1/6 itself
    for threshold, code in ((None, 0), (1 / 6, 0), (0.1, 1)):
        if threshold is not None:
            config_path.write_text(json.dumps({**config, "quarantine_threshold": threshold}),
                                   encoding="utf-8")
        assert run_cli("--config", config_path, "--out-dir", out, "gen") == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["quarantined"] == 1
        assert captured.err == ("" if code == 0 else
                                "quarantine fraction exceeds threshold 0.1\n")
    (entry,) = json.loads((out / "quarantine.json").read_text(encoding="utf-8"))
    assert entry["case_id"] == "t01" and entry["reason"] == "format"


@pytest.mark.parametrize("concurrency", [1, 4])
def test_gen_quarantines_a_case_whose_expert_call_fails_after_its_retries(
    workdir, capsys, monkeypatch, concurrency
):
    corpus, out = workdir
    answer = _answer_as(_remote_providers(corpus), 0)

    def post(url, body, headers, timeout):  # t01, one of the six train cases, never gets through
        if CASE_TEXTS["t01"] in json.loads(body)["messages"][0]["content"]:
            return 503, {"Retry-After": "0"}, b"busy"
        return answer(url, body, headers, timeout)

    monkeypatch.setattr(gateway, "_post", post)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: 0.0)  # no backoff sleep
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    for threshold, code in ((None, 0), (0.1, 1)):  # 1/6 is under 0.25, the default
        if threshold is not None:
            config_path.write_text(json.dumps({**config, "quarantine_threshold": threshold}),
                                   encoding="utf-8")
        assert run_cli("--config", config_path, "--out-dir", out, "--concurrency", concurrency,
                       "gen") == code
        summary = json.loads(capsys.readouterr().out)
        assert (summary["generated"], summary["quarantined"]) == (5, 1)
        assert json.loads((out / "quarantine.json").read_text(encoding="utf-8")) == [
            {"case_id": "t01", "reason": "provider",
             "detail": "TransientError: exhausted 5 attempts"}]


def _fail_replace(monkeypatch, name):
    """Make every `os.replace` onto a file whose name matches glob `name` raise ENOSPC."""
    real = os.replace

    def replace(src, dst):
        if Path(dst).match(name):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _command_argv(corpus, out, command):
    """The argv of `command` over the mock corpus, after the runs it reads."""
    argv = ["--config", corpus / "config.json", "--out-dir", out, command]
    if command == "export-sft":
        return argv + ["--prt-store", _gen(corpus, out)]
    if command == "report":
        assert run_cli(*argv[:4], "assess", "--strategy", "base") == 0
        return argv + sorted(out.glob("*.results.jsonl"))
    return argv


@pytest.mark.parametrize(
    "command, name",
    [
        ("gen", "*.prts.jsonl"),
        ("gen", "quarantine.json"),
        ("report", "report.json"),
        ("gen", "gen.manifest.json"),
        ("report", "report.manifest.json"),
        ("export-sft", "export-sft.manifest.json"),
        ("export-sft", "sft.jsonl"),
    ],
)
def test_a_failed_write_is_one_error_line_and_exit_2(workdir, capsys, monkeypatch, command, name):
    corpus, out = workdir
    argv = _command_argv(corpus, out, command)
    capsys.readouterr()
    _fail_replace(monkeypatch, name)
    assert run_cli(*argv) == 2  # not 1, which means cases were flagged or quarantined
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: OSError: [Errno 28] No space left on device: "), captured
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(out.glob("*.tmp")) == []


def test_a_report_whose_metrics_write_fails_leaves_the_old_metrics(workdir, capsys, monkeypatch):
    corpus, out = workdir
    argv = _command_argv(corpus, out, "report")
    assert run_cli(*argv) == 0
    before = (out / "metrics.csv").read_bytes()
    assert b"\r\n" in before
    store = _gen(corpus, out)
    assert run_cli(*argv[:4], "assess", "--strategy", "fewshot_prt", "--select", "rand",
                   "--prt-store", store) == 0
    capsys.readouterr()
    _fail_replace(monkeypatch, "metrics.csv")
    assert run_cli(*argv[:5], *sorted(out.glob("*.results.jsonl"))) == 2
    assert capsys.readouterr().err.startswith("error: OSError: ")
    assert (out / "metrics.csv").read_bytes() == before
    assert list(out.glob("*.tmp")) == []


def test_a_report_whose_second_file_fails_to_write_leaves_all_three(workdir, capsys,
                                                                    monkeypatch):
    """`report` replaces pareto.csv, metrics.csv, report.json and its manifest only once
    all are written, so a full disk while writing metrics.csv leaves the old report whole."""
    corpus, out = workdir
    argv = _command_argv(corpus, out, "report")
    assert run_cli(*argv) == 0
    names = ["pareto.csv", "metrics.csv", "report.json", "report.manifest.json"]
    before = {name: (out / name).read_bytes() for name in names}
    store = _gen(corpus, out)
    assert run_cli(*argv[:4], "assess", "--strategy", "fewshot_prt", "--select", "rand",
                   "--prt-store", store) == 0
    capsys.readouterr()
    real_open = Path.open

    def open_(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if path.name.startswith("metrics.csv.") and path.suffix == ".tmp":
            fh.write("metr")
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return fh

    monkeypatch.setattr(Path, "open", open_)
    assert run_cli(*argv[:5], *sorted(out.glob("*.results.jsonl"))) == 2
    assert capsys.readouterr().err.startswith("error: OSError: [Errno 28] No space left")
    assert {name: (out / name).read_bytes() for name in names} == before
    assert list(out.glob("*.tmp")) == []


@pytest.mark.parametrize("command, names", [
    ("gen", ["gen.manifest.json", "quarantine.json", "synthpol_mock-expert.prts.jsonl"]),
    ("report", ["report.manifest.json", "pareto.csv", "metrics.csv", "report.json"]),
    ("export-sft", ["export-sft.manifest.json", "sft.train.jsonl", "sft.val.jsonl", "sft.jsonl"]),
], ids=["gen", "report", "export-sft"])
def test_a_command_writes_its_outputs_and_its_manifest_in_one_write(workdir, monkeypatch,
                                                                    command, names):
    """One `write_atomic` call, once the work has succeeded, holds every file the command
    writes, so a failed or refused command leaves the out dir as it was."""
    from policytrace import report, sftexport  # noqa: F401  loaded, so that both are patched

    corpus, out = workdir
    argv = _command_argv(corpus, out, command)
    if command == "export-sft":
        argv += ["--val-fraction", "0.5"]
    calls = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "write_atomic", None) if name.startswith("policytrace.") else None
        if real is not None:
            monkeypatch.setattr(module, "write_atomic",
                                lambda files, real=real: calls.append([p.name for p in files])
                                or real(files))
    assert run_cli(*argv) == 0
    assert calls == [names]


def test_a_failed_summary_print_is_one_error_line_and_exit_2(workdir, capsys, monkeypatch):
    corpus, _ = workdir

    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", Closed())
    assert run_cli("--config", corpus / "config.json", "validate") == 2
    assert capsys.readouterr().err == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "text, detail",
    [("[1, 2]", ": not a JSON object"), ("{", ": Expecting property name"), (None, ": [Errno 2]")],
    ids=["list", "not_json", "missing"],
)
def test_a_config_file_that_is_not_a_json_object_is_an_error(tmp_path, capsys, text, detail):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    code = run_cli("--config", config, "validate")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config}{detail}"), err


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("concurrency", "8", "int"),
        ("k", "3", "int"),
        ("seed", "x", "int"),
        ("seed", True, "int"),
        ("k", 3.0, "int"),
        ("flag_threshold", "0.5", "int or float"),
        ("quarantine_threshold", None, "int or float"),
    ],
    ids=["concurrency_str", "k_str", "seed_str", "seed_bool", "k_float", "threshold_str",
         "threshold_null"],
)
def test_a_config_value_of_the_wrong_type_is_an_error(workdir, capsys, key, value, kind):
    corpus, _ = workdir
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config[key] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("--config", config_path, "validate")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config {config_path}: malformed: {key} must be {kind}, got {value!r}\n"


def _write_config(corpus, **changes):
    """Write the mock config with `changes` applied (a value of None drops the key)."""
    path = corpus / "config.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config.update(changes)
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["validate", "gen", "report"])
@pytest.mark.parametrize(
    "changes, detail",
    [
        ({"judge_model": None, "judge_modle": "mock-judge"}, "unknown key 'judge_modle'"),
        ({"_comment": "a note"}, "unknown key '_comment'"),
        ({"cache_dir": 5}, "cache_dir must be str or NoneType, got 5"),
        ({"providers_file": 5}, "providers_file must be str or NoneType, got 5"),
        ({"prt_store": 5}, "prt_store must be str or NoneType, got 5"),
    ],
    ids=["judge_model_typo", "comment", "cache_dir_int", "providers_file_int", "prt_store_int"],
)
def test_a_config_with_an_unknown_key_or_a_wrongly_typed_path_exits_2(
    workdir, capsys, command, changes, detail
):
    corpus, out = workdir
    config_path = _write_config(corpus, **changes)
    argv = ["--config", config_path, "--out-dir", out, command]
    code = run_cli(*argv, *(["x.results.jsonl"] if command == "report" else []))
    assert code == 2
    assert capsys.readouterr().err == f"error: config {config_path}: malformed: {detail}\n"
    assert not out.exists()  # refused before any write


def test_the_manifest_holds_the_config_keys_that_are_set_and_the_flags(workdir, capsys):
    corpus, out = workdir
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    cache = out / "cache"
    assert run_cli("--config", config_path, "--out-dir", out, "--cache-dir", cache,
                   "--seed", 7, "gen") == 0
    manifest = json.loads((out / "gen.manifest.json").read_text(encoding="utf-8"))
    assert manifest["effective_config"] == {
        **config, "seed": 7, "k": 3, "concurrency": 1, "quarantine_threshold": 0.25,
        "flag_threshold": 0.5, "out_dir": str(out), "cache_dir": str(cache),
    }


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


def test_an_export_whose_val_file_fails_to_write_leaves_the_old_export(workdir, capsys,
                                                                     monkeypatch):
    """`export-sft` writes sft.jsonl, its split and its manifest as one set, so a full
    disk while writing sft.val.jsonl leaves the old export whole."""
    corpus, out = workdir
    argv = [*_command_argv(corpus, out, "export-sft"), "--val-fraction", "0.5"]
    assert run_cli(*argv) == 0
    names = ["sft.jsonl", "sft.train.jsonl", "sft.val.jsonl", "export-sft.manifest.json"]
    before = {name: (out / name).read_bytes() for name in names}
    store = out / "three.prts.jsonl"  # a smaller store: every file would differ
    store.write_text("".join(argv[-3].read_text(encoding="utf-8").splitlines(True)[:3]),
                     encoding="utf-8")
    capsys.readouterr()
    real_open = Path.open

    def open_(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if path.name.startswith("sft.val.jsonl.") and path.suffix == ".tmp":
            fh.write("{")
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return fh

    monkeypatch.setattr(Path, "open", open_)
    assert run_cli(*argv[:5], "--prt-store", store, "--val-fraction", "0.5") == 2
    assert capsys.readouterr().err.startswith("error: OSError: [Errno 28] No space left")
    assert {name: (out / name).read_bytes() for name in names} == before
    assert list(out.glob("*.tmp")) == []


@pytest.mark.parametrize("fraction", ["1.5", "1", "-0.5", "nan"])
def test_export_sft_refuses_a_val_fraction_outside_0_1_before_exporting(
    workdir, capsys, fraction
):
    corpus, out = workdir
    store = _gen(corpus, out)
    capsys.readouterr()
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "export-sft",
        "--prt-store", store, "--val-fraction", fraction,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: invalid_fraction: {float(fraction)}\n"
    assert list(out.glob("sft*.jsonl")) == []


def _section_corpus(corpus, policy_text):
    """The corpus's cases under the section scheme, citing bare "164.502"."""
    (corpus / "policy.txt").write_text(policy_text, encoding="utf-8")
    save_registry(build_section_registry(), corpus / "registry.json")
    cases = [json.loads(line) for line in dataset_jsonl_lines()]
    for case in cases:
        case["clauses"] = [SECTIONS[int(c.split()[1])] for c in case["clauses"]]
    (corpus / "cases.jsonl").write_text(
        "".join(json.dumps(case) + "\n" for case in cases), encoding="utf-8"
    )


def test_export_sft_bare_section_headings(workdir, capsys):
    """A policy headed "164.502 ..." (no "Section") exports each gold clause."""
    corpus, out = workdir
    _section_corpus(corpus, SECTION_POLICY_TEXT)
    store = _gen(corpus, out)
    capsys.readouterr()
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "export-sft", "--prt-store", store
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["full_policy_fallbacks"] == 0
    records = {
        r["case_id"]: r
        for r in map(json.loads, (out / "sft.jsonl").read_text(encoding="utf-8").splitlines())
    }
    assert records["t02"]["policy_context"] == (
        "164.504 Data Minimization\n"
        "Collection is limited to fields that are necessary for the stated purpose under 164.502."
    )


def test_section_sign_headings_validate_and_export(workdir, capsys):
    """A policy headed "§ 164.502 ..." finds every clause and exports each one."""
    corpus, out = workdir
    _section_corpus(corpus, SECTION_POLICY_TEXT.replace("\n164.", "\n§ 164."))
    assert run_cli("--config", corpus / "config.json", "validate") == 0
    assert json.loads(capsys.readouterr().out)["clauses"] == 5
    store = _gen(corpus, out)
    capsys.readouterr()
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "export-sft", "--prt-store", store
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["full_policy_fallbacks"] == 0


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


class _InFlight:
    """Peak number of model calls in flight across every handle.

    Each call waits (up to 2 s) until the peak has reached `target`, so a
    run that may hold `target` calls in flight does so however the threads
    are scheduled; set it to min(concurrency, items) before each run.
    """

    def __init__(self):
        self.now = self.peak = 0
        self.target = 1
        self.cond = threading.Condition()

    def slow(self, inner):
        gauge = self

        class Slow:
            def generate(self, model_id, prompt, cfg):
                with gauge.cond:
                    gauge.now += 1
                    gauge.peak = max(gauge.peak, gauge.now)
                    gauge.cond.notify_all()
                    gauge.cond.wait_for(lambda: gauge.peak >= gauge.target, timeout=2.0)
                try:
                    return inner.generate(model_id, prompt, cfg)
                finally:
                    with gauge.cond:
                        gauge.now -= 1

        return Slow()


@pytest.fixture
def in_flight(monkeypatch):
    gauge = _InFlight()
    load = cli.load_provider_config

    def load_slow(path, cache_dir=None):
        handles = load(path, cache_dir=cache_dir)
        for handle in handles.values():
            handle.provider = gauge.slow(handle.provider)
        return handles

    monkeypatch.setattr(cli, "load_provider_config", load_slow)
    return gauge


def test_assess_concurrency_is_the_only_bound_on_calls_in_flight(workdir, capsys, in_flight):
    corpus, out = workdir
    in_flight.target = 6  # min(concurrency 8, six test cases)
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "--concurrency", 8,
        "assess", "--strategy", "base",
    )
    assert code == 0
    assert 4 < in_flight.peak <= 8  # six test cases, all at once


def test_report_runs_judge_extractions_concurrently(workdir, capsys, in_flight):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    results = sorted(out.glob("*.results.jsonl"))
    peaks, reports = [], []
    for concurrency in (1, 4):
        in_flight.peak = 0
        in_flight.target = concurrency  # six results to extract from
        report_dir = out / f"report_c{concurrency}"
        code = run_cli(
            "--config", config, "--out-dir", report_dir, "--concurrency", concurrency,
            "report", *results,
        )
        assert code == 0
        peaks.append(in_flight.peak)
        reports.append((report_dir / "report.json").read_bytes())
    assert peaks[0] == 1 and peaks[1] > 1
    assert reports[0] == reports[1]
    relevance = json.loads(reports[1])["runs"][0]["clause_relevance"]
    assert "error" not in relevance and relevance["fallback_extractions"] == 0


def test_report_rejects_concurrency_below_one(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    results = sorted(out.glob("*.results.jsonl"))
    capsys.readouterr()
    code = run_cli("--config", config, "--out-dir", out, "--concurrency", 0, "report", *results)
    assert code == 2
    assert "concurrency must be >= 1" in capsys.readouterr().err


def test_assess_resume_refuses_a_changed_k(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    capsys.readouterr()
    code = run_cli(
        "--config", config, "--out-dir", out, "assess", "--strategy", "base", "--k", 2
    )
    assert code == 2
    assert capsys.readouterr().err.strip().endswith("configuration differs from its manifest in k")


def test_assess_resume_refuses_a_changed_pool_and_resumes_an_identical_one(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    store = _gen(corpus, out)
    other = out / "other.prts.jsonl"
    other.write_text("".join(store.read_text(encoding="utf-8").splitlines(True)[1:]), "utf-8")
    assess = ["--config", config, "--out-dir", out, "assess", "--strategy", "fewshot_prt",
              "--select", "rand", "--prt-store"]
    assert run_cli(*assess, store) == 0
    capsys.readouterr()
    assert run_cli(*assess, other) == 2
    assert capsys.readouterr().err.strip().endswith("in pool_hash")
    assert run_cli(*assess, store) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["skipped"] == 6 and payload["executed"] == 0


@pytest.mark.parametrize(
    "text, detail",
    [("[1, 2]", ": not a JSON object"), ("{not json", ": Expecting property name")],
    ids=["list", "not_json"],
)
def test_assess_resume_names_a_broken_manifest(workdir, capsys, text, detail):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    (manifest_path,) = out.glob("*.manifest.json")
    manifest_path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest_path}{detail}"), err


def _drop_key(path, key):
    data = json.loads(path.read_text(encoding="utf-8"))
    del data[key]
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize(
    "filename, damage, command, detail",
    [
        ("registry.json", lambda p: p.write_text('{"clauses": []}', "utf-8"), "validate",
         "missing key 'policy_id'"),
        ("registry.json", lambda p: p.write_text("[]", "utf-8"), "validate",
         ": not a JSON object"),
        ("providers.json", lambda p: _drop_key(p, "provider_id"), "gen",
         "missing key 'provider_id'"),
        ("registry.json", lambda p: p.write_text("{not json", "utf-8"), "validate",
         ": Expecting property name"),
        ("providers.json", lambda p: p.write_text("{not json", "utf-8"), "gen",
         ": Expecting property name"),
    ],
    ids=["registry_key", "registry_list", "providers_key", "registry_json", "providers_json"],
)
def test_a_corpus_file_missing_a_key_is_an_error_naming_file_and_key(
    workdir, capsys, filename, damage, command, detail
):
    corpus, out = workdir
    damage(corpus / filename)
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, command)
    assert code == 2
    err = capsys.readouterr().err
    assert str(corpus / filename) in err and detail in err, err


def test_a_providers_file_with_a_base_url_that_is_not_http_is_an_error(workdir, capsys):
    corpus, out = workdir
    path = corpus / "providers.json"
    providers = json.loads(path.read_text(encoding="utf-8"))
    del providers["script"]
    providers.update(provider_id="remote", base_url="file:///etc/hostname",
                     api_key_env="NO_SUCH_KEY_ENV")
    path.write_text(json.dumps(providers), encoding="utf-8")
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "gen") == 2
    assert capsys.readouterr().err == (
        f"error: providers file {path}: malformed: base_url must be an http or https URL, "
        "got 'file:///etc/hostname'\n"
    )


@pytest.mark.parametrize(
    "filename, changes, command, detail",
    [
        ("providers.json", {"provider_id": "remote", "base_url": "http://127.0.0.1:9/v1",
                            "api_key_env": 5}, "gen", "api_key_env must be str, got 5"),
        ("providers.json", {"provider_id": 5}, "gen", "provider_id must be str, got 5"),
        ("registry.json", {"policy_id": None}, "validate", "policy_id must be str, got None"),
        ("registry.json", {"policy_id": 5}, "validate", "policy_id must be str, got 5"),
    ],
    ids=["api_key_env_int", "provider_id_int", "policy_id_null", "policy_id_int"],
)
def test_a_providers_or_registry_field_of_the_wrong_type_is_an_error(
    workdir, capsys, filename, changes, command, detail
):
    corpus, out = workdir
    path = corpus / filename
    data = json.loads(path.read_text(encoding="utf-8"))
    data.update(changes)
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, command) == 2
    what = "providers file" if filename == "providers.json" else "registry"
    assert capsys.readouterr().err == f"error: {what} {path}: malformed: {detail}\n"


@pytest.mark.parametrize("command", ["validate", "gen", "assess"])
@pytest.mark.parametrize("filename, what", [("config.json", "config"),
                                            ("registry.json", "registry")])
def test_a_config_or_registry_string_that_utf8_cannot_encode_exits_2_before_any_work(
    workdir, capsys, filename, what, command
):
    corpus, out = workdir
    path = corpus / filename
    data = json.loads(path.read_text(encoding="utf-8"))
    data["policy_id"] = "synth\ud800pol"  # a lone surrogate: valid JSON, no UTF-8 text
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["--config", corpus / "config.json", "--out-dir", out, command]
    assert run_cli(*argv, *(["--strategy", "base"] if command == "assess" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {path}: malformed: 'utf-8' codec can't encode "
                          "character '\\ud800' in position "), err
    assert err.endswith(": surrogates not allowed\n"), err
    assert not out.exists()


def test_a_model_listed_twice_in_the_providers_file_exits_2(workdir, capsys):
    # Two mock providers both list `m`, priced 1.0 and then 9.0: neither price may win.
    corpus, out = workdir
    path = corpus / "providers.json"
    providers = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps([
        {**providers, "models": [{"model_id": "m", "price_in_usd_per_1m": price}]}
        for price in (1.0, 9.0)
    ]), encoding="utf-8")
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "gen") == 2
    assert capsys.readouterr().err == (
        f"error: providers file {path}: malformed: model_id 'm' listed twice\n"
    )


@pytest.mark.parametrize("key", ["quarantine_threshold", "flag_threshold"])
@pytest.mark.parametrize("value, shown", [(-1, "-1"), (1.5, "1.5"), (float("nan"), "nan")],
                         ids=["negative", "above_1", "nan"])
def test_a_threshold_outside_0_1_exits_2_before_any_output(workdir, capsys, key, value, shown):
    corpus, out = workdir
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**config, key: value}), encoding="utf-8")  # NaN as NaN
    assert run_cli("--config", config_path, "--out-dir", out, "gen") == 2
    assert capsys.readouterr().err == f"error: {key} must be in [0, 1], got {shown}\n"
    assert not out.exists()


def test_the_prt_store_flag_overrides_the_config_and_export_sft_records_it(workdir, capsys):
    corpus, out = workdir
    store = _gen(corpus, out)
    config_path = corpus / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps({**config, "prt_store": "no/such/store.jsonl"}),
                           encoding="utf-8")
    for command in (["assess", "--strategy", "fewshot", "--prt-store", store],
                    ["export-sft", "--prt-store", store]):
        assert run_cli("--config", config_path, "--out-dir", out, *command) == 0, command
    manifest = json.loads((out / "export-sft.manifest.json").read_text(encoding="utf-8"))
    assert manifest["effective_config"]["prt_store"] == str(store)


def _remote_providers(corpus):
    """Point the providers file at an OpenAI-compatible endpoint; return its mock
    script as a provider, for a `gateway._post` stand-in to answer with."""
    path = corpus / "providers.json"
    providers = json.loads(path.read_text(encoding="utf-8"))
    script = MockProvider([MockScriptEntry(**entry) for entry in providers.pop("script")])
    providers.update(provider_id="remote", base_url="http://127.0.0.1:9/v1",
                     api_key_env="NO_SUCH_KEY_ENV")
    path.write_text(json.dumps(providers), encoding="utf-8")
    return script


def _answer_as(script, busy_every):
    """A `gateway._post` stand-in answering as `script` does, but with a 503 to every
    `busy_every`-th call (none for 0); `post.statuses` lists what it answered."""
    statuses = []

    def post(url, body, headers, timeout):
        if busy_every and len(statuses) % busy_every == busy_every - 1:
            statuses.append(503)
            return 503, {"Retry-After": "0"}, b"busy"
        statuses.append(200)
        text, raw_cot, prompt_tokens, completion_tokens = script.generate(
            "m", json.loads(body)["messages"][0]["content"], None)
        reply = {"choices": [{"message": {"content": text, "reasoning_content": raw_cot}}],
                 "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens}}
        return 200, {}, json.dumps(reply).encode("utf-8")

    post.statuses = statuses
    return post


def test_assess_retries_a_provider_that_answers_every_third_call_with_503(
    workdir, tmp_path, capsys, monkeypatch
):
    corpus, _ = workdir
    script = _remote_providers(corpus)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: 0.0)  # no backoff sleep
    runs = {}
    for busy_every in (0, 3):
        post = _answer_as(script, busy_every)
        monkeypatch.setattr(gateway, "_post", post)
        out = tmp_path / f"out{busy_every}"
        assert run_cli("--config", corpus / "config.json", "--out-dir", out, "assess",
                       "--strategy", "selfrefine") == 0
        assert json.loads(capsys.readouterr().out)["failed_cases"] == []
        [results] = [path.read_bytes() for path in out.glob("*.results.jsonl")]
        runs[busy_every] = post.statuses, results
    (clean, clean_results), (busy, busy_results) = runs[0], runs[3]
    assert busy_results == clean_results
    assert busy.count(503) == len(busy) // 3 > 0
    assert busy.count(200) == len(clean)  # each 503 cost one more call, and nothing else


@pytest.mark.parametrize("message", [{"content": "Final Judgment: \ud800"},
                                     {"content": "Final Judgment: COMPLIANT",
                                      "reasoning_content": "\udfff"}],
                         ids=["content", "reasoning_content"])
def test_assess_retries_a_reply_that_utf8_cannot_encode_and_writes_every_other_case(
    workdir, capsys, monkeypatch, message
):
    corpus, out = workdir
    answer, calls = _answer_as(_remote_providers(corpus), 0), []

    def post(url, body, headers, timeout):  # c03's replies hold a lone surrogate: valid JSON
        if CASE_TEXTS["c03"] in json.loads(body)["messages"][0]["content"]:
            calls.append(url)
            return 200, {}, json.dumps({"choices": [{"message": message}]}).encode("utf-8")
        return answer(url, body, headers, timeout)

    monkeypatch.setattr(gateway, "_post", post)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: 0.0)  # no backoff sleep
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "--concurrency", 2,
                   "assess", "--strategy", "base") == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["failed_cases"] == ["c03"] and len(calls) == 5
    assert captured.err == "error: case c03: TransientError: exhausted 5 attempts\n"
    [results] = out.glob("*.results.jsonl")
    assert [json.loads(line)["case_id"] for line in results.read_text("utf-8").splitlines()] == [
        "c01", "c02", "c04", "c05", "c06"]


def test_gen_quarantines_a_case_whose_expert_reply_utf8_cannot_encode(workdir, capsys,
                                                                       monkeypatch):
    corpus, out = workdir
    answer = _answer_as(_remote_providers(corpus), 0)

    def post(url, body, headers, timeout):  # t01's trace ends in a lone surrogate: valid JSON
        status, reply_headers, reply = answer(url, body, headers, timeout)
        if CASE_TEXTS["t01"] in json.loads(body)["messages"][0]["content"]:
            reply = json.loads(reply)
            reply["choices"][0]["message"]["content"] += "\ud800"
            reply = json.dumps(reply).encode("utf-8")
        return status, reply_headers, reply

    monkeypatch.setattr(gateway, "_post", post)
    monkeypatch.setattr(gateway.random, "uniform", lambda lo, hi: 0.0)  # no backoff sleep
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "gen") == 0
    assert json.loads(capsys.readouterr().out)["quarantined"] == 1
    assert json.loads((out / "quarantine.json").read_text(encoding="utf-8")) == [
        {"case_id": "t01", "reason": "provider", "detail": "TransientError: exhausted 5 attempts"}]


def test_assess_resume_refuses_a_case_outside_the_test_split(workdir, capsys):
    corpus, out = workdir
    config = corpus / "config.json"
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 0
    [results] = out.glob("*.results.jsonl")
    first = json.loads(results.read_text(encoding="utf-8").splitlines()[0])
    with results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({**first, "case_id": "zz-not-a-case"}) + "\n")
    before = results.read_bytes()
    capsys.readouterr()
    assert run_cli("--config", config, "--out-dir", out, "assess", "--strategy", "base") == 2
    assert capsys.readouterr().err == (f"error: cannot resume {results.name}: case "
                                       "zz-not-a-case is not a test case of the dataset\n")
    assert results.read_bytes() == before


def test_validate_refuses_a_case_text_shared_across_splits(workdir, capsys):
    corpus, out = workdir
    cases = corpus / "cases.jsonl"
    lines = cases.read_text(encoding="utf-8").splitlines()
    leak = json.loads(next(line for line in lines if '"train"' in line))
    leak.update(case_id="leak", split="test")
    cases.write_text("\n".join(lines + [json.dumps(leak)]) + "\n", encoding="utf-8")
    code = run_cli("--config", corpus / "config.json", "validate")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "train/test overlap" in captured.err and "'leak'" in captured.err, captured.err


def test_importing_cli_does_not_load_the_thread_pool():
    """Nor the HTTP transport, which only a call to a remote provider imports."""
    src = str(Path(policytrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, policytrace.cli; print(*(m for m in ('concurrent.futures', "
             "'urllib.request', 'http.client', 'ssl') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_validate_loads_no_openssl(workdir):
    """`hashlib` and its OpenSSL binding are imported by the functions that hash, and
    `validate` hashes nothing unless two splits share a case text."""
    corpus, _ = workdir
    src = str(Path(policytrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import contextlib, io, sys\n"
        "from policytrace.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "--config", str(corpus / "config.json"), "validate"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize(
    "command,unused",
    [
        ("validate", {"assess", "prtgen", "select", "report", "metrics", "significance"}),
        ("gen", {"assess", "select", "report", "metrics", "significance"}),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(workdir, command, unused):
    corpus, out = workdir
    src = str(Path(policytrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import contextlib, io, sys\n"
        "from policytrace.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('policytrace.')))\n"
    )
    argv = ["--config", str(corpus / "config.json"), "--out-dir", str(out), command]
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert {f"policytrace.{name}" for name in unused}.isdisjoint(loaded), loaded


def test_run_mock_experiment_script(tmp_path):
    """The documented offline walkthrough runs every command to the end, from
    a copy of scripts/ with no tests/ beside it."""
    src = Path(policytrace.__file__).resolve().parents[1]
    scripts = shutil.copytree(src.parent / "scripts", tmp_path / "checkout" / "scripts")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(scripts / "run_mock_experiment.py"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "out" / "sft.jsonl").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("command", ["assess", "export-sft"])
def test_store_naming_an_unknown_case_is_an_error(workdir, capsys, command):
    corpus, out = workdir
    store = _gen(corpus, out)
    lines = store.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"case_id": "t03"', '"case_id": "zz99"')
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    tail = ["--strategy", "fewshot_prt", "--select", "rand"] if command == "assess" else []
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, command, "--prt-store", store, *tail
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {store}:3: case zz99 is not in the dataset\n"


@pytest.mark.parametrize("command", ["assess", "export-sft"])
def test_store_record_echoing_another_verdict_is_an_error(workdir, capsys, command):
    corpus, out = workdir
    store = _gen(corpus, out)
    lines = store.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    flipped = {"COMPLIANT": "NONCOMPLIANT", "NONCOMPLIANT": "COMPLIANT"}[record["echoed_verdict"]]
    lines[1] = json.dumps({**record, "echoed_verdict": flipped})
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    tail = ["--strategy", "fewshot_prt", "--select", "rand"] if command == "assess" else []
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, command, "--prt-store", store, *tail
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {store}:2: echoed verdict {flipped} of case {record['case_id']} "
        f"is not its gold verdict {record['echoed_verdict']}\n"
    )


def _drop_verdict(line):
    obj = json.loads(line)
    del obj["echoed_verdict"]
    return json.dumps(obj)


def _set(key, value):
    def damage(line):
        obj = json.loads(line)
        obj[key] = value
        return json.dumps(obj)

    return damage


@pytest.mark.parametrize("command", ["assess", "export-sft"])
@pytest.mark.parametrize(
    "damage,detail",
    [
        (_drop_verdict, "'echoed_verdict'"),
        (lambda line: line[:12], "Expecting value"),
        (_set("prt_text", 5), "prt_text must be str, got 5"),
        (_set("expert_model", ["x"]), "expert_model must be str, got ['x']"),
        (_set("word_count", "3"), "word_count must be int, got '3'"),
    ],
    ids=["missing-field", "bad-json", "prt-text-int", "expert-model-list", "word-count-string"],
)
def test_malformed_store_record_is_an_error(workdir, capsys, command, damage, detail):
    corpus, out = workdir
    store = _gen(corpus, out)
    lines = store.read_text(encoding="utf-8").splitlines()
    lines[1] = damage(lines[1])
    store.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    tail = ["--strategy", "fewshot_prt", "--select", "rand"] if command == "assess" else []
    code = run_cli(
        "--config", corpus / "config.json", "--out-dir", out, command, "--prt-store", store, *tail
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store}:2: malformed record: {detail}"), err


def _set_turn(key, value):
    def damage(line):
        obj = json.loads(line)
        obj["turns"][0][key] = value
        return json.dumps(obj)

    return damage


@pytest.mark.parametrize(
    "damage,detail",
    [
        (_set("correct", "no"), "correct must be bool or NoneType, got 'no'"),
        (_set("flags", "unparsed_verdict"), "flags must be list, got 'unparsed_verdict'"),
        (_set_turn("prompt_tokens", "12"), "prompt_tokens must be int, got '12'"),
        (_set_turn("completion_tokens", True), "completion_tokens must be int, got True"),
        (_set_turn("raw_cot", 5), "raw_cot must be str or NoneType, got 5"),
        (_set("parsed_verdict", ""), "'' is not a valid Verdict"),
        (_set("flags", [1]), "flags must be list of str, got [1]"),
        (lambda line: _set("correct", True)(_set("parsed_verdict", None)(line)),
         "correct must be None iff parsed_verdict is, got True"),
        (_set("correct", None),
         "correct must be None iff parsed_verdict is, got None"),
    ],
    ids=["correct-string", "flags-string", "prompt-tokens-string", "tokens-bool", "raw-cot-int",
         "verdict-empty", "flags-int", "correct-without-verdict", "verdict-without-correct"],
)
def test_a_results_record_field_of_the_wrong_type_is_an_error(workdir, capsys, damage, detail):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    lines = results.read_text(encoding="utf-8").splitlines()
    lines[1] = damage(lines[1])
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results)
    assert code == 2
    assert capsys.readouterr().err == f"error: {results}:2: malformed record: {detail}\n"


def test_report_names_the_file_and_line_of_a_torn_record(workdir, capsys):
    corpus, out = workdir
    assert run_cli(
        "--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base"
    ) == 0
    (results,) = out.glob("*.results.jsonl")
    with results.open("a", encoding="utf-8") as fh:
        fh.write('{"case_id": "c0')
    capsys.readouterr()
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}:7: malformed record: Unterminated string"), err


def test_a_reply_holding_unicode_line_separators_survives_resume_and_report(workdir, capsys):
    corpus, out = workdir
    providers_path = corpus / "providers.json"
    providers = json.loads(providers_path.read_text(encoding="utf-8"))
    learner = {entry.pattern for entry in LEARNER_SCRIPT}
    for entry in providers["script"]:
        if entry["pattern"] in learner:
            entry["text"] = "Weighed\u2028twice\u2029and\x85once. " + entry["text"]
    providers_path.write_text(json.dumps(providers), encoding="utf-8")
    assess = ("--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base")
    assert run_cli(*assess) == 0
    (results,) = out.glob("*.results.jsonl")
    written = results.read_text(encoding="utf-8")
    assert "\u2028" in written and written.count("\n") == 6
    capsys.readouterr()
    assert run_cli(*assess) == 0  # the resume reads every record back
    assert json.loads(capsys.readouterr().out)["skipped"] == 6
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results) == 0


@pytest.mark.parametrize("command", ["assess", "report"])
def test_a_results_file_holding_a_case_twice_is_an_error(workdir, capsys, command):
    # As two assess processes appending to one results file would leave it.
    corpus, out = workdir
    assess = ("--config", corpus / "config.json", "--out-dir", out, "assess", "--strategy", "base")
    assert run_cli(*assess) == 0
    (results,) = out.glob("*.results.jsonl")
    results.write_text(results.read_text(encoding="utf-8") * 2, encoding="utf-8")
    capsys.readouterr()
    if command == "assess":  # a resume
        code = run_cli(*assess)
    else:
        code = run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results)
    assert code == 2
    assert capsys.readouterr().err == f"error: {results}:7: duplicate result for case c01\n"


@pytest.mark.parametrize(
    "data, detail",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"text": "x", "extra": 1}', "unknown key 'extra'"),
        (b'{"text": 5}', "text must be str, got 5"),
        (b'{"text": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10"),
    ],
    ids=["empty", "unknown_key", "text_not_str", "not_utf8"],
)
def test_a_malformed_cache_entry_is_an_error_naming_it(workdir, capsys, data, detail):
    corpus, out = workdir
    gen = ("--config", corpus / "config.json", "--cache-dir", out / "cache", "--out-dir", out,
           "gen")
    assert run_cli(*gen) == 0
    entry = sorted((out / "cache").rglob("*.json"))[0]
    entry.write_bytes(data)
    capsys.readouterr()
    assert run_cli(*gen) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache entry {entry}: malformed: {detail}"), err
    assert err.count("\n") == 1
