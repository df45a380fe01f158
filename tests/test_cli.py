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
from mock_corpus import LEARNER_SCRIPT, dataset_jsonl_lines
from policytrace import cli, prtgen
from policytrace.clauses import save_registry
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
    lines = results.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"case_id": "c01"', '"case_id": "c99"')
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("--config", corpus / "config.json", "--out-dir", out, "report", results) == 0
    (row,) = json.loads((out / "report.json").read_text(encoding="utf-8"))["runs"]
    assert row["clause_relevance"] == {"error": "KeyError: 'c99'"}


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
        (_without("learner_model"), ": missing learner_model"),
        (_without("run_id", "strategy"), ": missing run_id, strategy"),
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


def test_gen_reports_a_provider_error_and_exits_2(workdir, capsys):
    corpus, out = workdir
    providers = json.loads((corpus / "providers.json").read_text(encoding="utf-8"))
    providers["script"] = [{"pattern": "no prompt holds this", "text": "unused"}]
    (corpus / "providers.json").write_text(json.dumps(providers), encoding="utf-8")
    code = run_cli("--config", corpus / "config.json", "--out-dir", out, "gen")
    assert code == 2  # not 1, which means the quarantine threshold was exceeded
    err = capsys.readouterr().err
    assert err.startswith("error: UnmatchedPromptError: no script pattern matches prompt"), err


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
        ("concurrency", "8", "an integer"),
        ("k", "3", "an integer"),
        ("seed", "x", "an integer"),
        ("seed", True, "an integer"),
        ("k", 3.0, "an integer"),
        ("flag_threshold", "0.5", "a number"),
        ("quarantine_threshold", None, "a number"),
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
    assert err == f"error: config {config_path}: {key} must be {kind}, got {value!r}\n"


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
        ("registry.json", lambda p: p.write_text("[]", "utf-8"), "validate", "malformed"),
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
    src = str(Path(policytrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, policytrace.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    ],
    ids=["correct-string", "flags-string", "prompt-tokens-string", "tokens-bool", "raw-cot-int"],
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
