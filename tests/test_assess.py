import hashlib
import json
import os
import re
from datetime import datetime
from functools import partial

import pytest

from mock_corpus import EXPERT_SCRIPT

from policytrace import assess
from policytrace.assess import (
    AssessError,
    RunSummary,
    SelectionMode,
    Strategy,
    StrategyKind,
    load_results,
    load_run,
    parse_verdict,
    run_dataset,
    run_instance,
)
from policytrace.corpus import CaseRecord, Dataset, Split, Verdict
from policytrace.gateway import ModelHandle, Provider, mock_provider
from policytrace.prompts import TemplateId, template_hash
from policytrace.prtgen import generate_augmented_dataset
from policytrace.records import sha256_hex

C = Verdict.COMPLIANT
N = Verdict.NONCOMPLIANT

# (text, expected verdict or None)
PARSER_FIXTURES = [
    ("Final Judgment: COMPLIANT", C),
    ("Final Judgment: NONCOMPLIANT", N),
    ("final judgment: compliant", C),
    ("Verdict: NONCOMPLIANT", N),
    ("VERDICT: COMPLIANT", C),
    ("Final verdict is NONCOMPLIANT", N),
    ("The case is COMPLIANT.", C),
    ("The case is NONCOMPLIANT.", N),
    # hyphen and space variants
    ("Final Judgment: NON-COMPLIANT", N),
    ("Final Judgment: NON COMPLIANT", N),
    ("the outcome is non-compliant overall", N),
    # the last labeled marker wins over earlier mentions
    ("Preliminary: COMPLIANT ... Final Judgment: NONCOMPLIANT", N),
    ("It could be NONCOMPLIANT but Final Judgment: COMPLIANT", C),
    ("Verdict: COMPLIANT. Revised. Verdict: NONCOMPLIANT.", N),
    # no marker: last whole-token occurrence wins
    ("COMPLIANT at first glance, on reflection NONCOMPLIANT", N),
    ("NONCOMPLIANT reading is wrong; it is COMPLIANT", C),
    # the substring inside NONCOMPLIANT must never read as COMPLIANT
    ("Final Judgment: NONCOMPLIANT (not COMPLIANT-adjacent)", N),
    ("NONCOMPLIANT", N),
    ("COMPLIANT", C),
    ("noncompliant", N),
    # unparsable outputs
    ("The model refuses to answer.", None),
    ("", None),
    ("compliance is a nuanced topic", None),  # no whole token
    ("NONCOMPLIANCE found", None),  # different word, boundary respected
    ("Final Judgment: pending review", None),
    # marker with no following token: falls back to last token anywhere
    ("COMPLIANT seems right. Final Judgment:", C),
    # multiline realistic outputs
    ("1. Reasoning here.\n2. More.\nFinal Judgment: COMPLIANT\n", C),
    ("Reasoning...\n\nFinal verdict\nNONCOMPLIANT", N),
    ("Verdict:\nCOMPLIANT", C),
    ("Both COMPLIANT and NONCOMPLIANT were weighed. Verdict: NONCOMPLIANT", N),
]


@pytest.mark.parametrize("text,expected", PARSER_FIXTURES)
def test_parse_verdict_fixture(text, expected):
    assert parse_verdict(text) is expected


def test_strategy_validation():
    Strategy(StrategyKind.BASE)
    Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3)
    with pytest.raises(AssessError):
        Strategy(StrategyKind.FEWSHOT_PRT)  # selection required
    with pytest.raises(AssessError):
        Strategy(StrategyKind.BASE, SelectionMode.RAND)  # selection forbidden
    with pytest.raises(AssessError):
        Strategy(StrategyKind.FEWSHOT, k=0)


def test_strategy_labels():
    assert Strategy(StrategyKind.BASE).label() == "base"
    assert Strategy(StrategyKind.FEWSHOT, k=3).label() == "fewshot(k=3)"
    assert (
        Strategy(StrategyKind.SELFREFINE_PRT, SelectionMode.REL, k=5).label()
        == "selfrefine_prt(rel,k=5)"
    )


@pytest.fixture
def pool(dataset, policy, expert_handle):
    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    return aug


ALL_STRATEGIES = [
    Strategy(StrategyKind.BASE),
    Strategy(StrategyKind.FEWSHOT, k=3),
    Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3),
    Strategy(StrategyKind.SELFREFINE),
    Strategy(StrategyKind.SELFREFINE_PRT, SelectionMode.RAND, k=3),
]


# The paper's turn structures, written out independently of `assess.TURNS`.
TURN_TEMPLATES = {
    StrategyKind.BASE: ["base"],
    StrategyKind.FEWSHOT: ["fewshot"],
    StrategyKind.FEWSHOT_PRT: ["fewshot_prt"],
    StrategyKind.SELFREFINE: [
        "selfrefine_initial",
        "selfrefine_critique",
        "selfrefine_judgment",
    ],
    StrategyKind.SELFREFINE_PRT: ["selfrefine_prt_initial", "selfrefine_prt_critique_judgment"],
}
TURN_COUNTS = {
    StrategyKind.BASE: 1,
    StrategyKind.FEWSHOT: 1,
    StrategyKind.FEWSHOT_PRT: 1,
    StrategyKind.SELFREFINE: 3,
    StrategyKind.SELFREFINE_PRT: 2,
}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.label())
def test_turn_counts(strategy, dataset, policy, learner_handle, pool):
    case = dataset.by_id("c01")
    result = run_instance(case, policy, strategy, learner_handle, pool=pool, seed=42)
    assert len(result.turns) == TURN_COUNTS[strategy.kind]
    assert [t.template_id for t in result.turns] == TURN_TEMPLATES[strategy.kind]
    assert result.parsed_verdict is not None
    assert result.correct in (True, False)


def test_selfrefine_turn_templates(dataset, policy, learner_handle):
    result = run_instance(
        dataset.by_id("c02"), policy, Strategy(StrategyKind.SELFREFINE), learner_handle
    )
    assert [t.template_id for t in result.turns] == [
        "selfrefine_initial",
        "selfrefine_critique",
        "selfrefine_judgment",
    ]
    assert result.parsed_verdict is N
    assert result.correct is True  # c02 gold is NONCOMPLIANT


def test_selfrefine_prt_turn_templates(dataset, policy, learner_handle, pool):
    result = run_instance(
        dataset.by_id("c02"),
        policy,
        Strategy(StrategyKind.SELFREFINE_PRT, SelectionMode.RAND, k=3),
        learner_handle,
        pool=pool,
        seed=42,
    )
    assert [t.template_id for t in result.turns] == [
        "selfrefine_prt_initial",
        "selfrefine_prt_critique_judgment",
    ]
    assert result.parsed_verdict is C
    assert result.correct is False


def test_rejects_train_split_case(dataset, policy, learner_handle):
    with pytest.raises(AssessError):
        run_instance(dataset.by_id("t01"), policy, Strategy(StrategyKind.BASE), learner_handle)


def test_pool_required_for_fewshot(dataset, policy, learner_handle):
    with pytest.raises(AssessError):
        run_instance(
            dataset.by_id("c01"), policy, Strategy(StrategyKind.FEWSHOT, k=3), learner_handle
        )


def test_target_never_in_own_pool(dataset, policy, learner_handle, pool):
    from dataclasses import replace

    case = dataset.by_id("c01")
    leak = (replace(pool.triples[0][0], case_id="c01"), C, pool.triples[0][2])
    leaky = replace(pool, triples=pool.triples + (leak,))
    with pytest.raises(AssessError):
        run_instance(
            case,
            policy,
            Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3),
            learner_handle,
            pool=leaky,
            seed=42,
        )


def test_unparsed_verdict_flagged(dataset, policy):
    mute = mock_provider({"### REASONING AND FINAL VERDICT": "I cannot decide."})
    result = run_instance(dataset.by_id("c01"), policy, Strategy(StrategyKind.BASE), mute)
    assert result.parsed_verdict is None
    assert result.correct is None
    assert "unparsed_verdict" in result.flags


def test_run_instance_refuses_relevance_selection_without_a_judge(dataset, policy,
                                                                  learner_handle, pool):
    strategy = Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.REL, k=3)
    with pytest.raises(AssessError) as err:
        run_instance(dataset.by_id("c01"), policy, strategy, learner_handle, pool=pool)
    assert str(err.value) == "relevance selection requires a judge handle"


def test_load_run_refuses_results_without_their_manifest(tmp_path, dataset, policy,
                                                         learner_handle):
    results_path, summary = run_dataset(dataset, policy, Strategy(StrategyKind.BASE),
                                        learner_handle, tmp_path)
    manifest_path = tmp_path / f"{summary.run_id}.manifest.json"
    manifest_path.unlink()
    with pytest.raises(AssessError) as err:
        load_run(results_path)
    assert str(err.value) == f"manifest not found next to results: {manifest_path}"


def test_relevance_selection_uses_judge(dataset, policy, learner_handle, judge_handle, pool):
    result = run_instance(
        dataset.by_id("c01"),
        policy,
        Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.REL, k=3),
        learner_handle,
        pool=pool,
        judge=judge_handle,
        seed=42,
    )
    assert judge_handle.provider.call_count == 1
    assert result.correct is True


def test_run_dataset_writes_manifest_and_results(tmp_path, dataset, policy, learner_handle):
    out = tmp_path / "runs"
    results_path, summary = run_dataset(
        dataset, policy, Strategy(StrategyKind.BASE), learner_handle, out, seed=42
    )
    manifest_path = out / f"{summary.run_id}.manifest.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["policy_id"] == "synthpol"
    assert manifest["strategy"] == "base"
    assert manifest["seed"] == 42
    assert len(manifest["template_hashes"]) == 13

    results = load_results(results_path)
    assert [r.case_id for r in results] == [c.case_id for c in dataset.test]
    assert summary.total == 6
    assert summary.executed == 6
    # Mock base strategy answers NONCOMPLIANT; golds alternate C/N.
    assert summary.correct == 3
    assert summary.accuracy_pct == 50.0


def test_run_dataset_resumes(tmp_path, dataset, policy, learner_handle):
    out = tmp_path / "runs"
    strategy = Strategy(StrategyKind.BASE)
    results_path, first = run_dataset(
        dataset, policy, strategy, learner_handle, out, seed=42
    )
    before = learner_handle.provider.call_count
    _, second = run_dataset(dataset, policy, strategy, learner_handle, out, seed=42)
    assert second.skipped == 6
    assert second.executed == 0
    assert learner_handle.provider.call_count == before  # no new model calls


def test_a_resume_refuses_a_manifest_that_differs_only_in_one_template_hash(
    tmp_path, dataset, policy, learner_handle
):
    """A template edited between two runs would mix two prompts in one results file."""
    strategy = Strategy(StrategyKind.BASE)
    _, summary = run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)
    manifest_path = tmp_path / f"{summary.run_id}.manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["template_hashes"]["base"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(AssessError, match="differs from its manifest in template_hashes$"):
        run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)


def test_accuracy_pct_leaves_failed_cases_out_of_its_denominator():
    summary = RunSummary(run_id="r", total=4, correct=1,
                         failure_reasons={"c04": "TransientError: exhausted 5 attempts"})
    assert summary.accuracy_pct == pytest.approx(100 / 3)


def test_run_dataset_leaves_the_old_manifest_when_its_write_fails(
    tmp_path, monkeypatch, dataset, policy, learner_handle
):
    out = tmp_path / "runs"
    strategy = Strategy(StrategyKind.BASE)
    _, first = run_dataset(dataset, policy, strategy, learner_handle, out, seed=42)
    manifest_path = out / f"{first.run_id}.manifest.json"
    before = manifest_path.read_bytes()
    replace = os.replace

    def fail_once(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        raise OSError("No space left on device")

    monkeypatch.setattr(os, "replace", fail_once)
    with pytest.raises(OSError, match="No space left"):
        run_dataset(dataset, policy, strategy, learner_handle, out, seed=42)
    assert manifest_path.read_bytes() == before
    assert list(out.glob("*.tmp")) == []
    _, resumed = run_dataset(dataset, policy, strategy, learner_handle, out, seed=42)
    assert (resumed.skipped, resumed.executed) == (6, 0)


def test_run_dataset_collects_failures(tmp_path, dataset, policy):
    # Script only matches the base prompt for some cases: make one case text
    # unmatched by replacing the learner with a narrow script.
    narrow = mock_provider(
        {"A school logged its lawful basis": "Final Judgment: COMPLIANT"}
    )
    results_path, summary = run_dataset(
        dataset, policy, Strategy(StrategyKind.BASE), narrow, tmp_path / "o", seed=42
    )
    assert summary.failed_cases == ["c02", "c03", "c04", "c05", "c06"]
    assert list(summary.failure_reasons) == summary.failed_cases
    assert all(
        reason.startswith("UnmatchedPromptError: no script pattern matches prompt")
        for reason in summary.failure_reasons.values()
    )
    assert [r.case_id for r in load_results(results_path)] == ["c01"]


@pytest.mark.parametrize("cut_line", [0, 2, 5])
def test_run_dataset_resumes_after_torn_last_line(
    tmp_path, dataset, policy, learner_handle, cut_line
):
    strategy = Strategy(StrategyKind.BASE)
    whole_path, _ = run_dataset(dataset, policy, strategy, learner_handle, tmp_path / "a")
    whole = whole_path.read_bytes()
    lines = whole.splitlines(keepends=True)
    # A crash in the middle of appending line `cut_line`.
    torn_path = tmp_path / "b" / whole_path.name
    torn_path.parent.mkdir()
    torn_path.write_bytes(b"".join(lines[:cut_line]) + lines[cut_line][:40])
    torn = rf"^{re.escape(str(torn_path))}:{cut_line + 1}: malformed record: "
    with pytest.raises(AssessError, match=torn):
        load_results(torn_path)  # report reads only whole files

    _, summary = run_dataset(dataset, policy, strategy, learner_handle, tmp_path / "b")
    assert torn_path.read_bytes() == whole
    assert summary.skipped == cut_line
    assert summary.executed == len(lines) - cut_line


@pytest.mark.parametrize("cut_line", [0, 1, 4])
def test_run_dataset_resumed_summary_counts_match_an_uninterrupted_run(
    tmp_path, dataset, policy, cut_line
):
    # Mixed outcomes: right, wrong and unparsed (flagged) verdicts.
    replies = ["Final Judgment: COMPLIANT", "Final Judgment: NONCOMPLIANT", "No verdict."]
    learner = mock_provider(
        {case.case_text: replies[i % 3] for i, case in enumerate(dataset.test)}
    )
    strategy = Strategy(StrategyKind.BASE)
    whole_path, whole = run_dataset(dataset, policy, strategy, learner, tmp_path / "a")
    lines = whole_path.read_bytes().splitlines(keepends=True)
    torn_path = tmp_path / "b" / whole_path.name
    torn_path.parent.mkdir()
    torn_path.write_bytes(b"".join(lines[:cut_line]) + lines[cut_line][:40])

    _, resumed = run_dataset(dataset, policy, strategy, learner, tmp_path / "b")
    assert whole.unparsed == 2 and 0 < whole.correct < 4
    assert whole.flagged_cases == [dataset.test[i].case_id for i in (2, 5)]
    assert (resumed.correct, resumed.unparsed, resumed.flagged_cases) == (
        whole.correct, whole.unparsed, whole.flagged_cases
    )
    assert (resumed.skipped, resumed.executed) == (cut_line, whole.executed - cut_line)
    assert whole.skipped == 0 and resumed.failed_cases == whole.failed_cases == []


@pytest.mark.parametrize("cut_line", [0, 2], ids=["no-newline", "long-last-line"])
def test_run_dataset_resumes_after_a_torn_line_longer_than_a_block(
    tmp_path, dataset, policy, cut_line
):
    # Every record is longer than 64 KiB, and so is the torn line.
    learner = mock_provider(
        {case.case_text: "word " * 14_000 + "Final Judgment: COMPLIANT" for case in dataset.test}
    )
    strategy = Strategy(StrategyKind.BASE)
    whole_path, whole = run_dataset(dataset, policy, strategy, learner, tmp_path / "a")
    lines = whole_path.read_bytes().splitlines(keepends=True)
    assert min(map(len, lines)) > 1 << 16
    torn_path = tmp_path / "b" / whole_path.name
    torn_path.parent.mkdir()
    torn_path.write_bytes(b"".join(lines[:cut_line]) + lines[cut_line][:-100])

    _, resumed = run_dataset(dataset, policy, strategy, learner, tmp_path / "b")
    assert torn_path.read_bytes() == whole_path.read_bytes()
    assert (resumed.skipped, resumed.executed) == (cut_line, whole.executed - cut_line)
    assert (resumed.correct, resumed.unparsed) == (whole.correct, whole.unparsed)


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("cut_line", [0, 3, 5])
def test_a_resume_of_a_results_file_cut_mid_record_writes_the_uninterrupted_bytes(
    tmp_path, dataset, policy, learner_handle, pool, cut_line, concurrency
):
    strategy = Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3)
    run = partial(run_dataset, dataset, policy, strategy, learner_handle, pool=pool, seed=7,
                  concurrency=concurrency)
    whole_path, whole = run(tmp_path / "a")
    lines = whole_path.read_bytes().splitlines(keepends=True)
    torn_path = tmp_path / "b" / whole_path.name
    torn_path.parent.mkdir()
    torn_path.write_bytes(b"".join(lines[:cut_line]) + lines[cut_line][:len(lines[cut_line]) // 2])

    _, resumed = run(tmp_path / "b")
    assert torn_path.read_bytes() == whole_path.read_bytes()
    assert (resumed.skipped, resumed.executed, resumed.correct) == (
        cut_line, whole.executed - cut_line, whole.correct)


def test_a_refused_resume_leaves_the_results_and_the_manifest_unchanged(
    tmp_path, dataset, policy, learner_handle
):
    results_path, summary = run_dataset(dataset, policy, Strategy(StrategyKind.BASE, k=3),
                                        learner_handle, tmp_path, seed=42)
    manifest_path = tmp_path / f"{summary.run_id}.manifest.json"
    with results_path.open("ab") as fh:
        fh.write(b'{"case_id": "c07", "stra')  # a torn tail, which the resume would cut off
    before = results_path.read_bytes(), manifest_path.read_bytes()
    with pytest.raises(AssessError) as err:
        run_dataset(dataset, policy, Strategy(StrategyKind.BASE, k=2), learner_handle, tmp_path,
                    seed=42)
    assert str(err.value) == (f"cannot resume {results_path.name}: configuration differs "
                              "from its manifest in k")
    assert (results_path.read_bytes(), manifest_path.read_bytes()) == before


def test_a_resume_refuses_a_results_file_holding_a_case_outside_the_test_split(
    tmp_path, dataset, policy, learner_handle
):
    strategy = Strategy(StrategyKind.BASE)
    results_path, _ = run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)
    first = json.loads(results_path.read_text(encoding="utf-8").splitlines()[0])
    with results_path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({**first, "case_id": "zz-not-a-case"}) + "\n")
    before, calls = results_path.read_bytes(), learner_handle.provider.call_count
    with pytest.raises(AssessError) as err:
        run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)
    assert str(err.value) == (f"cannot resume {results_path.name}: case zz-not-a-case is not a "
                              "test case of the dataset")
    assert results_path.read_bytes() == before
    assert learner_handle.provider.call_count == calls


def test_a_result_with_no_turns_is_refused_by_the_report_and_the_resume(
    tmp_path, dataset, policy, learner_handle
):
    strategy = Strategy(StrategyKind.BASE)
    results_path, _ = run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)
    first = json.loads(results_path.read_text(encoding="utf-8").splitlines()[0])
    results_path.write_text(json.dumps({**first, "turns": []}) + "\n", encoding="utf-8")
    message = f"{results_path}:1: malformed record: turns must be non-empty"
    with pytest.raises(AssessError) as err:
        load_run(results_path)
    assert str(err.value) == message
    with pytest.raises(AssessError) as err:
        run_dataset(dataset, policy, strategy, learner_handle, tmp_path, seed=42)
    assert str(err.value) == message


def test_run_dataset_concurrency_matches_sequential(tmp_path, dataset, policy, learner_handle):
    strategy = Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3)
    expert = mock_provider(EXPERT_SCRIPT)
    pool, _ = generate_augmented_dataset(dataset, policy, expert)

    seq_path, _ = run_dataset(
        dataset, policy, strategy, learner_handle, tmp_path / "seq", pool=pool, seed=42
    )
    par_path, _ = run_dataset(
        dataset,
        policy,
        strategy,
        learner_handle,
        tmp_path / "par",
        pool=pool,
        seed=42,
        concurrency=4,
    )
    assert seq_path.read_bytes() == par_path.read_bytes()


def test_run_dataset_hashes_the_pool_once(tmp_path, monkeypatch, dataset, policy, learner_handle, pool):
    """The pool's content hash names the run and seeds every draw; it is computed once."""
    from policytrace import prtgen

    calls = []

    def counting_sha256_hex(text):
        calls.append(text)
        return sha256_hex(text)

    monkeypatch.setattr(prtgen, "sha256_hex", counting_sha256_hex)
    strategy = Strategy(StrategyKind.FEWSHOT_PRT, SelectionMode.RAND, k=3)
    _, summary = run_dataset(dataset, policy, strategy, learner_handle, tmp_path, pool=pool)
    assert summary.executed == len(dataset.test) == 6
    assert len(calls) == 1


def test_results_line_golden(tmp_path, policy):
    # Pins a results line's bytes: the result's fields and each turn's in declared order,
    # the verdict by its value, non-ASCII text raw.
    prompts = []

    class Fixed(Provider):
        def generate(self, model_id, prompt, cfg):
            prompts.append(prompt)
            return "Análisis — Final Judgment: NONCOMPLIANT ✓", "naïve", 7, 3

    case = CaseRecord("caso-ñ", "Un caso.", Verdict.NONCOMPLIANT, frozenset(), Split.TEST)
    learner = ModelHandle("p", "m", supports_raw_cot=True, provider=Fixed())
    path, _ = run_dataset(Dataset((case,)), policy, Strategy(StrategyKind.BASE), learner, tmp_path)
    prompt_hash = hashlib.sha256(prompts[0].encode("utf-8")).hexdigest()
    assert path.read_text(encoding="utf-8") == (
        '{"case_id": "caso-ñ", "strategy": "base", "turns": [{"template_id": "base", '
        f'"prompt_hash": "{prompt_hash}", "response_text": "Análisis — Final Judgment: '
        'NONCOMPLIANT ✓", "raw_cot": "naïve", "prompt_tokens": 7, "completion_tokens": 3}], '
        '"parsed_verdict": "NONCOMPLIANT", "correct": true, "flags": []}\n'
    )


def test_run_manifest_golden(tmp_path, policy, monkeypatch):
    # Pins a run manifest's bytes: keys sorted, two-space indent, None as null, one
    # trailing newline; `started_at` is fixed by a stand-in clock.
    class Clock:
        @staticmethod
        def now(tz):
            return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

    monkeypatch.setattr(assess, "datetime", Clock)
    case = CaseRecord("c", "A case.", Verdict.COMPLIANT, frozenset(), Split.TEST)
    learner = mock_provider({"": "Final Judgment: COMPLIANT"}, "m")
    _, summary = run_dataset(Dataset((case,)), policy, Strategy(StrategyKind.BASE), learner,
                             tmp_path, judge=mock_provider({}, "j"), seed=7)
    assert summary.executed == 1
    ids = ("base", "clause_extract", "fewshot", "fewshot_prt", "policy_summarize",
           "prt_generate", "select_relevant", "selfrefine_critique", "selfrefine_initial",
           "selfrefine_judgment", "selfrefine_prt_critique_judgment", "selfrefine_prt_initial",
           "utilization_count")
    hashes = ",\n".join(f'    "{t}": "{template_hash(TemplateId(t))}"' for t in ids)
    assert (tmp_path / f"{summary.run_id}.manifest.json").read_text(encoding="utf-8") == (
        '{\n  "judge_model": "j",\n  "k": 3,\n  "learner_model": "m",\n'
        '  "policy_id": "synthpol",\n  "pool_hash": null,\n'
        '  "run_id": "synthpol_base_m_s7",\n  "seed": 7,\n'
        '  "started_at": "2026-01-02T03:04:05+00:00",\n  "strategy": "base",\n'
        '  "template_hashes": {\n' + hashes + '\n  }\n}\n'
    )
