import json

import pytest

from policytrace import corpus
from policytrace.clauses import ClauseId, Scheme, normalize
from policytrace.corpus import (
    CorpusError,
    Split,
    Verdict,
    load_dataset,
    load_policy,
    record_to_obj,
    split_counts,
    split_disjointness_check,
    write_dataset,
)
from conftest import POLICY_TEXT, dataset_jsonl_lines


@pytest.mark.parametrize(
    "label,expected",
    [
        ("COMPLIANT", Verdict.COMPLIANT),
        ("compliant", Verdict.COMPLIANT),
        ("Non-Compliant", Verdict.NONCOMPLIANT),
        ("NON COMPLIANT", Verdict.NONCOMPLIANT),
        ("non_compliant", Verdict.NONCOMPLIANT),
        ("good", Verdict.COMPLIANT),
        ("bad", Verdict.NONCOMPLIANT),
    ],
)
def test_verdict_parse_variants(label, expected):
    assert Verdict.parse(label) is expected


def test_verdict_parse_rejects_garbage():
    with pytest.raises(CorpusError):
        Verdict.parse("maybe")


def test_load_policy_clause_order(policy):
    assert [c.canonical for c in policy.clause_ids] == [f"Article {n}" for n in range(1, 6)]
    assert policy.approx_token_count > 0
    assert policy.full_text == POLICY_TEXT
    assert policy.headings == tuple(
        (2 * (n - 1), ClauseId(f"Article {n}", Scheme.ARTICLE)) for n in range(1, 6)
    )


def test_load_policy_unknown_marker(tmp_path, registry):
    path = tmp_path / "bad_policy.txt"
    path.write_text(POLICY_TEXT + "\nArticle 9: Phantom\nSome text.", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_policy(path, registry)
    assert "Article 9" in str(err.value)
    assert ":11:" in str(err.value)


def test_load_dataset_round_trip(tmp_path, registry, policy, dataset):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(dataset_jsonl_lines()) + "\n", encoding="utf-8")
    loaded = load_dataset(path, policy=policy, registry=registry)
    assert split_counts(loaded) == {"train": 6, "test": 6}
    assert loaded.by_id("c01").gold_clauses == frozenset(
        {ClauseId("Article 1", Scheme.ARTICLE), ClauseId("Article 3", Scheme.ARTICLE)}
    )

    out = tmp_path / "rewritten.jsonl"
    write_dataset(loaded, out)
    reloaded = load_dataset(out, policy=policy, registry=registry)
    assert [record_to_obj(r) for r in reloaded.records] == [
        record_to_obj(r) for r in loaded.records
    ]


def test_load_dataset_bad_json_line(tmp_path, registry):
    path = tmp_path / "broken.jsonl"
    lines = dataset_jsonl_lines()
    lines.insert(2, "{not json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert "3" in str(err.value)


def test_load_dataset_duplicate_id(tmp_path, registry):
    path = tmp_path / "dup.jsonl"
    lines = dataset_jsonl_lines()
    lines.append(lines[0])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert "duplicate" in str(err.value)


def test_load_dataset_unknown_clause(tmp_path, registry):
    path = tmp_path / "unknown.jsonl"
    lines = dataset_jsonl_lines()[:3]
    obj = json.loads(lines[2])
    obj["clauses"] = ["Article 1", "Article 42"]  # "Article 1" was resolved on line 1
    lines[2] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert "Article 42" in str(err.value)
    assert str(err.value).startswith("line 3:")


@pytest.mark.parametrize("entry", [5, ["Article 1"]], ids=["int", "list"])
def test_load_dataset_non_string_clause(tmp_path, registry, entry):
    path = tmp_path / "bad_clause.jsonl"
    obj = json.loads(dataset_jsonl_lines()[0])
    obj["clauses"] = [entry]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^line 1: malformed record: clause entry"):
        load_dataset(path, registry=registry)


def test_load_dataset_resolves_each_clause_string_once(tmp_path, registry, monkeypatch):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(dataset_jsonl_lines()) + "\n", encoding="utf-8")
    calls = []

    def counting_normalize(raw, reg):
        calls.append(raw)
        return normalize(raw, reg)

    monkeypatch.setattr(corpus, "normalize", counting_normalize)
    load_dataset(path, registry=registry)
    strings = [c for line in dataset_jsonl_lines() for c in json.loads(line)["clauses"]]
    assert len(set(strings)) < len(strings)
    assert sorted(calls) == sorted(set(strings))


def test_split_overlap_detected(tmp_path, registry):
    path = tmp_path / "overlap.jsonl"
    lines = dataset_jsonl_lines()
    obj = json.loads(lines[0])  # t01, train
    obj["case_id"] = "t01b"
    obj["split"] = "test"  # same case_text now in both splits
    lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_dataset(path, registry=registry)


def test_disjointness_report(dataset):
    report = split_disjointness_check(dataset)
    assert report.ok
    assert report.shared_case_ids == []
    assert report.shared_text_hashes == []


def test_disjointness_flags_shared_text(dataset):
    from dataclasses import replace

    from policytrace.corpus import Dataset

    leaky = dataset.records + [
        replace(dataset.records[0], case_id="leak", split=Split.TEST)
    ]
    report = split_disjointness_check(Dataset(policy_id="synthpol", records=leaky))
    assert not report.ok
    assert any("leak" in pair for pair in report.shared_text_hashes)
