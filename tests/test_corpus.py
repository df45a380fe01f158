import json
import re

import pytest

from policytrace import corpus
from policytrace.clauses import ClauseId, Scheme, normalize
from policytrace.corpus import (
    CorpusError,
    Split,
    Verdict,
    load_dataset,
    load_policy,
    split_counts,
    split_disjointness_check,
)
from policytrace.records import read_jsonl
from conftest import traced_peak
from mock_corpus import POLICY_TEXT, dataset_jsonl_lines


def record_to_obj(record):
    return {
        "case_id": record.case_id,
        "case_text": record.case_text,
        "verdict": record.gold_verdict.value,
        "clauses": sorted(c.canonical for c in record.gold_clauses),
        "split": record.split.value,
    }


def write_dataset(dataset, path):
    """Canonical serialization: fixed field order, sorted clause lists."""
    lines = [json.dumps(record_to_obj(r), ensure_ascii=False) for r in dataset.records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


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


def test_load_dataset_round_trip(tmp_path, registry, dataset):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(dataset_jsonl_lines()) + "\n", encoding="utf-8")
    loaded = load_dataset(path, registry)
    assert split_counts(loaded) == {"train": 6, "test": 6}
    assert loaded.by_id("c01").gold_clauses == frozenset(
        {ClauseId("Article 1", Scheme.ARTICLE), ClauseId("Article 3", Scheme.ARTICLE)}
    )

    out = tmp_path / "rewritten.jsonl"
    write_dataset(loaded, out)
    reloaded = load_dataset(out, registry)
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
    assert str(err.value) == (
        f"{path}:3: malformed record: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def test_load_dataset_duplicate_id(tmp_path, registry):
    path = tmp_path / "dup.jsonl"
    lines = dataset_jsonl_lines()
    lines.append(lines[0])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert str(err.value) == f"{path}:{len(lines)}: duplicate record for case t01"


def test_load_dataset_unknown_clause(tmp_path, registry):
    path = tmp_path / "unknown.jsonl"
    lines = dataset_jsonl_lines()[:3]
    obj = json.loads(lines[2])
    obj["clauses"] = ["Article 1", "Article 42"]  # "Article 1" was resolved on line 1
    lines[2] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert str(err.value) == f"{path}:3: malformed record: unknown clause 'Article 42'"


@pytest.mark.parametrize(
    "line",
    [
        "[1]",
        '{"case_id": "x", "case_text": "t", "verdict": 5, "clauses": [], "split": "test"}',
        '{"case_id": "x", "case_text": "t", "verdict": "good", "clauses": 5, "split": "test"}',
        '{"case_id": "x", "case_text": 5, "verdict": "good", "clauses": [], "split": "test"}',
        '{"case_id": "x", "case_text": "t\\ud800", "verdict": "good", "clauses": [], "split": "test"}',
        '{"case_id": ["x"], "case_text": "t", "verdict": "good", "clauses": [], "split": "test"}',
    ],
    ids=[
        "not-an-object", "verdict-not-a-string", "clauses-not-a-list", "text-not-a-string",
        "text-lone-surrogate", "id-not-a-string",
    ],
)
def test_load_dataset_wrong_field_types_are_malformed_records(tmp_path, registry, line):
    path = tmp_path / "types.jsonl"
    path.write_text("\n".join(dataset_jsonl_lines()[:2] + [line]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: malformed record: "):
        load_dataset(path, registry=registry)


@pytest.mark.parametrize("raw", ["Article 5a", "Article 51", "164.5021"])
def test_load_dataset_reports_a_longer_clause_number_whole(tmp_path, registry, raw):
    path = tmp_path / "longer.jsonl"
    obj = json.loads(dataset_jsonl_lines()[0])
    obj["clauses"] = [raw]  # "Article 5" and "Section 164.502" alone would resolve
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    registry.add(ClauseId("Section 164.502", Scheme.SECTION))
    with pytest.raises(CorpusError) as err:
        load_dataset(path, registry=registry)
    assert str(err.value) == f"{path}:1: malformed record: unknown clause {raw!r}"


def test_load_dataset_credits_a_subsection_citation_to_its_whole_article(tmp_path, registry):
    path = tmp_path / "subsection.jsonl"
    obj = json.loads(dataset_jsonl_lines()[0])
    obj["clauses"] = ["Article 3(1)(b)"]  # the registry holds whole articles only
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    (record,) = load_dataset(path, registry=registry).records
    assert [c.canonical for c in record.gold_clauses] == ["Article 3"]


@pytest.mark.parametrize("entry", [5, ["Article 1"]], ids=["int", "list"])
def test_load_dataset_non_string_clause(tmp_path, registry, entry):
    path = tmp_path / "bad_clause.jsonl"
    obj = json.loads(dataset_jsonl_lines()[0])
    obj["clauses"] = [entry]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(
        CorpusError, match=f"^{re.escape(str(path))}:1: malformed record: clause entry"
    ):
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


def test_read_jsonl_holds_one_line_at_a_time(tmp_path):
    # About 1 MB of records: what the reader holds follows one line, not the file.
    path = tmp_path / "records.jsonl"
    path.write_text("".join(
        json.dumps({"case_id": f"c{i:04d}", "case_text": "Artículo 5 — x " * 70}) + "\n"
        for i in range(600)
    ), encoding="utf-8")

    def drain():
        for _ in read_jsonl(path, CorpusError):
            pass

    assert traced_peak(drain) < 0.25 * path.stat().st_size


def test_read_jsonl_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n{"a": 3}\n')
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:2: 'utf-8' codec"):
        list(read_jsonl(path, CorpusError))


def test_load_policy_refuses_a_registry_that_mixes_schemes(tmp_path, registry):
    registry.add(ClauseId("Section 164.502", Scheme.SECTION))
    path = tmp_path / "policy.txt"
    path.write_text(POLICY_TEXT, encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_policy(path, registry)
    assert str(err.value) == "registry mixes schemes: ['article', 'section']"


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

    leaky = dataset.records + (replace(dataset.records[0], case_id="leak", split=Split.TEST),)
    report = split_disjointness_check(Dataset(leaky))
    assert not report.ok
    assert any("leak" in pair for pair in report.shared_text_hashes)


def test_dataset_is_a_value(dataset):
    from dataclasses import FrozenInstanceError

    from policytrace.corpus import Dataset

    with pytest.raises(FrozenInstanceError):
        dataset.records = ()
    with pytest.raises(AttributeError):
        dataset.records.append(dataset.records[0])

    rebuilt = Dataset(list(dataset.records))
    assert isinstance(rebuilt.records, tuple)
    assert rebuilt == dataset
    assert rebuilt.by_id("c03") is dataset.records[8]
    with pytest.raises(KeyError):
        rebuilt.by_id("zz99")


def test_dataset_by_id_returns_the_first_record_of_an_id(dataset):
    from dataclasses import replace

    from policytrace.corpus import Dataset

    clash = replace(dataset.records[0], case_text="A later record under the same id.")
    assert Dataset(dataset.records + (clash,)).by_id("t01") is dataset.records[0]


def _registry_of(*canonicals):
    from policytrace.clauses import ClauseRegistry

    registry = ClauseRegistry(policy_id="p")
    for canonical in canonicals:
        scheme = Scheme.ARTICLE if canonical.startswith("Article") else Scheme.SECTION
        registry.add(ClauseId(canonical, scheme))
    return registry


def _headed(tmp_path, text, registry):
    path = tmp_path / "policy.txt"
    path.write_text(text, encoding="utf-8")
    return [(index, clause.canonical) for index, clause in load_policy(path, registry).headings]


def test_subsection_headings_resolve_to_subsection_clauses(tmp_path):
    registry = _registry_of("Section 164.502(a)", "Section 164.502(b)")
    text = "164.502(a) Permitted uses\nBody a.\nSection 164.502(b) Minimum necessary\nBody b."
    assert _headed(tmp_path, text, registry) == [
        (0, "Section 164.502(a)"),
        (2, "Section 164.502(b)"),
    ]


def test_subsection_article_headings_resolve_to_subsection_clauses(tmp_path):
    registry = _registry_of("Article 5(1)", "Article 5(2)")
    text = "Article 5(1) Principles\nBody one.\nArticle 5(2) Accountability\nBody two."
    assert _headed(tmp_path, text, registry) == [(0, "Article 5(1)"), (2, "Article 5(2)")]


def test_subsection_headings_fall_back_to_whole_clauses(tmp_path):
    registry = _registry_of("Section 164.502", "Section 164.504")
    text = "164.502 Uses\nBody.\n164.502(a) Permitted uses\nBody a.\n164.504(b) Other\nBody."
    assert _headed(tmp_path, text, registry) == [
        (0, "Section 164.502"),
        (2, "Section 164.502"),
        (4, "Section 164.504"),
    ]


def test_article_subsection_heading_never_reads_as_a_longer_article_number(tmp_path):
    registry = _registry_of("Article 5", "Article 51")
    text = "Article 5 Principles\nArticle 5(1) Lawfulness\nArticle 51 Supervisory authority"
    assert _headed(tmp_path, text, registry) == [
        (0, "Article 5"),
        (1, "Article 5"),
        (2, "Article 51"),
    ]


def test_unknown_subsection_heading_is_reported_in_full(tmp_path):
    with pytest.raises(CorpusError) as err:
        _headed(tmp_path, "Section 164.502\n164.506(c) Other", _registry_of("Section 164.502"))
    assert str(err.value).endswith(":2: clause marker not in registry: 'Section 164.506(c)'")


def test_section_sign_headings_resolve(tmp_path):
    registry = _registry_of("Section 164.502", "Section 164.504")
    text = "§ 164.502 Uses\nBody.\n§164.504(a): Other\nBody."
    assert _headed(tmp_path, text, registry) == [(0, "Section 164.502"), (2, "Section 164.504")]


def test_article_heading_without_a_space_resolves(tmp_path):
    registry = _registry_of("Article 5", "Article 6")
    text = "Article5 Lawfulness\nBody.\nARTICLE6(1): Consent\nBody."
    assert _headed(tmp_path, text, registry) == [(0, "Article 5"), (2, "Article 6")]


def test_a_heading_is_one_whole_clause_number(tmp_path):
    registry = _registry_of("Article 5", "Article 6")
    text = (
        "Article 5 Principles\n"
        "Articles 5 and 6 apply together.\n"  # a list heads nothing
        "Article 5a Annex\n"  # nor does a longer number
        "Articles 5 to 9 apply to processors.\n"  # nor does a plural prefix
        "Article 6 Consent"
    )
    assert _headed(tmp_path, text, registry) == [(0, "Article 5"), (4, "Article 6")]
    registry = _registry_of("Section 164.502", "Section 164.510")
    text = "164.502 Uses\nSections 164.502 through 164.510 apply.\nSections 164.506 lists.\n"
    assert _headed(tmp_path, text + "§ 164.510 Access", registry) == [
        (0, "Section 164.502"),
        (3, "Section 164.510"),
    ]
