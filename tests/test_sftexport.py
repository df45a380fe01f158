import json
from dataclasses import replace

import pytest

from conftest import SECTION_POLICY_TEXT, build_section_registry, traced_peak
from policytrace.clauses import ClauseId, ClauseRegistry, Scheme
from policytrace.corpus import load_policy
from policytrace.prtgen import generate_augmented_dataset
from policytrace.sftexport import SFTExportError, clause_text, export_sft, split_train_val


def cid(n):
    return ClauseId(f"Article {n}", Scheme.ARTICLE)


@pytest.fixture
def aug(dataset, policy, expert_handle):
    built, quarantine = generate_augmented_dataset(dataset, policy, expert_handle)
    assert not quarantine
    return built


def test_clause_text_slices_section(policy):
    text = clause_text(policy, cid(2))
    assert text.startswith("Article 2: Data Minimization")
    assert "necessary for the stated purpose" in text
    assert "Article 3" not in text
    assert text in policy.full_text


def test_clause_text_last_section_runs_to_end(policy):
    text = clause_text(policy, cid(5))
    assert text.startswith("Article 5: Access Rights")
    assert text.endswith("without charge.")


def test_clause_text_unresolvable(policy):
    with pytest.raises(SFTExportError):
        clause_text(policy, cid(9))


NAMED_POLICY_TEXT = """Assistant conduct rules
Stay in bounds
Responses keep to the topic the user asked about.
Be honest
Responses never state a guess as fact, and say when they are unsure.
Respect privacy
Responses reveal no personal data about private individuals."""


def build_named_registry() -> ClauseRegistry:
    registry = ClauseRegistry(policy_id="conduct")
    for title in ("Stay in bounds", "Be honest", "Respect privacy"):
        registry.add(ClauseId(title, Scheme.NAMED), title=title)
    return registry


def _load(tmp_path, text, registry):
    path = tmp_path / "scheme_policy.txt"
    path.write_text(text, encoding="utf-8")
    return load_policy(path, registry)


def test_clause_text_bare_section_headings(tmp_path):
    policy = _load(tmp_path, SECTION_POLICY_TEXT, build_section_registry())
    assert len(policy.clause_ids) == 5
    text = clause_text(policy, ClauseId("Section 164.504", Scheme.SECTION))
    assert text == (
        "164.504 Data Minimization\n"
        "Collection is limited to fields that are necessary for the stated purpose under 164.502."
    )
    spelled_out = clause_text(policy, ClauseId("Section 164.506", Scheme.SECTION))
    assert spelled_out.startswith("Section 164.506 Consent Withdrawal\n")
    assert "164.508" not in spelled_out


def test_clause_text_named_headings(tmp_path):
    policy = _load(tmp_path, NAMED_POLICY_TEXT, build_named_registry())
    assert [c.canonical for c in policy.clause_ids] == [
        "Stay in bounds",
        "Be honest",
        "Respect privacy",
    ]
    assert clause_text(policy, ClauseId("Be honest", Scheme.NAMED)) == (
        "Be honest\nResponses never state a guess as fact, and say when they are unsure."
    )


def test_a_named_heading_is_a_whole_line(tmp_path):
    # A body line naming another clause's title between commas heads nothing.
    text = NAMED_POLICY_TEXT.replace(
        "asked about.", "asked about.\nIf unsure, be honest, and say so."
    )
    policy = _load(tmp_path, text, build_named_registry())
    assert [index for index, _ in policy.headings] == [1, 4, 6]
    assert clause_text(policy, ClauseId("Stay in bounds", Scheme.NAMED)) == (
        "Stay in bounds\nResponses keep to the topic the user asked about.\n"
        "If unsure, be honest, and say so."
    )


@pytest.mark.parametrize("scheme", ["article", "section", "named"])
def test_every_clause_slices_from_its_heading_line(tmp_path, scheme, policy):
    if scheme == "section":
        policy = _load(tmp_path, SECTION_POLICY_TEXT, build_section_registry())
    elif scheme == "named":
        policy = _load(tmp_path, NAMED_POLICY_TEXT, build_named_registry())
    lines = policy.full_text.splitlines()
    heading_lines = {lines[index].strip() for index, _ in policy.headings}
    for clause in policy.clause_ids:
        first = next(index for index, c in policy.headings if c == clause)
        text = clause_text(policy, clause)
        assert text.startswith(lines[first].strip())
        assert text in policy.full_text
        headed = [l.strip() for l in text.splitlines() if l.strip() in heading_lines]
        assert headed == [lines[first].strip()]


def test_export_records_shape(tmp_path, aug, policy):
    out = tmp_path / "sft.jsonl"
    summary = export_sft(aug, policy, out)
    assert summary.n_records == len(aug)
    assert summary.n_full_policy_fallbacks == 0

    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [r["case_id"] for r in records] == sorted(c.case_id for c, _, _ in aug.triples)
    for record in records:
        assert set(record) == {
            "instruction",
            "policy_context",
            "case",
            "target",
            "case_id",
            "full_policy_fallback",
        }
        assert record["target"].rstrip().endswith(("COMPLIANT", "NONCOMPLIANT"))
        assert "Final Judgment:" in record["target"]
        # every context block is a verbatim slice of the policy
        for part in record["policy_context"].split("\n\n"):
            assert part in policy.full_text


def test_export_target_preserves_trace(tmp_path, aug, policy):
    out = tmp_path / "sft.jsonl"
    export_sft(aug, policy, out)
    records = {
        json.loads(l)["case_id"]: json.loads(l)
        for l in out.read_text(encoding="utf-8").splitlines()
    }
    _, verdict, prt = next(t for t in aug.triples if t[0].case_id == "t01")
    assert records["t01"]["target"] == f"{prt.prt_text}\nFinal Judgment: {verdict.value}"


def test_export_full_policy_fallback(tmp_path, aug, policy):
    from dataclasses import replace

    case, verdict, prt = aug.triples[0]
    unannotated = (replace(case, gold_clauses=frozenset()), verdict, prt)
    aug = replace(aug, triples=(unannotated,) + aug.triples[1:])
    out = tmp_path / "sft.jsonl"
    summary = export_sft(aug, policy, out)
    assert summary.n_full_policy_fallbacks == 1
    assert summary.flagged_case_ids == [case.case_id]
    records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    flagged = next(r for r in records if r["case_id"] == case.case_id)
    assert flagged["full_policy_fallback"]
    assert flagged["policy_context"] == policy.full_text


def test_export_rejects_test_split(tmp_path, aug, dataset, policy):
    from dataclasses import replace

    c01 = dataset.by_id("c01")
    _, verdict, prt = aug.triples[0]
    aug = replace(aug, triples=aug.triples + ((c01, c01.gold_verdict, prt),))
    with pytest.raises(SFTExportError):
        export_sft(aug, policy, tmp_path / "sft.jsonl")


def test_export_that_meets_a_test_case_last_writes_nothing(tmp_path, aug, dataset, policy):
    test_case = replace(dataset.by_id("c01"), case_id="zz")  # sorts after every train case
    _, verdict, prt = aug.triples[0]
    aug = replace(aug, triples=aug.triples + ((test_case, verdict, prt),))
    with pytest.raises(SFTExportError, match="case zz: test-split case"):
        export_sft(aug, policy, tmp_path / "export" / "sft.jsonl")
    assert list(tmp_path.glob("export/*")) == []


def test_export_holds_one_record_at_a_time(tmp_path, aug, policy):
    # About 1 MB of records: what the export holds follows one record, not the file.
    many = tuple(
        (replace(case, case_id=f"{case.case_id}-{i:03d}"), verdict,
         replace(prt, case_id=f"{case.case_id}-{i:03d}"))
        for i in range(200) for case, verdict, prt in aug.triples
    )
    out = tmp_path / "sft.jsonl"
    peak = traced_peak(lambda: export_sft(replace(aug, triples=many), policy, out))
    assert peak < 0.5 * out.stat().st_size


def test_split_train_val(tmp_path, aug, policy):
    # Records are written with ensure_ascii=False, so these characters reach every file raw.
    aug = replace(aug, triples=tuple(
        (case, verdict, replace(prt, prt_text=prt.prt_text.replace("\n", "\u2028\u2029\x85\n", 1)))
        for case, verdict, prt in aug.triples))
    out = tmp_path / "sft.jsonl"
    summary = export_sft(aug, policy, out, val_fraction=0.5, seed=3)
    assert summary.n_records - summary.n_val == 3 and summary.n_val == 3
    texts = [(tmp_path / f"sft{part}.jsonl").read_text(encoding="utf-8")
             for part in ("", ".train", ".val")]
    assert all("\u2028\u2029\x85" in text for text in texts)
    records, train, val = ([line + "\n" for line in text.split("\n") if line] for text in texts)
    assert (train, val) == split_train_val(records, 0.5, 3)
    assert len(train) == 3 and len(val) == 3
    train_ids = {json.loads(line)["case_id"] for line in train}
    val_ids = {json.loads(line)["case_id"] for line in val}
    assert train_ids.isdisjoint(val_ids)
    assert train_ids | val_ids == {c.case_id for c, _, _ in aug.triples}


def test_split_train_val_floors_the_val_count():
    train, val = split_train_val(list("abcde"), 0.3, seed=0)  # 1.5 val records: 1, not 2
    assert len(val) == 1 and len(train) == 4
    assert sorted(train + val) == list("abcde")


def test_split_train_val_fraction_bounds(tmp_path, aug, policy):
    for fraction in (1.0, -0.1):
        with pytest.raises(SFTExportError):
            export_sft(aug, policy, tmp_path / "sft.jsonl", val_fraction=fraction)
    assert list(tmp_path.glob("sft*")) == []
