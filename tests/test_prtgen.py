import pytest

from mock_corpus import COMPLIANT_TRACE, NONCOMPLIANT_TRACE
from policytrace.corpus import CaseRecord, Split, Verdict
from policytrace.gateway import MockScriptEntry, UnmatchedPromptError, mock_provider
from policytrace.prtgen import (
    AugmentedDataset,
    PRTError,
    PRTRecord,
    count_sentences,
    count_words,
    generate_augmented_dataset,
    generate_prt,
    load_prt_store,
    prt_stats,
    validate_prt,
    write_prt_store,
)

C = Verdict.COMPLIANT
N = Verdict.NONCOMPLIANT

# (trace text, gold verdict, expected failure reason or None)
VALIDATION_FIXTURES = [
    (COMPLIANT_TRACE, C, None),
    (NONCOMPLIANT_TRACE, N, None),
    # gold flips: stated verdict disagrees
    (COMPLIANT_TRACE, N, "verdict_mismatch"),
    (NONCOMPLIANT_TRACE, C, "verdict_mismatch"),
    # structure failures
    ("free prose with no numbering at all", C, "format"),
    ("1. Only one enumerated line, COMPLIANT.", C, "format"),
    ("", C, "format"),
    ("1) wrong marker style\n2) still wrong, COMPLIANT", C, "format"),
    # final line verdict problems
    ("1. Some reasoning.\n2. More reasoning without a conclusion.", C, "missing_verdict"),
    ("1. Point.\n2. The case is COMPLIANT, not NONCOMPLIANT.", C, "ambiguous"),
    ("1. Point.\n2. COMPLIANT or NONCOMPLIANT, hard to say.", N, "ambiguous"),
    # hyphen/space variants normalize before checking
    ("1. Point.\n2. Therefore the case is NON-COMPLIANT.", N, None),
    ("1. Point.\n2. Therefore the case is NON COMPLIANT.", N, None),
    ("1. Point.\n2. Therefore the case is NON-COMPLIANT.", C, "verdict_mismatch"),
    # NONCOMPLIANT must not be read as containing COMPLIANT
    ("1. Point.\n2. Verdict: NONCOMPLIANT.", N, None),
    ("1. Point.\n2. Verdict: NONCOMPLIANT.", C, "verdict_mismatch"),
    # verdict in a non-final line does not count
    ("1. The case is COMPLIANT so far.\n2. But the record ends abruptly.", C, "missing_verdict"),
    # extra prose after the enumeration: final enumerated line still decides
    (COMPLIANT_TRACE + "\nAppendix: citations omitted.", C, None),
    # lowercase token still detected (word boundary, case-insensitive)
    ("1. Point.\n2. Therefore the case is compliant.", C, None),
    ("1. Point.\n2. Therefore the case is noncompliant.", C, "verdict_mismatch"),
]


@pytest.mark.parametrize("text,gold,expected", VALIDATION_FIXTURES)
def test_validate_prt_fixture(text, gold, expected):
    failure = validate_prt(text, gold)
    if expected is None:
        assert failure is None
    else:
        assert failure is not None and failure.reason == expected


def test_count_words():
    assert count_words("one two  three\nfour") == 4
    assert count_words("") == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("One sentence.", 1),
        ("Two here. And two!", 2),
        ("1. Enumerated without terminal punctuation\n2. Second line.", 2),
        ("1. Two in one line. Really.\n2. One more.", 3),
        ("", 0),
        ("No terminal punctuation at all", 1),
    ],
)
def test_count_sentences(text, expected):
    assert count_sentences(text) == expected


def test_generate_prt_valid(dataset, policy, expert_handle):
    case = dataset.by_id("t01")
    record = generate_prt(case, policy, expert_handle)
    assert record.case_id == "t01"
    assert record.echoed_verdict is C
    assert record.word_count == count_words(COMPLIANT_TRACE)
    assert record.sentence_count == count_sentences(COMPLIANT_TRACE)


def test_generate_prt_rejects_test_split(dataset, policy, expert_handle):
    with pytest.raises(PRTError):
        generate_prt(dataset.by_id("c01"), policy, expert_handle)


def test_generate_prt_retry_then_quarantine(dataset, policy, tmp_path):
    # Expert always states COMPLIANT; a NONCOMPLIANT gold case can never pass.
    # With a cache the retry still reaches the model, not the cached reply.
    for cache_dir in (None, tmp_path / "cache"):
        stubborn = mock_provider({"### OUTPUT:": COMPLIANT_TRACE}, cache_dir=cache_dir)
        with pytest.raises(PRTError) as err:
            generate_prt(dataset.by_id("t02"), policy, stubborn)
        assert "verdict_mismatch" in str(err.value)
        assert stubborn.provider.call_count == 2  # one retry before giving up


@pytest.mark.parametrize("concurrency", [1, 4])
def test_generate_augmented_dataset_quarantines(dataset, policy, concurrency):
    stubborn = mock_provider({"### OUTPUT:": COMPLIANT_TRACE})
    aug, quarantine = generate_augmented_dataset(dataset, policy, stubborn, concurrency)
    assert [c.case_id for c, _, _ in aug.triples] == ["t01", "t03", "t05"]
    assert [case_id for case_id, _ in quarantine] == ["t02", "t04", "t06"]
    assert all(err.reason == "verdict_mismatch" for _, err in quarantine)


def test_quarantined_errors_hold_no_traceback(dataset, policy):
    # A traceback's frames would keep each quarantined case's prompt alive.
    stubborn = mock_provider({"### OUTPUT:": COMPLIANT_TRACE})
    _, quarantine = generate_augmented_dataset(dataset, policy, stubborn)
    assert quarantine and all(err.__traceback__ is None for _, err in quarantine)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_full_generation_order(dataset, policy, expert_handle, concurrency):
    aug, quarantine = generate_augmented_dataset(dataset, policy, expert_handle, concurrency)
    assert quarantine == []
    assert [c.case_id for c, _, _ in aug.triples] == ["t01", "t02", "t03", "t04", "t05", "t06"]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_generate_augmented_dataset_raises_other_errors(dataset, policy, concurrency):
    silent = mock_provider({"no prompt contains this": COMPLIANT_TRACE})
    with pytest.raises(UnmatchedPromptError):
        generate_augmented_dataset(dataset, policy, silent, concurrency)
    if concurrency == 1:  # the first error ends the run: no re-ask, no next case
        assert silent.provider.call_count == 1


def test_prt_stats_population_sigma():
    # Construct records directly; {100, 200} word counts give sigma exactly 50.
    from policytrace.prtgen import PRTRecord

    def rec(case_id, words, sents):
        return PRTRecord(
            case_id=case_id,
            expert_model="m",
            prt_text="x",
            echoed_verdict=C,
            word_count=words,
            sentence_count=sents,
            prompt_hash="h",
            created_at="now",
        )

    stats = prt_stats([rec("a", 100, 4), rec("b", 200, 6)])
    assert stats.mu_word == 150.0
    assert stats.sigma_word == 50.0
    assert stats.mu_sent == 5.0
    assert stats.sigma_sent == 1.0
    assert stats.n == 2


def test_prt_stats_empty_errors():
    with pytest.raises(PRTError):
        prt_stats([])


def test_store_round_trip(tmp_path, dataset, policy, expert_handle):
    from dataclasses import replace

    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    # The store is written with ensure_ascii=False, so these characters reach the file raw.
    case, verdict, prt = aug.triples[0]
    odd = replace(prt, prt_text=prt.prt_text.replace("\n", "\u2028\u2029\x85\n", 1))
    aug = replace(aug, triples=((case, verdict, odd),) + aug.triples[1:])
    path = tmp_path / "store.jsonl"
    write_prt_store(aug, path)
    assert "\u2028\u2029\x85" in path.read_text(encoding="utf-8")
    loaded = load_prt_store(path, dataset)
    assert loaded.triples == aug.triples
    assert loaded.content_hash == aug.content_hash


def test_store_line_golden(tmp_path):
    # Pins a trace-store line's bytes: the record's fields in declared order, the verdict
    # by its value, non-ASCII text raw.
    case = CaseRecord("caso-ñ", "Un caso.", C, frozenset(), Split.TRAIN)
    prt = PRTRecord("caso-ñ", "mock-expert", "1. Análisis ✓\n2. Final: COMPLIANT", C, 6, 2,
                    "ab" * 32, "2026-01-01T00:00:00+00:00")
    path = tmp_path / "store.jsonl"
    write_prt_store(AugmentedDataset(((case, C, prt),)), path)
    assert path.read_text(encoding="utf-8") == (
        '{"case_id": "caso-ñ", "expert_model": "mock-expert", "prt_text": "1. Análisis ✓\\n2. '
        'Final: COMPLIANT", "echoed_verdict": "COMPLIANT", "word_count": 6, "sentence_count": 2, '
        f'"prompt_hash": "{"ab" * 32}", "created_at": "2026-01-01T00:00:00+00:00"}}\n'
    )


def test_store_rejects_tampered_trace(tmp_path, dataset, policy, expert_handle):
    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    path = tmp_path / "store.jsonl"
    write_prt_store(aug, path)
    tampered = path.read_text(encoding="utf-8").replace(
        "is NONCOMPLIANT with respect", "is COMPLIANT with respect"
    )
    path.write_text(tampered, encoding="utf-8")
    with pytest.raises(PRTError):
        load_prt_store(path, dataset)


def test_store_rejects_mixed_experts(tmp_path, dataset, policy, expert_handle):
    import json

    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    path = tmp_path / "store.jsonl"
    write_prt_store(aug, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    obj["expert_model"] = "another-expert"
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PRTError) as err:
        load_prt_store(path, dataset)
    assert "expert" in str(err.value)


def test_store_rejects_a_test_split_case(tmp_path, dataset, policy, expert_handle):
    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    path = tmp_path / "store.jsonl"
    write_prt_store(aug, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"case_id": "t01"', '"case_id": "c03"')  # both COMPLIANT
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PRTError) as err:
        load_prt_store(path, dataset)
    assert str(err.value) == f"{path}:1: case c03 is not in the train split"


def test_store_rejects_duplicate_case(tmp_path, dataset, policy, expert_handle):
    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    path = tmp_path / "store.jsonl"
    write_prt_store(aug, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    with pytest.raises(PRTError) as err:
        load_prt_store(path, dataset)
    assert str(err.value) == f"{path}:{len(lines) + 1}: duplicate trace for case t02"


def test_augmented_dataset_is_a_value(dataset, policy, expert_handle):
    from dataclasses import FrozenInstanceError

    from policytrace.prtgen import AugmentedDataset

    aug, _ = generate_augmented_dataset(dataset, policy, expert_handle)
    with pytest.raises(FrozenInstanceError):
        aug.triples = ()
    with pytest.raises(AttributeError):
        aug.triples.append(aug.triples[0])
    with pytest.raises(FrozenInstanceError):
        aug.triples[0][2].prt_text = "1. a\n2. COMPLIANT"

    rebuilt = AugmentedDataset(list(aug.triples))
    assert isinstance(rebuilt.triples, tuple)
    assert rebuilt == aug
    assert rebuilt.content_hash == aug.content_hash
    assert dict(rebuilt.index) == {case.case_id: i for i, (case, _, _) in enumerate(aug.triples)}
    with pytest.raises(TypeError):
        rebuilt.index["t01"] = 5
