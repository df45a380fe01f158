from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path
from typing import Optional

import pytest

from policytrace import records
from policytrace.assess import InstanceResult, RunManifest, Turn
from policytrace.clauses import _RegistryEntry, _RegistryFile
from policytrace.cli import Config
from policytrace.gateway import MockScriptEntry, ModelHandle, ModelResponse, _ProviderEntry
from policytrace.prtgen import PRTRecord
from policytrace.records import (JsonlSink, from_json, jsonl_line, read_records, to_json,
                                 write_atomic)


@dataclass
class _Case:
    case_id: str
    n: int = 0


@pytest.mark.parametrize("hint, named", [
    (tuple[str, ...], "tuple[str, ...]"), (set[str], "set[str]"), (Path, repr(Path)),
    (Optional[Path], repr(Path)), (list[tuple[str, str]], "tuple[str, str]"),
], ids=["tuple", "set", "path", "optional-path", "list-of-tuple"])
def test_a_field_of_a_type_json_cannot_hold_is_refused_by_name_not_left_out(hint, named):
    tagged = make_dataclass("Tagged", [("a", str), ("tags", hint, field(default=None))])
    message = f"field tags: JSON holds no {named}; mark it metadata={{'json': False}}"
    with pytest.raises(TypeError) as err:
        to_json(tagged("x"))
    assert str(err.value) == message
    with pytest.raises(TypeError) as err:
        from_json(tagged, {"a": "x", "tags": ["t1"]})
    assert str(err.value) == message


def test_a_marked_field_is_left_out_of_the_json_and_may_be_given():
    marked = make_dataclass("Marked", [
        ("a", str), ("where", Optional[Path], field(default=None, metadata={"json": False}))])
    assert to_json(marked("x", Path("p"))) == {"a": "x"}
    assert from_json(marked, {"a": "x"}, where=Path("p")) == marked("x", Path("p"))
    with pytest.raises(TypeError, match="^unknown key 'where'$"):
        from_json(marked, {"a": "x", "where": "p"})


def test_the_fields_left_out_of_every_record_in_use_are_the_six_marked_ones():
    in_use = [Config, RunManifest, InstanceResult, Turn, PRTRecord, ModelResponse, ModelHandle,
              _ProviderEntry, MockScriptEntry, _RegistryFile, _RegistryEntry]
    left_out = {f"{cls.__name__}.{f.name}" for cls in in_use for f in fields(cls)
                if f.name not in records._fields(cls)[1]}
    assert left_out == {"Config.base", "ModelResponse.cache_hit", "ModelHandle.provider",
                        "ModelHandle.tokenizer", "ModelHandle.cache_dir", "ModelHandle.retry"}
    assert left_out == {f"{cls.__name__}.{f.name}" for cls in in_use for f in fields(cls)
                        if f.metadata.get("json") is False}


def test_read_records_numbers_the_lines_and_refuses_a_bad_or_repeated_case(tmp_path):
    path = tmp_path / "records.jsonl"
    convert = lambda obj: from_json(_Case, obj)  # noqa: E731
    path.write_text('{"case_id": "a"}\n\n{"case_id": "b", "n": 2}\n{"case_id": "a"}\n',
                    encoding="utf-8")
    read = read_records(path, convert, ValueError, "case")
    assert [next(read), next(read)] == [(1, _Case("a")), (3, _Case("b", 2))]
    with pytest.raises(ValueError) as err:
        next(read)
    assert str(err.value) == f"{path}:4: duplicate case for case a"
    path.write_text('{"case_id": "c", "n": "1"}\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        list(read_records(path, convert, ValueError, "case"))
    assert str(err.value) == f"{path}:1: malformed record: n must be int, got '1'"


def test_write_atomic_writes_the_chunks_unchanged(tmp_path):
    path = tmp_path / "records.jsonl"
    write_atomic({path: iter(['{"a": "é\u2028"}\r\n', "", '{"b": 2}\n'])})
    assert path.read_bytes() == '{"a": "é\u2028"}\r\n{"b": 2}\n'.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_write_atomic_whose_chunks_fail_leaves_the_old_file(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"old": 1}\n')

    def chunks():
        yield '{"new": 1}\n' * 10_000
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_atomic({path: chunks()})
    assert path.read_bytes() == b'{"old": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_write_atomic_replaces_no_file_until_every_file_is_written(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    first.write_bytes(b"old a\n")

    def chunks():
        yield "new b\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_atomic({first: ["new a\n"], second: chunks()})
    assert first.read_bytes() == b"old a\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    write_atomic({first: ["new a\n"], second: ["new b\n"]})
    assert (first.read_text(), second.read_text()) == ("new a\n", "new b\n")


def test_jsonl_line_is_one_line_with_non_ascii_text_raw():
    assert jsonl_line({"a": "é\u2028", "b": [1, None]}) == '{"a": "é\u2028", "b": [1, null]}\n'


def test_a_jsonl_sink_changes_nothing_until_entered_then_cuts_a_torn_line_and_appends(tmp_path):
    path = tmp_path / "records.jsonl"
    torn = b'{"case_id": "a"}\n{"case_id": "b", "n": 2}\n{"case_id": "c", "n'
    path.write_bytes(torn)
    sink = JsonlSink(path)
    assert sink.resumes and path.read_bytes() == torn
    with sink:
        assert path.read_bytes() == torn[:torn.rindex(b"\n") + 1]
        read = read_records(path, lambda obj: from_json(_Case, obj), ValueError, "case")
        assert list(read) == [(1, _Case("a")), (2, _Case("b", 2))]
        sink.append(_Case("c", 3))
        assert path.read_bytes().endswith(b'{"case_id": "b", "n": 2}\n{"case_id": "c", "n": 3}\n')
    assert sink._fh.closed


@pytest.mark.parametrize("held", [None, b"", b'{"case_id": "a", "n'],
                         ids=["missing", "empty", "torn_only"])
def test_a_jsonl_sink_over_no_whole_line_does_not_resume_and_starts_the_file_afresh(tmp_path,
                                                                                     held):
    path = tmp_path / "records.jsonl"
    if held is not None:
        path.write_bytes(held)
    sink = JsonlSink(path)
    assert not sink.resumes and path.exists() is (held is not None)
    with sink:
        assert list(read_records(path, lambda obj: from_json(_Case, obj), ValueError, "case")) == []
        sink.append(_Case("a"))
    assert path.read_bytes() == b'{"case_id": "a", "n": 0}\n'
