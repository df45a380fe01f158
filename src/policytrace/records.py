"""JSON records: a file's one record (`read_record`), an enum member by value, a dataclass
from a JSON object and back (`from_json`, `to_json`), the lines and records of a JSON Lines
file and the one encoding of such a line (`jsonl_line`); a file name stem (`file_stem`); a
text's SHA-256 (`sha256_hex`, `hash_seed`); and the package's two writers. `write_atomic`
replaces a set of files whole: every whole file the package writes goes through it (`gen`,
`report` and `export-sft` each write their outputs and manifest in one call). `JsonlSink`
appends records to a file that a crash may have cut, as `assess.run_dataset` does with its
results. It imports nothing from the package, so every module may import it.
A record's JSON holds each field not marked `metadata={"json": False}`; a field of a type
JSON cannot hold (see `_spec`) is a TypeError naming it, never a field left out.

JSON Lines files (datasets, trace stores, results, SFT records) are read one line at
a time, so memory follows the longest record and not the file. A line ends at "\n"
alone (a "\r" before it is JSON whitespace): U+2028, U+2029 and U+0085 inside a
string, which writers using `ensure_ascii=False` leave raw, stay part of their record.
"""

import dataclasses
import json
import os
import re
from enum import Enum, EnumMeta
from functools import partial
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import (Any, Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union,
                    get_args, get_origin, get_type_hints)

_T = TypeVar("_T")
_MEMBERS: dict[type[Enum], dict] = {}
# class -> ((name, exact JSON types, reader, writer, required) of each field but those with
# `metadata={"json": False}`, in order; their names; (name, writer) of each writer)
_FIELDS: dict[type, tuple[list[tuple], list[str], list[tuple[str, Callable]]]] = {}


def enum_member(enum: type[_T], value: object) -> _T:
    """`enum(value)`, the same member or the same error, by one dict lookup
    for a value as written; each enum's table is built on first use."""
    try:
        return _MEMBERS[enum][value]
    except (KeyError, TypeError):  # another value, an unhashable one, or an enum not seen yet
        if enum not in _MEMBERS:
            _MEMBERS[enum] = {m.value: m for m in enum}
            return enum_member(enum, value)
        return enum(value)


def read_record(path: Path, cls: type[_T], what: str, error: type[ValueError],
                **given: object) -> _T:
    """Dataclass `cls` from the JSON object in the file at `path` and the fields in `given`
    (see `from_json`). Each refusal is an `error` naming the file: `<what> <path>: ` then the
    reading or JSON error, `not a JSON object`, `missing key '<k>'` or `malformed: <err>`, a
    string that UTF-8 cannot encode (a lone surrogate escape) among the last."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise error(f"{what} {path}: {err}") from err
    if not isinstance(obj, dict):
        raise error(f"{what} {path}: not a JSON object")
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")  # no UTF-8 output holds a surrogate
        return from_json(cls, obj, **given)
    except KeyError as err:
        raise error(f"{what} {path}: missing key {err}") from err
    except (TypeError, ValueError) as err:  # a key, type or value the schema refuses
        raise error(f"{what} {path}: malformed: {err}") from err


def sha256_hex(text: str) -> str:
    """The hex SHA-256 of `text`'s UTF-8 bytes: every content hash but a template's."""
    import hashlib  # here: `validate` hashes only a text two splits share, so loads no OpenSSL

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_seed(text: str) -> int:
    """The first 8 bytes of `text`'s SHA-256 as a big-endian int: a seed that is the same
    on every platform."""
    return int(sha256_hex(text)[:16], 16)


def file_stem(name: str) -> str:
    """`name` with each run of characters outside [A-Za-z0-9._-] as one "-": "org/m" is "org-m"."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


_DECODER = json.JSONDecoder()


def read_jsonl(path: Path, error: type[ValueError]) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line of a JSON Lines file, read one line at a
    time. A line ends at b"\n" alone: no newline translation. It is read as `json.loads`
    reads it: one `raw_decode` that consumes it whole, else `json.loads` itself. A file that
    cannot be read, or a line that is not UTF-8 or not JSON, is an `error` naming the file
    (and line)."""
    decode, lineno = _DECODER.raw_decode, 0
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.removesuffix(b"\n").decode("utf-8")
                try:
                    obj, end = decode(line)
                except ValueError:
                    end = -1
                if end != len(line):  # outer whitespace, a BOM, extra data or bad JSON
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                yield lineno, obj
    except OSError as err:  # missing or unreadable
        raise error(f"{path}: {err}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}:{lineno}: {err}") from err
    except ValueError as err:
        raise error(f"{path}:{lineno}: malformed record: {err}") from err


def read_records(path: Path, convert: Callable[[object], _T], error: type[ValueError],
                 noun: str) -> Iterator[tuple[int, _T]]:
    """(line number, `convert(value)`) of each record of a JSON Lines file, each
    record having its own `case_id`. A KeyError, TypeError or ValueError of `convert`
    is the `error` `<path>:<line>: malformed record: <err>`, and a second record of a
    case `<path>:<line>: duplicate <noun> for case <id>`."""
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, error):
        try:
            record = convert(obj)
        except (KeyError, TypeError, ValueError) as err:
            raise error(f"{path}:{lineno}: malformed record: {err}") from err
        if record.case_id in seen:
            raise error(f"{path}:{lineno}: duplicate {noun} for case {record.case_id}")
        seen.add(record.case_id)
        yield lineno, record


def jsonl_line(obj: object) -> str:
    """JSON value `obj` as one JSON Lines line, "\n" included: every line the package writes."""
    return json.dumps(obj, ensure_ascii=False) + "\n"


class JsonlSink:
    """An append-only JSON Lines file of records, of which a crash may have left the last
    line torn (without its "\n"). Making a sink changes nothing: `resumes` says whether the
    file holds a whole line. Entering it cuts a torn last line off and opens the file to
    append, and `append` writes each new record as one line and flushes it. The sink only
    writes: inside it, its caller reads the whole records back with `read_records`."""

    def __init__(self, path: Path) -> None:
        self.path, self._size, self._end = path, 0, 0
        if path.exists() and (size := path.stat().st_size):
            import mmap  # only a resume pays for the import

            with path.open("rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                self._size, self._end = size, mm.rfind(b"\n") + 1
        self.resumes = self._end > 0

    def __enter__(self) -> "JsonlSink":
        if self._end < self._size:
            os.truncate(self.path, self._end)
        self._fh = self.path.open("a", encoding="utf-8", newline="")
        return self

    def __exit__(self, *exc: object) -> None:
        self._fh.close()

    def append(self, record: object) -> None:
        """Write dataclass `record` (see `to_json`) as one line, and flush it."""
        self._fh.write(jsonl_line(to_json(record)))
        self._fh.flush()


def write_atomic(files: Mapping[Path, Iterable[str]]) -> None:
    """Write each file's strings, as UTF-8 with no newline translation, to its path.

    They go one at a time to a temp file beside the path, its directory made if missing; once
    every file is written, each temp file is renamed onto its path, in order. On any exception,
    raised by the strings too, the temp files are deleted and each path not yet renamed onto
    is left as it was. Each writer renames its own temp files, so concurrent writers never
    tear a file.
    """
    tmps = {path: path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp") for path in files}
    try:
        for path, chunks in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmps[path].open("w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _spec(name: str, hint: Any) -> tuple:
    """(exact JSON types, reader or None, writer or None) of field `name`, else a TypeError."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType) and len(args) == 2 and NoneType in args:
        inner = _spec(name, args[args[0] is NoneType])  # the reader and writer skip None
        return (*inner[0], NoneType), *inner[1:]
    if get_origin(hint) is list:
        inner = _spec(name, args[0])
        return ((list,), partial(_list_of, name, *inner[:2]),
                inner[2] and partial(_list_of, name, (), inner[2]))
    if hint in (str, int, float, bool, dict):
        return (int, float) if hint is float else (hint,), None, None
    if isinstance(hint, EnumMeta):
        return (tuple({type(m.value): 0 for m in hint}), partial(enum_member, hint),
                attrgetter("value"))
    if dataclasses.is_dataclass(hint):
        return (dict,), partial(from_json, hint), to_json
    raise TypeError(f"field {name}: JSON holds no {hint!r}; mark it metadata={{'json': False}}")


def _list_of(name: str, types: tuple, convert: Optional[Callable], values: list) -> list:
    if types and any(type(value) not in types for value in values):  # () checks nothing
        raise TypeError(f"{name} must be list of {' or '.join(t.__name__ for t in types)}, "
                        f"got {values!r}")
    return values if convert is None else [convert(value) for value in values]


def _fields(cls: type) -> tuple[list[tuple], list[str], list[tuple[str, Callable]]]:
    """`_FIELDS[cls]`, built on first use."""
    if cls not in _FIELDS:
        hints = get_type_hints(cls)
        fields = [(f.name, *_spec(f.name, hints[f.name]),
                   f.default is f.default_factory is dataclasses.MISSING)
                  for f in dataclasses.fields(cls) if f.metadata.get("json", True)]
        _FIELDS[cls] = fields, [f[0] for f in fields], [(f[0], f[3]) for f in fields if f[3]]
    return _FIELDS[cls]


def from_json(cls: type[_T], obj: object, **given: object) -> _T:
    """Dataclass `cls` from JSON object `obj` and the fields in `given`. Each key must
    name a JSON field of `cls` and hold exactly such a value (`true` is no `int`, an
    `int` is a `float`), else it is a TypeError `<field> must be <types>, got <value!r>`;
    a missing required field, a KeyError."""
    if type(obj) is not dict:
        raise TypeError(f"{cls.__name__} must be dict, got {obj!r}")
    kwargs = {}
    for name, types, convert, _, required in (_FIELDS.get(cls) or _fields(cls))[0]:
        if name not in obj or name in given:  # a given field is never read
            if required and name not in given:
                raise KeyError(name)
            continue
        value = obj[name]
        if type(value) not in types:
            raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in types)}, "
                            f"got {value!r}")
        kwargs[name] = value if convert is None or value is None else convert(value)
    if len(kwargs) != len(obj):
        raise TypeError(f"unknown key {next(k for k in obj if k not in kwargs)!r}")
    return cls(**kwargs, **given)


def to_json(record: object) -> dict:
    """The JSON object that `from_json` reads dataclass `record` back from: its JSON fields in
    order, an enum member as its value, nested records likewise. What needs no conversion is
    the record's own object, not a copy: a list of strings, and the attribute dict itself of a
    record whose attributes are all JSON fields that need none (for serialising, not keeping)."""
    _, names, converted = _FIELDS.get(type(record)) or _fields(type(record))
    obj = vars(record)  # a dataclass's __init__ sets its fields in declared order
    if len(obj) != len(names):  # attributes that are not JSON fields
        obj = {name: obj[name] for name in names}
    elif converted:
        obj = obj.copy()
    for name, write in converted:
        if (value := obj[name]) is not None:
            obj[name] = write(value)
    return obj
