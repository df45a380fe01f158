"""Policy and case dataset loading, validation, and persistence.

Datasets are JSON Lines, one record per line:
{"case_id": str, "case_text": str, "verdict": "COMPLIANT"|"NONCOMPLIANT",
 "clauses": [str], "split": "train"|"test"}
`read_jsonl` reads them, and the trace store and results files too. A line
ends at "\n" alone (a "\r" before it is JSON whitespace): U+2028, U+2029 and
U+0085 inside a string, which writers using `ensure_ascii=False` leave raw,
stay part of their record.
Split hygiene (no train/test overlap by id or by exact text hash) is enforced
at load and re-checkable on demand.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, TypeVar

from .clauses import ClauseId, ClauseRegistry, Scheme, heading_mention, normalize
from .tokens import estimate_tokens


class CorpusError(ValueError):
    pass


class Verdict(str, Enum):
    COMPLIANT = "COMPLIANT"
    NONCOMPLIANT = "NONCOMPLIANT"

    @classmethod
    def parse(cls, label: str) -> "Verdict":
        key = label.strip().upper().replace("-", "").replace(" ", "").replace("_", "")
        if key == "COMPLIANT":
            return cls.COMPLIANT
        if key == "NONCOMPLIANT":
            return cls.NONCOMPLIANT
        # XSTest-style good/bad labels map at ingestion.
        if key == "GOOD":
            return cls.COMPLIANT
        if key == "BAD":
            return cls.NONCOMPLIANT
        raise CorpusError(f"unknown verdict label: {label!r}")


# NONCOMPLIANT may also be spelled NON-COMPLIANT or NON COMPLIANT; the optional
# prefix is tried first, so COMPLIANT is never captured out of the longer token.
_VERDICT_TOKEN_RE = re.compile(r"\b(NON[-\s]?)?COMPLIANT\b", re.IGNORECASE)


def verdict_tokens(text: str) -> list[tuple[int, Verdict]]:
    """(start offset, verdict) of every verdict token in free model text."""
    return [
        (m.start(), Verdict.NONCOMPLIANT if m.group(1) else Verdict.COMPLIANT)
        for m in _VERDICT_TOKEN_RE.finditer(text)
    ]


class Split(str, Enum):
    TRAIN = "train"
    TEST = "test"


_Label = TypeVar("_Label", Verdict, Split)
_MEMBERS = {e: {m.value: m for m in e} for e in (Verdict, Split)}


def enum_member(enum: type[_Label], value: object) -> _Label:
    """`enum(value)`, the same member or the same error, by one dict lookup
    for a label as written."""
    try:
        return _MEMBERS[enum][value]
    except (KeyError, TypeError):  # another value, or an unhashable one
        return enum(value)


@dataclass(frozen=True)
class Policy:
    policy_id: str
    title: str
    full_text: str
    # (0-based line index, clause) of every clause heading, in document order.
    headings: tuple[tuple[int, ClauseId], ...]
    approx_token_count: int

    def __post_init__(self) -> None:
        if not self.full_text:
            raise CorpusError("empty_policy: policy text must be non-empty")
        if self.approx_token_count < 0:
            raise CorpusError("approx_token_count must be non-negative")

    @property
    def clause_ids(self) -> tuple[ClauseId, ...]:
        """Clauses in document order of first heading."""
        return tuple(dict.fromkeys(clause for _, clause in self.headings))

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """`full_text` split into lines, once per policy."""
        return tuple(self.full_text.splitlines())


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    case_text: str
    gold_verdict: Verdict
    gold_clauses: frozenset[ClauseId]
    split: Split

    def __post_init__(self) -> None:
        if not self.case_id:
            raise CorpusError("case_id must be non-empty")
        if not self.case_text:
            raise CorpusError(f"case {self.case_id}: case_text must be non-empty")


@dataclass(frozen=True)
class Dataset:
    """An immutable set of case records; a list passed in is stored as a tuple."""

    records: tuple[CaseRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @cached_property
    def train(self) -> tuple[CaseRecord, ...]:
        return tuple(r for r in self.records if r.split is Split.TRAIN)

    @cached_property
    def test(self) -> tuple[CaseRecord, ...]:
        return tuple(r for r in self.records if r.split is Split.TEST)

    @cached_property
    def _by_id(self) -> dict[str, CaseRecord]:
        return {r.case_id: r for r in reversed(self.records)}  # the first record wins

    def by_id(self, case_id: str) -> CaseRecord:
        return self._by_id[case_id]


def _clause_headings(
    text: str, registry: ClauseRegistry, path: Path
) -> tuple[tuple[int, ClauseId], ...]:
    """(0-based line index, clause) of every clause heading, document order.

    An article or section heading is a line that starts with one mention
    (`heading_mention`: "Article 3", "§ 164.502", "164.502(a)", ...) that
    `resolve` tries in full, then shorn of trailing groups; an unknown one is
    a path:lineno error. A named section's heading is a line that is its title.
    """
    scheme = _registry_scheme(registry)
    headings: list[tuple[int, ClauseId]] = []
    for index, line in enumerate(text.splitlines()):
        line = line.strip()
        if scheme is Scheme.NAMED:
            clause = registry.resolve(line)
            if clause is not None:
                headings.append((index, clause))
            continue
        mention = heading_mention(line, scheme)
        if mention is None:
            continue
        clause = registry.resolve(mention)
        if clause is None:
            raise CorpusError(f"{path}:{index + 1}: clause marker not in registry: {mention!r}")
        headings.append((index, clause))
    return tuple(headings)


def _registry_scheme(registry: ClauseRegistry) -> Scheme:
    schemes = {c.scheme for c in registry.canonicals()}
    if len(schemes) != 1:
        raise CorpusError(f"registry mixes schemes: {sorted(s.value for s in schemes)}")
    return next(iter(schemes))


def load_policy(
    path: str | Path,
    registry: ClauseRegistry,
    policy_id: Optional[str] = None,
    title: str = "",
) -> Policy:
    """Load a UTF-8 policy text and resolve its clause markers.

    Clause ids come out in document order of first appearance; an unknown
    marker is an error reported with its line number.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"policy file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        raise CorpusError(f"empty_policy: {path}")

    return Policy(
        policy_id=policy_id or registry.policy_id,
        title=title or (policy_id or registry.policy_id),
        full_text=text,
        headings=_clause_headings(text, registry, path),
        approx_token_count=estimate_tokens(text),
    )


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class DisjointnessReport:
    shared_case_ids: list[str] = field(default_factory=list)
    shared_text_hashes: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.shared_case_ids and not self.shared_text_hashes


def split_disjointness_check(dataset: Dataset) -> DisjointnessReport:
    """Report train/test collisions by case_id and by exact case_text hash."""
    report = DisjointnessReport()
    train_ids = {r.case_id for r in dataset.train}
    test_ids = {r.case_id for r in dataset.test}
    report.shared_case_ids = sorted(train_ids & test_ids)

    # Equal texts have equal hashes: compare the texts, hash only the shared ones.
    train_texts = {r.case_text: r.case_id for r in dataset.train}
    for r in dataset.test:
        train_id = train_texts.get(r.case_text)
        if train_id is not None:
            report.shared_text_hashes.append((text_hash(r.case_text), train_id, r.case_id))
    return report


def _record_from_obj(
    obj: dict, registry: ClauseRegistry, resolved: dict[str | tuple[str, ...], frozenset[ClauseId]]
) -> CaseRecord:
    """One case record; `resolved` keeps the gold clause ids of each clause list
    and each clause string seen so far in the load."""
    try:
        if not isinstance(obj, dict):
            raise CorpusError(f"not a JSON object: {obj!r}")
        verdict, clauses = obj.get("verdict", ""), obj.get("clauses", [])
        if not isinstance(verdict, str) or not isinstance(clauses, list):
            raise CorpusError("verdict must be a string and clauses a list")
        key = tuple(clauses)
        try:
            gold = resolved[key]
        except (KeyError, TypeError):  # a list not seen yet, or one holding a list
            gold = frozenset()
            for raw in clauses:
                if not isinstance(raw, str):
                    raise CorpusError(f"clause entry is not a string: {raw!r}")
                if raw not in resolved:
                    ids, unknowns = normalize(raw, registry)
                    if unknowns:
                        raise CorpusError(f"unknown clause {unknowns[0]!r}")
                    resolved[raw] = frozenset(ids)
                gold |= resolved[raw]
            resolved[key] = gold
        case_id, case_text = obj["case_id"], obj["case_text"]
        if not isinstance(case_id, str):
            raise CorpusError("case_id must be a string")
        if not isinstance(case_text, str):
            raise CorpusError("case_text must be a string")
        case_text.encode("utf-8")  # raises on a lone surrogate ("\ud800"), which no file can hold
        # not `verdict` but `obj["verdict"]`: a missing key stays a KeyError
        gold_verdict = _MEMBERS[Verdict].get(verdict) or Verdict.parse(obj["verdict"])
        return CaseRecord(case_id, case_text, gold_verdict, gold, enum_member(Split, obj["split"]))
    except (KeyError, ValueError) as err:
        raise CorpusError(f"malformed record: {err}") from err


def jsonl_lines(path: Path) -> list[str]:
    """The lines of a JSON Lines file, split at "\n" alone: no newline translation."""
    return path.read_bytes().decode("utf-8").split("\n")


_DECODER = json.JSONDecoder()


def read_jsonl(path: Path, error: type[ValueError]) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line of a JSON Lines file.

    A line is read as `json.loads` reads it: one `raw_decode` that consumes it
    whole, else `json.loads` itself. Errors name the file (and line) as `error`s.
    """
    try:
        lines = jsonl_lines(path)
    except (OSError, ValueError) as err:  # missing, unreadable or not UTF-8
        raise error(f"{path}: {err}") from err
    decode = _DECODER.raw_decode
    for lineno, line in enumerate(lines, start=1):
        try:
            obj, end = decode(line)
        except ValueError:
            end = -1
        if end != len(line):  # leading or trailing whitespace, a BOM, extra data or bad JSON
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as err:
                raise error(f"{path}:{lineno}: malformed record: {err}") from err
        yield lineno, obj


def check_types(obj: dict, types: dict[str, tuple[type, ...]]) -> None:
    """A TypeError unless each key of `types` that `obj` holds has one of its
    types. The match is exact, so JSON's `true` is not taken for an integer."""
    for key, allowed in types.items():
        if key in obj and type(obj[key]) not in allowed:
            names = " or ".join(t.__name__ for t in allowed)
            raise TypeError(f"{key} must be {names}, got {obj[key]!r}")


def read_object(path: Path, what: str, error: type[ValueError]) -> dict:
    """The JSON object in the file at `path`; anything else is an `error` naming the file."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise error(f"{what} {path}: {err}") from err
    if not isinstance(obj, dict):
        raise error(f"{what} {path}: not a JSON object")
    return obj


def load_dataset(path: str | Path, registry: ClauseRegistry) -> Dataset:
    """Load and validate a JSON Lines case record file."""
    path = Path(path)
    records: list[CaseRecord] = []
    seen_ids: set[str] = set()
    resolved: dict[str | tuple[str, ...], frozenset[ClauseId]] = {}
    for lineno, obj in read_jsonl(path, CorpusError):
        try:
            record = _record_from_obj(obj, registry, resolved)
        except CorpusError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from err
        if record.case_id in seen_ids:
            raise CorpusError(f"{path}:{lineno}: duplicate_id: {record.case_id!r}")
        seen_ids.add(record.case_id)
        records.append(record)

    dataset = Dataset(tuple(records))
    report = split_disjointness_check(dataset)
    if not report.ok:
        raise CorpusError(
            f"train/test overlap: ids={report.shared_case_ids} "
            f"texts (hash, train id, test id)={report.shared_text_hashes}"
        )
    return dataset


def split_counts(dataset: Dataset) -> dict[str, int]:
    return {"train": len(dataset.train), "test": len(dataset.test)}
