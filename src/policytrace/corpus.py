"""Policy and case dataset loading, validation, and persistence.

Datasets are JSON Lines, one record per line, read by `records.read_records`:
{"case_id": str, "case_text": str, "verdict": "COMPLIANT"|"NONCOMPLIANT",
 "clauses": [str], "split": "train"|"test"}
Split hygiene (no train/test overlap by id or by exact text hash) is enforced
at load and re-checkable on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Optional

from .clauses import ClauseId, ClauseRegistry, Scheme, heading_mention, normalize
from .records import enum_member, read_records, sha256_hex


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


@dataclass(frozen=True)
class Policy:
    policy_id: str
    title: str
    full_text: str
    # (0-based line index, clause) of every clause heading, in document order.
    headings: tuple[tuple[int, ClauseId], ...]

    def __post_init__(self) -> None:
        if not self.full_text:
            raise CorpusError("empty_policy: policy text must be non-empty")

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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise CorpusError(f"{path}: {err}") from err
    if not text.strip():
        raise CorpusError(f"empty_policy: {path}")

    return Policy(
        policy_id=policy_id or registry.policy_id,
        title=title or (policy_id or registry.policy_id),
        full_text=text,
        headings=_clause_headings(text, registry, path),
    )


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
            report.shared_text_hashes.append((sha256_hex(r.case_text), train_id, r.case_id))
    return report


def _record_from_obj(
    obj: dict, registry: ClauseRegistry, resolved: dict[str | tuple[str, ...], frozenset[ClauseId]]
) -> CaseRecord:
    """One case record; `resolved` keeps the gold clause ids of each clause list
    and each clause string seen so far in the load."""
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
    try:
        gold_verdict = enum_member(Verdict, verdict)
    except ValueError:  # another spelling; `obj["verdict"]` keeps a missing key a KeyError
        gold_verdict = Verdict.parse(obj["verdict"])
    return CaseRecord(case_id, case_text, gold_verdict, gold, enum_member(Split, obj["split"]))


def load_dataset(path: str | Path, registry: ClauseRegistry) -> Dataset:
    """Load and validate a JSON Lines case record file."""
    resolved: dict[str | tuple[str, ...], frozenset[ClauseId]] = {}
    records = read_records(Path(path), lambda obj: _record_from_obj(obj, registry, resolved),
                           CorpusError, "record")
    dataset = Dataset([record for _, record in records])
    report = split_disjointness_check(dataset)
    if not report.ok:
        raise CorpusError(
            f"train/test overlap: ids={report.shared_case_ids} "
            f"texts (hash, train id, test id)={report.shared_text_hashes}"
        )
    return dataset


def split_counts(dataset: Dataset) -> dict[str, int]:
    return {"train": len(dataset.train), "test": len(dataset.test)}
