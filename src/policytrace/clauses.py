"""Clause syntax, owned here alone: one grammar reads clause numbers in policy
headings, case records and model citations. Also canonical ids and extraction.

Schemes: numbered articles ("Article 5"), dotted sections ("Section 164.512(a)",
"§ 164.502", a bare "164.502") and named sections matched by title. A number is
a whole token; "Article 1,3,4" or "Articles 5 and 6" expand to one id each.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Optional

from .gateway import ASSESS_PROFILE, ModelHandle, ask_twice
from .prompts import TemplateId, render
from .records import read_record, to_json, write_atomic


class Scheme(str, Enum):
    ARTICLE = "article"
    SECTION = "section"
    NAMED = "named"


@dataclass(frozen=True, order=True)
class ClauseId:
    canonical: str
    scheme: Scheme

    def __str__(self) -> str:
        return self.canonical


class RegistryError(ValueError):
    pass


@dataclass
class _RegistryEntry:  # one entry of a registry file's "clauses" list, and of a ClauseRegistry
    canonical: str
    scheme: Scheme
    title: str = ""
    aliases: list[str] = field(default_factory=list)


@dataclass
class _RegistryFile:
    policy_id: str
    clauses: list[_RegistryEntry]


_PUNCT_TABLE = str.maketrans("()", "  ", string.punctuation.replace("(", "").replace(")", ""))


def _title_key(s: str) -> str:
    """Case-insensitive, punctuation-stripped, single-spaced lookup key.
    Parentheses become spaces, so "Article 5(1)" never keys as "Article 51"."""
    return " ".join(s.translate(_PUNCT_TABLE).lower().split())


def _numbered(prefix: str, number: str) -> tuple[re.Pattern, re.Pattern]:
    """(mention, item) patterns. An item is a number and all its "(…)" groups as
    a whole token: no digit or "." before it, no letter, digit or "_" after it."""
    group = r"\([a-z0-9]+\)"
    item = rf"(?<![\d.]){number}(?:{group})*(?!\w|{group})"
    mention = rf"{prefix}({item}(?:\s*(?:,|and|&)\s*{item})*)"
    return re.compile(mention, re.IGNORECASE), re.compile(item, re.IGNORECASE)


# scheme -> (mention, item, label), articles first: "Article 1,3,4", "Articles 5 and 6",
# "Article5(1)(f)"; "Section 164.512(a)", "164.502(b)", "§ 164.508", "Sections 164.502, 164.506"
_NUMBERED = {
    Scheme.ARTICLE: (*_numbered(r"\barticles?\s*", r"\d+"), "Article"),
    Scheme.SECTION: (*_numbered(r"(?:\bsections?\s*|§\s*)?", r"\d{3}\.\d{3}"), "Section"),
}
_TRAILING_GROUP_RE = re.compile(r"\s*\([^()]*\)\s*$")


@dataclass
class ClauseRegistry:
    """Maps canonical clause ids to their entries (title and known alias spellings), and
    the `_title_key` of each alias to its clause: the one table every lookup reads."""

    policy_id: str
    entries: dict[ClauseId, _RegistryEntry] = field(default_factory=dict)
    _alias_index: dict[str, ClauseId] = field(default_factory=dict, repr=False)

    def add(self, clause: ClauseId, title: str = "", aliases: Optional[list[str]] = None) -> None:
        if clause in self.entries:  # else its old aliases would stay in the index
            raise RegistryError(f"clause {clause.canonical!r} listed twice")
        all_aliases = set(aliases or [])
        all_aliases.add(clause.canonical)
        if clause.scheme is Scheme.NAMED and title:
            all_aliases.add(title)
        keys = {_title_key(alias): alias for alias in all_aliases}
        for key, alias in keys.items():
            if not key:  # it would key every blank line
                raise RegistryError(f"alias {alias!r} has no letter or digit")
            existing = self._alias_index.get(key)
            if existing is not None and existing != clause:
                raise RegistryError(f"alias {alias!r} maps to both {existing.canonical!r} "
                                    f"({existing.scheme.value}) and {clause.canonical!r} "
                                    f"({clause.scheme.value})")
        self.entries[clause] = _RegistryEntry(clause.canonical, clause.scheme, title,
                                              sorted(all_aliases))
        self._alias_index.update(dict.fromkeys(keys, clause))
        # derived from the entries: rebuild on next use
        self.__dict__.pop("_numbered_memo", None)
        self.__dict__.pop("masterlist", None)

    def resolve(self, mention: str, key: Optional[str] = None) -> Optional[ClauseId]:
        """The mention in full, else with trailing "(…)" groups stripped one at
        a time: "Article 5(1)(f)" names "Article 5(1)", else "Article 5".
        `key` is the mention's `_title_key`, for a caller that has it already."""
        if key is None:
            key = _title_key(mention)
        while True:
            clause = self._alias_index.get(key)
            if clause is not None:
                return clause
            if not mention.rstrip().endswith(")"):  # no trailing group to strip
                return None
            mention, stripped = _TRAILING_GROUP_RE.subn("", mention)
            if not stripped:
                return None
            key = _title_key(mention)

    @cached_property
    def _numbered_memo(self) -> dict[str, Optional[ClauseId]]:
        """`resolve` of each numbered mention seen ("Article 5(1)"). It grows with
        the clause numbers cited, not with the volume of text. Threads may share
        it: a race only repeats a lookup."""
        return {}

    def _resolve_numbered(self, mention: str) -> Optional[ClauseId]:
        memo = self._numbered_memo
        if mention not in memo:
            memo[mention] = self.resolve(mention)
        return memo[mention]

    def canonicals(self) -> list[ClauseId]:
        return list(self.entries)

    @cached_property
    def masterlist(self) -> str:
        """The canonical ids, comma-joined, as the clause-extraction prompt lists them."""
        return ", ".join(c.canonical for c in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def load_registry(path: str | Path) -> ClauseRegistry:
    """Load a registry sidecar file, a `_RegistryFile` record."""
    path = Path(path)
    registry_file = read_record(path, _RegistryFile, "registry", RegistryError)
    registry = ClauseRegistry(policy_id=registry_file.policy_id)
    try:
        for entry in registry_file.clauses:
            registry.add(ClauseId(entry.canonical, entry.scheme), entry.title, entry.aliases)
    except RegistryError as err:
        raise RegistryError(f"registry {path}: malformed: {err}") from err
    return registry


def save_registry(registry: ClauseRegistry, path: str | Path) -> None:
    payload = to_json(_RegistryFile(registry.policy_id, list(registry.entries.values())))
    write_atomic({Path(path): [json.dumps(payload, indent=2) + "\n"]})


def _expand_numbered_mentions(text: str) -> tuple[list[str], str]:
    """Expand article/section mentions; return (mentions, text with them removed).

    Articles are found and blanked first, so the section scan never reads them.
    Every section item holds a ".", so a text without one skips that scan.
    """
    mentions: list[str] = []
    for scheme, (pattern, item_re, label) in _NUMBERED.items():
        if scheme is Scheme.SECTION and "." not in text:
            continue

        def blank(m: re.Match) -> str:
            items = m.group(1)
            if items.isdecimal():  # one plain number: `\d` matches exactly the decimal digits
                mentions.append(f"{label} {items}")
            else:
                mentions.extend(f"{label} {item}" for item in item_re.findall(items))
            return " " * (m.end() - m.start())

        text = pattern.sub(blank, text)
    return mentions, text


def heading_mention(line: str, scheme: Scheme) -> Optional[str]:
    """The one numbered mention a heading line starts with ("§ 164.502 Uses" gives
    "Section 164.502"); None for none, a list ("Articles 5 and 6 ...") or a plural
    prefix ("Sections 164.502 through 164.514 ...")."""
    pattern, item_re, label = _NUMBERED[scheme]
    m = pattern.match(line)
    if m is None or line[: m.start(1)].rstrip().lower().endswith("s"):
        return None
    items = item_re.findall(m.group(1))
    return f"{label} {items[0]}" if len(items) == 1 else None


def normalize(raw: str, registry: ClauseRegistry) -> tuple[list[ClauseId], list[str]]:
    """Canonicalize a free-form mention string against the registry.

    Returns (resolved ids in mention order, unresolved mention strings).
    Unknown mentions are never dropped silently.
    """
    if not raw.strip():
        return [], []

    mentions, remainder = _expand_numbered_mentions(raw)

    resolved: list[ClauseId] = []
    unknowns: list[str] = []
    seen: set[ClauseId] = set()

    for mention in mentions:
        clause = registry._resolve_numbered(mention)
        if clause is None:
            unknowns.append(mention)
        elif clause not in seen:
            seen.add(clause)
            resolved.append(clause)

    # Leftover comma-separated segments are candidate named-section titles.
    for segment in remainder.split(","):
        if segment.isspace():
            continue
        key = _title_key(segment)
        if not key:
            continue
        clause = registry.resolve(segment, key)
        if clause is None:
            unknowns.append(" ".join(segment.split()))
        elif clause not in seen:
            seen.add(clause)
            resolved.append(clause)

    return resolved, unknowns


@dataclass
class ExtractionResult:
    cited: set[ClauseId]
    used_fallback: bool = False


def _regex_extract(text: str, registry: ClauseRegistry) -> set[ClauseId]:
    """Deterministic offline extraction: pattern scan plus a search for each named alias."""
    mentions, _ = _expand_numbered_mentions(text)
    cited = {registry._resolve_numbered(mention) for mention in mentions} - {None}
    text_key = _title_key(text)
    cited.update(clause for key, clause in registry._alias_index.items()
                 if clause.scheme is Scheme.NAMED and key and key in text_key)
    return cited


def extract_cited_clauses(
    reasoning_text: str,
    registry: ClauseRegistry,
    judge: Optional[ModelHandle] = None,
) -> ExtractionResult:
    """Extract the set of registry clauses cited in a reasoning text.

    Judge-based extraction is primary when a judge handle is supplied; one re-ask
    (`ask_twice`) on malformed output or an error, then the regex fallback engages
    and the record is flagged so metric reports can count degraded extractions.
    """
    if judge is None:
        return ExtractionResult(cited=_regex_extract(reasoning_text, registry))

    prompt = render(
        TemplateId.CLAUSE_EXTRACT,
        {"policy_section_masterlist": registry.masterlist, "reasoning_text": reasoning_text},
    )

    for reply, err in ask_twice(judge, prompt, ASSESS_PROFILE):
        ids, _unknowns = normalize(reply, registry)
        if err is None and (ids or not reply.strip()):
            return ExtractionResult(cited=set(ids))
    cited = _regex_extract(reasoning_text, registry)
    return ExtractionResult(cited=cited, used_fallback=True)
