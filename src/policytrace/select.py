"""Demonstration selection from the trace-augmented train pool.

Random selection is seeded and content-addressed (same pool content, k, and
seed give the same draw on every platform). Relevance selection asks a judge
model for the k most similar candidate indices and repairs malformed replies
deterministically, flagging any record that needed repair or fallback.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import re
from dataclasses import dataclass, field

from .corpus import CaseRecord
from .gateway import ASSESS_PROFILE, GatewayError, ModelHandle, complete
from .prompts import TemplateId, render
from .prtgen import AugmentedDataset, Triple


class SelectionError(ValueError):
    pass


@dataclass
class SelectionResult:
    triples: list[Triple]
    flags: list[str] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        return bool(self.flags)


def _check_k(pool: AugmentedDataset, k: int) -> None:
    if not 1 <= k <= len(pool):
        raise SelectionError(f"k_out_of_range: k={k}, pool size {len(pool)}")


def select_random(pool: AugmentedDataset, k: int, seed: int) -> list[Triple]:
    """Draw k distinct triples in O(k) per draw; order is draw order.

    The RNG is seeded from sha256(pool content hash, k, seed) so the draw is
    a pure function of pool content, not of object identity or platform.
    """
    _check_k(pool, k)
    digest = hashlib.sha256(f"{pool.content_hash}|{k}|{seed}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    # j counts free positions: step it past each taken one at or below it, so
    # the draw is the one popping j from a list of the free positions makes.
    taken: list[int] = []
    picked: list[int] = []
    for i in range(k):
        j = rng.randrange(len(pool) - i)
        for t in taken:
            if t > j:
                break
            j += 1
        bisect.insort(taken, j)
        picked.append(j)
    return [pool.triples[i] for i in picked]


_INT_RE = re.compile(r"-?\d+")
WINDOW_SIZE = 100  # pool triples per judge prompt in select_relevant


def _parse_indices(reply: str, pool_size: int, k: int) -> tuple[list[int], bool]:
    """Parse a judge reply into indices. Returns (indices, clean).

    clean is False when deduplication, range filtering, or count repair
    changed anything relative to the literal reply.
    """
    raw = [int(tok) for tok in _INT_RE.findall(reply)]
    in_range: list[int] = []
    seen: set[int] = set()
    for idx in raw:
        if 0 <= idx < pool_size and idx not in seen:
            seen.add(idx)
            in_range.append(idx)
    clean = len(raw) == k and in_range == raw
    return in_range, clean


def _top_up(indices: list[int], pool_size: int, k: int) -> list[int]:
    """Deterministic repair: keep valid picks, fill with lowest unused indices."""
    result = indices[:k]
    used = set(result)
    candidate = 0
    while len(result) < k:
        if candidate not in used:
            result.append(candidate)
            used.add(candidate)
        candidate += 1
    return result


def format_candidates(pool: AugmentedDataset) -> str:
    blocks = []
    # Labelled from 0, as the template's index range and _parse_indices count.
    for i, (case, _verdict, _prt) in enumerate(pool.triples):
        clause_list = sorted(c.canonical for c in case.gold_clauses)
        clauses = ", ".join(clause_list) if clause_list else "unannotated"
        blocks.append(
            f"Case {i} (Description): {case.case_text}\n"
            f"Case {i} (Relevant Policy Clauses): {clauses}"
        )
    return "\n\n".join(blocks)


def _query_judge(
    target: CaseRecord,
    pool: AugmentedDataset,
    k: int,
    judge: ModelHandle,
    policy_name: str,
    attempt: int,
) -> str:
    target_clauses = sorted(c.canonical for c in target.gold_clauses)
    prompt = render(
        TemplateId.SELECT_RELEVANT,
        {
            "k": k,
            "policy": policy_name,
            "max_index": len(pool) - 1,
            "case_information": target.case_text,
            "case_relevant_clauses": ", ".join(target_clauses) if target_clauses else "unannotated",
            "candidates": format_candidates(pool),
        },
    )
    return complete(judge, prompt, ASSESS_PROFILE.for_attempt(attempt)).text


def _select_from_window(
    target: CaseRecord,
    pool: AugmentedDataset,
    k: int,
    judge: ModelHandle,
    policy_name: str,
    seed: int,
) -> tuple[list[int], list[str]]:
    flags: list[str] = []
    unreachable = 0
    for attempt in range(2):
        try:
            reply = _query_judge(target, pool, k, judge, policy_name, attempt)
        except GatewayError:
            unreachable += 1
            if unreachable == 2:
                raise SelectionError("judge_unreachable") from None
            continue
        indices, clean = _parse_indices(reply, len(pool), k)
        if clean:
            return indices, flags
        if len(indices) >= k:
            # Usable after dedup/range filtering; flag the repair on retry exhaustion.
            if attempt == 1:
                flags.append("indices_repaired")
                return indices[:k], flags
        elif indices and attempt == 1:
            flags.append("indices_topped_up")
            return _top_up(indices, len(pool), k), flags
    # parse_failed after retry: fall back to seeded random, flagged.
    flags.append("fallback_random")
    return [pool.index[case.case_id] for case, _, _ in select_random(pool, k, seed)], flags


def select_relevant(
    target: CaseRecord,
    pool: AugmentedDataset,
    k: int,
    judge: ModelHandle,
    policy_name: str = "policy",
    seed: int = 0,
) -> SelectionResult:
    """Pick the k pool triples most similar to the target, judged by an LLM.

    Pools larger than WINDOW_SIZE are judged in windows, with playoff rounds
    among the window winners (one prompt cannot hold hundreds of cases).
    """
    _check_k(pool, k)
    if len(pool) == 1:
        return SelectionResult(triples=[pool.triples[0]])

    candidates = pool
    flags: list[str] = []
    # Judge windows and keep their winners, round after round, while they fill more
    # than one window and a round shrinks them (it cannot when k >= WINDOW_SIZE).
    while len(candidates) > WINDOW_SIZE:
        winners: list[Triple] = []
        for start in range(0, len(candidates), WINDOW_SIZE):
            window = AugmentedDataset(candidates.triples[start : start + WINDOW_SIZE])
            take = min(k, len(window))
            local, window_flags = _select_from_window(target, window, take, judge, policy_name, seed)
            winners.extend(window.triples[i] for i in local)
            flags.extend(window_flags)
        shrank = len(winners) < len(candidates)
        candidates = AugmentedDataset(tuple(winners))
        if not shrank:
            break
    final, final_flags = _select_from_window(target, candidates, k, judge, policy_name, seed)
    return SelectionResult(triples=[candidates.triples[i] for i in final], flags=flags + final_flags)
