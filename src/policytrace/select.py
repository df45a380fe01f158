"""Demonstration selection from the trace-augmented train pool.

Random selection is seeded and content-addressed (same pool content, k, and
seed give the same draw on every platform). Relevance selection asks a judge
model for the k most similar candidate indices and repairs malformed replies
deterministically, flagging any record that needed repair or fallback.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass, field

from .corpus import CaseRecord
from .gateway import ASSESS_PROFILE, GatewayError, ModelHandle, ask_twice
from .prompts import TemplateId, render
from .prtgen import AugmentedDataset, Triple
from .records import hash_seed


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
    rng = random.Random(hash_seed(f"{pool.content_hash}|{k}|{seed}"))
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


def format_candidates(pool: AugmentedDataset) -> str:
    blocks = []
    # Labelled from 0, as the template's index range and _judge_window count.
    for i, (case, _verdict, _prt) in enumerate(pool.triples):
        clause_list = sorted(c.canonical for c in case.gold_clauses)
        clauses = ", ".join(clause_list) if clause_list else "unannotated"
        blocks.append(
            f"Case {i} (Description): {case.case_text}\n"
            f"Case {i} (Relevant Policy Clauses): {clauses}"
        )
    return "\n\n".join(blocks)


def _judge_window(
    target: CaseRecord,
    pool: AugmentedDataset,
    k: int,
    judge: ModelHandle,
    policy_name: str,
    seed: int,
) -> tuple[list[Triple], list[str]]:
    """The judge's k picks from one window, and the flags of any repair.

    A reply naming exactly k distinct in-range indices is taken as it is;
    otherwise the judge is asked once more (`ask_twice`). Only that second
    reply is repaired: cut to k, else filled with the lowest unused indices,
    else (no valid index, or an error) replaced by select_random's draw.
    """
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
    errors: list[GatewayError] = []
    for reply, err in ask_twice(judge, prompt, ASSESS_PROFILE):
        if err is not None:  # its "" names no index, so a second error falls back to random
            errors.append(err)
        named = [int(tok) for tok in _INT_RE.findall(reply)]
        picks = list(dict.fromkeys(i for i in named if 0 <= i < len(pool)))
        if picks == named and len(picks) == k:
            return [pool.triples[i] for i in picks], []
    if len(errors) == 2:
        err = errors[-1]
        raise SelectionError(f"judge_unreachable: {type(err).__name__}: {err}") from err
    if not picks:
        return select_random(pool, k, seed), ["fallback_random"]
    if len(picks) >= k:
        return [pool.triples[i] for i in picks[:k]], ["indices_repaired"]
    used = set(picks)
    picks += [i for i in range(len(pool)) if i not in used][: k - len(picks)]
    return [pool.triples[i] for i in picks], ["indices_topped_up"]


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
            picks, window_flags = _judge_window(target, window, take, judge, policy_name, seed)
            winners.extend(picks)
            flags.extend(window_flags)
        shrank = len(winners) < len(candidates)
        candidates = AugmentedDataset(tuple(winners))
        if not shrank:
            break
    final, final_flags = _judge_window(target, candidates, k, judge, policy_name, seed)
    return SelectionResult(triples=final, flags=flags + final_flags)
