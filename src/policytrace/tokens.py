"""Token count estimation.

A model handle counts prompts for its context-window check with a pluggable
`tokenizer`, so a real BPE tokenizer can be swapped in. The default, also used
for policy sizes and by the mock provider, is a byte-level estimator calibrated
to the common ~4 bytes/token ratio of BPE vocabularies.
"""

from __future__ import annotations

from typing import Callable

Tokenizer = Callable[[str], int]

BYTES_PER_TOKEN = 4


def estimate_tokens(text: str) -> int:
    """Approximate BPE token count: ceil(utf8_bytes / 4), 0 for empty text."""
    if not text:
        return 0
    # An ASCII string's length is its UTF-8 byte count, and isascii() reads a flag.
    n = len(text) if text.isascii() else len(text.encode("utf-8"))
    return max(1, (n + BYTES_PER_TOKEN - 1) // BYTES_PER_TOKEN)
