"""Seeded deterministic sampling of words for property checks."""

from __future__ import annotations

import random

from .words import Word


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def random_word(r: random.Random, alphabet, min_len=0, max_len=5) -> Word:
    n = r.randrange(min_len, max_len + 1)
    return Word(r.choice(alphabet) for _ in range(n))
