"""Seed flattening shared by every module that derives random substreams."""

from __future__ import annotations

import numpy as np


def flatten_seed(seed) -> int:
    """One int for a seed given as an int or as a sequence of ints (a
    SeedSequence key).  An int passes through unchanged; a sequence becomes
    the first word of its SeedSequence state, so equal keys give equal
    ints."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.SeedSequence(list(seed)).generate_state(1)[0])
