"""Deterministic payload bytes for byte-accurate runs.

Every data-plane experiment writes a verifiable per-rank pattern and
checks it after the read back: byte ``i`` of a block is
``(31 * i + salt) mod 251``.  Because 251 is prime and coprime to 31, the
sequence repeats with period exactly 251, so a block of any length is
one 251-byte period tiled — no per-byte arithmetic over the block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pattern_bytes"]

_PERIOD = 251


def pattern_bytes(nbytes: int, salt: int) -> np.ndarray:
    """``nbytes`` fresh bytes, byte ``i`` equal to ``(31 * i + salt) % 251``."""
    period = (np.arange(_PERIOD, dtype=np.int64) * 31 + salt) % _PERIOD
    return np.resize(period.astype(np.uint8), nbytes)
