"""Correctness oracles computed apart from the tiers under test.

The gates are recomputed with :mod:`hashlib` and the widget output comes
from the timed reference model on a separate, uncached ``HashCore``, so
a fault in a fast tier, the widget LRU or the gates shows up as a digest
mismatch.  Targets are decoded here and compared as plain integers.
"""

from __future__ import annotations

import hashlib


class CheckFailed(Exception):
    """A correctness check found a wrong output."""


def target_of(bits: int) -> int:
    """Decode a compact ``bits`` field (mantissa, base-256 exponent)."""
    size, mantissa = bits >> 24, bits & 0x007FFFFF
    if size <= 3:
        return mantissa >> (8 * (3 - size))
    return mantissa << (8 * (size - 3))


def meets(digest: bytes, target: int) -> bool:
    return int.from_bytes(digest, "big") <= target


class Reference:
    """``H(x) = sha256(s || W(s))`` with ``s = sha256(x)`` and ``W`` run on
    the timed reference model."""

    def __init__(self) -> None:
        from repro.core.hashcore import HashCore

        self._pow = HashCore(mode="timed", widget_cache_size=0)

    def digest(self, data: bytes) -> bytes:
        seed = hashlib.sha256(data).digest()
        trace = self._pow.hash_with_trace(data, mode="timed")
        if trace.seed.raw != seed:
            raise CheckFailed("first gate differs from sha256 of the input")
        output = b"".join(result.output for result in trace.results)
        return hashlib.sha256(seed + output).digest()
