"""Deterministic seed derivation for independent random streams.

Every stochastic run in this package draws from an explicitly passed
``numpy.random.Generator``; there is no hidden global randomness. Independent
streams (per sweep cell, set of sweep pulse streams and trace series) are
derived by hashing a root seed together with a label path, so that

* the same root seed always reproduces the same results, bit for bit,
* distinct coordinates get streams that are independent for all practical
  purposes, and
* results do not depend on execution order, which makes parallel sweeps safe.

The hash is SHA-256 over a canonical byte encoding of the arguments (ints and
floats rendered via ``repr``, which is exact for binary64), truncated to
64 bits. This is stable across platforms, Python versions, and numpy versions.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily: at import, not at a run's first draw

__all__ = ["derive_seed", "spawn_rng"]


def _canonical(part) -> bytes:
    if isinstance(part, bool):
        return b"b:" + (b"1" if part else b"0")
    if isinstance(part, (int, np.integer)):
        return b"i:" + repr(int(part)).encode("ascii")
    if isinstance(part, (float, np.floating)):
        return b"f:" + repr(float(part)).encode("ascii")
    if isinstance(part, str):
        return b"s:" + part.encode("utf-8")
    raise TypeError(f"cannot canonicalize seed part of type {type(part).__name__}")


def derive_seed(root: int, *parts) -> int:
    """Hash ``root`` and a label path into a 64-bit integer seed."""
    digest = hashlib.sha256()
    digest.update(_canonical(int(root)))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(_canonical(part))
    return int.from_bytes(digest.digest()[:8], "big")


def spawn_rng(root: int, *parts) -> np.random.Generator:
    """A fresh PCG64 generator seeded from ``derive_seed(root, *parts)``."""
    return default_rng(derive_seed(root, *parts))
