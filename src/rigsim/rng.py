"""Reproducible random streams.

All randomness in the package flows through numpy ``Generator`` objects backed
by the Philox counter-based bit generator.  Substreams are derived from a
64-bit seed plus an integer path (e.g. replication index), so independent
pieces of work can run in any order, or in parallel, and still produce
identical results.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random lazily: load it at start-up, not mid-run
import numpy.random  # noqa: F401

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Generator for the substream identified by ``(seed, *path)``.

    Streams with different paths are statistically independent (Philox keyed
    through ``SeedSequence``), and the mapping is deterministic: the same
    ``(seed, *path)`` always yields the same stream.
    """
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
