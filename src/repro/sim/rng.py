"""Deterministic random-stream derivation.

Every stochastic component of a simulation (each node, the network, the
workload, the churn schedule) gets its *own* ``random.Random`` stream derived
from a single root seed.  This gives two properties the experiment harness
relies on:

* **Reproducibility** — the same root seed replays the same run bit-for-bit.
* **Independence under reconfiguration** — adding an observer or reordering
  node construction does not perturb the streams of unrelated components,
  because each stream is keyed by a stable label rather than by draw order.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, *labels) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a label path.

    Uses SHA-256 over the canonical string of the label path, so the mapping
    is stable across Python versions and processes (unlike ``hash()``).
    """
    material = repr((root_seed,) + tuple(labels)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root_seed: int, *labels) -> random.Random:
    """A fresh, independent ``random.Random`` for the given label path."""
    return random.Random(derive_seed(root_seed, *labels))


class SeedSequence:
    """Hands out labelled child streams of one root seed.

    >>> seq = SeedSequence(42)
    >>> a = seq.rng("node", 3)
    >>> b = seq.rng("node", 4)
    >>> a.random() != b.random()
    True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed

    def seed(self, *labels) -> int:
        return derive_seed(self.root_seed, *labels)

    def rng(self, *labels) -> random.Random:
        return derive_rng(self.root_seed, *labels)

    def spawn(self, *labels) -> "SeedSequence":
        """A child sequence rooted under a label (namespacing helper)."""
        return SeedSequence(self.seed(*labels))
