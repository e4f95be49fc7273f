"""Phase 2's eviction draws — is there an exact variant faster than the loop?

ROADMAP item 3 ("truncate in one draw") proposed replacing Figure 1(a)'s
``while |L| > |L|m: remove random element`` loops — one ``getrandbits``
rejection draw plus a swap-remove per evictee, ~48 of them a reception — by
one bulk draw, re-pinning every golden once, *if* it bought >= 15 %.  This
bench sizes that floor at the ``serial_stream`` reception shape before any
golden is touched: a full view of 25 that admits 16 fresh subs, whose 16
evictees and the 16 subs are absorbed into a full ``subs`` of 15.

Four exact ways to evict (each keeps a uniformly random subset; only the
first keeps today's RNG stream):

* ``loop``   — today's ``view.admit -> view.truncate -> subs.absorb``;
* ``divmod`` — one ``randrange`` over the falling factorial n(n-1)...(l+1),
  decoded into the same positions by ``divmod``;
* ``bytes``  — one ``getrandbits`` for the whole reception, consumed a byte
  a draw with the same mask-and-reject rule;
* ``sample`` — ``rng.sample`` of the survivors, list and index rebuilt once.

    PYTHONPATH=src python benchmarks/bench_phase2_draws.py [receptions]

Prints µs per reception (best of five passes) and the ratio to ``loop``.
"""

import functools
import math
import random
import sys
import time

from repro.core.buffers import RandomDropBuffer
from repro.core.view import PartialView

VIEW, ADMITTED, SUBS = 25, 16, 15
POOL = 10_000  # pids the fresh subs are drawn from


@functools.lru_cache(maxsize=None)
def falling(n, keep):
    """n(n-1)...(keep+1): the ordered ways to evict down to ``keep``."""
    return math.prod(range(keep + 1, n + 1))


def evict_divmod(rng, items, keep):
    """The loop's swap-removes at positions decoded from one draw over the
    falling factorial n(n-1)...(keep+1); returns the evictees."""
    n = len(items)
    space = falling(n, keep)
    code = rng.randrange(space)
    evicted = []
    while n > keep:
        code, pos = divmod(code, n)
        evicted.append(items[pos])
        last = items.pop()
        n -= 1
        if pos < n:
            items[pos] = last
    return evicted


def evict_bytes(rng, items, keep):
    """The loop's mask-and-reject rule, a byte a draw, from one big
    ``getrandbits`` (four bytes an evictee; refilled if rejections eat it)."""
    n = len(items)
    size = 4 * (n - keep)
    pool = rng.getrandbits(8 * size).to_bytes(size, "little")
    at = 0
    evicted = []
    while n > keep:
        mask = (1 << n.bit_length()) - 1
        while True:
            if at == size:
                pool = rng.getrandbits(8 * size).to_bytes(size, "little")
                at = 0
            pos = pool[at] & mask
            at += 1
            if pos < n:
                break
        evicted.append(items[pos])
        last = items.pop()
        n -= 1
        if pos < n:
            items[pos] = last
    return evicted


class ListState:
    """View and subs as a list plus a position index each, for the three
    variants: the admit pass is the dict-probe loop ``PartialView.admit``
    runs, and the index is rebuilt once per truncation, as ``absorb`` does."""

    def __init__(self, rng):
        self.rng = rng
        self.view = list(range(VIEW))
        self.subs = list(range(VIEW, VIEW + SUBS))
        self.view_index = dict(zip(self.view, range(VIEW)))
        self.subs_index = dict(zip(self.subs, range(SUBS)))

    @staticmethod
    def admit(held, index, fresh):
        held.extend(pid for pid in fresh if pid not in index)

    def receive(self, fresh, evict):
        view, subs, rng = self.view, self.subs, self.rng
        self.admit(view, self.view_index, fresh)
        evicted = evict(rng, view, VIEW)
        self.view_index = dict(zip(view, range(VIEW)))
        self.admit(subs, self.subs_index, fresh + evicted)
        evict(rng, subs, SUBS)
        self.subs_index = dict(zip(subs, range(SUBS)))

    def receive_sample(self, fresh):
        self.admit(self.view, self.view_index, fresh)
        survivors = self.rng.sample(self.view, VIEW)
        index = dict(zip(survivors, range(VIEW)))
        evicted = [pid for pid in self.view if pid not in index]
        self.view, self.view_index = survivors, index
        self.admit(self.subs, self.subs_index, fresh + evicted)
        self.subs = self.rng.sample(self.subs, SUBS)
        self.subs_index = dict(zip(self.subs, range(SUBS)))


def variants(seed):
    """name -> ``receive(fresh)`` on a fresh, seeded state."""
    view = PartialView(-1, VIEW, random.Random(seed))
    view.admit(range(VIEW))
    subs = RandomDropBuffer(SUBS, random.Random(seed + 1))
    subs.absorb(range(VIEW, VIEW + SUBS))

    def loop(fresh):
        view.admit(fresh)
        subs.absorb(fresh + view.truncate())

    lists = {name: ListState(random.Random(seed))
             for name in ("divmod", "bytes", "sample")}
    return {
        "loop": loop,
        "divmod": lambda fresh: lists["divmod"].receive(fresh, evict_divmod),
        "bytes": lambda fresh: lists["bytes"].receive(fresh, evict_bytes),
        "sample": lists["sample"].receive_sample,
    }


def measure(receptions, passes=5, seed=3):
    feed = random.Random(seed)
    batches = [feed.sample(range(VIEW + SUBS, POOL), ADMITTED)
               for _ in range(receptions)]
    best = {}
    for _ in range(passes):
        for name, receive in variants(seed).items():
            begin = time.perf_counter()
            for fresh in batches:
                receive(fresh)
            spent = (time.perf_counter() - begin) / receptions * 1e6
            best[name] = min(best.get(name, spent), spent)
    return best


def main(argv):
    receptions = int(argv[1]) if len(argv) > 1 else 100_000
    best = measure(receptions)
    print(f"Phase 2, view {VIEW}+{ADMITTED}, subs {SUBS}+{2 * ADMITTED}, "
          f"{receptions} receptions, best of 5")
    for name, spent in best.items():
        print(f"{name:8s} {spent:7.2f} us/reception  "
              f"{spent / best['loop']:5.2f}x loop")


if __name__ == "__main__":
    main(sys.argv)
