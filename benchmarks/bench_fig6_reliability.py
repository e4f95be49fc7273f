"""Figure 6 — Measurements: degree of reliability (1-β).

Run on the asynchronous discrete-event runtime that substitutes for the
paper's 125-workstation testbed (DESIGN.md §4): non-synchronized per-process
gossip timers, latency < T, loss ε = 0.05.

(a) reliability vs view size l (|eventIds|m = 60): very weak dependence —
    the paper's own headline is that "the variation in terms of reliability
    is only very weak";
(b) reliability vs |eventIds|m (l = 15).  **Declared divergence.**  The
    paper's curve rises strongly because its ``eventIds`` is the FIFO of
    Figure 1(a): "once ids are purged from all buffers before global
    infection, dissemination of that notification stops".  Here ``eventIds``
    is the per-sender form Sec. 3.2 itself recommends, which forgets nothing:
    the x-axis bounds only the ids held *out of order*, no id is ever purged,
    and the curve is flat at 1 — except at its starved end, where the
    co-varied ``|events|m = max(|eventIds|m, 10)`` purges notifications before
    their first gossip.  (Taken with a FIFO at the same load — 400 ids
    against 60 — the old curve, 0.30 -> 0.96, measured the wrap: evicted ids
    re-advertised, re-delivered and re-inserted for ever.)  pbcast keeps its
    FIFO id list, and Fig. 7(b) its loss.

Load is scaled relative to the paper's 40 events/process/round (see
EXPERIMENTS.md).
"""

import figlib
from repro.metrics import format_table


def test_fig6a_reliability_vs_view_size(benchmark):
    l_values, reliabilities = benchmark.pedantic(
        lambda: figlib.fig6a_series(seeds=range(3)), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["view size l", "reliability (1-beta)"],
        list(zip(l_values, reliabilities)),
        title="Figure 6(a): reliability vs view size (|eventIds|m=60, F=3)",
    ))

    # All runs deliver the large majority of (event, process) pairs.
    assert all(r > 0.6 for r in reliabilities)
    # The paper's conclusion: the dependence on l is very weak.
    assert max(reliabilities) - min(reliabilities) < 0.08
    # And no catastrophic degradation at the smallest view.
    assert reliabilities[0] > max(reliabilities) - 0.08


def test_fig6b_reliability_vs_event_id_buffer(benchmark):
    sizes, reliabilities = benchmark.pedantic(
        lambda: figlib.fig6b_series(seeds=range(3)), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["|eventIds|m", "reliability (1-beta)"],
        list(zip(sizes, reliabilities)),
        title="Figure 6(b): reliability vs notification list size (l=15)",
    ))

    # Declared divergence (module docstring): monotone within seed noise,
    # but flat — no id is ever purged, so nothing stops spreading.
    for a, b in zip(reliabilities, reliabilities[1:]):
        assert b >= a - 0.01
    assert all(r > 0.9 for r in reliabilities)
    assert all(r > 0.999 for size, r in zip(sizes, reliabilities) if size >= 20)
    # What loss there is sits at the starved end and comes from |events|m.
    assert reliabilities[0] < reliabilities[-1]
