"""Alternating parent/change runs of ledger workloads, in one command.

    python benchmarks/ledger_pairs.py --parent /root/scratch/parent --change . \\
        --workload udp_stream --seeds 1-10 --metric cpu_us_per_delivery

For every workload of ``--workload`` (one name or a comma list), every set
of ``--seeds`` (given once or more: ``--seeds 1-10 --seeds 11-20`` judges a
held-out set beside the first) and every seed it runs the benchmark command
of ``BENCHMARK.json``

    python benchmarks/ledger/run.py --workload W --seed S --seconds 10 --trace 0

once in each checkout — the parent first on odd pairs, the change first on
even ones — and reads the JSON object on the last line of each run.  Per
workload it prints every pair, then per metric both sides' medians and
quartiles, the pairs won and lost, and a verdict: for ``--metric`` (on the
first workload only) the rule a claimed gain must meet (the change wins at
least nine tenths of the pairs, ties counting for neither side, and the
medians differ by more than the distance between the parent's quartiles);
for every other metric whether the change's median is worse than the
parent's by more than the bound ``BENCHMARK.json`` fixes.  Where ``run.py``
prints a ``counter fingerprint:`` line (the deterministic workloads) it also
says on how many seeds the two sides' fingerprints were equal — information
for a change that means to be bit-identical, not part of the verdict.  Each
seed set gets its own table and verdicts; with more than one set, the claim
gets one line per set and an overall verdict, MET only if every set meets
the rule.  The exit status is 1 if any workload's verdict on any set is
unacceptable.

It imports nothing from ``benchmarks/ledger/``, never passes ``--record``
and writes no file: redirect its output to keep it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

RUN_TIMEOUT_S = 600
FINGERPRINT_LABEL = "counter fingerprint:"     # as ``run.py`` prints it


def parse_seeds(text: str) -> List[int]:
    """``"1-10"``, ``"3"`` or ``"1-4,9,11-12"`` -> the seeds, in order."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def seed_set(text: str) -> Tuple[str, List[int]]:
    """One ``--seeds`` value: its text, for the report, and its seeds."""
    return text, parse_seeds(text)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; the object on its last line, plus
    the counter fingerprint when the run printed one."""
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: run.py exited with {done.returncode} "
                           "and printed no result line")
    result = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith(FINGERPRINT_LABEL):
            result["fingerprint"] = line.split(FINGERPRINT_LABEL)[1].strip()
    return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(lower quartile, median, upper quartile)``; one run is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(name: str, better: str, bound: float, parent: Sequence[float],
              change: Sequence[float], claimed: bool) -> Tuple[str, bool]:
    """One metric's summary line and whether its verdict is acceptable."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    gain = sign * (c_mid - p_mid)              # > 0: the change reads better
    spread = p_high - p_low
    relative = gain / abs(p_mid) if p_mid else 0.0
    if claimed:
        met = wins >= 0.9 * len(parent) and gain > spread
        verdict = (f"CLAIM {'MET' if met else 'NOT MET'}: {wins}/{len(parent)} "
                   f"pairs won, median gap {gain:.4g} vs parent IQR {spread:.4g}")
    elif -relative > bound:
        met = False
        verdict = f"WORSE by {-relative:.1%} (bound {bound:.1%})"
    elif (p_mid and spread / abs(p_mid) > bound
          and min(sign * c for c in change) <= max(sign * p for p in parent)):
        met = True
        verdict = (f"unresolved: parent IQR {spread / abs(p_mid):.1%} of its "
                   f"median is wider than the bound {bound:.1%}")
    else:
        met = True
        verdict = f"no worse ({relative:+.1%}, bound {bound:.1%})"
    line = (f"{name:24s} parent {p_mid:10.4g} [{p_low:.4g}, {p_high:.4g}]  "
            f"change {c_mid:10.4g} [{c_low:.4g}, {c_high:.4g}]  "
            f"won {wins} lost {losses}  {verdict}")
    return line, met


def compare(workload: str, claimed: Optional[str], seeds: Sequence[int],
            seconds: float, metrics: Dict[str, dict],
            sides: Dict[str, Path]) -> Tuple[bool, Optional[tuple]]:
    """Run and print one workload's pairs; whether its verdict is
    acceptable, and the claimed metric's ``(summary line, met)`` (None
    when nothing is claimed)."""
    values: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in metrics} for side in sides}
    attempted = dict.fromkeys(sides, 0)
    failed = dict.fromkeys(sides, 0)
    incorrect = dict.fromkeys(sides, 0)
    fingerprinted = fingerprints_equal = 0

    print(f"{workload}: {len(seeds)} pairs, --seconds {seconds:g} --trace 0")
    print("seed first  side   " + " ".join(f"{name:>22s}" for name in metrics))
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {side: run_once(sides[side], workload, seed, seconds)
                   for side in order}
        for side in sides:
            result = results[side]
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            incorrect[side] += not result["correct"]
            row = []
            for name in metrics:
                value = result["metrics"][name]["value"]
                values[side][name].append(value)
                row.append(f"{value:22.6g}")
            print(f"{seed:4d} {order[0]:6s} {side:6s} " + " ".join(row), flush=True)
        prints = [results[side].get("fingerprint") for side in sides]
        if all(prints):
            equal = prints[0] == prints[1]
            fingerprinted += 1
            fingerprints_equal += equal
            print(f"{seed:4d} fingerprint " + (
                f"{prints[0]} on both sides" if equal
                else f"parent {prints[0]} change {prints[1]}"), flush=True)

    print()
    acceptable, claim = True, None
    for name, entry in metrics.items():
        line, met = summarise(name, entry["better"], entry["bound"],
                              values["parent"][name], values["change"][name],
                              claimed=name == claimed)
        acceptable = acceptable and met
        if name == claimed:
            claim = line, met
        print(line)
    for side in sides:
        print(f"{side}: failed {failed[side]} of {attempted[side]} operations; "
              f"{incorrect[side]} run(s) with a failed check")
    if fingerprinted:
        print(f"fingerprints equal on {fingerprints_equal} of {fingerprinted} seeds")
    share = {side: failed[side] / max(attempted[side], 1) for side in sides}
    if share["change"] > share["parent"] or incorrect["change"]:
        acceptable = False
        print("the change fails a larger share of operations, or a check")
    return acceptable, claim


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        type=lambda text: text.split(","),
                        help="one workload, or a comma list run in order")
    parser.add_argument("--seeds", type=seed_set, action="append",
                        help="e.g. 1-10 or 1-4,9 (default 1-10); again for "
                        "another set, judged on its own")
    parser.add_argument("--metric", help="the end-to-end metric a gain is "
                        "claimed on (for the first workload)")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in declared["end_to_end"]}
    if args.metric is not None and args.metric not in metrics:
        parser.error(f"--metric must be one of {', '.join(metrics)}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    seed_sets = args.seeds or [seed_set("1-10")]
    unacceptable, claims = [], []
    for position, workload in enumerate(args.workload):
        claimed = args.metric if position == 0 else None
        for number, (text, seeds) in enumerate(seed_sets):
            if position or number:
                print()
            if len(seed_sets) > 1:
                print(f"seeds {text}")
            acceptable, claim = compare(workload, claimed, seeds,
                                        declared["run_seconds"], metrics, sides)
            if not acceptable and workload not in unacceptable:
                unacceptable.append(workload)
            if claim is not None:
                claims.append((text, *claim))
    if len(claims) > 1:
        print(f"\n{args.workload[0]}, the claim on each seed set:")
        for text, line, _met in claims:
            print(f"seeds {text}: {line}")
        met = sum(met for _text, _line, met in claims)
        print(f"CLAIM {'MET' if met == len(claims) else 'NOT MET'} overall: "
              f"met on {met} of {len(claims)} seed sets")
    if len(args.workload) > 1:
        print(f"\n{len(args.workload) - len(unacceptable)} of "
              f"{len(args.workload)} workloads acceptable"
              + (f"; not: {', '.join(unacceptable)}" if unacceptable else ""))
    return 1 if unacceptable else 0


if __name__ == "__main__":
    sys.exit(main())
