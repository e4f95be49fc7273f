"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run one broadcast through a system and print the infection curve.
``figure {2,3a,3b,4,5a,5b,6a,6b,7a,7b}``
    Regenerate a paper figure's series as a text table.
``tune N``
    Recommend (F, l) for an expected maximum system size (Sec. 7's
    "tool to tune the algorithm").
``analyze N``
    Print the analytical quantities (Eqs. 1-5) for a system size.
``trace``
    Run a fixed-seed simulation with engine-native telemetry (tracing on)
    and print the counter/profile/trace summary; ``--jsonl``/``--prom``
    export the registry, ``--validate`` checks the exports against the
    documented schema (the CI telemetry-smoke job runs exactly this).
``fuzz``
    Deterministic-simulation fuzzing: generate seeded scenarios, judge each
    with the invariant + differential-engine oracle, shrink failures and
    write JSON repro artifacts; ``--preset NAME`` (repeatable) cycles the
    scenarios through the scenario presets.  ``--replay case.json``
    re-executes an artifact and requires bit-identical reproduction;
    ``--self-test`` plants known bugs and asserts the fuzzer finds and
    shrinks them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .metrics import format_series, format_table, merge_curves


def _cmd_demo(args: argparse.Namespace) -> int:
    from .experiments import lpbcast_infection_curve

    curve = lpbcast_infection_curve(
        args.n, l=args.view, fanout=args.fanout, seed=args.seed,
        rounds=args.rounds, loss_rate=args.loss,
        engine=args.engine, shards=args.shards,
    )
    engine_label = args.engine
    if args.engine == "sharded":
        from .sim import DEFAULT_SHARDS
        engine_label = f"sharded/{args.shards or DEFAULT_SHARDS}"
    print(f"lpbcast demo: n={args.n}, l={args.view}, F={args.fanout}, "
          f"loss={args.loss}, seed={args.seed}, engine={engine_label}")
    print("round  infected")
    for r, count in enumerate(curve):
        print(f"{r:5d}  {count:6d}  {'#' * (60 * count // args.n)}")
    return 0 if curve[-1] == args.n else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import experiments as exp

    seeds = range(args.seeds)
    fig = args.id
    if fig == "2":
        series = exp.fig2_series()
        print(format_series("round", list(range(len(next(iter(series.values()))))),
                            series, title="Figure 2 (analysis)"))
    elif fig == "3a":
        series = exp.fig3a_series()
        print(format_series("round", list(range(11)), series,
                            title="Figure 3(a) (analysis)"))
    elif fig == "3b":
        sizes, rounds = exp.fig3b_series()
        print(format_table(["n", "rounds to 99%"], list(zip(sizes, rounds)),
                           title="Figure 3(b) (analysis)"))
    elif fig == "4":
        curves = exp.fig4_series()
        rows = []
        sizes = [i for i, _ in curves["n=50"]]
        by_n = {name: dict(points) for name, points in curves.items()}
        for i in sizes:
            rows.append([i] + [by_n[f"n={n}"].get(i, 0.0) for n in (50, 75, 125)])
        print(format_table(["i", "n=50", "n=75", "n=125"], rows,
                           title="Figure 4 (analysis)"))
    elif fig == "5a":
        series = merge_curves(exp.fig5a_series(seeds=seeds))
        print(format_series("round", list(range(11)), series,
                            title="Figure 5(a) (analysis vs simulation)"))
    elif fig == "5b":
        series = merge_curves(exp.fig5b_series(seeds=seeds))
        print(format_series("round", list(range(9)), series,
                            title="Figure 5(b) (simulation)"))
    elif fig == "6a":
        l_values, reliabilities = exp.fig6a_series(seeds=seeds)
        print(format_table(["l", "reliability"],
                           list(zip(l_values, reliabilities)),
                           title="Figure 6(a) (measurement substitute)"))
    elif fig == "6b":
        sizes, reliabilities = exp.fig6b_series(seeds=seeds)
        print(format_table(["|eventIds|m", "reliability"],
                           list(zip(sizes, reliabilities)),
                           title="Figure 6(b) (measurement substitute)"))
    elif fig == "7a":
        series = merge_curves(exp.fig7a_series(seeds=seeds))
        print(format_series("round", list(range(8)), series,
                            title="Figure 7(a) (simulation)"))
    elif fig == "7b":
        l_values, reliabilities = exp.fig7b_series(seeds=seeds)
        print(format_table(["l", "reliability"],
                           list(zip(l_values, reliabilities)),
                           title="Figure 7(b) (simulation)"))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(fig)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .analysis import required_buffer_size
    from .analysis.tuning import recommend_config

    report = recommend_config(
        args.n,
        max_rounds=args.max_rounds,
        lifetime_rounds=args.lifetime,
        partition_probability=args.partition_probability,
    )
    print(report)
    rows = [
        ["fanout F", report.fanout],
        ["view size l", report.view_size],
        ["E[rounds to 99%]", report.expected_rounds_to_target],
        ["partition horizon (rounds)", report.partition_horizon_rounds],
    ]
    if args.publish_rate is not None:
        rows.append([
            f"|eventIds|m for 99% at {args.publish_rate}/round",
            required_buffer_size(args.n, report.fanout, args.publish_rate,
                                 target_reliability=0.99),
        ])
    print(format_table(
        ["parameter", "value"], rows,
        title=f"Recommended lpbcast configuration for n={args.n}",
    ))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        InfectionMarkovChain,
        expected_rounds_to_fraction,
        infection_probability,
        partition_probability_per_round,
        rounds_until_partition,
    )

    n, fanout = args.n, args.fanout
    p = infection_probability(n, fanout)
    rounds99 = expected_rounds_to_fraction(n, fanout)
    chain = InfectionMarkovChain(n, fanout)
    rows = [
        ["p (Eq. 1)", p],
        ["E[rounds to 99%] (Appendix A)", rounds99],
        ["P(all infected by round 8) (Eqs. 2-3)",
         chain.atomicity_probability(8)],
        [f"per-round partition prob., l={args.view} (Eq. 4)",
         partition_probability_per_round(n, args.view)],
        [f"rounds to partition w.p. 0.9, l={args.view} (Eq. 5)",
         rounds_until_partition(n, args.view, 0.9)],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"lpbcast analysis: n={n}, F={fanout}"))
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from .analysis import LatencyAnalysis

    analysis = LatencyAnalysis(args.n, args.fanout)
    rows = [
        ["E[delivery round | delivered]", analysis.expected_latency()],
        ["P(delivered by round 3)", analysis.infected_by(3)],
        ["P(delivered by round 6)", analysis.infected_by(6)],
        ["round for 50% of processes", analysis.latency_quantile(0.5)],
        ["round for 99% of processes", analysis.latency_quantile(0.99)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"Per-process delivery latency: n={args.n}, F={args.fanout}",
    ))
    return 0


def _cmd_validate_partition(args: argparse.Namespace) -> int:
    import random as _random

    from .analysis import empirical_partition_rate

    empirical, bound = empirical_partition_rate(
        args.n, args.view, trials=args.trials, rng=_random.Random(args.seed)
    )
    print(format_table(
        ["quantity", "value"],
        [
            ["empirical partition rate", empirical],
            ["Eq. 4 per-round bound (sum psi)", bound],
            ["trials", args.trials],
        ],
        title=f"Monte-Carlo check of Eq. 4 at n={args.n}, l={args.view}",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import random as _random

    from .core import LpbcastConfig
    from .sim import NetworkModel, build_lpbcast_nodes, create_simulation
    from .telemetry import (
        format_counters,
        format_profile,
        to_jsonl,
        to_prometheus,
        validate_export_files,
    )

    cfg = LpbcastConfig(fanout=args.fanout, view_max=args.view)
    nodes = build_lpbcast_nodes(args.n, cfg, seed=args.seed)
    network = None
    if args.loss:
        network = NetworkModel(loss_rate=args.loss,
                               rng=_random.Random(args.seed + 1))
    sim = create_simulation(engine=args.engine, network=network,
                            seed=args.seed, shards=args.shards)
    sim.add_nodes(nodes)
    sim.telemetry.tracing = not args.no_tracing

    def publish(round_no: int, s) -> None:
        if round_no <= args.publishes:
            s.nodes[nodes[round_no % args.n].pid].lpb_cast(
                f"trace-{round_no}", float(round_no)
            )

    sim.add_round_hook(publish)
    try:
        sim.run(args.rounds)
        telemetry = sim.telemetry
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()

    print(f"telemetry trace: n={args.n}, rounds={args.rounds}, "
          f"seed={args.seed}, engine={args.engine}, loss={args.loss}, "
          f"tracing={'off' if args.no_tracing else 'on'}")
    print("\n-- counter totals --")
    print(format_counters(telemetry))
    print("\n-- timing profile --")
    print(format_profile(telemetry))
    counts = telemetry.trace.counts()
    print("\n-- trace events --")
    if counts:
        for kind in sorted(counts):
            print(f"{kind:<24} {counts[kind]}")
        if telemetry.trace.dropped:
            print(f"(dropped {telemetry.trace.dropped} past capacity)")
    else:
        print("none recorded")

    jsonl_text = to_jsonl(telemetry)
    prom_text = to_prometheus(telemetry)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(jsonl_text)
        print(f"\nwrote {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(prom_text)
        print(f"wrote {args.prom}")
    if args.validate:
        counts = validate_export_files(jsonl_text, prom_text)
        print(f"schema OK: {counts['jsonl_records']} JSONL record(s), "
              f"{counts['prometheus_samples']} Prometheus sample(s)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .dst import (
        format_self_test_report,
        load_artifact,
        replay_artifact,
        run_campaign,
        run_self_test,
    )

    say = print if not args.quiet else (lambda line: None)

    if args.replay is not None:
        data = load_artifact(args.replay)
        result = replay_artifact(data)
        say(f"replaying {args.replay}")
        say(f"  spec: {result.spec.describe()}")
        say(f"  expected failure: {result.expected_signature}")
        if result.ok:
            say("  reproduced bit-identically (signature and per-engine "
                "fingerprints all match)")
            return 0
        for line in result.mismatches:
            say(f"  MISMATCH: {line}")
        return 1

    if args.self_test:
        outcomes = run_self_test(
            args.seed,
            artifact_dir=args.artifact_dir,
            progress=say,
        )
        print(format_self_test_report(outcomes))
        return 0 if all(outcome.ok for outcome in outcomes) else 1

    if args.causal and args.byzantine:
        raise ValueError(
            "--causal is incompatible with --byzantine: the causal "
            "hold-back queue and the double-echo variant are mutually "
            "exclusive delivery disciplines")
    if args.causal and args.columnar:
        raise ValueError(
            "--causal is incompatible with --columnar: the columnar engine "
            "declares divergence on causal-delivery configurations; the "
            "causal family runs on the serial/sharded pair")
    engines = (("serial", "columnar") if args.columnar
               else ("serial", "sharded"))
    if args.workers != 1 and not args.columnar:
        raise ValueError(
            f"--workers {args.workers} requires --columnar: the worker "
            f"count tunes the columnar engine's shared-memory mode and no "
            f"other engine accepts it (the sharded engine's knob is "
            f"--shards on the demo/trace commands)")
    result = run_campaign(
        args.seed,
        args.count,
        max_n=args.max_n,
        max_rounds=args.max_rounds,
        mutation=args.mutation,
        byzantine=args.byzantine,
        causal=args.causal,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
        progress=say,
        engines=engines,
        workers=args.workers,
        presets=args.preset or (),
    )
    print(result.summary())
    for case in result.cases:
        print(f"  {case.signature}  seed={case.shrunk.spec.seed}"
              + (f"  artifact={case.artifact_path}"
                 if case.artifact_path else ""))
    return 0 if result.ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lightweight Probabilistic Broadcast (DSN 2001) "
                    "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one broadcast and print the curve")
    demo.add_argument("-n", type=int, default=125, help="system size")
    demo.add_argument("--view", type=int, default=25, help="view bound l")
    demo.add_argument("--fanout", type=int, default=3, help="fanout F")
    demo.add_argument("--rounds", type=_positive_int, default=10)
    demo.add_argument("--loss", type=float, default=0.05)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--engine", choices=["serial", "sharded"], default="serial",
        help="round engine: single-process, or sharded across worker "
             "processes (bit-identical result, faster at large n)",
    )
    demo.add_argument(
        "--shards", type=_positive_int, default=None,
        help="worker processes for --engine sharded (default: core count, "
             "capped at 4)",
    )
    demo.set_defaults(fn=_cmd_demo)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "id", choices=["2", "3a", "3b", "4", "5a", "5b", "6a", "6b", "7a", "7b"]
    )
    figure.add_argument("--seeds", type=_positive_int, default=3,
                        help="independent runs for simulated figures")
    figure.set_defaults(fn=_cmd_figure)

    tune = sub.add_parser("tune", help="recommend (F, l) for a system size")
    tune.add_argument("n", type=int)
    tune.add_argument("--max-rounds", type=float, default=8.0)
    tune.add_argument("--lifetime", type=float, default=1e9,
                      help="intended lifetime in rounds")
    tune.add_argument("--partition-probability", type=float, default=0.01)
    tune.add_argument(
        "--publish-rate", type=float, default=None,
        help="expected fresh notifications per round; adds an |eventIds|m "
             "sizing recommendation",
    )
    tune.set_defaults(fn=_cmd_tune)

    analyze = sub.add_parser("analyze", help="print Eqs. 1-5 for a system size")
    analyze.add_argument("n", type=int)
    analyze.add_argument("--fanout", type=int, default=3)
    analyze.add_argument("--view", type=_positive_int, default=15)
    analyze.set_defaults(fn=_cmd_analyze)

    latency = sub.add_parser(
        "latency", help="per-process delivery-latency analysis"
    )
    latency.add_argument("n", type=int)
    latency.add_argument("--fanout", type=int, default=3)
    latency.set_defaults(fn=_cmd_latency)

    validate = sub.add_parser(
        "validate-partition",
        help="Monte-Carlo check of the Eq. 4 partition bound",
    )
    validate.add_argument("n", type=int)
    validate.add_argument("--view", type=_positive_int, default=1)
    validate.add_argument("--trials", type=int, default=5000)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(fn=_cmd_validate_partition)

    trace = sub.add_parser(
        "trace",
        help="run a fixed-seed sim with telemetry and print/export the "
             "counter, profile and trace-event summary",
    )
    trace.add_argument("-n", type=int, default=30, help="system size")
    trace.add_argument("--rounds", type=_positive_int, default=10)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--view", type=int, default=8, help="view bound l")
    trace.add_argument("--fanout", type=int, default=3, help="fanout F")
    trace.add_argument("--loss", type=float, default=0.0)
    trace.add_argument("--publishes", type=int, default=5,
                       help="publish one event per round this many rounds")
    trace.add_argument("--engine", choices=["serial", "sharded"],
                       default="serial")
    trace.add_argument("--shards", type=_positive_int, default=None)
    trace.add_argument("--no-tracing", action="store_true",
                       help="record counters/timers only, no per-message "
                            "trace events")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="write the registry as JSON lines")
    trace.add_argument("--prom", metavar="PATH", default=None,
                       help="write the registry in Prometheus text format")
    trace.add_argument("--validate", action="store_true",
                       help="validate both exports against the documented "
                            "schema")
    trace.set_defaults(fn=_cmd_trace)

    from .dst.mutations import MUTATIONS
    from .sim.scenarios import PRESET_NAMES

    fuzz = sub.add_parser(
        "fuzz",
        help="deterministic-simulation fuzzing with a differential engine "
             "oracle and automatic scenario shrinking (exit 1 on failure)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed; scenario i derives its own seed from "
                           "it, so any failure replays standalone")
    fuzz.add_argument("--count", type=_positive_int, default=25,
                      help="scenarios to generate and check")
    fuzz.add_argument("--max-n", type=int, default=60,
                      help="largest system size the generator samples")
    fuzz.add_argument("--max-rounds", type=int, default=40,
                      help="longest run the generator samples")
    fuzz.add_argument("--artifact-dir", metavar="DIR", default=None,
                      help="write a JSON repro artifact per failing case")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimising them")
    fuzz.add_argument("--mutation", default=None,
                      choices=sorted(MUTATIONS),
                      help="plant a known bug into every scenario "
                           "(debugging the fuzzer itself)")
    fuzz.add_argument("--byzantine", action="store_true",
                      help="draw every scenario from the adversarial family "
                           "(double-echo systems with Byzantine liars in "
                           "the fault plan)")
    fuzz.add_argument("--causal", action="store_true",
                      help="draw every scenario from the ordering family "
                           "(causal-delivery systems with hold-back gates "
                           "under loss and crashes); incompatible with "
                           "--byzantine and --columnar")
    fuzz.add_argument("--columnar", action="store_true",
                      help="differential-check the columnar engine against "
                           "the serial one on the honoured counter subset "
                           "instead of serial-vs-sharded full records; "
                           "single-core (workers=1) unless --workers says "
                           "otherwise")
    fuzz.add_argument("--workers", type=_positive_int, default=1,
                      metavar="N",
                      help="run the columnar side of the differential over "
                           "N shared-memory worker processes (requires "
                           "--columnar; default 1 = single-core, never "
                           "auto-detected from the host's core count — the "
                           "honoured verdict is identical for every N)")
    fuzz.add_argument("--preset", action="append", default=None,
                      choices=PRESET_NAMES,
                      help="shape scenario i by preset i mod k of the k "
                           "given (repeatable); --columnar refuses the "
                           "churn presets")
    fuzz.add_argument("--replay", metavar="CASE.json", default=None,
                      help="re-execute a repro artifact and require "
                           "bit-identical reproduction")
    fuzz.add_argument("--self-test", action="store_true",
                      help="plant each known bug, assert the fuzzer finds, "
                           "shrinks and replays it")
    fuzz.add_argument("--quiet", action="store_true",
                      help="print only the final summary")
    fuzz.set_defaults(fn=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager that closed early (e.g. `| head`).
        return 0
    except ValueError as exc:
        # Bad option *combinations* (e.g. --shards with a non-sharded
        # engine) are validated past argparse, by the engine registry.
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
