"""Command-line interface: run the paper's experiments from a shell.

    python -m repro table1
    python -m repro figure5 --sizes 2 6 12 --trials 3 --chart
    python -m repro graceful --trials 10
    python -m repro router --rip-interval 30
    python -m repro baselines
    python -m repro tuning
    python -m repro check --trials 32 --workers 4
    python -m repro flow --users 1000000 --fault nic_down
    python -m repro observe --fault crash --format jsonl
    python -m repro bench
    python -m repro lint src/repro --format json
    python -m repro all

Each experiment subcommand prints the paper-style table(s) produced by
the corresponding experiment class in :mod:`repro.experiments`, whose
constructor keywords its flags set and whose defaults it keeps;
``check`` runs a :mod:`repro.check` fault-schedule campaign (or
replays a saved failure artifact) and exits nonzero on violations.
"""

import argparse
import json
import sys

#: Choices the parser offers before any package is imported; a test holds
#: them to ``sorted(check.fixtures.FIXTURES)`` and ``obs.observe.FAULT_MODES``.
FIXTURE_NAMES = ("broken-balance", "standard")
FAULT_MODES = ("crash", "nic_down", "shutdown")


def _bounded(kind, accepts, requirement):
    """An argparse ``type=``: a ``kind`` that ``accepts`` lets through."""

    def parse(text):
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(
                "must be {}, got {}".format(requirement, text)
            )
        return value

    parse.__name__ = kind.__name__  # argparse says "invalid int value: 'x'"
    return parse


_positive_int = _bounded(int, lambda value: value >= 1, "at least 1")
_positive_float = _bounded(float, lambda value: 0.0 < value < float("inf"), "positive and finite")


def _sized(least, most, plan):
    """A cluster size within the address ``plan`` of the cluster it builds."""
    return _bounded(
        int,
        lambda value: least <= value <= most,
        "at least {} and at most {} (the {} address plan)".format(least, most, plan),
    )


#: Servers and VIPs per cluster (a fault's victim needs a survivor); a test
#: holds the upper limits to ``WebClusterScenario`` and ``CheckCluster``.
WEB_PLAN = {"servers": 140, "vips": 50}
CHECK_PLAN = {"servers": 90, "vips": 100}
_web_servers = _sized(2, WEB_PLAN["servers"], "web cluster's")
_web_vips = _sized(1, WEB_PLAN["vips"], "web cluster's")
_check_servers = _sized(2, CHECK_PLAN["servers"], "check cluster's")
_check_vips = _sized(1, CHECK_PLAN["vips"], "check cluster's")
#: Zero events is a fault-free trial.
_event_count = _bounded(int, lambda value: value >= 0, "at least 0")
#: A threshold of zero fails on any slowdown at all.
_fraction = _bounded(float, lambda value: 0.0 <= value < float("inf"), "at least 0 and finite")

_TRIALS = ("--trials", {"type": _positive_int})
_DURATION = ("--duration", {"type": _positive_float})
_SERVERS = ("--servers", {"type": _web_servers, "dest": "cluster_size", "metavar": "SERVERS"})

#: The paper's experiments, in the order ``all`` runs them: subcommand ->
#: (help, classes in repro.experiments, flags). A flag's ``dest`` is a
#: constructor keyword and its default the constructor's own, so a flag
#: not given stays out of the namespace.
EXPERIMENTS = {
    "table1": ("Table 1 and the notification windows", ("table1.Table1Experiment",),
               (_TRIALS, _SERVERS)),
    "figure5": ("Figure 5 cluster-size sweep", ("figure5.Figure5Experiment",), (
        ("--sizes", {"type": _web_servers, "nargs": "+", "dest": "cluster_sizes",
                     "metavar": "SIZES"}),
        _TRIALS,
        ("--vips", {"type": _web_vips, "dest": "n_vips", "metavar": "VIPS"}),
        ("--chart", {"action": "store_true", "help": "also print an ASCII chart"}),
    )),
    "graceful": ("voluntary-leave interruption", ("graceful.GracefulLeaveExperiment",),
                 (_TRIALS, _SERVERS)),
    "router": ("virtual-router fail-over (section 5.2)",
               ("router_experiment.RouterFailoverExperiment",),
               (_TRIALS, ("--rip-interval", {"type": _positive_float}))),
    "baselines": ("VRRP / HSRP / Fake comparison (section 7)",
                  ("baselines_experiment.BaselineComparison",), ()),
    "tuning": ("false positives + sensitivity sweeps",
               ("tuning.FalsePositiveExperiment", "tuning.SensitivityExperiment"),
               (_DURATION, _TRIALS)),
    "load": ("daemon priority on loaded machines", ("load.LoadedClusterExperiment",),
             (_DURATION, _TRIALS)),
    "availability": ("pool-wide availability under faults",
                     ("availability.AvailabilityExperiment",),
                     (("--window", {"type": _positive_float}),
                      ("--faults", {"type": _positive_int}),
                      _TRIALS)),
}


def build_parser():
    """The argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'N-Way Fail-Over Infrastructure "
        "for Reliable Servers and Routers' (DSN 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (text, _classes, flags) in EXPERIMENTS.items():
        experiment = sub.add_parser(command, help=text)
        for option, settings in flags:
            experiment.add_argument(option, default=argparse.SUPPRESS, **settings)

    check = sub.add_parser(
        "check", help="fault-schedule exploration campaign (repro.check)"
    )
    check.add_argument("--trials", type=_positive_int, default=16)
    check.add_argument("--workers", type=_positive_int, default=1)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--servers", type=_check_servers, default=4)
    check.add_argument("--vips", type=_check_vips, default=8)
    check.add_argument("--horizon", type=_positive_float, default=40.0)
    check.add_argument("--events", type=_event_count, default=8)
    check.add_argument("--fixture", default="standard", choices=FIXTURE_NAMES)
    check.add_argument(
        "--gray", action="store_true",
        help="gray-failure campaign: asymmetric partitions, burst loss, "
        "slow hosts, clock skew and wedged daemons against the hardened "
        "cluster (K-miss detection, ARP retries, supervisors)",
    )
    check.add_argument(
        "--corrupt", action="store_true",
        help="state-corruption campaign: arbitrary mutations of VIP "
        "tables, membership views, ordering counters and epochs mixed "
        "with gray faults, against the self-stabilizing cluster "
        "(periodic invariant audits on top of the gray hardening)",
    )
    check.add_argument(
        "--artifacts", default="check-artifacts", metavar="DIR",
        help="directory for shrunk failure artifacts",
    )
    check.add_argument("--no-shrink", action="store_true")
    check.add_argument(
        "--replay", default=None, metavar="ARTIFACT",
        help="replay a saved artifact instead of running a campaign",
    )
    check.add_argument(
        "--repeat", type=_positive_int, default=1, help="replay the artifact N times"
    )
    check.add_argument(
        "--shards", type=_bounded(int, lambda value: value >= 2, "at least 2"), default=None,
        metavar="N", help="serial-vs-sharded parity trial instead of a campaign: run one "
        "n256 scale scenario on the serial kernel and again partitioned "
        "across N shard worker processes (pair with --workers N), write "
        "both merged artifacts into --artifacts, and exit nonzero unless "
        "they are byte-identical",
    )

    flow = sub.add_parser(
        "flow", help="flow-level fail-over run: requests lost at 10^5-10^7 users"
    )
    flow.add_argument("--seed", type=int, default=7)
    flow.add_argument("--servers", type=_web_servers, default=3)
    flow.add_argument("--vips", type=_web_vips, default=10)
    flow.add_argument(
        "--users", type=_positive_int, default=1_000_000,
        help="aggregate client population spread across the VIPs",
    )
    flow.add_argument(
        "--rate", type=_positive_float, default=1.0, help="requests/second per user"
    )
    flow.add_argument(
        "--tick", type=_positive_float, default=0.05,
        help="flow engine tick (sim seconds)",
    )
    flow.add_argument("--fault", default="nic_down", choices=FAULT_MODES)
    flow.add_argument(
        "--observe", type=_positive_float, default=15.0,
        help="simulated seconds to run after the fault",
    )
    flow.add_argument("--format", choices=("text", "json"), default="text")

    observe = sub.add_parser(
        "observe", help="instrumented fail-over run: metric catalog + episodes"
    )
    observe.add_argument("--seed", type=int, default=7)
    observe.add_argument("--servers", type=_web_servers, default=3)
    observe.add_argument("--vips", type=_web_vips, default=6)
    observe.add_argument("--fault", default="crash", choices=FAULT_MODES)
    observe.add_argument(
        "--settle", type=_positive_float, default=10.0,
        help="simulated seconds to converge before the fault",
    )
    observe.add_argument(
        "--duration", type=_positive_float, default=10.0,
        help="simulated seconds to observe after the fault",
    )
    observe.add_argument("--format", choices=("text", "jsonl"), default="text")
    observe.add_argument("--cost", action="store_true", help="print wall time by kind of event")
    observe.add_argument(
        "--hosts", type=_sized(2, 4096, "scale cluster's"),
        help="with --cost: cost --duration seconds of a settled N-host scale cluster",
    )
    observe.add_argument(
        "--shards", type=_bounded(int, lambda value: value >= 2, "at least 2"), metavar="N",
        help="with --cost: per shard, the kernel's cost of --duration seconds of a "
        "--hosts (default 256) cluster from boot on N forked workers",
    )

    bench = sub.add_parser(
        "bench", help="kernel tripwires and the one record of performance"
    )
    bench.add_argument(
        "--sysbench", default=None, metavar="RESULTS.json",
        help="instead of running the tripwires, append the summary of this "
        "`sysbench/run.py --all --out` result set to the record",
    )
    bench.add_argument(
        "--output", default="BENCH_kernel.json", metavar="FILE",
        help="the record to compare against and append to",
    )
    bench.add_argument(
        "--threshold", type=_fraction, default=0.25, metavar="FRACTION",
        help="fail when a bench median slows by more than this (default 0.25)",
    )
    bench.add_argument(
        "--repeat", type=_positive_int, default=5, metavar="N",
        help="repetitions per bench (default 5)",
    )
    bench.add_argument(
        "--no-compare", action="store_true",
        help="skip the regression gate against the previous run",
    )
    bench.add_argument(
        "--no-write", action="store_true",
        help="do not append this run to the record",
    )

    lint = sub.add_parser(
        "lint", help="determinism & protocol-invariant static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--state-machines", action="store_true", dest="state_machines",
        help="emit the extracted protocol state machines as JSON and exit",
    )

    sub.add_parser("all", help="run every experiment in sequence")
    return parser


def _reject(args, argument, problem):
    """Exit 2 on the parser's one error line, for what only a handler can check."""
    sys.stderr.write("repro {}: error: argument {}: {}\n".format(args.command, argument, problem))
    raise SystemExit(2)


def _run_experiment(args, out):
    """Run a subcommand of :data:`EXPERIMENTS`: each class gets the keywords it takes."""
    import importlib
    import inspect

    given = vars(args)
    for index, path in enumerate(EXPERIMENTS[args.command][1]):
        module, name = path.rsplit(".", 1)
        factory = getattr(importlib.import_module("repro.experiments." + module), name)
        takes = inspect.signature(factory).parameters
        experiment = factory(**{key: value for key, value in given.items() if key in takes})
        results = experiment.run()
        if index:
            out("")
        out(experiment.format(results))
        if given.get("chart"):
            out("")
            out(experiment.format_chart(results))


def _run_all(args, out):
    for command in EXPERIMENTS:
        out("=" * 72)
        _run_experiment(argparse.Namespace(command=command), out)
        out("")


#: The ``check`` flags a trial mode reads besides its own: any other set
#: away from its default exits 2 rather than being ignored.
_MODE_FLAGS = {"--shards": ("--workers", "--seed", "--artifacts"), "--replay": ("--repeat",)}


def _run_shard_parity(args, out):
    import os

    from repro.check.schedule import FaultSchedule, scale_schedule
    from repro.check.trial import make_spec, run_trial
    from repro.sim.shard.merge import artifact_bytes

    hosts, cell = 256, 32
    if args.shards > hosts // cell:
        _reject(args, "--shards", "at most {}, one per {}-host cell of {} hosts".format(
            hosts // cell, cell, hosts))
    # Two kill/revive pairs 3 s apart, each revived after 4 s; the
    # horizon lets the last revive settle for 8 s.
    drawn = scale_schedule(args.seed, hosts, cell, 2, spacing=3.0, revive_after=4.0)
    spec = make_spec(
        args.seed, FaultSchedule(drawn.events, drawn.tail_time() + 8.0), stack="scale",
        n_servers=hosts, n_vips=2048, segment_size=cell, flow_users=100000,
        shards=args.shards, workers=args.workers,
    )
    out(
        "shard parity: n{} scale scenario, serial vs {} shards "
        "({} workers) ...".format(hosts, args.shards, args.workers)
    )
    result = run_trial(spec)
    os.makedirs(args.artifacts, exist_ok=True)
    for tag in ("serial", "sharded"):
        path = os.path.join(args.artifacts, "shard-parity-{}.json".format(tag))
        with open(path, "wb") as handle:
            handle.write(artifact_bytes(result["{}_artifact".format(tag)]))
            handle.write(b"\n")
        out("  wrote {}".format(path))
    out("  verdict={verdict} events={events_fired}".format(**result))
    return 0 if result["verdict"] == "pass" else 1


def _run_check(args, out):
    mode = "--shards" if args.shards is not None else "--replay" if args.replay else None
    if mode is not None:
        defaults = vars(build_parser().parse_args(["check"]))
        for dest, value in vars(args).items():
            flag = "--" + dest.replace("_", "-")
            if value != defaults[dest] and flag not in (mode,) + _MODE_FLAGS[mode]:
                _reject(args, flag, "not with {}, which runs a trial of its own".format(mode))
    if args.shards is not None:
        return _run_shard_parity(args, out)
    if args.replay is not None:
        from repro.check.replay import load_artifact, replay

        try:
            artifact = load_artifact(args.replay)
        except (OSError, ValueError) as problem:
            _reject(args, "--replay", "{}: {}".format(args.replay, problem))
        code = 0
        for _ in range(args.repeat):
            report = replay(artifact)
            out(report.format())
            if not report.match:
                code = 1
        return code
    from repro.check.campaign import run_campaign

    report = run_campaign(
        base_seed=args.seed,
        trials=args.trials,
        workers=args.workers,
        n_servers=args.servers,
        n_vips=args.vips,
        horizon=args.horizon,
        events_per_trial=args.events,
        fixture=args.fixture,
        shrink=not args.no_shrink,
        artifacts_dir=args.artifacts,
        gray=args.gray,
        corrupt=args.corrupt,
    )
    out(report.format())
    return 0 if report.passed else 1


def _run_flow(args, out):
    from repro.apps.webcluster import WebClusterScenario
    from repro.gcs.config import SpreadConfig

    scenario = WebClusterScenario(
        seed=args.seed,
        n_servers=args.servers,
        n_vips=args.vips,
        spread_config=SpreadConfig.tuned(),
        flow_users=args.users,
        flow_rate=args.rate,
        flow_tick=args.tick,
    )
    scenario.start()
    scenario.start_probe()
    if not scenario.run_until_stable():
        out("cluster failed to stabilize")
        return 1
    scenario.flow_engine.reset_counters()
    failover = scenario.measure_failover(args.fault, args.observe)
    episode = failover.failover_episode()
    totals = scenario.flow_engine.totals()
    payload = {
        "fault": args.fault,
        "victim": failover.victim,
        "flow": totals,
        "probe_interruption": failover.interruption,
        "episode": episode.to_dict() if episode is not None else None,
    }
    if args.format == "json":
        out(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    out("flow fail-over: {} users @ {}/s across {} VIPs".format(
        totals["users"], args.rate, args.vips
    ))
    out("  fault: {} against {}".format(args.fault, failover.victim))
    out("  offered {}  served {}  lost {}".format(
        totals["offered"], totals["served"], totals["lost"]
    ))
    for reason, count in totals["lost_by_reason"].items():
        out("    lost[{}] = {}".format(reason, count))
    if payload["probe_interruption"] is not None:
        out("  probe interruption: {:.4f}s".format(payload["probe_interruption"]))
    if episode is not None:
        out("  episode requests_lost: {}  goodput_pct: {}".format(
            episode.requests_lost,
            "n/a" if episode.goodput_pct is None else round(episode.goodput_pct, 3),
        ))
    return 0


def _run_observe(args, out):
    if args.cost:
        return _run_cost(args, out)
    for flag, value in (("--hosts", args.hosts), ("--shards", args.shards)):
        if value is not None:
            _reject(args, flag, "only costs a scale cluster, with --cost")
    from repro.obs.dashboard import jsonl_observation, render_observation
    from repro.obs.observe import run_observation

    observed = run_observation(
        seed=args.seed,
        n_servers=args.servers,
        n_vips=args.vips,
        fault=args.fault,
        settle=args.settle,
        observe_for=args.duration,
    )
    if observed is None:
        out("cluster had not settled after {:g} seconds (--settle)".format(args.settle))
        return 1
    failover, _coverage = observed
    render = jsonl_observation if args.format == "jsonl" else render_observation
    out(render(failover, args.seed, args.fault).rstrip("\n"))
    return 0


def _run_cost(args, out):
    from repro.obs import cost

    if args.shards is not None:
        hosts = 256 if args.hosts is None else args.hosts
        cells = -(-hosts // 32)
        if args.shards > cells:
            _reject(args, "--shards", "at most {}, one per 32-host cell of {} hosts".format(
                cells, hosts))
        rows, wall = cost.shard_costs(hosts, args.shards, args.duration, args.seed)
        out(cost.render_shards(rows, wall, "kernel cost: {} hosts on {} forked shards, {:g} "
                               "simulated s from boot (seed {})".format(
                                   hosts, args.shards, args.duration, args.seed)))
        return 0
    if args.hosts is None:
        measured = cost.measure(cost.observe_run(
            seed=args.seed, n_servers=args.servers, n_vips=args.vips,
            fault=args.fault, settle=args.settle, observe_for=args.duration,
        ))
        title = "cost by kind: observe --fault {} (seed {})".format(args.fault, args.seed)
    else:
        measured = cost.measure(cost.scale_run(args.hosts, args.duration, args.seed))
        title = "cost by kind: {} hosts, {:g} simulated s after settle (seed {})".format(
            args.hosts, args.duration, args.seed)
    if measured is None:
        out("cluster had not settled; nothing to cost")
        return 1
    out(cost.render(*measured, title=title))
    return 0


def _run_bench(args, out):
    from repro.bench import (
        BenchComparison,
        format_run,
        format_summary,
        load_trajectory,
        run_suite,
        save_trajectory,
        sysbench_summary,
    )

    runs = load_trajectory(args.output)
    code = 0
    if args.sysbench is not None:
        try:
            with open(args.sysbench) as handle:
                current = sysbench_summary(json.load(handle))
        except (OSError, ValueError) as problem:
            out("{}: {}".format(args.sysbench, problem))
            return 2
        out(format_summary(current))
    else:
        current = run_suite(args.repeat, progress=out)
        out(format_run(current))
        if not args.no_compare:
            comparison = BenchComparison(runs, current, threshold=args.threshold)
            out(comparison.format())
            if not comparison.ok:
                out("bench regression(s): {}".format(", ".join(comparison.regressions)))
                code = 1
    if not args.no_write:
        save_trajectory(args.output, runs + [current])
        out("run appended to {}".format(args.output))
    return code


def _run_lint(args, out):
    import os

    from repro import analysis
    from repro.analysis.engine import collect_files
    from repro.analysis.report import render_json, render_text

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        _reject(args, "paths", "no such file or directory: {}".format(", ".join(missing)))
    empty = [path for path in args.paths if not collect_files([path])]
    if empty:
        _reject(args, "paths", "no Python file in: {}".format(", ".join(empty)))
    if args.state_machines:
        modules = analysis.load_project(args.paths)
        out(json.dumps(analysis.render_state_machines(modules), indent=2, sort_keys=True))
        return 0
    result = analysis.lint(args.paths)
    if args.format == "json":
        out(render_json(result).rstrip("\n"))
    else:
        out(render_text(result))
    return 0 if result.ok else 1


def main(argv=None, out=print):
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = dict.fromkeys(EXPERIMENTS, _run_experiment)
    handlers.update(all=_run_all, check=_run_check, flow=_run_flow, observe=_run_observe,
                    bench=_run_bench, lint=_run_lint)
    try:
        return int(handlers[args.command](args, out) or 0)
    except BrokenPipeError:
        # The reader left early (``repro ... | head``): stop quietly, and
        # leave the exit's flush of stdout nothing to fail on.
        sys.stdout = None
        return 1


if __name__ == "__main__":
    sys.exit(main())
