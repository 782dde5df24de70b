"""DET001 — host nondeterminism: real clocks, global randomness, threads.

Replay verdicts must be pure functions of (seed, schedule). Three host
facilities break that, and one table (``_SOURCES``) says where each is
forbidden:

* a real-clock read (``time.time()``, ``datetime.now()`` ...) makes
  timeouts and traces depend on host speed; simulated components take
  time from ``sim.now``. The scheduler and the bench runner, whose job
  is timing, own the real clock.
* the global ``random`` module is one OS-seeded Mersenne state per
  process; every draw comes from a named RngRegistry stream, and only
  :mod:`repro.sim.rng` imports the module. ``from random import
  Random`` (for seeded instances) stays legal anywhere.
* a thread, event loop, kernel socket or process pool brings in host
  timing no fault-schedule replay can reproduce. It is forbidden inside
  the simulated substrate (``config.sim_restricted``), except in the
  declared edge modules of ``config.sim_edge``; worker fan-out belongs
  in :mod:`repro.check`, which forks whole interpreters around the
  simulation, never inside it.
"""

import ast

from repro.analysis.engine import RNG_OWNER, path_in_scope, path_matches
from repro.analysis.registry import Rule, register

CLOCK = "clock"
RANDOM = "random"
CONCURRENCY = "concurrency"

#: source -> (module roots, files that own it, forbidden in the substrate only)
_SOURCES = {
    # The bench runner's whole job is timing pure simulation workloads, so
    # it joins the scheduler; the workloads themselves (repro/bench/suite.py)
    # stay virtual-time only.
    CLOCK: (("time", "datetime"), ("repro/sim/scheduler.py", "repro/bench/runner.py"), False),
    RANDOM: (("random",), (RNG_OWNER,), False),
    CONCURRENCY: (
        (
            "threading",
            "_thread",
            "asyncio",
            "socket",
            "socketserver",
            "selectors",
            "multiprocessing",
            "concurrent",
            "queue",
        ),
        (),
        True,
    ),
}

# The sources whose import alone is the finding; a clock only counts when read.
_IMPORT_ADVICE = {
    RANDOM: "the global `random` module; draw from a named RngRegistry stream "
    "(sim.rng) instead",
    CONCURRENCY: "real concurrency inside the simulated substrate; use the "
    "virtual-time scheduler and simulated network instead",
}

_TIME_READS = {"time", "monotonic", "perf_counter", "process_time", "time_ns"}
_DATE_READS = {"now", "utcnow", "today"}


@register
class HostNondeterminismRule(Rule):
    code = "DET001"
    name = "host-nondeterminism"
    description = (
        "real-clock read, global `random` module use, or a thread/event-loop/"
        "socket import inside the simulated substrate"
    )
    rationale = (
        "Replay verdicts must be pure functions of (seed, schedule). A "
        "real-clock read makes timeouts and traces depend on host speed; "
        "the global `random` module is one OS-seeded state per process "
        "that couples unrelated components; a real thread or socket in "
        "the substrate brings host timing no replay reproduces. The same "
        "failure artifact then passes on one machine and fails on "
        "another. Take time from sim.now, draw from a named RngRegistry "
        "stream, and schedule virtual-time work on the simulation; only "
        "the scheduler, the bench runner and sim.rng own the host "
        "facilities."
    )
    example_bad = (
        "def on_heartbeat(self, msg):\n"
        "    self.last_seen = time.time()             # host wall clock\n"
        "    self.backoff = random.uniform(0.0, 0.1)  # global OS-seeded state\n"
    )
    example_good = (
        "def on_heartbeat(self, msg):\n"
        "    self.last_seen = self.sim.now\n"
        "    self.backoff = self.rng(\"backoff\").uniform(0.0, 0.1)\n"
    )

    def check_module(self, module, config):
        roots = _forbidden_roots(module.path, config)
        if not roots:
            return
        nodes = module.index.nodes
        time_names, date_names, random_names = set(), set(), set()
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    source = roots.get(root)
                    if source == RANDOM:
                        random_names.add(alias.asname or root)
                    if source in _IMPORT_ADVICE:
                        yield module.finding(
                            self.code,
                            node,
                            "import {}: {}".format(alias.name, _IMPORT_ADVICE[source]),
                        )
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                source = roots.get(node.module.split(".")[0])
                names = [alias.name for alias in node.names]
                if source == CLOCK:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if node.module == "time" and alias.name in _TIME_READS:
                            time_names.add(local)
                        elif node.module == "datetime" and alias.name in ("datetime", "date"):
                            date_names.add(local)
                elif source == CONCURRENCY or (source == RANDOM and names != ["Random"]):
                    yield module.finding(
                        self.code,
                        node,
                        "from {} import {}: {}".format(
                            node.module, ", ".join(names), _IMPORT_ADVICE[source]
                        ),
                    )
        clock = "time" in roots
        for node in nodes:
            if clock and isinstance(node, ast.Call):
                read = _clock_read(node.func, time_names, date_names)
                if read is not None:
                    yield module.finding(
                        self.code,
                        node,
                        "wall-clock read {}(); use the simulation clock "
                        "(sim.now) instead".format(read),
                    )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in random_names
            ):
                yield module.finding(
                    self.code,
                    node,
                    "random.{}: {}".format(node.attr, _IMPORT_ADVICE[RANDOM]),
                )


def _forbidden_roots(path, config):
    """``{module root: source}`` for every source ``path`` may not use."""
    roots = {}
    for source, (modules, owners, substrate_only) in _SOURCES.items():
        if any(path_matches(path, owner) for owner in owners):
            continue
        if substrate_only and (
            not path_in_scope(path, config.sim_restricted)
            or config.edge_reason(path) is not None
        ):
            continue
        roots.update(dict.fromkeys(modules, source))
    return roots


def _clock_read(func, time_names, date_names):
    """The clock read a call target spells, or None."""
    if isinstance(func, ast.Name):
        return func.id if func.id in time_names else None
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if isinstance(base, ast.Name) and base.id == "time" and func.attr in _TIME_READS:
        return "time." + func.attr
    if func.attr not in _DATE_READS:
        return None
    # datetime.now() with `from datetime import datetime`, or
    # datetime.datetime.now() with `import datetime`.
    if isinstance(base, ast.Name) and (base.id in date_names or base.id == "datetime"):
        return "{}.{}".format(base.id, func.attr)
    if (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "datetime"
        and base.attr in ("datetime", "date")
    ):
        return "datetime.{}.{}".format(base.attr, func.attr)
    return None
