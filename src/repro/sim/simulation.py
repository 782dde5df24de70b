"""The Simulation facade: scheduler + rng + trace + metrics in one handle.

Every component in the reproduction receives a Simulation instance; it
is the single source of time, randomness, logging and measurement for a
run.
"""

from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceLog


class Simulation:
    """One self-contained simulated world."""

    def __init__(
        self,
        seed=0,
        trace_enabled=True,
        trace_capacity=None,
        trace_categories=None,
        metrics_enabled=True,
    ):
        self.scheduler = Scheduler()
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry(
            clock=lambda: self.scheduler.now, enabled=metrics_enabled
        )
        self.trace = TraceLog(
            clock=lambda: self.scheduler.now,
            enabled=trace_enabled,
            capacity=trace_capacity,
            categories=trace_categories,
            metrics=self.metrics,
        )
        if metrics_enabled:
            self.scheduler.bind_metrics(self.metrics)
        self._sequences = {}
        self.coverage = None  # the attached core.audit.CoverageEngine, if any

    def sequence(self, name, start=0):
        """Next value of the named per-simulation monotonic counter.

        Identity allocation (MAC addresses, connection ids, …) must
        hang off the Simulation, never off module state: two fresh
        Simulations — in one process or across shard workers — then
        hand out identical sequences, keeping replay a pure function
        of (seed, schedule).
        """
        value = self._sequences.get(name, start)
        self._sequences[name] = value + 1
        return value

    def coverage_changing(self):
        """Called just *before* a change that can move VIP coverage."""
        if self.coverage is not None:
            self.coverage.touch()

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self.scheduler.now

    def after(self, delay, callback, *args):
        """Schedule a callback after ``delay`` seconds."""
        return self.scheduler.after(delay, callback, *args)

    def at(self, time, callback, *args):
        """Schedule a callback at absolute simulated ``time``."""
        return self.scheduler.at(time, callback, *args)

    def run(self, until=None, max_events=None):
        """Advance the simulation; see :meth:`Scheduler.run`."""
        return self.scheduler.run(until=until, max_events=max_events)

    def run_for(self, duration, max_events=None):
        """Advance the simulation by ``duration`` seconds."""
        return self.scheduler.run(until=self.now + duration, max_events=max_events)

    def run_until_idle(self, max_events=10_000_000):
        """Run until the event queue drains."""
        return self.scheduler.run_until_idle(max_events=max_events)
