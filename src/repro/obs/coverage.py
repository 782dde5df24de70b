"""Continuous cluster observation: coverage, duplication, daemon states.

This is the sampling half of the observability layer. A
:class:`ClusterObserver` polls a set of Wackamole daemons on a fixed
simulated period, keeps the raw samples, and feeds the cluster-level
time-weighted metrics (``core.vips_covered``, ``core.vips_duplicated``,
``core.daemons_run``, ``core.coverage_gap``) into the simulation's
:class:`~repro.obs.metrics.MetricsRegistry`, so a dashboard can report
*how long* the pool sat below full coverage, not just that it dipped.
What counts as a slot and as covering one is the coverage auditor's
definition (:class:`~repro.core.audit.CoverageAuditor`), not a second one.
"""

from repro.core.audit import CoverageAuditor
from repro.core.state import GATHER, RUN


class ClusterSample:
    """One observation instant."""

    __slots__ = ("time", "covered", "duplicated", "run_daemons", "gather_daemons",
                 "live_daemons")

    def __init__(self, time, covered, duplicated, run_daemons, gather_daemons,
                 live_daemons):
        self.time = time
        self.covered = covered
        self.duplicated = duplicated
        self.run_daemons = run_daemons
        self.gather_daemons = gather_daemons
        self.live_daemons = live_daemons

    def __repr__(self):
        return "ClusterSample(t={:.2f}, covered={}, dup={}, run={})".format(
            self.time, self.covered, self.duplicated, self.run_daemons
        )


class ClusterObserver:
    """Periodic sampler over a set of Wackamole daemons."""

    def __init__(self, sim, wacks, interval=0.1, node="cluster"):
        self.sim = sim
        self.wacks = list(wacks)
        self.interval = float(interval)
        self.samples = []
        self._running = False
        metrics = sim.metrics
        self._m_covered = metrics.timeseries("core.vips_covered", node=node)
        self._m_duplicated = metrics.timeseries("core.vips_duplicated", node=node)
        self._m_run = metrics.timeseries("core.daemons_run", node=node)
        # Cumulative simulated seconds observed with >= 1 VIP uncovered:
        # the operator-facing "coverage gap" number.
        self._m_gap = metrics.counter("core.coverage_gap_samples", node=node)
        self._slots = CoverageAuditor._slots(self.wacks)

    def start(self):
        """Begin sampling every ``interval`` simulated seconds."""
        if not self._running:
            self._running = True
            self._tick()
        return self

    def stop(self):
        """Stop sampling (recorded samples are kept)."""
        self._running = False

    def _tick(self):
        if not self._running:
            return
        sample = self._observe()
        self.samples.append(sample)
        self._m_covered.observe(sample.covered)
        self._m_duplicated.observe(sample.duplicated)
        self._m_run.observe(sample.run_daemons)
        if sample.covered < len(self._slots):
            self._m_gap.inc()
        self.sim.after(self.interval, self._tick)

    def _observe(self):
        live = [w for w in self.wacks if w.alive and w.host.alive]
        covered = 0
        duplicated = 0
        for slot in self._slots:
            owners = sum(1 for wack in live if CoverageAuditor._covers(wack, slot))
            if owners >= 1:
                covered += 1
            if owners > 1:
                duplicated += 1
        return ClusterSample(
            time=self.sim.now,
            covered=covered,
            duplicated=duplicated,
            run_daemons=sum(1 for w in live if w.machine.state == RUN),
            gather_daemons=sum(1 for w in live if w.machine.state == GATHER),
            live_daemons=len(live),
        )

    # ------------------------------------------------------------------
    # analysis

    def series(self, metric):
        """[(time, value)] for one sample attribute."""
        return [(s.time, getattr(s, metric)) for s in self.samples]

    def coverage_dip(self):
        """(start, end, depth) of the first drop below full coverage.

        Returns None when coverage never dipped. ``depth`` is the
        number of simultaneously uncovered VIPs at the worst point.
        """
        if not self.samples:
            return None
        full = max(s.covered for s in self.samples)
        start = end = None
        depth = 0
        for sample in self.samples:
            if sample.covered < full:
                if start is None:
                    start = sample.time
                end = sample.time
                depth = max(depth, full - sample.covered)
            elif start is not None:
                break
        if start is None:
            return None
        return (start, end, depth)
