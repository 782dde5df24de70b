"""Base class for simulated components (daemons, hosts, probes).

A Process owns a handle to the :class:`~repro.sim.simulation.Simulation`
and gets convenience methods for timers, tracing and randomness. It also
carries an ``alive`` flag: once stopped (crashed), all of its pending
timers are cancelled and late callbacks become no-ops, mirroring a
process that has been killed.
"""

from repro.sim.timers import PeriodicTimer, Timer


class Process:
    """A named simulated component with managed timers and trace access."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.alive = True
        self.time_scale = 1.0
        self._timers = []

    @property
    def now(self):
        """Current simulated time."""
        return self.sim.now

    def trace(self, category, event, **details):
        """Emit a trace record attributed to this process."""
        self.sim.trace.emit(category, self.name, event, **details)

    def rng(self, purpose="default"):
        """Deterministic random stream scoped to this process."""
        return self.sim.rng.stream("{}/{}".format(self.name, purpose))

    def timer(self, callback, name=""):
        """Create a managed one-shot timer; guarded by ``alive``.

        Delays are stretched by ``time_scale`` (a slowed host's local
        clock runs late — the gray-failure slowdown injection).
        """
        timer = Timer(self.sim.scheduler, callback, name=name, owner=self)
        self._timers.append(timer)
        return timer

    def periodic(self, callback, interval, name=""):
        """Create a managed periodic timer; guarded by ``alive``."""
        timer = PeriodicTimer(self.sim.scheduler, callback, interval, name=name, owner=self)
        self._timers.append(timer)
        return timer

    def after(self, delay, callback, *args):
        """One-shot scheduled call guarded by ``alive`` (also scaled)."""
        return self.sim.scheduler.after(
            delay * self.time_scale, self._guard(callback), *args
        )

    def set_time_scale(self, factor):
        """Stretch this process's timer delays by ``factor`` from now on
        (re-filing skipped periodic ticks: :meth:`PeriodicTimer.rescaled`)."""
        self.time_scale = factor
        for timer in self._timers:
            timer.rescaled()

    def stop(self):
        """Kill the process: cancel every managed timer, drop callbacks."""
        self.sim.coverage_changing()
        self.alive = False
        for timer in self._timers:
            timer.cancel()

    def restart(self):
        """Mark the process alive again (timers must be re-armed by caller)."""
        self.sim.coverage_changing()
        self.alive = True

    def _guard(self, callback):
        def guarded(*args):
            if self.alive:
                callback(*args)

        return guarded

    def __repr__(self):
        return "{}({!r}, {})".format(
            type(self).__name__, self.name, "alive" if self.alive else "stopped"
        )
