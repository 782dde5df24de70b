"""Daemon supervision: detect wedged or dead daemons and restart them.

The paper's architecture assumes the GCS daemon either works or
fail-stops; a real deployment also sees the *gray* case — the process
is scheduled, its port is bound, but it makes no progress (a deadlocked
event loop, a livelocked disk writer). Peers eventually evict it via
failure detection, but nothing on the host ever brings it back.

:class:`DaemonSupervisor` closes that gap the way production inits do:
a periodic local health check watches the host's Spread daemon for
death or stalled progress (no protocol traffic sent across several
consecutive checks while claiming to be up) and restarts it with a
capped exponential backoff. The Wackamole daemon, which reconnects to
"whatever GCS daemon currently runs on this host" on its own (§4.2),
is optionally supervised too for the process-killed-outright case.

Progress is judged from the daemon's ``messages_sent`` counter: a
healthy daemon heartbeats every ``heartbeat_timeout``, so the check
interval must exceed one heartbeat interval or a healthy daemon would
look stalled. Everything is deterministic — no randomness, restart ids
are sequence numbers — so supervised runs replay byte-identically.
"""

from repro.gcs.daemon import SpreadDaemon
from repro.sim.process import Process


class DaemonSupervisor(Process):
    """Local watchdog for one host's protocol daemons.

    ``settings`` is a profile row's
    :class:`~repro.stabilization.Supervision`.
    """

    def __init__(self, host, settings, on_restart=None):
        super().__init__(host.sim, "supervisor@{}".format(host.name))
        self.host = host
        self.settings = settings
        self.on_restart = on_restart
        host.register_service(self)
        self._wack = None
        self._timer = self.periodic(self._check, settings.check_interval, name="supervise")
        self._last_progress = None  # (daemon, messages_sent)
        self._stalled_for = 0
        self._backoff = settings.restart_backoff
        self._next_restart_at = 0.0
        self._last_restart_at = None
        self.restarts = 0
        self.wack_restarts = 0
        self.wedges_detected = 0
        self._m_restarts = self.sim.metrics.counter(
            "core.daemon_restarts", node=host.name
        )

    def watch_wackamole(self, daemon):
        """Also restart this host's Wackamole daemon if it dies."""
        self._wack = daemon

    @property
    def wackamole(self):
        """The currently supervised Wackamole daemon (tracks restarts)."""
        return self._wack

    def start(self):
        """Begin the periodic health checks."""
        self._timer.start()

    # ------------------------------------------------------------------

    def _check(self):
        if not self.host.alive:
            return
        self._maybe_reset_backoff()
        daemon = getattr(self.host, "spread_daemon", None)
        if daemon is None:
            return
        if not daemon.alive:
            self._restart_spread(daemon, "dead")
        elif daemon.started and self._stalled(daemon):
            self.wedges_detected += 1
            self.trace("supervisor", "wedge_detected", daemon=daemon.daemon_id)
            self._restart_spread(daemon, "wedged")
        if self._wack is not None and not self._wack.alive:
            self._restart_wackamole()

    def _stalled(self, daemon):
        """True after the settings' ``stall_checks`` checks with no traffic sent."""
        sent = daemon.messages_sent
        last = self._last_progress
        self._last_progress = (daemon, sent)
        if last is None or last[0] is not daemon or last[1] != sent:
            self._stalled_for = 0
            return False
        self._stalled_for += 1
        return self._stalled_for >= self.settings.stall_checks

    def _maybe_reset_backoff(self):
        if (
            self._last_restart_at is not None
            and self.now - self._last_restart_at >= self.settings.stable_after
        ):
            self._backoff = self.settings.restart_backoff
            self._last_restart_at = None

    def _restart_spread(self, old, cause):
        if self.now < self._next_restart_at:
            return
        self.restarts += 1
        self._m_restarts.inc()
        if old.alive:
            old.crash(cause="supervisor restart")
        replacement = SpreadDaemon(
            self.host,
            old.lan,
            config=old.config,
            daemon_id="{}-s{}".format(self.host.name, self.restarts),
            realtime=old.realtime,
        )
        replacement.start()
        self._last_progress = None
        self._stalled_for = 0
        self._arm_backoff()
        self.trace(
            "supervisor",
            "restart_spread",
            cause=cause,
            old=old.daemon_id,
            new=replacement.daemon_id,
        )
        if self.on_restart is not None:
            self.on_restart("spread", old, replacement)

    def _restart_wackamole(self):
        if self.now < self._next_restart_at:
            return
        old = self._wack
        self.wack_restarts += 1
        self._m_restarts.inc()
        spread = getattr(self.host, "spread_daemon", None)
        if spread is None:
            return
        from repro.core.daemon import WackamoleDaemon

        # Fresh client name: if the old session was never torn down the
        # daemon still holds it, and a name collision would wedge the
        # replacement in its reconnect loop forever.
        replacement = WackamoleDaemon(
            self.host,
            spread,
            old.config,
            client_name="{}-r{}".format(old.client_name, self.wack_restarts),
        )
        replacement.start()
        self._wack = replacement
        self._arm_backoff()
        self.trace("supervisor", "restart_wackamole", new=replacement.name)
        if self.on_restart is not None:
            self.on_restart("wackamole", old, replacement)

    def _arm_backoff(self):
        self._last_restart_at = self.now
        self._next_restart_at = self.now + self._backoff
        self._backoff = min(self._backoff * 2.0, self.settings.backoff_cap)

    def __repr__(self):
        return "DaemonSupervisor({}, restarts={})".format(self.host.name, self.restarts)
