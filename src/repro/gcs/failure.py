"""Heartbeat-driven failure detection.

Implements the timing model behind Table 1: every daemon broadcasts a
heartbeat each ``heartbeat_timeout``; a peer is suspected when nothing
has been heard from it for ``fault_detection_timeout``. Because the
failure can occur anywhere inside a heartbeat interval, the time from
failure to suspicion falls in
``[fault_detection - heartbeat, fault_detection]`` — the paper's
detection window.

Gray-failure hardening (the profile's ``suspicion_misses`` = K > 1):
the first timer expiry is a *miss*, not a suspicion. Each miss extends
the deadline by one heartbeat interval; only K consecutive expiries
with no traffic in between raise the suspicion, so a burst-lossy link
or a slowed host that still gets the occasional heartbeat through
never flaps the membership. Total suspicion latency becomes
``fault_detection + (K - 1) * heartbeat``. K = 1 reproduces the
historical single-miss detector exactly — same timers, same firing
times.

Lifecycle contract: :meth:`heard_from` is a safe no-op for a peer that
is not watched — including after :meth:`stop` — and never creates or
resurrects a timer. Only :meth:`watch` arms timers: a peer's one timer,
made at its first watch, lives as long as the detector.
"""

from functools import partial

from repro.sim.timers import Timer


class FailureDetector:
    """Per-peer suspicion timers for the members of the current view."""

    def __init__(self, daemon, on_suspect):
        self._daemon = daemon
        self._on_suspect = on_suspect
        self._timers = {}  # peer -> its Timer, from its first watch on
        self._watched = {}  # the subset of _timers now armed for this view
        self._misses = {}
        self.suspicions = 0
        self.misses_ridden_out = 0

    @property
    def watched(self):
        """The peers currently being monitored."""
        return frozenset(self._watched)

    def watch(self, peers):
        """Monitor exactly ``peers``; timers start fresh from now."""
        self.stop()
        timeout = self._daemon.config.fault_detection_timeout
        for peer in peers:
            if peer == self._daemon.daemon_id:
                continue
            timer = self._timers.get(peer)
            if timer is None:
                timer = self._timers[peer] = Timer(
                    self._daemon.sim.scheduler, partial(self._suspect, peer), name="fd"
                )
            timer.start(timeout)
            self._watched[peer] = timer

    def heard_from(self, peer):
        """Any traffic from a watched peer refreshes its timer.

        For an unwatched peer (never watched, already suspected, or
        after :meth:`stop`) this does nothing — in particular it must
        not re-create a timer that suspicion or reconfiguration tore
        down, which would leave an orphan firing into a stale view.
        """
        timer = self._watched.get(peer)
        if timer is None:
            return
        if self._misses and self._misses.pop(peer, None) is not None:
            self.misses_ridden_out += 1
        timer.start(self._daemon.config.fault_detection_timeout)

    def stop(self):
        """Cancel all suspicion timers (during reconfiguration)."""
        for timer in self._watched.values():
            timer.cancel()
        self._watched.clear()
        self._misses.clear()

    def _suspect(self, peer):
        misses = self._misses.get(peer, 0) + 1
        if misses < self._daemon.config.profile.suspicion_misses:
            # Grace miss: extend the deadline one heartbeat and keep
            # listening — any traffic in that window clears the count.
            self._misses[peer] = misses
            self._watched[peer].start(self._daemon.config.heartbeat_timeout)
            return
        self.suspicions += 1
        del self._watched[peer]
        self._misses.pop(peer, None)
        self._on_suspect(peer)
