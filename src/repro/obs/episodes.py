"""Failover episodes: causally stitched spans over the trace log.

One *episode* is the cluster's complete reaction to a disturbance — a
crash, an interface disconnect, a voluntary leave, a partition heal, or
the boot-time formation churn. :class:`EpisodeFold` reads the trace once,
in record order, as it is written, and stitches the causally related events

    fault → failure suspicion → membership install → Wackamole GATHER
          → reallocation (VIP acquires) → ARP spoofs
          → first client frame answered by the new owner

into one record with per-phase durations. Everything is derived
deterministically from the trace, so episode records are byte-identical
across replays of the same seed (the ``repro check --replay`` gate
asserts exactly that).

Milestones are optional: a graceful leave skips failure detection and
membership reconfiguration entirely (the lightweight group-leave path),
so those phases report ``None`` rather than fabricating a number.
"""

from repro.sim.trace import TraceFold

#: membership-gather reasons that open an episode (vs. boot-time joins).
_TRIGGER_REASONS = ("suspected", "foreign daemon", "voluntary leave", "excluded")


def _round(value):
    """Stable rounding for serialised times/durations (ns resolution)."""
    return None if value is None else round(value, 9)


def _source_host(source):
    """Host behind a trace source (``spread@web1``/``wack@web1``/``web1``)."""
    if "@" in source:
        return source.split("@", 1)[1]
    return source


def _victim_of(record):
    """The host a trigger record takes down, or None."""
    if record.category == "fault":
        target = record.details.get("target", "")
        if record.event in ("nic_down", "nic_up"):
            return target.split(".", 1)[0]
        if record.event in ("crash", "recover"):
            return target
        return None
    if record.event == "shutdown":
        return _source_host(record.source)
    return None


class FailoverEpisode:
    """One stitched span; every ``*_time`` is absolute simulated time."""

    # Milestones not reached yet (``absorb`` sets them on the instance).
    detection_time = install_time = view = members = view_change_time = None
    run_complete_time = first_acquire_time = last_acquire_time = None
    first_arp_time = last_arp_time = client_recovery_time = None
    arp_announcements = flow_offered = flow_served = 0

    def __init__(self, index, trigger):
        self.index = index
        self.trigger_time = trigger.time
        self.trigger_kind = "{}:{}".format(trigger.category, trigger.event)
        self.trigger_target = trigger.details.get("target") or trigger.source
        self.victim = _victim_of(trigger)
        self.extra_triggers = []
        self.acquired = []

    # ------------------------------------------------------------------

    @property
    def end_time(self):
        """Time of the last milestone the episode reached."""
        times = [self.trigger_time] + [r.time for r in self.extra_triggers]
        times.extend(
            t
            for t in (
                self.detection_time,
                self.install_time,
                self.view_change_time,
                self.run_complete_time,
                self.last_acquire_time,
                self.last_arp_time,
                self.client_recovery_time,
            )
            if t is not None
        )
        return max(times)

    @property
    def converged(self):
        """The surviving component completed a GATHER (saw a ``run``)."""
        return self.run_complete_time is not None

    @property
    def complete(self):
        """Converged *and* at least one VIP moved (a true fail-over)."""
        return self.converged and self.first_acquire_time is not None

    @property
    def requests_lost(self):
        """Flow-plane requests lost across the episode's impacted ticks."""
        return self.flow_offered - self.flow_served

    @property
    def goodput_pct(self):
        """Served percentage over impacted ticks (None without flow loss).

        Only lossy ticks produce flow records, so this is goodput *while
        the episode was hurting traffic* — 0.0 for a hard blackhole,
        intermediate for degraded modes — not goodput over wall time.
        """
        if not self.flow_offered:
            return None
        return 100.0 * self.flow_served / self.flow_offered

    def _from_victim(self, source):
        return self.victim is not None and _source_host(source) == self.victim

    def absorb(self, record):
        """Fold one trace record into the episode's milestones."""
        category, event = record.category, record.event
        if category == "membership":
            if self._from_victim(record.source):
                return
            if event == "gather" and self.detection_time is None:
                self.detection_time = record.time
            elif event == "install" and self.install_time is None:
                self.install_time = record.time
                self.view = record.details.get("view")
                self.members = list(record.details.get("members", ()))
        elif category == "wackamole":
            if self._from_victim(record.source):
                return
            if event == "view_change" and self.view_change_time is None:
                self.view_change_time = record.time
            elif event == "run":
                self.run_complete_time = record.time
            elif event == "acquire":
                if self.first_acquire_time is None:
                    self.first_acquire_time = record.time
                self.last_acquire_time = record.time
                self.acquired.append((record.details.get("slot"), record.source))
        elif category == "arp" and event == "announce":
            if self._from_victim(record.source):
                return
            if self.first_arp_time is None:
                self.first_arp_time = record.time
            self.last_arp_time = record.time
            self.arp_announcements += 1
        elif category == "workload" and event == "server_change":
            if self.client_recovery_time is None:
                self.client_recovery_time = record.time
        elif category == "flow" and event == "loss":
            # The flow engine emits one record per (VIP, tick) with
            # lost > 0, so these sums cover exactly the impacted ticks.
            self.flow_offered += record.details.get("offered", 0)
            self.flow_served += record.details.get("served", 0)

    # ------------------------------------------------------------------

    def phase_durations(self):
        """Per-phase durations in seconds (None where a phase did not run).

        * ``detection`` — trigger → first survivor suspicion;
        * ``membership`` — suspicion → membership install;
        * ``gather`` — Wackamole VIEW_CHANGE → last member back in RUN;
        * ``reallocation`` — first → last VIP acquisition;
        * ``arp`` — first → last spoofed announcement;
        * ``client_recovery`` — trigger → first reply from the new owner;
        * ``total`` — trigger → last event of the episode.
        """

        def span(start, end):
            if start is None or end is None:
                return None
            return _round(end - start)

        return {
            "detection": span(self.trigger_time, self.detection_time),
            "membership": span(self.detection_time or self.trigger_time, self.install_time),
            "gather": span(self.view_change_time, self.run_complete_time),
            "reallocation": span(self.first_acquire_time, self.last_acquire_time),
            "arp": span(self.first_arp_time, self.last_arp_time),
            "client_recovery": span(self.trigger_time, self.client_recovery_time),
            "total": span(self.trigger_time, self.end_time),
        }

    def to_dict(self):
        """JSON-compatible episode record (stable key order when dumped
        with ``sort_keys=True``; all times rounded for byte stability)."""
        return {
            "index": self.index,
            "trigger": {
                "time": _round(self.trigger_time),
                "kind": self.trigger_kind,
                "target": self.trigger_target,
                "extra": [
                    ["{}:{}".format(r.category, r.event), _round(r.time)]
                    for r in self.extra_triggers
                ],
            },
            "victim": self.victim,
            "view": self.view,
            "members": self.members,
            "complete": self.complete,
            "milestones": {
                "detection": _round(self.detection_time),
                "install": _round(self.install_time),
                "view_change": _round(self.view_change_time),
                "run_complete": _round(self.run_complete_time),
                "first_acquire": _round(self.first_acquire_time),
                "last_acquire": _round(self.last_acquire_time),
                "first_arp": _round(self.first_arp_time),
                "last_arp": _round(self.last_arp_time),
                "client_recovery": _round(self.client_recovery_time),
                "end": _round(self.end_time),
            },
            "phases": self.phase_durations(),
            "acquired": [[slot, host] for slot, host in self.acquired],
            "arp_announcements": self.arp_announcements,
            "requests_lost": self.requests_lost,
            "goodput_pct": _round(self.goodput_pct),
        }

    def __repr__(self):
        return "FailoverEpisode(#{}, {} at {:.4f}, {})".format(
            self.index,
            self.trigger_kind,
            self.trigger_time,
            "complete" if self.complete else "partial",
        )


def _is_trigger(record):
    if record.category == "fault" and record.source == "injector":
        return record.event in ("nic_down", "crash", "partition", "heal")
    if record.category in ("daemon", "wackamole") and record.event == "shutdown":
        return True
    if record.category == "membership" and record.event == "gather":
        reason = record.details.get("reason", "")
        return reason.startswith(_TRIGGER_REASONS)
    return False


class EpisodeFold(TraceFold):
    """The episode extractor: stitches records into :class:`FailoverEpisode` s.

    A trigger opens an episode; later triggers extend it while the
    cluster is still converging (cascading faults are one episode) and
    start a new one once the current episode has converged. Records are
    consumed strictly in log order, so the result is a pure function of
    the trace.
    """

    KEYS = frozenset(
        tuple(kind.split(":"))
        for kind in "fault:nic_down fault:crash fault:partition fault:heal daemon:shutdown"
        " membership:gather membership:install wackamole:shutdown wackamole:view_change"
        " wackamole:run wackamole:acquire arp:announce workload:server_change flow:loss".split()
    )

    def __init__(self):
        self.closed = []
        self.current = None

    @property
    def episodes(self):
        """Every episode so far, the open one last."""
        return self.closed + ([] if self.current is None else [self.current])

    def as_dicts(self):
        """The episodes serialised — the replayable artifact form."""
        return [episode.to_dict() for episode in self.episodes]

    def feed(self, record):
        current = self.current
        if _is_trigger(record):
            # A suspicion-driven gather is the *detection* of the open
            # episode, not a new disturbance.
            gather = record.category == "membership"
            if current is None or (not gather and current.converged):
                if current is not None:
                    self.closed.append(current)
                self.current = FailoverEpisode(len(self.closed), record)
                if gather:
                    self.current.absorb(record)
                return
            if not gather:
                current.extra_triggers.append(record)
        if current is not None:
            current.absorb(record)


def extract_episodes(records):
    """Stitch a trace into a list of :class:`FailoverEpisode`."""
    return EpisodeFold.over(records).episodes


def episodes_as_dicts(records):
    """``extract_episodes`` serialised — the replayable artifact form."""
    return EpisodeFold.over(records).as_dicts()


def first_complete_episode(episodes, after=None):
    """The first complete episode (optionally triggered at/after ``after``)."""
    for episode in episodes:
        if after is not None and episode.trigger_time < after - 1e-9:
            continue
        if episode.complete:
            return episode
    return None
