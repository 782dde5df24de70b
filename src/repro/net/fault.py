"""Fault injection: the experiment section's failure repertoire.

§6 induces faults "by disconnecting the interface through which Spread,
Wackamole, and the experimental server access the network" — that is
:meth:`FaultInjector.nic_down`. Crashes, graceful recovery, and switch
partitions/merges (§3.1) are also provided; a scripted fault timeline
schedules them with ``sim.at`` / ``sim.after``.

Beyond those fail-stop faults the injector carries the *gray* repertoire
(``docs/FAULTS.md``): one-way link blocks, Gilbert–Elliott burst loss,
frame duplication/reordering, per-host slowdown, bounded clock skew, and
daemon wedging — faults where the component degrades without dying, the
regime the paper's clean disconnects never exercise.

Beyond gray faults the injector carries *state corruption*: deterministic
mutations of protocol state itself (VIP allocation tables, membership
views, ordering counters, segment epochs) drawn from the dedicated
``fault/corrupt`` RNG stream. These model the arbitrary-state premise of
practically-self-stabilizing virtual synchrony — the cluster must
converge back to exactly-once coverage from *any* reachable state, not
just from clean crashes and partitions.

Every injection appends a :class:`FaultRecord` to :attr:`FaultInjector.log`;
records iterate as the historical ``(time, kind, target)`` triple and
serialise via :meth:`FaultRecord.to_dict` into check artifacts, so a
trial's exact fault timeline rides along with its verdict.
"""


def _serialize_param(value):
    """Normalise a fault param for deterministic JSON artifacts.

    Corruption params are dicts (mutation descriptors); emit them with
    sorted keys and tuples as lists so a JSON round trip compares equal
    to a fresh run byte-for-byte.
    """
    if isinstance(value, dict):
        return {key: _serialize_param(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_serialize_param(item) for item in value]
    return value


class FaultRecord:
    """One injected fault: when, what, against which target.

    Unpacks as the legacy ``(time, kind, target)`` triple; ``param``
    carries an optional fault magnitude (loss probability, slowdown
    factor, skew offset) and appears in :meth:`to_dict` only when set.
    """

    __slots__ = ("time", "kind", "target", "param")

    def __init__(self, time, kind, target, param=None):
        self.time = time
        self.kind = kind
        self.target = target
        self.param = param

    def __iter__(self):
        return iter((self.time, self.kind, self.target))

    def to_dict(self):
        record = {"time": self.time, "kind": self.kind, "target": self.target}
        if self.param is not None:
            record["param"] = _serialize_param(self.param)
        return record

    def __repr__(self):
        extra = "" if self.param is None else ", param={}".format(self.param)
        return "FaultRecord(t={:.4f}, {}, {}{})".format(
            self.time, self.kind, self.target, extra
        )


class Fault:
    """Handle on one fault of a kind that composes with overlapping faults
    of its kind; faults that set one boolean keep do/undo method pairs.
    ``serial`` names it in its onset and undo trace records (not the log)."""

    __slots__ = ("serial", "_undo")

    def __init__(self, injector, kind, target, param=None):
        self.serial = injector._serial = injector._serial + 1
        self._undo = None
        injector._record(kind, target, param, self)

    def undo(self):
        """Log the inverse kind and revert this fault's own contribution, once."""
        undo, self._undo = self._undo, None
        if undo is not None:
            undo()


class FaultInjector:
    """Applies faults against hosts and LANs."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self._corrupt_stream = None
        self._ghost_counter = 0
        self._serial = 0
        self._layers = {}  # (kind, host) -> {fault: value} in force, newest last

    def _corrupt_rng(self):
        """The dedicated RNG stream behind every corruption draw.

        Lazily forked from the simulation registry so a trial that never
        injects corruption consumes no draws — schedules, replay, and
        ddmin shrinking of the fail-stop/gray repertoire are unchanged.
        """
        if self._corrupt_stream is None:
            self._corrupt_stream = self.sim.rng.stream("fault/corrupt")
        return self._corrupt_stream

    def _record(self, kind, target, param=None, fault=None):
        self.log.append(FaultRecord(self.sim.now, kind, target, param))
        details = {"target": target, "param": param, "fault": fault and fault.serial}
        details = {key: value for key, value in details.items() if value is not None}
        self.sim.trace.emit("fault", "injector", kind, **details)

    def _arm(self, fault, inverse, target, revert):
        """Make ``fault.undo`` record ``inverse`` and ``revert()``."""

        def undo():
            self._record(inverse, target, fault=fault)
            revert()

        fault._undo = undo
        return fault

    def log_as_dicts(self):
        """The fault timeline as JSON-compatible dicts (artifact form)."""
        return [record.to_dict() for record in self.log]

    # ------------------------------------------------------------------
    # immediate faults

    def crash_host(self, host):
        """Fail-stop the host (timers die, NICs stop responding)."""
        self._record("crash", host.name)
        for fault in self._layers.pop(("slow_host", host), ()):
            fault._undo = None  # the slowdown is void: the reboot clears it
        host.crash()

    def recover_host(self, host):
        """Bring a crashed host back (protocol daemons must restart themselves)."""
        self._record("recover", host.name)
        host.recover()

    def nic_down(self, nic):
        """Disconnect one interface — the paper's §6 fault."""
        self._record("nic_down", nic.name)
        nic.set_up(False)

    def nic_up(self, nic):
        """Reconnect a disconnected interface."""
        self._record("nic_up", nic.name)
        nic.set_up(True)

    def partition(self, lan, groups):
        """Cut a LAN into isolated groups of hosts/NICs (undo: ``heal``)."""
        fault = Fault(self, "partition", lan.name)
        cut = lan.partition(groups)
        return self._arm(fault, "heal", lan.name, lambda: lan.heal(cut))

    # ------------------------------------------------------------------
    # gray faults (see docs/FAULTS.md)

    def asym_partition(self, lan, deaf_hosts):
        """Make ``deaf_hosts`` stop *hearing* the rest of the segment.

        Frames from every other NIC toward a deaf host are dropped while
        the deaf host's own transmissions still flow — the classic
        one-way gray link that symmetric partitions cannot model. The
        deaf side keeps claiming VIPs it can no longer defend, which is
        exactly the duplicate-claim scenario conflict resolution must
        clean up after the undo (``asym_heal``).
        """
        deaf = sorted(set(deaf_hosts), key=lambda host: host.name)
        deaf_set = set(deaf)
        names = ",".join(host.name for host in deaf)
        fault = Fault(self, "asym_partition", "{}:{}".format(lan.name, names))
        deaf_nics = [nic for host in deaf for nic in lan._nics_of(host)]
        pairs = [
            pair
            for nic in lan.nics
            if nic.host not in deaf_set
            for victim in deaf_nics
            for pair in lan.block_direction(nic, victim)
        ]
        return self._arm(fault, "asym_heal", lan.name, lambda: lan.unblock(pairs))

    def burst_loss_on(self, lan, model):
        """Install a burst-loss channel, e.g. :class:`GilbertElliott` (undo: ``burst_loss_off``)."""
        fault = Fault(self, "burst_loss_on", lan.name, model.describe())
        lan.add_link_model(model)
        return self._arm(fault, "burst_loss_off", lan.name, lambda: lan.remove_link_model(model))

    def set_duplication(self, lan, probability):
        """Set the per-delivery frame-duplication probability."""
        self._record("duplication", lan.name, param=float(probability))
        lan.set_duplication(probability)

    def set_reordering(self, lan, probability, window=None):
        """Set the per-delivery reordering probability (and window)."""
        self._record("reordering", lan.name, param=float(probability))
        lan.set_reordering(probability, window=window)

    def slow_host(self, host, factor):
        """Stretch a host's timers by ``factor``; a crash voids it (the reboot clears it)."""
        return self._layer("slow_host", "unslow_host", host, host.set_slowdown, float(factor), 1.0)

    def skew_clock(self, host, offset):
        """Offset a host's local clock reading by ``offset`` seconds."""
        return self._layer("clock_skew", "clock_unskew", host, host.set_clock_skew, float(offset), 0.0)

    def _layer(self, kind, inverse, host, apply, value, default):
        # The newest value in force applies, else ``default``.
        fault = Fault(self, kind, host.name, value)
        layers = self._layers.setdefault((kind, host), {})
        layers[fault] = value
        apply(value)

        def revert():
            del layers[fault]
            apply(next(reversed(layers.values()), default))

        return self._arm(fault, inverse, host.name, revert)

    def wedge_daemon(self, daemon):
        """Wedge a daemon: alive, socket open, but deaf and mute.

        The host keeps answering ARP and the process keeps its port, so
        nothing fail-stop happens — peers just stop hearing heartbeats.
        This is the supervisor's detection target.
        """
        self._record("daemon_wedge", daemon.name)
        daemon.wedged = True

    def unwedge_daemon(self, daemon):
        """Un-wedge a wedged daemon (it resumes where it left off)."""
        self._record("daemon_unwedge", daemon.name)
        daemon.wedged = False

    def kill_daemon(self, daemon):
        """Kill one daemon process without touching its host.

        For a GCS client (a Wackamole daemon) the process death also
        breaks its IPC session, so the local GCS daemon notices and
        evicts it from its groups — without that, a zombie group member
        would wedge every future GATHER.
        """
        self._record("daemon_kill", daemon.name)
        client = getattr(daemon, "client", None)
        daemon.stop()
        if (
            client is not None
            and client.connected
            and client.daemon.alive
        ):
            client.kill()

    # ------------------------------------------------------------------
    # state corruption (see docs/FAULTS.md, "State corruption")
    #
    # These mutate protocol state directly — the arbitrary-state premise
    # of practically-self-stabilizing virtual synchrony. Every mutation
    # choice draws from the dedicated ``fault/corrupt`` stream and the
    # exact mutation applied is recorded in the FaultRecord's param dict
    # (serialised with sorted keys), so a trial's corruption timeline
    # replays byte-identically.

    def corrupt_vip_table(self, wack, mutation=None):
        """Corrupt a Wackamole daemon's VIP allocation vs. its bindings.

        Mutations (chosen from the corrupt stream when not forced):

        * ``drop`` — unbind a held VIP group while the agreed table
          still assigns it here (a lost binding: coverage hole until the
          stabilization audit re-acquires);
        * ``duplicate`` — force-bind a VIP group the table assigns to
          another member (a physical duplicate the audit must release);
        * ``poison_arp`` — plant a foreign MAC for a VIP in the host's
          ARP cache (a client-side stale route the owner's periodic
          re-announcement repairs).
        """
        rng = self._corrupt_rng()
        table = getattr(wack, "table", None)
        candidates = []
        droppable = duplicable = ()
        if table is not None and table.slots:
            droppable = tuple(
                slot
                for slot in table.slots
                if table.owner(slot) == wack.member_name and wack.iface.owns(slot)
            )
            duplicable = tuple(
                slot
                for slot in table.slots
                if table.owner(slot) not in (None, wack.member_name)
                and not wack.iface.owns(slot)
            )
            if droppable:
                candidates.append("drop")
            if duplicable:
                candidates.append("duplicate")
            candidates.append("poison_arp")
        if mutation is None:
            mutation = rng.choice(candidates) if candidates else "noop"
        if mutation == "drop":
            slot = droppable[rng.randrange(len(droppable))]
            param = {"mutation": "drop", "slot": slot}
            self._record("corrupt_vip_table", wack.name, param=param)
            wack.iface.release(slot)
        elif mutation == "duplicate":
            slot = duplicable[rng.randrange(len(duplicable))]
            param = {"mutation": "duplicate", "slot": slot}
            self._record("corrupt_vip_table", wack.name, param=param)
            wack.iface.acquire(slot)
        elif mutation == "poison_arp":
            from repro.net.addresses import MACAddress

            slots = table.slots
            slot = slots[rng.randrange(len(slots))]
            address = wack.config.group(slot).addresses[0]
            bogus = MACAddress(0xDEAD00000000 | rng.randrange(1, 0xFFFF))
            param = {"mutation": "poison_arp", "slot": slot, "mac": str(bogus)}
            self._record("corrupt_vip_table", wack.name, param=param)
            wack.host.arp.cache.store(address, bogus)
        else:
            self._record("corrupt_vip_table", wack.name, param={"mutation": "noop"})

    def corrupt_membership(self, daemon, mutation=None):
        """Corrupt a GCS daemon's installed membership view.

        * ``phantom`` — splice a member that does not exist into the
          view list (nobody heartbeats for it, nothing watches it);
        * ``drop`` — erase a live member from the view list.

        Neither is locally repairable — the true membership is a
        distributed fact — so the stabilization audit detects the
        view/detector disagreement and escalates to a GATHER.
        """
        from repro.gcs.views import DaemonView

        rng = self._corrupt_rng()
        engine = daemon.membership
        members = list(engine.view.members)
        others = [member for member in members if member != daemon.daemon_id]
        candidates = ["phantom"]
        if others:
            candidates.append("drop")
        if mutation is None:
            mutation = candidates[rng.randrange(len(candidates))]
        if mutation == "drop" and others:
            victim = others[rng.randrange(len(others))]
            param = {"mutation": "drop", "member": victim}
            self._record("corrupt_membership", daemon.name, param=param)
            engine.view = DaemonView(
                engine.view.view_id,
                [member for member in members if member != victim],
            )
        else:
            self._ghost_counter += 1
            ghost = "ghost-{}".format(self._ghost_counter)
            param = {"mutation": "phantom", "member": ghost}
            self._record("corrupt_membership", daemon.name, param=param)
            engine.view = DaemonView(engine.view.view_id, members + [ghost])

    def corrupt_sequence(self, daemon, mutation=None):
        """Skew a GCS daemon's ordering counters.

        * ``delivered_ahead`` — skip the delivery point past messages
          never applied (only a view change can repair: escalated);
        * ``assign_regress`` — rewind the sequencer's next assignment
          under already-broadcast sequences (repaired by clamping).
        """
        rng = self._corrupt_rng()
        orderer = daemon.orderer
        if orderer is None or orderer.frozen:
            self._record("corrupt_sequence", daemon.name, param={"mutation": "noop"})
            return
        candidates = ["delivered_ahead"]
        if orderer.is_sequencer:
            candidates.append("assign_regress")
        if mutation is None:
            mutation = candidates[rng.randrange(len(candidates))]
        amount = rng.randrange(1, 5)
        param = {"mutation": mutation, "amount": amount}
        self._record("corrupt_sequence", daemon.name, param=param)
        if mutation == "delivered_ahead":
            orderer.delivered_aru += amount
        elif mutation == "assign_regress":
            orderer._next_assign = max(1, orderer._next_assign - amount)

    def corrupt_epoch(self, node, amount=None):
        """Regress an epoch-like counter (scale tier or flat tier).

        For a :class:`repro.gcs.segments.SegmentNode` the segment epoch
        is rewound — on a leader, its members' heartbeats carry the
        higher epoch back and it re-mints past it; on a member, the next
        beacon overwrites it. For a flat-tier :class:`SpreadDaemon` the
        membership ``highest_counter`` is rewound below the installed
        view's counter, which would make the next gather mint a ViewId
        every peer rejects — the stabilization audit clamps it back.
        """
        rng = self._corrupt_rng()
        if amount is None:
            amount = rng.randrange(1, 5)
        if hasattr(node, "_seg_epoch"):
            was = node._seg_epoch
            node._seg_epoch = max(0, node._seg_epoch - amount)
            param = {
                "mutation": "segment_epoch",
                "amount": amount,
                "was": was,
                "now": node._seg_epoch,
            }
            self._record("corrupt_epoch", node.name, param=param)
        else:
            engine = node.membership
            was = engine.highest_counter
            engine.highest_counter = max(0, engine.highest_counter - amount)
            param = {
                "mutation": "view_counter",
                "amount": amount,
                "was": was,
                "now": engine.highest_counter,
            }
            self._record("corrupt_epoch", node.name, param=param)
