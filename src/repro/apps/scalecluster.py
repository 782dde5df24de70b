"""The scale tier: a 256–1024-host cluster on segmented membership.

The Figure-3 scenarios (:mod:`repro.apps.webcluster`) run the paper's
full stack — Spread ring, Wackamole state machine, ARP spoofing — which
is faithful but O(N²) in broadcast fan-out and unusable past a few
dozen hosts. This scenario swaps both layers for the scale designs:

* membership comes from :mod:`repro.gcs.segments` (unicast heartbeats
  aggregated by segment leaders, views broadcast in leader beacons);
* placement comes from a :class:`repro.core.placement.RendezvousMap`
  per segment — every node derives its own VIP share from its
  segment's view by pure computation, so there is no allocation
  protocol at all: agreement on the view IS agreement on the
  allocation (the same Lemma-2 argument as the paper's deterministic
  Reallocate_IPs, applied to HRW).

The cluster is ``ceil(n / segment_size)`` *cells*, one per fleet
segment: a cell is its own LAN ``segNN``, its hosts, and a contiguous
slice of the VIPs placed over its own members only. A cell is one
paper cluster — IP takeover is an ARP spoof, which reaches one LAN —
so nothing crosses cells: membership, placement and traffic all stay
inside. A fleet-wide view is an observation, merged from the cell
leaders' records (:meth:`ScaleClusterScenario.fleet_view`).
:class:`ScaleClusterScenario` as built by callers holds every cell and
``sim.run`` steps it; :class:`ShardedScaleScenario` runs the same
worlds, one shard's cells each, N wide to a horizon and merges their
artifacts. Serial versus sharded is a choice of runner, never of world.

Each host runs a :class:`ScaleVipManager` that binds exactly its HRW
share on every adopted view. The manager is deliberately lean — it
binds interfaces and counts moves; the ARP-spoofing/notification
machinery stays in the faithful tier where clients are modeled.
"""

import hashlib
import inspect

from repro.apps.cluster import run_until
from repro.core.audit import CoverageAuditor, CoverageEngine, slot_table
from repro.core.placement import RendezvousMap
from repro.core.state import RUN
from repro.flow import DirectResolver, FlowEngine
from repro.gcs.segments import Fleet, SegmentConfig, SegmentNode, merge_digests
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.partition import ShardPlan
from repro.sim.process import Process
from repro.sim.shard import merge_artifacts, run_shards
from repro.sim.shard.merge import sum_flow, view_digest
from repro.sim.simulation import Simulation

SUBNET = "10.32.0.0/16"

#: Trace categories a scale world keeps. Deliberately excludes
#: per-frame plumbing (``arp``, ``ip``) whose details mention
#: world-local identities like MAC numbers; everything kept here names
#: only cell-local sources, so records attribute cleanly to cells and
#: the merged trace is grouping-invariant.
TRACE_CATEGORIES = ("segments", "host", "flow")


def _normalized(arguments):
    """The scenario's parameters, each as its default's type (see PARAMETERS)."""
    return {name: kind(arguments[name]) for name, kind in PARAMETERS.items()}


def _cell_count(params):
    return -(-params["n_hosts"] // params["segment_size"])


#: The most hosts and VIPs 10.32.0.0/16 numbers: hosts from 10.32.1.x,
#: VIPs from 10.32.128.x, 250 per octet.
ADDRESS_PLAN = {"servers": 4096, "vips": 32000}


def _check_address_plan(n_hosts, n_vips):
    if n_hosts > ADDRESS_PLAN["servers"]:
        raise ValueError("n_hosts exceeds the /16 host-address plan")
    if n_vips > ADDRESS_PLAN["vips"]:
        raise ValueError("n_vips exceeds the /16 VIP-address plan (at most {})".format(
            ADDRESS_PLAN["vips"]))


def _host_ip(index):
    return "10.32.{}.{}".format(1 + index // 250, 1 + index % 250)


def _vip_ip(index):
    return "10.32.{}.{}".format(128 + index // 250, 1 + index % 250)


class ScaleVipManager(Process):
    """Binds one host's rendezvous share of its cell's VIPs.

    On every adopted :class:`~repro.gcs.segments.GlobalView` — its
    segment's — the manager looks up its slot set in the cell's
    placement map (HRW over the view's members) and diffs it against
    the interface: new slots are bound, lost slots released. A node
    absent from the view (declared dead while actually alive) releases
    everything — the scale-tier analogue of the paper's rule that a
    partitioned minority must drop its addresses.
    """

    # A member of the Property-1 judge (core/audit.py): always RUN and mature.
    state = RUN
    mature = maturity_agreed = True
    applied = 0

    def __init__(self, host, cell):
        super().__init__(host.sim, "svip@{}".format(host.name))
        self.host = host
        self.member_name = host.name
        self.lan, self.slot_table = cell.lan, cell.slot_table
        self.nic = host.nic_on(cell.lan)
        self.cell = cell
        self.bound = set()
        self.binds = 0
        self.unbinds = 0
        self.view = None
        host.register_service(self)

    def apply_view(self, view):
        """Rebind to the HRW share implied by ``view``."""
        if not self.alive:
            return
        self.sim.coverage_changing()  # the judge groups members by view
        self.view = view
        owned = set(self.cell.placement.owned_index_for(view.members).get(self.host.name, ()))
        for vip in sorted(self.bound - owned):
            self.nic.unbind_ip(vip)
            self.unbinds += 1
        for vip in sorted(owned - self.bound):
            self.nic.bind_ip(vip)
            self.binds += 1
        self.bound = owned

    def reset_counters(self):
        self.binds = 0
        self.unbinds = 0


class ScaleCell:
    """One fleet segment's share of a world.

    A cell is its own LAN ``segNN`` and a contiguous slice of the VIPs,
    placed over the segment's members only, by the segment's own
    views. ``slots`` is the cell's slice of the world's host columns.
    Clients are not modeled at this size, so the cell's traffic
    resolves off its LAN: a VIP serves iff a live host of the cell
    binds it.
    """

    def __init__(self, sim, cell_id, vips, slots):
        self.cell_id = cell_id
        self.lan = Lan(sim, "seg{:02d}".format(cell_id), SUBNET)
        self.vips = vips
        self.slots = slots
        self.placement = RendezvousMap(vips)
        self.slot_table = slot_table((vip, (vip,)) for vip in vips)
        self.counted_at = None  # Lan.changes when converged() last found it covered
        self.resolver = DirectResolver(self.lan)
        self.pools = []


#: Every slot of the world's host columns.
ALL = slice(None)


class ScaleClusterScenario:
    """The segmented scale-tier cluster: one cell per fleet segment.

    Built by callers it holds every cell; ``cells`` restricts a world to
    one shard's cells, which only the kernel's factory
    (:func:`build_scale_world`) asks for. The columns (``hosts``,
    ``nodes``, ``managers``) are in fleet order from the world's first
    member and always hold the current generation. Faults are
    :meth:`kill` and :meth:`revive` of a fleet index, or a schedule's
    crashes (:meth:`apply_schedule`).
    """

    SUBNET = SUBNET

    def __init__(
        self,
        seed=0,
        n_hosts=256,
        n_vips=2048,
        segment_size=32,
        flow_users=0,
        trace_enabled=False,
        metrics_enabled=False,
        *,
        cells=None,
    ):
        #: What the run artifact's meta names.
        self.params = _normalized(locals())
        _check_address_plan(n_hosts, n_vips)
        sim = self.sim = Simulation(
            seed=seed,
            trace_enabled=trace_enabled,
            trace_categories=TRACE_CATEGORIES if trace_enabled else None,
            metrics_enabled=metrics_enabled,
        )
        # Address plan: hosts fill 10.32.1.x upward, VIPs fill
        # 10.32.128.x upward; .0 and .255 are never used.
        fleet = self.fleet = Fleet(
            [("node{:04d}".format(index), _host_ip(index)) for index in range(n_hosts)],
            segment_size,
        )
        self.vips = [_vip_ip(index) for index in range(n_vips)]
        self.faults = FaultInjector(sim)
        self._config = SegmentConfig(segment_size=segment_size)
        # One engine per world; each pool resolves through its cell.
        self.flow_engine = FlowEngine(sim, name="scale") if flow_users else None
        self.hosts, self.nodes, self.managers, self.cells = [], [], [], []
        self._cell_of_vip = {}
        base, extra = divmod(n_vips, fleet.n_segments)
        for cell_id in range(fleet.n_segments) if cells is None else cells:
            start = cell_id * base + min(cell_id, extra)
            vips = self.vips[start : start + base + (cell_id < extra)]
            members = fleet.segment_members(cell_id)
            slots = slice(len(self.hosts), len(self.hosts) + len(members))
            cell = ScaleCell(sim, cell_id, vips, slots)
            self.cells.append(cell)
            self._cell_of_vip.update(dict.fromkeys(vips, cell_id))
            for name in members:
                host = Host(sim, name)
                host.add_nic(cell.lan, fleet.ip_of[name])
                self.hosts.append(host)
                node, manager = self._pair(host, cell)
                self.nodes.append(node)
                self.managers.append(manager)
            if self.flow_engine is not None:
                cell.pools = self.flow_engine.add_uniform_pools(
                    vips, flow_users, label="pool-{:04d}",
                    offset=start, of=n_vips, resolver=cell.resolver,
                )
        self._first = fleet.index_of[self.hosts[0].name]
        self.auditor = CoverageAuditor(())
        self.auditor.daemons = self.managers  # the live column: revive replaces in place

    def _pair(self, host, cell):
        manager = ScaleVipManager(host, cell)
        index = self.fleet.index_of[host.name]
        node = SegmentNode(
            host, cell.lan, index, self.fleet, self._config, on_view=manager.apply_view
        )
        return node, manager

    @property
    def lan(self):
        """The first cell's LAN (every cell's has the same latency)."""
        return self.cells[0].lan

    def start(self):
        """Boot every node (heartbeat phases are per-node jittered), then traffic."""
        for node in self.nodes:
            node.start()
        engine = self.flow_engine
        if engine is not None and engine.pools:
            engine.start({cell.cell_id: cell.pools for cell in self.cells if cell.pools})
        return self

    def _slot(self, index):
        """Column position of fleet member ``index``; ValueError if not held."""
        slot = index - self._first
        if not 0 <= slot < len(self.hosts):
            raise ValueError(
                "fleet index {} outside this world's fleet range [{}, {})".format(
                    index, self._first, self._first + len(self.hosts)
                )
            )
        return slot

    def kill(self, index):
        """Fail-stop fleet member ``index``'s host."""
        self.faults.crash_host(self.hosts[self._slot(index)])

    def revive(self, index):
        """Reboot fleet member ``index`` and start a fresh daemon pair on it."""
        slot = self._slot(index)
        host = self.hosts[slot]
        self.faults.recover_host(host)
        cell = self.cells[self.fleet.segment_of_index(index) - self.cells[0].cell_id]
        self.nodes[slot], self.managers[slot] = self._pair(host, cell)
        self.nodes[slot].start()

    def apply_schedule(self, schedule, start):
        """Schedule every event of a :class:`~repro.check.schedule.FaultSchedule`
        relative to ``start``: a crash kills a live host and revives it
        ``duration`` later, the one kind this stack knows yet."""
        for event in schedule.events:
            self.sim.at(start + event.time, self._crash, event.host, event.duration)

    def _crash(self, index, duration):
        if self.hosts[self._slot(index)].alive:
            self.kill(index)
            self.sim.after(duration, self.revive, index)

    def settle(self, timeout=30.0, step=0.5):
        """Run until :meth:`converged`, or until ``timeout`` elapses."""
        return run_until(self.sim, self.converged, timeout, step)

    # ------------------------------------------------------------------
    # inspection: the world's columns, or one cell's ``slots`` of them

    def live_nodes(self, slots=ALL):
        return [node for node in self.nodes[slots] if node.alive]

    def bindings(self, slots=ALL):
        """Sorted (vip, host name) pairs over live managers' bound sets."""
        live = [manager for manager in self.managers[slots] if manager.alive]
        return sorted((vip, manager.host.name) for manager in live for vip in manager.bound)

    def moves(self, slots=ALL):
        """(binds, unbinds) summed over live managers."""
        live = [manager for manager in self.managers[slots] if manager.alive]
        return sum(m.binds for m in live), sum(m.unbinds for m in live)

    def live_views(self, slots=ALL):
        """The set of distinct views held by live nodes."""
        return {node.view for node in self.live_nodes(slots)}

    def fleet_view(self):
        """The fleet view an observer merges from each cell's leader record.

        A cell's record is the ``(epoch, alive)`` of its lowest-index
        live leader; a cell with none (its leader dead and no successor
        yet, or every host dead) has no record.
        """
        records = {}
        for cell in self.cells:
            leaders = [node for node in self.live_nodes(cell.slots) if node.is_leader]
            if leaders:
                records[cell.cell_id] = (leaders[0].view.version, leaders[0].view.members)
        return merge_digests(records)

    def watch_coverage(self, grace=0.0):
        """Attach a :class:`CoverageEngine` auditing every cell's managers."""
        return CoverageEngine(self.sim, self.auditor.audit, grace)

    def converged(self):
        """In every cell one view naming exactly its live hosts; full single-owner coverage."""
        for cell in self.cells:
            views = self.live_views(cell.slots)
            live = tuple(host.name for host in self.hosts[cell.slots] if host.alive)
            if len(views) > 1 or (live and next(iter(views)).members != live):
                return False
            # A manager dies only with its host, so its LAN counts each write moving these.
            if cell.counted_at != cell.lan.changes:
                slots, covered, duplicated = CoverageAuditor(self.managers[cell.slots]).counts()
                if covered != slots or duplicated:
                    return False
                cell.counted_at = cell.lan.changes
        return True

    def moved_vips(self):
        """Total rebinds since the last :meth:`reset_move_counters`."""
        return self.moves()[0]

    def reset_move_counters(self):
        for manager in self.managers:
            manager.reset_counters()

    def fingerprint(self):
        """A JSON-stable digest of converged cluster state (for replay tests)."""
        view = self.fleet_view()
        return {
            "time": round(self.sim.now, 9),
            "views": [{"version": view.version, "n_members": len(view.members)}],
            "bindings": self.bindings(),
        }

    # ------------------------------------------------------------------
    # the kernel's world protocol

    def advance(self, until):
        self.sim.run(until=until)

    def artifacts(self):
        """This world's share of the run artifact (see :mod:`repro.sim.shard.merge`).

        Every figure is per cell and so the same under any grouping of
        cells into worlds, but one: the world's single flow engine ticks
        once for all its cells. A tick is booked once per cell it
        serves — in ``events_fired`` and in the ``sim.events_fired`` and
        ``flow.ticks`` counters — as if each cell ticked alone.
        """
        engine = self.flow_engine
        pools = {}
        for pool in engine.fingerprint()["pools"] if engine is not None else ():
            pools.setdefault(self._cell_of_vip[pool["vip"]], []).append(pool)
        cells = {}
        for cell in self.cells:
            flow = sum_flow(pools.get(cell.cell_id))
            if flow is not None:
                flow["ticks"] = engine.ticks
            cells[cell.cell_id] = self._summary(cell, flow)
        shared_ticks = engine.ticks * (len(pools) - 1) if pools else 0
        trace = {cell.cell_id: [0, hashlib.sha256()] for cell in self.cells}
        for cell_id, line in self.trace_lines():
            trace[cell_id][0] += 1
            trace[cell_id][1].update(line.encode("utf-8") + b"\n")
        metrics = self.sim.metrics.totals() if self.params["metrics_enabled"] else {}
        for name in ("sim.events_fired", "flow.ticks"):
            if name in metrics:
                metrics[name] += shared_ticks
        return {
            "events_fired": self.sim.scheduler.events_fired + shared_ticks,
            "now": self.sim.now,
            "cells": cells,
            "trace": {cell: [count, digest.hexdigest()] for cell, (count, digest) in trace.items()},
            "metrics": metrics,
        }

    def trace_lines(self):
        """``(cell, line)`` per trace record, in append order: what a cell's digest hashes."""
        for record in self.sim.trace.records:
            details = record.details
            if record.category != "flow":
                cell_id = self.fleet.segment_of(record.source.rpartition("@")[2])
            elif "group" in details:
                cell_id = details["group"]
            else:
                cell_id = self._cell_of_vip[details["vip"]]
            text = ",".join("{}={!r}".format(key, details[key]) for key in sorted(details))
            yield cell_id, "{!r}|{}|{}|{}|{}".format(
                record.time, record.category, record.source, record.event, text
            )

    def _summary(self, cell, flow):
        """One cell's JSON-stable share of the run artifact."""
        live = self.live_nodes(cell.slots)
        binds, unbinds = self.moves(cell.slots)
        pairs = ";".join("=".join(pair) for pair in self.bindings(cell.slots))
        slots, covered, duplicated = CoverageAuditor(self.managers[cell.slots]).counts()
        return {
            "live": sorted(node.node_name for node in live),
            "views": [
                list(view)
                for view in sorted({(n.view.version, view_digest(n.view.members)) for n in live})
            ],
            "n_vips": len(cell.vips),
            "uncovered": slots - covered,
            "duplicated": duplicated,
            "binds": binds,
            "unbinds": unbinds,
            "bindings_sha256": hashlib.sha256(pairs.encode("utf-8")).hexdigest(),
            "flow": flow,
        }

    def artifact(self, kills=(), revives=()):
        """The run artifact at ``sim.now`` of a world holding every cell.

        ``kills`` and ``revives`` name the fault script the caller ran:
        byte for byte what :class:`ShardedScaleScenario` makes of it.
        """
        return run_artifact([self.artifacts()], self.params, self.sim.now, kills, revives)


#: :class:`ScaleClusterScenario`'s parameters and their types: what the
#: run artifact's meta names, read off the one signature.
PARAMETERS = {
    name: type(parameter.default)
    for name, parameter in inspect.signature(ScaleClusterScenario).parameters.items()
    if parameter.kind is parameter.POSITIONAL_OR_KEYWORD
}


def run_artifact(worlds, params, horizon, kills=(), revives=()):
    """Merge world artifact shares into the run artifact.

    The meta names ``params``, the horizon and the fault script — all
    of the run's identity; the shard/worker split deliberately is not
    part of it, so parity means those knobs cannot show up in the bytes.
    """
    meta = dict(params)
    meta["horizon"] = float(horizon)
    meta["kills"] = [[float(t), int(i)] for t, i in sorted(kills)]
    meta["revives"] = [[float(t), int(i)] for t, i in sorted(revives)]
    return merge_artifacts(worlds, meta=meta)


def build_scale_world(spec, shard_id):
    """World factory for :func:`~repro.sim.shard.run_shards`: one shard's cells, booted.

    The shard's kills and revives are scheduled with ``sim.at`` before
    the boot — kills, then revives, each in (time, index) order — so a
    cell's sequence numbers are the same in every grouping.
    """
    params = _normalized(spec)
    plan = ShardPlan(_cell_count(params), spec["shards"])
    world = ScaleClusterScenario(cells=plan.cells_of(shard_id), **params)
    for fault, script in ((world.kill, spec["kills"]), (world.revive, spec["revives"])):
        for time, index in script:
            if world.fleet.segment_of_index(index) in plan.cells_of(shard_id):
                world.sim.at(time, fault, index)
    return world.start()


class ShardedScaleScenario:
    """Boot + faults on the cell world, serial or sharded, to a fixed horizon.

    Takes :class:`ScaleClusterScenario`'s parameters (``shards`` picks
    the cells each world holds) plus the script: ``horizon`` and the
    ``kills`` / ``revives`` as (time, host index) pairs, scheduled up
    front. The run always ends exactly at ``horizon`` — no adaptive
    settle polling, so run control never depends on the grouping.
    ``workers`` ≥ 2 forks one warm worker process per shard. The
    returned artifact is byte-identical for every (shards, workers)
    choice, and to a live :class:`ScaleClusterScenario` run through the
    same script (:meth:`ScaleClusterScenario.artifact`).
    """

    FACTORY = staticmethod(build_scale_world)
    #: One step, every world straight to the horizon; sysbench reads it.
    epochs = 1

    def __init__(self, workers=0, shards=1, horizon=12.0, kills=(), revives=(), **params):
        if "cells" in params:
            raise TypeError("cells is not a parameter: shards decides them")
        bound = inspect.signature(ScaleClusterScenario).bind(**params)
        bound.apply_defaults()
        world = _normalized(bound.arguments)
        _check_address_plan(world["n_hosts"], world["n_vips"])
        horizon = float(horizon)
        kills = sorted((float(t), int(i)) for t, i in kills)
        revives = sorted((float(t), int(i)) for t, i in revives)
        for time, index in kills + revives:
            if not 0.0 < time < horizon:
                raise ValueError("fault time {} outside (0, horizon)".format(time))
            if not 0 <= index < world["n_hosts"]:
                raise ValueError("fault host index {} out of range".format(index))
        self.plan = ShardPlan(_cell_count(world), shards)
        self.spec = dict(world, shards=int(shards), kills=kills, revives=revives)
        self.horizon = horizon
        self.workers = int(workers)
        self.workers_used = 0

    def run(self):
        """Execute the script; returns the merged run artifact."""
        spec = self.spec
        worlds, self.workers_used = run_shards(
            self.plan, self.FACTORY, spec, self.horizon, self.workers
        )
        return run_artifact(
            worlds, _normalized(spec), self.horizon, spec["kills"], spec["revives"]
        )
