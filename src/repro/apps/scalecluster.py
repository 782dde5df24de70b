"""The scale tier: a 256–1024-host cluster on segmented membership.

The Figure-3 scenarios (:mod:`repro.apps.webcluster`) run the paper's
full stack — Spread ring, Wackamole state machine, ARP spoofing — which
is faithful but O(N²) in broadcast fan-out and unusable past a few
dozen hosts. This scenario swaps both layers for the scale designs:

* membership comes from :mod:`repro.gcs.segments` (unicast heartbeats
  aggregated by segment leaders, digest exchange, deterministic merge);
* placement comes from a single shared
  :class:`repro.core.placement.RendezvousMap` — every node derives its
  own VIP share from the global view by pure computation, so there is
  no allocation protocol at all: agreement on the view IS agreement on
  the allocation (the same Lemma-2 argument as the paper's
  deterministic Reallocate_IPs, applied to HRW).

Each host runs a :class:`ScaleVipManager` that binds exactly its HRW
share on every adopted view. The manager is deliberately lean — it
binds interfaces and counts moves; the ARP-spoofing/notification
machinery stays in the faithful tier where clients are modeled.
"""

import hashlib

from repro.apps.cluster import ScaleCell, run_until
from repro.flow.engine import load_numpy
from repro.gcs.segments import Fleet, SegmentConfig
from repro.net.addresses import IPAddress
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.net.partition import (
    DEFAULT_INTER_LATENCY,
    SegmentUplink,
    ShardPlan,
    UplinkHost,
)
from repro.sim.shard import ShardedKernel, merge_artifacts
from repro.sim.shard.merge import view_digest
from repro.sim.simulation import Simulation


def _check_address_plan(n_hosts, n_vips):
    # 10.32.0.0/16: hosts from 10.32.1.x, VIPs from 10.32.128.x, 250 per octet.
    if n_hosts > 4096:
        raise ValueError("n_hosts exceeds the /16 host-address plan")
    if n_vips > 32000:
        raise ValueError("n_vips exceeds the /16 VIP-address plan (at most 32000)")


class ScaleClusterScenario(ScaleCell):
    """One segmented scale-tier cluster: a single cell spanning the fleet.

    Every host sits on the one LAN and HRW places VIPs over the whole
    membership.
    """

    SUBNET = "10.32.0.0/16"

    def __init__(
        self,
        seed=0,
        n_hosts=256,
        n_vips=2048,
        segment_size=32,
        segment_config=None,
        flow_users=0,
        flow_rate=1.0,
        flow_tick=0.05,
        trace_enabled=False,
        trace_capacity=None,
        metrics_enabled=False,
        sim=None,
    ):
        _check_address_plan(n_hosts, n_vips)
        self.sim = sim if sim is not None else Simulation(
            seed=seed,
            trace_enabled=trace_enabled,
            trace_capacity=trace_capacity,
            metrics_enabled=metrics_enabled,
        )
        self.segment_config = segment_config or SegmentConfig(segment_size=segment_size)

        # Address plan: hosts fill 10.32.1.x upward, VIPs fill
        # 10.32.128.x upward; .0 and .255 are never used.
        entries = [
            (self._host_name(index), self._host_ip(index)) for index in range(n_hosts)
        ]
        super().__init__(
            Lan(self.sim, "scale", self.SUBNET),
            Fleet(entries, self.segment_config.segment_size),
            self.segment_config,
            [self._vip_ip(index) for index in range(n_vips)],
            FaultInjector(self.sim),
        )
        for index, name in enumerate(self.fleet.names):
            host = Host(self.sim, name)
            host.add_nic(self.lan, self.fleet.ips[index])
            self.add(host, index)
        if flow_users:
            self.attach_flow("scale", flow_users, n_vips, 0, flow_rate, flow_tick)

    @staticmethod
    def _host_name(index):
        return "node{:04d}".format(index)

    @staticmethod
    def _host_ip(index):
        return "10.32.{}.{}".format(1 + index // 250, 1 + index % 250)

    @staticmethod
    def _vip_ip(index):
        return "10.32.{}.{}".format(128 + index // 250, 1 + index % 250)

    # ------------------------------------------------------------------

    def settle(self, timeout=30.0, step=0.5):
        """Run until :meth:`converged`, or until ``timeout`` elapses."""
        return run_until(self.sim, self.converged, timeout, step)

    def live_views(self):
        """The set of distinct global views held by live nodes."""
        return {node.global_view for node in self.live_nodes()}

    def converged(self):
        """One shared view naming exactly the live hosts, full single-owner coverage."""
        views = self.live_views()
        if len(views) != 1:
            return False
        view = next(iter(views))
        live = sorted(host.name for host in self.hosts if host.alive)
        if list(view.members) != live:
            return False
        uncovered, duplicated = self.coverage_violations()
        return not uncovered and not duplicated

    def moved_vips(self):
        """Total rebinds since the last :meth:`reset_move_counters`."""
        return self.moves()[0]

    def reset_move_counters(self):
        for manager in self.managers:
            manager.reset_counters()

    def fingerprint(self):
        """A JSON-stable digest of converged cluster state (for replay tests)."""
        views = sorted(
            {(v.version, v.members) for v in self.live_views()},
        )
        return {
            "time": round(self.sim.now, 9),
            "views": [
                {"version": version, "n_members": len(members)}
                for version, members in views
            ],
            "bindings": self.bindings(),
        }


# ----------------------------------------------------------------------
# the sharded tier: the same cluster, partitioned for the parallel kernel


#: Parameter defaults for :class:`ScaleShardWorld` /
#: :class:`ShardedScaleScenario`. Everything is a plain JSON-able
#: scalar or (time, index) pair list so the dict pickles cheaply to
#: shard workers and embeds verbatim in artifact metadata.
SHARD_SCALE_DEFAULTS = {
    "seed": 0,
    "n_hosts": 256,
    "n_vips": 2048,
    "segment_size": 32,
    "shards": 1,
    "inter_latency": DEFAULT_INTER_LATENCY,
    "horizon": 12.0,
    "flow_users": 0,
    "flow_rate": 1.0,
    "flow_tick": 0.05,
    "trace_enabled": True,
    "metrics_enabled": False,
    "kills": (),
    "revives": (),
}

#: Trace categories retained by shard worlds. Deliberately excludes
#: per-frame plumbing (``arp``, ``ip``) whose details mention
#: world-local identities like MAC numbers; everything kept here names
#: only cell-local sources, so records attribute cleanly to cells and
#: the merged trace is grouping-invariant.
SHARD_TRACE_CATEGORIES = ("segments", "host", "flow")


def _segment_count(n_hosts, segment_size):
    return (int(n_hosts) + int(segment_size) - 1) // int(segment_size)


def _vip_slice(n_vips, n_segments, cell):
    """(start_index, count) of ``cell``'s contiguous VIP share."""
    base, extra = divmod(int(n_vips), int(n_segments))
    start = cell * base + min(cell, extra)
    return start, base + (1 if cell < extra else 0)


def build_scale_shard_world(params, shard_id):
    """World factory for :class:`repro.sim.shard.ShardedKernel`."""
    return ScaleShardWorld(params, shard_id)


class ScaleShardWorld:
    """One shard's slice of the partitioned scale cluster.

    Each *cell* is a full LAN segment: its own :class:`Lan` (name
    ``segNN``), its hosts, their membership daemons, a cell-scoped
    rendezvous placement over the cell's contiguous VIP share, and —
    when traffic is on — a cell-local flow engine. Membership is still
    fleet-wide (leader digests cross cells over the uplink); placement
    and traffic never leave the cell.

    Everything observable is a pure function of ``params`` and the
    cell id, never of the shard grouping: RNG streams are keyed by
    component names, trace categories exclude world-local identities,
    and all cross-cell frames ride barrier-scheduled envelopes.
    """

    def __init__(self, params, shard_id):
        merged = dict(SHARD_SCALE_DEFAULTS)
        merged.update(params)
        self.params = merged
        self.shard_id = int(shard_id)
        n_hosts = int(merged["n_hosts"])
        n_vips = int(merged["n_vips"])
        segment_size = int(merged["segment_size"])
        n_segments = _segment_count(n_hosts, segment_size)
        self.plan = ShardPlan(n_segments, merged["shards"], merged["inter_latency"])
        self.cells = self.plan.cells_of(self.shard_id)
        trace_enabled = bool(merged["trace_enabled"])
        self.sim = Simulation(
            seed=merged["seed"],
            trace_enabled=trace_enabled,
            trace_capacity=None,
            trace_categories=SHARD_TRACE_CATEGORIES if trace_enabled else None,
            metrics_enabled=bool(merged["metrics_enabled"]),
        )
        entries = [
            (ScaleClusterScenario._host_name(index), ScaleClusterScenario._host_ip(index))
            for index in range(n_hosts)
        ]
        self.fleet = Fleet(entries, segment_size)
        self.config = SegmentConfig(segment_size=segment_size)
        self.uplink = SegmentUplink(
            self.sim,
            merged["inter_latency"],
            {
                IPAddress(ip): self.fleet.segment_of_index(index)
                for index, (_name, ip) in enumerate(entries)
            },
        )
        all_vips = [ScaleClusterScenario._vip_ip(index) for index in range(n_vips)]
        faults = FaultInjector(self.sim)

        self._cells = {}
        self._source_cell = {}

        kills = [(float(t), int(i)) for t, i in merged["kills"]]
        revives = [(float(t), int(i)) for t, i in merged["revives"]]

        for cell_id in self.cells:
            lan = Lan(self.sim, "seg{:02d}".format(cell_id), ScaleClusterScenario.SUBNET)
            members = self.fleet.segment_members(cell_id)
            start, count = _vip_slice(n_vips, n_segments, cell_id)
            cell = ScaleCell(
                lan,
                self.fleet,
                self.config,
                all_vips[start : start + count],
                faults,
                member_scope=frozenset(members),
            )
            self._cells[cell_id] = cell
            for name in members:
                host = UplinkHost(self.sim, name, self.uplink, cell_id)
                host.add_nic(lan, self.fleet.ip_of[name])
                self.uplink.attach_host(host, self.fleet.ip_of[name])
                cell.add(host, self.fleet.index_of[name])
                self._source_cell[name] = cell_id
                self._source_cell["seg@" + name] = cell_id
                self._source_cell["svip@" + name] = cell_id

            if merged["flow_users"]:
                engine = cell.attach_flow(
                    lan.name,
                    merged["flow_users"],
                    n_vips,
                    start,
                    merged["flow_rate"],
                    merged["flow_tick"],
                )
                self._source_cell[engine.name] = cell_id

            # Faults are pre-scheduled at build time (the fixed-horizon
            # script keeps run control grouping-invariant), per cell in
            # (time, index) order so sequence numbers are too.
            for time, index in sorted(k for k in kills if self._cell_of_index(k[1]) == cell_id):
                self.sim.at(time, cell.kill, index)
            for time, index in sorted(r for r in revives if self._cell_of_index(r[1]) == cell_id):
                self.sim.at(time, cell.revive, index)

        for cell_id in self.cells:
            self._cells[cell_id].start()

    def _cell_of_index(self, index):
        return self.fleet.segment_of_index(int(index))

    # ------------------------------------------------------------------
    # the kernel's world protocol

    def next_event_time(self):
        return self.sim.scheduler.next_event_time()

    def advance(self, until, inclusive):
        return self.sim.scheduler.run(until=until, inclusive=inclusive)

    def inject(self, envelopes):
        self.uplink.inject(envelopes)

    def drain_outbound(self):
        return self.uplink.drain_outbound()

    def artifacts(self):
        """This world's share of the run artifact (see shard.merge)."""
        cells_out = {}
        for cell_id in self.cells:
            cell = self._cells[cell_id]
            live_nodes = cell.live_nodes()
            bindings = cell.bindings()
            binds, unbinds = cell.moves()
            uncovered, duplicated = cell.coverage_violations()
            engine = cell.flow_engine
            cells_out[cell_id] = {
                "live": sorted(node.node_name for node in live_nodes),
                "views": [
                    list(view)
                    for view in sorted(
                        {
                            (node.global_view.version, view_digest(node.global_view.members))
                            for node in live_nodes
                        }
                    )
                ],
                "n_vips": len(cell.vips),
                "uncovered": len(uncovered),
                "duplicated": len(duplicated),
                "binds": binds,
                "unbinds": unbinds,
                "bindings_sha256": hashlib.sha256(
                    ";".join("=".join(pair) for pair in bindings).encode("utf-8")
                ).hexdigest(),
                "flow": engine.totals() if engine is not None else None,
                "uplink": self.uplink.counters(cell_id),
            }
        trace_out = {cell: [] for cell in self.cells}
        for record in self.sim.trace.records:
            cell = self._source_cell[record.source]
            details = ",".join(
                "{}={!r}".format(key, record.details[key])
                for key in sorted(record.details)
            )
            trace_out[cell].append(
                (
                    record.time,
                    "{!r}|{}|{}|{}|{}".format(
                        record.time, record.category, record.source, record.event, details
                    ),
                )
            )
        metrics = self.sim.metrics.totals() if self.params["metrics_enabled"] else {}
        return {
            "events_fired": self.sim.scheduler.events_fired,
            "now": self.sim.now,
            "cells": cells_out,
            "trace": trace_out,
            "metrics": metrics,
        }


class ShardedScaleScenario:
    """Boot+faults+settle on the partitioned cluster, serial or sharded.

    A fixed-horizon script: faults are scheduled up front and the run
    always ends exactly at ``horizon`` — no adaptive settle polling,
    so run control never depends on the shard grouping. ``shards``
    picks the partition width (1 = one world, the serial kernel);
    ``workers`` ≥ 2 forks one warm worker process per shard. The
    returned artifact is byte-identical for every (shards, workers)
    choice — :meth:`run` of a ``shards=1, workers=0`` scenario is the
    reference the parity suite compares against.
    """

    FACTORY = "repro.apps.scalecluster:build_scale_shard_world"

    def __init__(self, workers=0, **params):
        merged = dict(SHARD_SCALE_DEFAULTS)
        unknown = set(params) - set(SHARD_SCALE_DEFAULTS)
        if unknown:
            raise TypeError("unknown parameters: {}".format(sorted(unknown)))
        merged.update(params)
        n_hosts = int(merged["n_hosts"])
        _check_address_plan(n_hosts, int(merged["n_vips"]))
        n_segments = _segment_count(n_hosts, merged["segment_size"])
        horizon = float(merged["horizon"])
        merged["kills"] = sorted((float(t), int(i)) for t, i in merged["kills"])
        merged["revives"] = sorted((float(t), int(i)) for t, i in merged["revives"])
        for time, index in merged["kills"] + merged["revives"]:
            if not 0.0 < time < horizon:
                raise ValueError("fault time {} outside (0, horizon)".format(time))
            if not 0 <= index < n_hosts:
                raise ValueError("fault host index {} out of range".format(index))
        self.params = merged
        self.horizon = horizon
        self.workers = int(workers)
        self.plan = ShardPlan(n_segments, merged["shards"], merged["inter_latency"])
        self.artifact = None
        self.epochs = 0
        self.workers_used = 0

    def run(self):
        """Execute the script; returns the merged run artifact."""
        if self.params["flow_users"]:
            load_numpy()  # before the fork: the workers inherit it, not import it
        kernel = ShardedKernel(self.plan, self.FACTORY, self.params, workers=self.workers)
        try:
            kernel.start()
            kernel.run(self.horizon)
            worlds = kernel.collect()
        finally:
            kernel.close()
        self.epochs = kernel.epochs
        self.workers_used = kernel.workers
        meta = {
            key: self.params[key]
            for key in (
                "seed",
                "n_hosts",
                "n_vips",
                "segment_size",
                "inter_latency",
                "horizon",
                "flow_users",
                "flow_rate",
                "flow_tick",
                "trace_enabled",
                "metrics_enabled",
            )
        }
        # The fault script is part of the artifact's identity; the
        # shard/worker split deliberately is not — parity means those
        # knobs cannot show up in the bytes.
        meta["kills"] = [list(pair) for pair in self.params["kills"]]
        meta["revives"] = [list(pair) for pair in self.params["revives"]]
        self.artifact = merge_artifacts(worlds, meta=meta)
        return self.artifact
