"""Cluster-building helpers shared across the test suite."""

import collections
import contextlib
import pickle
from unittest import mock

from repro.apps.cluster import ServerGroup, run_until, servers_settled
from repro.core.config import WackamoleConfig
from repro.gcs.config import SpreadConfig
from repro.gcs.daemon import SpreadDaemon
from repro.gcs.membership import OPERATIONAL
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation

GcsCluster = collections.namedtuple(
    "GcsCluster", "sim lan hosts daemons faults config"
)


def shared(value, snapshot=pickle.dumps):
    """Body of a module or session fixture: yields ``value`` to its tests,
    then asserts at teardown that none of them changed it (as far as
    ``snapshot`` sees)."""
    before = snapshot(value)
    yield value
    assert snapshot(value) == before, "a test changed a shared fixture's value"


def numpy_absent():
    """Engines built inside find no numpy, loaded before or not: the one
    loader they all ask, ``repro.flow.engine.load_numpy``, answers None."""
    return mock.patch("repro.flow.engine.load_numpy", return_value=None)


def flow_backend(use_numpy):
    """Engines built inside get this flow backend, chosen the way the
    code chooses it: by what the loader finds."""
    return contextlib.nullcontext() if use_numpy else numpy_absent()


def build_gcs_cluster(n, seed=0, config=None, subnet="10.0.0.0/24", stagger=0.02):
    """A LAN of n hosts each running one GCS daemon (started, staggered)."""
    sim = Simulation(seed=seed)
    lan = Lan(sim, "lan0", subnet)
    config = config or SpreadConfig.fast()
    hosts, daemons = [], []
    for index in range(n):
        host = Host(sim, "node{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        daemon = SpreadDaemon(host, lan, config)
        sim.after(stagger * index, daemon.start)
        hosts.append(host)
        daemons.append(daemon)
    return GcsCluster(sim, lan, hosts, daemons, FaultInjector(sim), config)


def settle_gcs(cluster, duration=None):
    """Run long enough for one full discovery + install round."""
    duration = duration or (cluster.config.discovery_timeout * 4 + 2.0)
    cluster.sim.run_for(duration)
    return cluster


WackCluster = collections.namedtuple(
    "WackCluster", "sim lan hosts spreads wacks faults auditor config wconfig"
)


def build_wack_cluster(
    n,
    seed=0,
    n_vips=6,
    config=None,
    wack_overrides=None,
    subnet="10.0.0.0/24",
    stagger=0.02,
):
    """A LAN of n hosts each running GCS + Wackamole daemons (started)."""
    sim = Simulation(seed=seed)
    lan = Lan(sim, "lan0", subnet)
    config = config or SpreadConfig.fast()
    vips = ["10.0.0.{}".format(100 + i) for i in range(n_vips)]
    overrides = {"maturity_timeout": 0.5, "balance_timeout": 1.0}
    overrides.update(wack_overrides or {})
    wconfig = WackamoleConfig.for_vips(vips, **overrides)
    group = ServerGroup(sim, lan, config, wconfig)
    for index in range(n):
        host = Host(sim, "node{}".format(index))
        host.add_nic(lan, "10.0.0.{}".format(10 + index))
        group.add(host)
    group.start(stagger)
    return WackCluster(
        sim,
        lan,
        group.hosts,
        group.spreads,
        group.wacks,
        FaultInjector(sim),
        group.auditor,
        config,
        wconfig,
    )


def allocation_violations(allocation, members, slots):
    """Shared placement invariants for any {slot: member} allocation.

    Both placement strategies — the paper's linear BALANCE/reallocate
    pass and the scale tier's rendezvous hashing — must satisfy the
    same contract; every violation is returned as a readable string so
    property tests can assert ``not allocation_violations(...)``.
    """
    violations = []
    members = list(members)
    slots = list(slots)
    for slot in slots:
        if slot not in allocation:
            violations.append("slot {!r} missing from allocation".format(slot))
        elif members and allocation[slot] is None:
            violations.append("slot {!r} uncovered".format(slot))
        elif allocation[slot] is not None and allocation[slot] not in members:
            violations.append(
                "slot {!r} owned by non-member {!r}".format(slot, allocation[slot])
            )
    extra = set(allocation) - set(slots)
    for slot in sorted(extra):
        violations.append("allocation names unknown slot {!r}".format(slot))
    return violations


def assert_allocation_ok(allocation, members, slots):
    """Assert the shared full-coverage + single-owner-domain invariants."""
    violations = allocation_violations(allocation, members, slots)
    assert not violations, "; ".join(violations)


def settle_wack(cluster, timeout=20.0):
    """Run until every live daemon is RUN, mature, and coverage is clean."""
    return run_until(
        cluster.sim,
        lambda: servers_settled(cluster.wacks, cluster.auditor),
        timeout,
        step=0.2,
        extra=0.2,
    )


def gcs_quiet(spreads):
    """Every running GCS daemon OPERATIONAL, and all in one installed view."""
    running = [s for s in spreads if s.started and s.alive and s.host.alive]
    return all(s.membership.state == OPERATIONAL for s in running) and (
        len({s.membership.view.view_id for s in running}) <= 1
    )


def settle_quiet(cluster, timeout=20.0):
    """:func:`settle_wack`, also waiting out any GCS reconfiguration.

    A Wackamole daemon stays RUN while its GCS daemon gathers — it
    learns of the change only when the next view is installed — so a
    cluster can look settled one stride before that view demotes some
    daemon to GATHER again.
    """
    return run_until(
        cluster.sim,
        lambda: servers_settled(cluster.wacks, cluster.auditor)
        and gcs_quiet(cluster.spreads),
        timeout,
        step=0.2,
        extra=0.2,
    )
