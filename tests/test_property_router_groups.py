"""Property tests for indivisible VIP groups (router mode, §5.2).

"A set of virtual IP addresses must be considered as a single entity."
Hypothesis builds clusters whose slots are multi-address groups across
several networks and checks the atomicity invariant: at any observed
instant, a host holds *all* addresses of a group or *none* of them —
through crashes, partitions and merges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.config import SpreadConfig
from repro.core.audit import CoverageAuditor
from repro.core.config import VipGroup, WackamoleConfig
from repro.core.daemon import WackamoleDaemon
from repro.core.state import RUN
from repro.gcs.daemon import SpreadDaemon
from repro.net.fault import FaultInjector
from repro.net.host import Host
from repro.net.lan import Lan
from repro.sim.simulation import Simulation


SUBNETS = ("10.0.0.0/24", "10.1.0.0/24", "10.2.0.0/24")


def build_router_cluster(seed, n_groups, addresses_per_group, n_routers=3):
    sim = Simulation(seed=seed, trace_enabled=False)
    lans = [
        Lan(sim, "lan{}".format(i), subnet) for i, subnet in enumerate(SUBNETS)
    ]
    groups = []
    for g in range(n_groups):
        addresses = [
            "10.{}.0.{}".format(a, 100 + g) for a in range(addresses_per_group)
        ]
        groups.append(VipGroup("set{}".format(g), addresses))
    config = WackamoleConfig(groups, maturity_timeout=0.5, balance_timeout=1.0)

    hosts, wacks = [], []
    for index in range(n_routers):
        host = Host(sim, "r{}".format(index))
        for lan_index, lan in enumerate(lans[:addresses_per_group]):
            host.add_nic(lan, "10.{}.0.{}".format(lan_index, 2 + index))
        spread = SpreadDaemon(host, lans[0], SpreadConfig.fast())
        wack = WackamoleDaemon(host, spread, config)
        sim.after(0.02 * index, spread.start)
        sim.after(0.02 * index + 0.005, wack.start)
        hosts.append(host)
        wacks.append(wack)
    return sim, lans, hosts, wacks, config, FaultInjector(sim)


def assert_groups_atomic(hosts, config):
    for host in hosts:
        for group in config.vip_groups:
            held = [
                any(nic.owns_ip(a) for nic in host.nics) for a in group.addresses
            ]
            assert all(held) or not any(held), (
                "group {} partially bound on {}: {}".format(
                    group.group_id, host.name, held
                )
            )


@given(
    st.integers(1, 4),      # groups
    st.integers(2, 3),      # addresses per group
    st.integers(0, 2**16),  # seed
    st.lists(st.sampled_from(["crash", "partition", "heal"]), max_size=3),
)
@settings(max_examples=15, deadline=None)
def test_vip_groups_move_atomically(n_groups, per_group, seed, actions):
    sim, lans, hosts, wacks, config, faults = build_router_cluster(
        seed, n_groups, per_group
    )
    sim.run_for(5.0)
    assert_groups_atomic(hosts, config)
    partitions = []
    for action in actions:
        live = [h for h in hosts if h.alive]
        if action == "crash" and len(live) > 1:
            faults.crash_host(live[0])
        elif action == "partition":
            partitions.append(faults.partition(lans[0], [live[:1], live[1:]]))
        elif action == "heal":
            while partitions:
                partitions.pop().undo()
        for _ in range(4):
            sim.run_for(1.0)
            assert_groups_atomic(hosts, config)
    for fault in partitions:
        fault.undo()
    sim.run_for(10.0)
    assert_groups_atomic(hosts, config)
    # Final sanity: all live daemons RUN, no Property 1 violations.
    auditor = CoverageAuditor(wacks)
    live_wacks = [w for w in wacks if w.alive]
    assert all(w.machine.state == RUN for w in live_wacks)
    assert auditor.check() == []
