"""Rule-based stateful testing of a live Wackamole cluster.

Hypothesis drives an arbitrary interleaving of fault and repair rules
against one cluster, advancing simulated time between steps, and
checks the agreed-membership coverage invariant after every rule. On
teardown the cluster must quiesce back to full, exactly-once coverage
(Properties 1 and 2 as a state-machine property).

A second machine adds the state-corruption rules against a
self-stabilizing cluster: corruptions legitimately open bounded
coverage windows (until the next audit tick repairs them), so its
invariant is debounced — a violation only fails once the same
(kind, slot) has persisted across samples for longer than the
campaign grace.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from helpers import build_wack_cluster, settle_quiet, settle_wack

from repro.gcs.config import SpreadConfig
from repro.core.config import WackamoleConfig
from repro.check.schedule import REPERTOIRES
from repro.core.state import RUN

N = 4


class FaultMachine(RuleBasedStateMachine):
    """The fail-stop rules and the teardown both machines share."""

    def __init__(self):
        super().__init__()
        self.cluster = None
        self.partitions = []  # handles of the open cuts

    @rule(index=st.integers(0, N - 1))
    def drop_an_interface(self, index):
        self.cluster.faults.nic_down(self.cluster.hosts[index].nics[0])

    @rule(index=st.integers(0, N - 1))
    def restore_an_interface(self, index):
        host = self.cluster.hosts[index]
        if host.alive:
            self.cluster.faults.nic_up(host.nics[0])

    @rule(split=st.integers(1, N - 1))
    def partition_lan(self, split):
        self.partitions.append(
            self.cluster.faults.partition(
                self.cluster.lan,
                [self.cluster.hosts[:split], self.cluster.hosts[split:]],
            )
        )

    @rule()
    def heal_lan(self):
        for fault in self.partitions:
            fault.undo()
        self.partitions = []

    @rule(seconds=st.floats(0.2, 3.0))
    def let_time_pass(self, seconds):
        self.cluster.sim.run_for(seconds)

    def teardown(self):
        if self.cluster is None:
            return
        # End of the episode: repair everything and require quiescence,
        # from whatever state (corrupted included) the rules left.
        self.heal_lan()
        for host in self.cluster.hosts:
            if host.alive:
                for nic in host.nics:
                    self.cluster.faults.nic_up(nic)
        live = [w for w in self.cluster.wacks if w.alive]
        if not live:
            return
        assert settle_quiet(self.cluster, timeout=40.0)
        for wack in live:
            assert wack.machine.state == RUN and wack.mature
        assert self.cluster.auditor.check() == []


class WackamoleClusterMachine(FaultMachine):
    @initialize(seed=st.integers(0, 2**16))
    def boot(self, seed):
        self.cluster = build_wack_cluster(N, seed=seed, n_vips=5)
        assert settle_wack(self.cluster)

    @rule(index=st.integers(0, N - 1))
    def crash_a_host(self, index):
        live = [w for w in self.cluster.wacks if w.alive]
        victim = self.cluster.wacks[index]
        if victim.alive and len(live) > 1:
            self.cluster.faults.crash_host(victim.host)

    @rule(index=st.integers(0, N - 1))
    def graceful_drain(self, index):
        live = [w for w in self.cluster.wacks if w.alive]
        target = self.cluster.wacks[index]
        if target.alive and len(live) > 1:
            target.shutdown()

    @invariant()
    def agreed_membership_coverage_exact(self):
        if self.cluster is None:
            return
        violations = self.cluster.auditor.check_by_view()
        assert violations == [], violations


WackamoleClusterMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)

TestWackamoleCluster = WackamoleClusterMachine.TestCase


class StabilizingClusterMachine(FaultMachine):
    """The fail-stop rules (a backbone the corruption mix keeps) plus
    state corruption, against a self-stabilizing cluster."""

    def __init__(self):
        super().__init__()
        self._first_seen = {}

    @initialize(seed=st.integers(0, 2**16))
    def boot(self, seed):
        overrides = dict(WackamoleConfig.profile("stabilizing"), maturity_timeout=0.5)
        self.cluster = build_wack_cluster(
            N,
            seed=seed,
            n_vips=5,
            config=SpreadConfig.fast(**SpreadConfig.profile("stabilizing")),
            wack_overrides=overrides,
        )
        assert settle_wack(self.cluster)

    def _live_wack(self, index):
        wack = self.cluster.wacks[index]
        if wack.alive and wack.host.alive:
            return wack
        return None

    def _live_spread(self, index):
        host = self.cluster.hosts[index]
        spread = getattr(host, "spread_daemon", None)
        if host.alive and spread is not None and spread.alive and spread.started:
            return spread
        return None

    @rule(index=st.integers(0, N - 1))
    def corrupt_vip_table(self, index):
        wack = self._live_wack(index)
        if wack is not None:
            self.cluster.faults.corrupt_vip_table(wack)

    @rule(index=st.integers(0, N - 1))
    def corrupt_membership(self, index):
        spread = self._live_spread(index)
        if spread is not None:
            self.cluster.faults.corrupt_membership(spread)

    @rule(index=st.integers(0, N - 1))
    def corrupt_sequence(self, index):
        spread = self._live_spread(index)
        if spread is not None:
            self.cluster.faults.corrupt_sequence(spread)

    @rule(index=st.integers(0, N - 1))
    def corrupt_epoch(self, index):
        spread = self._live_spread(index)
        if spread is not None:
            self.cluster.faults.corrupt_epoch(spread)

    @invariant()
    def coverage_violations_never_persist(self):
        """Debounced Property 1: corruption windows close within grace."""
        if self.cluster is None:
            return
        now = self.cluster.sim.now
        violations = self.cluster.auditor.check_by_view()
        seen = {}
        for violation in violations:
            key = (violation.kind, violation.slot)
            seen[key] = self._first_seen.get(key, now)
            age = now - seen[key]
            assert age < REPERTOIRES["corrupt"].grace, "unrepaired: {}".format(violation)
        self._first_seen = seen


StabilizingClusterMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None
)

TestStabilizingCluster = StabilizingClusterMachine.TestCase


def test_stabilizing_teardown_waits_out_the_gcs_reconfiguration():
    """A phantom view member and a bounced NIC: every Wackamole daemon
    is RUN while the GCS still gathers, and the view it then installs
    demotes one of them to GATHER — teardown must wait that out."""
    machine = StabilizingClusterMachine()
    machine.boot(seed=0)
    machine.corrupt_membership(index=0)
    machine.coverage_violations_never_persist()
    machine.drop_an_interface(index=1)
    machine.coverage_violations_never_persist()
    machine.let_time_pass(seconds=0.375)
    machine.coverage_violations_never_persist()
    machine.teardown()
