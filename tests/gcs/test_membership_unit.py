"""Unit tests driving the MembershipEngine with synthetic messages.

The integration tests exercise whole clusters; these pin down the
engine's decisions message by message through a stub daemon.
"""

from repro.gcs.config import SpreadConfig
from repro.gcs.membership import ACK_SENT, FORM_SENT, GATHER, OPERATIONAL, MembershipEngine
from repro.gcs.messages import (
    AckMsg,
    FormMsg,
    InstallMsg,
    JoinMsg,
    LeaveNotice,
    RecoveryDigest,
)
from repro.gcs.views import ViewId
from repro.sim.process import Process
from repro.sim.simulation import Simulation


class EngineHarness(Process):
    """Just enough daemon for the engine: captures outgoing traffic."""

    def __init__(self, sim, daemon_id="bbb", config=None):
        super().__init__(sim, "stub@{}".format(daemon_id))
        self.daemon_id = daemon_id
        self.config = config or SpreadConfig.fast()
        self.broadcasts = []
        self.unicasts = []
        self.installed = []
        self.left_operational = 0

    def broadcast(self, message):
        self.broadcasts.append(message)

    def unicast(self, target, message):
        self.unicasts.append((target, message))

    def make_digest(self):
        return RecoveryDigest(ViewId(0, self.daemon_id), {}, 0, {})

    def install_initial_view(self, view):
        pass

    def on_leave_operational(self):
        self.left_operational += 1

    def apply_install(self, install, old_view):
        self.installed.append(install)


def make_engine(daemon_id="bbb"):
    sim = Simulation(seed=0)
    harness = EngineHarness(sim, daemon_id)
    engine = MembershipEngine(harness)
    engine.start()
    return sim, harness, engine


def drain(sim, seconds):
    sim.run_for(seconds)


def digest_for(sender):
    return RecoveryDigest(ViewId(0, sender), {}, 0, {})


def test_startup_forms_singleton_after_quiet_discovery():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout + 0.1)
    assert engine.state == OPERATIONAL
    assert list(engine.view.members) == ["bbb"]
    assert engine.view.view_id.counter == 1
    assert len(harness.installed) == 1


def test_join_broadcasts_are_periodic_during_gather():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout / 2)
    joins = [m for m in harness.broadcasts if isinstance(m, JoinMsg)]
    assert len(joins) >= 3


def joins_sent(harness):
    return [m for m in harness.broadcasts if isinstance(m, JoinMsg)]


def agreed_engine():
    """'bbb' gathering with 'aaa', both JOINs already naming {aaa, bbb}."""
    sim, harness, engine = make_engine()
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, harness.config.join_interval)
    engine.on_join(JoinMsg("aaa", {"aaa", "bbb"}))
    drain(sim, harness.config.join_interval * 3)
    return sim, harness, engine


def test_joins_stop_once_every_member_echoed_the_set():
    sim, harness, engine = agreed_engine()
    sent = len(joins_sent(harness))
    assert joins_sent(harness)[-1].alive == {"aaa", "bbb"}
    drain(sim, harness.config.discovery_timeout / 2)
    assert engine.state == GATHER  # the discovery timer still runs
    assert len(joins_sent(harness)) == sent


def test_joins_resume_at_once_on_a_new_daemon():
    sim, harness, engine = agreed_engine()
    sent = len(joins_sent(harness))
    engine.on_join(JoinMsg("ccc", {"ccc"}))
    drain(sim, 0.0)
    assert len(joins_sent(harness)) == sent + 1
    assert joins_sent(harness)[-1].alive == {"aaa", "bbb", "ccc"}
    drain(sim, harness.config.join_interval * 3)
    assert len(joins_sent(harness)) > sent + 1  # 'ccc' has not echoed it yet


def test_joins_resume_at_once_on_a_join_naming_another_set():
    # 'aaa' missed our JOIN: its set differs, so we call again.
    sim, harness, engine = agreed_engine()
    sent = len(joins_sent(harness))
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, 0.0)
    assert len(joins_sent(harness)) == sent + 1
    assert engine.alive == {"aaa", "bbb"}
    engine.on_join(JoinMsg("aaa", {"aaa", "bbb"}))
    drain(sim, harness.config.join_interval * 3)
    stopped = len(joins_sent(harness))
    drain(sim, harness.config.join_interval * 3)
    assert len(joins_sent(harness)) == stopped


def test_new_join_restarts_discovery():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout * 0.8)
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, harness.config.discovery_timeout * 0.8)
    # The timeout was pushed back, so we are still gathering.
    assert engine.state in (GATHER, FORM_SENT, ACK_SENT)
    assert engine.alive == {"aaa", "bbb"}


def test_non_representative_waits_then_acks_form():
    sim, harness, engine = make_engine("bbb")
    engine.on_join(JoinMsg("aaa", {"aaa"}))  # 'aaa' sorts before 'bbb'
    drain(sim, harness.config.discovery_timeout + 0.1)
    assert engine.state == GATHER  # awaiting the representative's FORM
    proposal = FormMsg("aaa", ViewId(5, "aaa"), ["aaa", "bbb"])
    engine.on_form(proposal)
    assert engine.state == ACK_SENT
    target, ack = harness.unicasts[-1]
    assert target == "aaa"
    assert isinstance(ack, AckMsg)
    assert ack.view_id == proposal.view_id


def test_representative_forms_and_collects_acks():
    sim, harness, engine = make_engine("aaa")
    engine.on_join(JoinMsg("bbb", {"bbb"}))
    drain(sim, harness.config.discovery_timeout + 0.1)
    assert engine.state == FORM_SENT
    form = next(m for m in harness.broadcasts if isinstance(m, FormMsg))
    assert list(form.members) == ["aaa", "bbb"]
    engine.on_ack(AckMsg("bbb", form.view_id, digest_for("bbb")))
    assert engine.state == OPERATIONAL
    install = next(m for m in harness.broadcasts if isinstance(m, InstallMsg))
    assert list(install.members) == ["aaa", "bbb"]


def test_ack_timeout_falls_back_to_gather():
    sim, harness, engine = make_engine("aaa")
    engine.on_join(JoinMsg("bbb", {"bbb"}))
    drain(sim, harness.config.discovery_timeout + 0.1)
    assert engine.state == FORM_SENT
    gathers_before = engine.gathers_started
    drain(sim, harness.config.form_timeout + 0.1)
    assert engine.state in (GATHER, FORM_SENT, OPERATIONAL)
    assert engine.gathers_started > gathers_before


def test_form_wait_timeout_falls_back_to_gather():
    sim, harness, engine = make_engine("bbb")
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, harness.config.discovery_timeout + 0.05)
    gathers_before = engine.gathers_started
    drain(sim, harness.config.form_timeout + 0.1)
    assert engine.gathers_started > gathers_before


def test_install_without_matching_ack_triggers_gather():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout + 0.1)
    assert engine.state == OPERATIONAL
    gathers_before = engine.gathers_started
    rogue = InstallMsg("aaa", ViewId(9, "aaa"), ["aaa", "bbb"], {}, {})
    engine.on_install(rogue)
    assert engine.gathers_started > gathers_before
    assert len(harness.installed) == 1  # the rogue install was NOT applied


def test_stale_install_ignored():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout + 0.1)
    current = engine.view.view_id
    stale = InstallMsg("bbb", ViewId(0, "bbb"), ["bbb"], {}, {})
    engine.on_install(stale)
    assert engine.view.view_id == current
    dropped = [r for r in sim.trace.records if r.event == "stale_install"]
    assert [(r.details["view"], r.details["current"]) for r in dropped] == [
        (repr(stale.view_id), repr(current))
    ]


def test_an_ack_from_a_newer_view_makes_the_representative_propose_past_it():
    """A revived representative's counter restarts low; a member already
    past its proposal ACKs it (its digest names that view), so the
    representative learns the counter and proposes again at once."""
    sim, harness, engine = make_engine("aaa")
    engine.on_join(JoinMsg("bbb", {"bbb"}))
    drain(sim, harness.config.discovery_timeout + 0.1)
    first = next(m for m in harness.broadcasts if isinstance(m, FormMsg))
    ahead = RecoveryDigest(ViewId(first.view_id.counter + 6, "bbb"), {}, 0, {})
    engine.on_ack(AckMsg("bbb", first.view_id, ahead))
    assert engine.state == FORM_SENT
    second = [m for m in harness.broadcasts if isinstance(m, FormMsg)][-1]
    assert second.view_id == ViewId(first.view_id.counter + 7, "aaa")
    assert second.members == first.members
    engine.on_ack(AckMsg("bbb", second.view_id, ahead))
    assert engine.state == OPERATIONAL
    assert engine.view.view_id == second.view_id


def test_form_excluding_me_while_operational_triggers_gather():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout + 0.1)
    gathers_before = engine.gathers_started
    engine.on_form(FormMsg("aaa", ViewId(7, "aaa"), ["aaa", "ccc"]))
    assert engine.gathers_started > gathers_before


def test_competing_forms_only_higher_view_id_superseeds():
    sim, harness, engine = make_engine("bbb")
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, harness.config.discovery_timeout + 0.1)
    first = FormMsg("aaa", ViewId(5, "aaa"), ["aaa", "bbb"])
    engine.on_form(first)
    acks_after_first = len(harness.unicasts)
    # A lower proposal arrives late: must be ignored.
    engine.on_form(FormMsg("aaa", ViewId(4, "aaa"), ["aaa", "bbb"]))
    assert len(harness.unicasts) == acks_after_first
    # A higher proposal supersedes: a second ACK goes out.
    engine.on_form(FormMsg("aaa", ViewId(6, "aaa"), ["aaa", "bbb"]))
    assert len(harness.unicasts) == acks_after_first + 1


def test_leave_notice_from_member_triggers_gather():
    sim, harness, engine = make_engine("bbb")
    engine.on_join(JoinMsg("aaa", {"aaa"}))
    drain(sim, harness.config.discovery_timeout + 0.1)
    proposal = FormMsg("aaa", ViewId(5, "aaa"), ["aaa", "bbb"])
    engine.on_form(proposal)
    digests = {
        "aaa": digest_for("aaa"),
        "bbb": digest_for("bbb"),
    }
    engine.on_install(
        InstallMsg("aaa", proposal.view_id, ["aaa", "bbb"], {}, {})
    )
    assert engine.state == OPERATIONAL
    gathers_before = engine.gathers_started
    engine.on_leave_notice(LeaveNotice("aaa"))
    assert engine.gathers_started > gathers_before


def test_leave_notice_from_stranger_ignored():
    sim, harness, engine = make_engine()
    drain(sim, harness.config.discovery_timeout + 0.1)
    gathers_before = engine.gathers_started
    engine.on_leave_notice(LeaveNotice("zzz"))
    assert engine.gathers_started == gathers_before


def test_own_join_echo_ignored():
    sim, harness, engine = make_engine()
    drain(sim, 0.01)
    alive_before = set(engine.alive)
    engine.on_join(JoinMsg("bbb", {"bbb"}))
    assert engine.alive == alive_before
