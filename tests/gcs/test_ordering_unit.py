"""Unit tests driving the ViewOrderer with synthetic messages."""

from repro.gcs.config import SpreadConfig
from repro.gcs.messages import NackMsg, OrderedMsg, SubmitMsg
from repro.gcs.ordering import ViewOrderer
from repro.gcs.views import DaemonView, ViewId
from repro.sim.process import Process
from repro.sim.simulation import Simulation


class OrdererHarness(Process):
    """Captures the daemon-side effects of one ViewOrderer."""

    def __init__(self, sim, daemon_id, config=None):
        super().__init__(sim, "stub@{}".format(daemon_id))
        self.daemon_id = daemon_id
        self.config = config or SpreadConfig.fast()
        self.broadcasts = []
        self.unicasts = []
        self.applied = []
        self._counter = 0

    def broadcast(self, message):
        self.broadcasts.append(message)

    def unicast(self, target, message):
        self.unicasts.append((target, message))

    def apply_ordered(self, message):
        self.applied.append(message)

    def next_msg_id(self):
        self._counter += 1
        return (self.daemon_id, self._counter)


def make_orderer(daemon_id="aaa", members=("aaa", "bbb")):
    sim = Simulation(seed=0)
    harness = OrdererHarness(sim, daemon_id)
    view = DaemonView(ViewId(1, sorted(members)[0]), members)
    return sim, harness, ViewOrderer(harness, view)


def ordered(view_id, seq, origin="bbb", payload=None, msg_id=None):
    return OrderedMsg(
        view_id, seq, origin, msg_id or (origin, seq), OrderedMsg.DATA, "g", payload
    )


def test_sequencer_assigns_consecutive_seqs_and_self_delivers():
    sim, harness, orderer = make_orderer("aaa")
    orderer.submit(OrderedMsg.DATA, "g", "one")
    orderer.submit(OrderedMsg.DATA, "g", "two")
    assert [m.seq for m in harness.broadcasts] == [1, 2]
    assert [m.payload for m in harness.applied] == ["one", "two"]
    assert orderer.delivered_aru == 2


def test_non_sequencer_unicasts_submission_to_sequencer():
    sim, harness, orderer = make_orderer("bbb")
    orderer.submit(OrderedMsg.DATA, "g", "hello")
    target, message = harness.unicasts[0]
    assert target == "aaa"
    assert isinstance(message, SubmitMsg)
    assert message.payload == "hello"


def test_non_sequencer_resubmits_until_ordered():
    sim, harness, orderer = make_orderer("bbb")
    orderer.submit(OrderedMsg.DATA, "g", "hello")
    sim.run_for(harness.config.resubmit_interval * 3.5)
    assert len(harness.unicasts) >= 3
    # Once the message appears in the order, resubmission stops.
    msg_id = harness.unicasts[0][1].msg_id
    orderer.on_ordered(ordered(orderer.view_id, 1, origin="bbb", msg_id=msg_id))
    count = len(harness.unicasts)
    sim.run_for(harness.config.resubmit_interval * 3)
    assert len(harness.unicasts) == count


def test_sequencer_deduplicates_retried_submissions():
    sim, harness, orderer = make_orderer("aaa")
    submit = SubmitMsg("bbb", orderer.view_id, ("bbb", 1), OrderedMsg.DATA, "g", "x")
    orderer.on_submit(submit)
    orderer.on_submit(submit)
    assert len(harness.broadcasts) == 1


def test_out_of_order_messages_buffered_then_delivered_in_order():
    sim, harness, orderer = make_orderer("bbb")
    orderer.on_ordered(ordered(orderer.view_id, 2, payload="second"))
    assert harness.applied == []
    orderer.on_ordered(ordered(orderer.view_id, 1, payload="first"))
    assert [m.payload for m in harness.applied] == ["first", "second"]


def test_gap_triggers_nack_to_sequencer():
    sim, harness, orderer = make_orderer("bbb")
    orderer.on_ordered(ordered(orderer.view_id, 3))
    sim.run_for(harness.config.gap_nack_delay * 2)
    nacks = [(t, m) for t, m in harness.unicasts if isinstance(m, NackMsg)]
    assert nacks
    target, nack = nacks[0]
    assert target == "aaa"
    assert set(nack.missing) == {1, 2}


def test_sequencer_retransmits_on_nack():
    sim, harness, orderer = make_orderer("aaa")
    orderer.submit(OrderedMsg.DATA, "g", "x")
    orderer.on_nack(NackMsg("bbb", orderer.view_id, [1]))
    assert any(
        isinstance(m, OrderedMsg) and m.seq == 1 for _, m in harness.unicasts
    )


def test_advertised_top_seq_exposes_tail_loss():
    sim, harness, orderer = make_orderer("bbb")
    orderer.on_top_seq(orderer.view_id, 4)
    sim.run_for(harness.config.gap_nack_delay * 2)
    nacks = [m for _, m in harness.unicasts if isinstance(m, NackMsg)]
    assert nacks
    assert set(nacks[0].missing) == {1, 2, 3, 4}


def test_top_seq_for_other_view_ignored():
    sim, harness, orderer = make_orderer("bbb")
    orderer.on_top_seq(ViewId(9, "zzz"), 10)
    assert orderer.top_seq() == 0


def test_wrong_view_messages_rejected():
    sim, harness, orderer = make_orderer("bbb")
    orderer.on_ordered(ordered(ViewId(9, "zzz"), 1))
    assert orderer.log == {}


def test_freeze_stops_delivery_and_sending():
    sim, harness, orderer = make_orderer("bbb")
    orderer.freeze()
    orderer.on_ordered(ordered(orderer.view_id, 1))
    assert harness.applied == []
    orderer.submit(OrderedMsg.DATA, "g", "queued")
    assert harness.unicasts == []
    assert len(orderer.pending_submissions()) == 1


def test_mark_recovered_clears_pending():
    sim, harness, orderer = make_orderer("bbb")
    msg_id = orderer.submit(OrderedMsg.DATA, "g", "x")
    orderer.freeze()
    orderer.mark_recovered(msg_id)
    assert orderer.pending_submissions() == []


def test_duplicate_ordered_message_ignored():
    sim, harness, orderer = make_orderer("bbb")
    message = ordered(orderer.view_id, 1)
    orderer.on_ordered(message)
    orderer.on_ordered(message)
    assert len(harness.applied) == 1


def test_absorb_recovered_advances_once_per_seq():
    """Regression: installation used to poke delivered_aru from the
    daemon; the orderer now owns the advance and reports novelty."""
    sim, harness, orderer = make_orderer("bbb")
    assert orderer.absorb_recovered(1) is True
    assert orderer.delivered_aru == 1
    # replaying the same or an older sequence is a no-op
    assert orderer.absorb_recovered(1) is False
    assert orderer.absorb_recovered(0) is False
    assert orderer.delivered_aru == 1
    assert orderer.absorb_recovered(3) is True
    assert orderer.delivered_aru == 3
