"""Unit tests for the heartbeat failure detector's timing model."""

from repro.gcs.config import SpreadConfig
from repro.gcs.failure import FailureDetector
from repro.sim.simulation import Simulation


class StubDaemon:
    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.daemon_id = "me"


def build(fd=1.0, hb=0.4, profile="paper"):
    sim = Simulation(seed=0)
    config = SpreadConfig(
        fault_detection_timeout=fd,
        heartbeat_timeout=hb,
        discovery_timeout=1.0,
        profile=profile,
    )
    daemon = StubDaemon(sim, config)
    suspected = []
    detector = FailureDetector(daemon, suspected.append)
    return sim, detector, suspected


def test_silent_peer_suspected_after_fault_detection_timeout():
    sim, detector, suspected = build()
    detector.watch(["me", "peer"])
    sim.run(until=0.99)
    assert suspected == []
    sim.run(until=1.01)
    assert suspected == ["peer"]


def test_traffic_refreshes_the_timer():
    sim, detector, suspected = build()
    detector.watch(["peer"])
    sim.after(0.5, detector.heard_from, "peer")
    sim.run(until=1.4)
    assert suspected == []
    sim.run(until=1.6)
    assert suspected == ["peer"]


def test_self_is_never_watched():
    sim, detector, suspected = build()
    detector.watch(["me"])
    assert detector.watched == frozenset()


def test_stop_cancels_all_suspicions():
    sim, detector, suspected = build()
    detector.watch(["a", "b"])
    detector.stop()
    sim.run(until=5.0)
    assert suspected == []


def test_watch_replaces_previous_set():
    sim, detector, suspected = build()
    detector.watch(["a"])
    detector.watch(["b"])
    sim.run(until=2.0)
    assert suspected == ["b"]


def test_heard_from_unwatched_peer_is_ignored():
    sim, detector, suspected = build()
    detector.watch(["a"])
    detector.heard_from("z")
    sim.run(until=2.0)
    assert suspected == ["a"]


def test_suspicion_counter():
    sim, detector, suspected = build()
    detector.watch(["a", "b"])
    sim.run(until=2.0)
    assert detector.suspicions == 2


def test_detection_delay_within_paper_window():
    """A peer heartbeating every hb then dying is detected within
    [fd - hb, fd] of the failure (the §6 analysis)."""
    sim, detector, suspected = build(fd=5.0, hb=2.0)
    detector.watch(["peer"])
    # Heartbeats at 0, 2, 4; failure at 4.7 (0.7s after last beat).
    for t in (0.0, 2.0, 4.0):
        sim.at(t, detector.heard_from, "peer")
    failure_time = 4.7
    sim.run(until=20.0)
    detection_delay = (4.0 + 5.0) - failure_time  # timer from last beat
    assert 5.0 - 2.0 <= detection_delay <= 5.0


# ----------------------------------------------------------------------
# watch -> stop lifecycle edges


def test_heard_from_after_stop_is_a_noop():
    """Traffic arriving after stop() must not resurrect a timer.

    The real sequence: a view change tears the detector down while a
    late heartbeat is already in flight; if heard_from re-armed a
    timer, it would fire into the new view as a phantom suspicion.
    """
    sim, detector, suspected = build()
    detector.watch(["peer"])
    detector.stop()
    detector.heard_from("peer")
    assert detector.watched == frozenset()
    sim.run(until=10.0)
    assert suspected == []


def test_heard_from_after_suspicion_does_not_resurrect_the_timer():
    sim, detector, suspected = build()
    detector.watch(["peer"])
    sim.run(until=1.5)
    assert suspected == ["peer"]
    detector.heard_from("peer")
    assert detector.watched == frozenset()
    sim.run(until=10.0)
    assert suspected == ["peer"]
    assert detector.suspicions == 1


def test_heard_from_never_watched_peer_creates_no_timer():
    sim, detector, suspected = build()
    detector.heard_from("ghost")
    assert detector.watched == frozenset()
    sim.run(until=10.0)
    assert suspected == []


# ----------------------------------------------------------------------
# K-miss suspicion hardening (docs/FAULTS.md): K = 1 in the paper
# profile, 2 in the hardened ones


def test_k_miss_extends_detection_by_heartbeats():
    """With K=2 a silent peer is suspected at fd + (K-1)*hb, not fd."""
    sim, detector, suspected = build(fd=1.0, hb=0.4, profile="hardened")
    detector.watch(["peer"])
    sim.run(until=1.3)
    assert suspected == []  # first expiry at 1.0 was only a miss
    sim.run(until=1.5)
    assert suspected == ["peer"]


def test_k1_matches_the_historical_detector_timing():
    sim, detector, suspected = build(fd=1.0, hb=0.4, profile="paper")
    detector.watch(["peer"])
    sim.run(until=0.99)
    assert suspected == []
    sim.run(until=1.01)
    assert suspected == ["peer"]


def test_occasional_traffic_rides_out_misses():
    """A trickle of heartbeats through a lossy link never suspects.

    Traffic arrives every 1.2s — always after the first (fd=1.0) expiry
    but always inside the one-heartbeat grace window, so K=2 rides out
    every miss while K=1 would have flapped at t=1.0.
    """
    sim, detector, suspected = build(fd=1.0, hb=0.4, profile="hardened")
    detector.watch(["peer"])
    for k in range(1, 8):
        sim.at(1.2 * k, detector.heard_from, "peer")
    sim.run(until=9.0)
    assert suspected == []
    assert detector.misses_ridden_out >= 7


def test_traffic_resets_the_miss_count():
    """After ridden-out misses the full K expiries are needed again."""
    sim, detector, suspected = build(fd=1.0, hb=0.4, profile="hardened")
    detector.watch(["peer"])
    sim.at(1.2, detector.heard_from, "peer")  # clears the t=1.0 miss
    # Fresh fd window from 1.2: miss at 2.2, suspicion at 2.6.
    sim.run(until=2.5)
    assert suspected == []
    sim.run(until=2.7)
    assert suspected == ["peer"]
