"""Count tripwire: what a view change on the ring stack builds and keeps.

The paper's fail-over is one membership install followed by one
Wackamole GATHER. Two mechanisms keep the install from rebuilding state
that outlives the view, and neither may come back quietly:

* a ``FailureDetector`` makes one suspicion ``Timer`` per peer, the
  first time it watches that peer, and re-arms it at every later
  ``watch``; the timer's one ``Event`` is revived, so a later ``watch``
  builds no event either;
* a retired ``ViewOrderer`` is referenced by nothing it made: its
  resubmit and NACK timers are the daemon's, which fire into the current
  orderer, so reference counting frees it once the install returns.

Counts only — no timings — on an 8-server web cluster: one NIC goes
down and comes back up, two view changes after the boot view.
"""

import gc
import weakref

from repro.apps.webcluster import WebClusterScenario
from repro.gcs.config import SpreadConfig
from repro.gcs.daemon import SpreadDaemon
from repro.gcs.failure import FailureDetector
from repro.sim import events, timers

N_SERVERS = 8


def settled_cluster():
    scenario = WebClusterScenario(
        seed=3, n_servers=N_SERVERS, n_vips=8, spread_config=SpreadConfig.tuned()
    )
    scenario.start()
    assert scenario.run_until_stable()
    return scenario


def nic_down_and_up(scenario):
    """The second and third view changes: a server's NIC goes down, then up."""
    nic = scenario.hosts[-1].nic_on(scenario.lan)
    scenario.faults.nic_down(nic)
    assert scenario.run_until_stable()
    scenario.faults.nic_up(nic)
    assert scenario.run_until_stable()


def test_later_view_changes_construct_no_suspicion_timer(monkeypatch):
    scenario = settled_cluster()
    peers_watched = [0]
    constructed_inside = [0]
    events_inside = [0]
    inside = [False]
    watch = FailureDetector.watch
    timer_init = timers.Timer.__init__
    event_init = events.Event.__init__

    def counting_watch(self, peers):
        peers_watched[0] += sum(1 for peer in peers if peer != self._daemon.daemon_id)
        inside[0] = True
        try:
            watch(self, peers)
        finally:
            inside[0] = False

    def counting_timer_init(self, *args, **kwargs):
        if inside[0]:
            constructed_inside[0] += 1
        timer_init(self, *args, **kwargs)

    def counting_event_init(self, *args, **kwargs):
        if inside[0]:
            events_inside[0] += 1
        event_init(self, *args, **kwargs)

    monkeypatch.setattr(FailureDetector, "watch", counting_watch)
    monkeypatch.setattr(timers.Timer, "__init__", counting_timer_init)
    monkeypatch.setattr(events.Event, "__init__", counting_event_init)
    nic_down_and_up(scenario)

    # The window held two installs at every survivor: N - 2 peers each,
    # then N - 1 peers at all N servers once the NIC is back.
    assert peers_watched[0] >= (N_SERVERS - 1) * (N_SERVERS - 2) + N_SERVERS * (N_SERVERS - 1)
    assert constructed_inside[0] == 0
    # Nor an Event: each re-arm revives or reuses the timer's own (timers
    # that could not revive a cancelled event built 90 here).
    assert events_inside[0] == 0


def test_the_orderer_a_view_change_retires_dies_when_the_install_returns(monkeypatch):
    scenario = settled_cluster()
    retired = []
    apply_install = SpreadDaemon.apply_install

    def watching_apply_install(self, install, old_view):
        orderer = weakref.ref(self.orderer)
        apply_install(self, install, old_view)
        retired.append(orderer() is None)

    monkeypatch.setattr(SpreadDaemon, "apply_install", watching_apply_install)
    enabled = gc.isenabled()
    gc.disable()  # so only reference counting can free an orderer
    try:
        nic_down_and_up(scenario)
    finally:
        if enabled:
            gc.enable()
    assert len(retired) >= 2 * (N_SERVERS - 1)
    assert all(retired)
