"""Golden pins: artifacts that must not move *across* commits.

Every other determinism test in the suite is a same-commit double run
— it proves a run is a pure function of its seed, not that a refactor
left the function alone. These pins close that gap: each case below
builds one artifact the way users do (a ``repro check`` trial, a
fail-over trace, a scale fingerprint, a sharded run artifact), hashes
its canonical JSON, and compares hash and ``events_fired`` against the
values recorded in :data:`GOLDEN`.

A pure re-assembly (moving code, merging builders) may not move any of
them. A deliberate behaviour change regenerates the table::

    PYTHONPATH=src python tests/test_golden_artifacts.py

prints the freshly computed table as a dict literal to paste over
:data:`GOLDEN` — in its own commit, with the reason in the message
(see docs/TESTING.md, "Golden pins").
"""

import hashlib
import json

import pytest

from repro.apps.routercluster import RouterClusterScenario
from repro.apps.scalecluster import ScaleClusterScenario, ShardedScaleScenario
from repro.apps.webcluster import WebClusterScenario
from repro.check import build_trial_spec, campaign_params, run_trial
from repro.cli import main
from repro.gcs.config import SpreadConfig
from repro.sim.shard.merge import artifact_bytes

from helpers import numpy_absent


def _sha(value):
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def _trace_pin(scenario, extra):
    sim = scenario.sim
    lines = [repr(record) for record in sim.trace.records]
    return {
        "sha256": _sha({"trace": lines, "extra": extra}),
        "events_fired": sim.scheduler.events_fired,
    }


# ----------------------------------------------------------------------
# the cases


def _check_trial(repertoire, index, **overrides):
    flags = {} if repertoire == "standard" else {repertoire: True}
    flags.update(overrides)
    params = campaign_params(
        base_seed=2004,
        trials=3,
        n_servers=5,
        n_vips=10,
        horizon=60.0,
        events_per_trial=12,
        **flags
    )
    result = run_trial(build_trial_spec(params, index))
    return {
        "sha256": _sha(result),
        "events_fired": result.get("events_fired"),
        "verdict": result["verdict"],
    }


def _web_nic_down():
    scenario = WebClusterScenario(
        seed=2004,
        n_servers=4,
        n_vips=10,
        spread_config=SpreadConfig.tuned(),
        wackamole_overrides={"maturity_timeout": 1.0},
        flow_users=5003,
    ).start()
    assert scenario.run_until_stable(timeout=30.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    fault_time = scenario.sim.now
    victim = scenario.kill_owner_of(scenario.vips[0], mode="nic_down")
    scenario.sim.run_for(6.0)
    scenario.faults.nic_up(victim.host.nic_on(scenario.lan))
    assert scenario.run_until_stable(timeout=30.0)
    return _trace_pin(
        scenario,
        {
            "interruption": probe.failover_interruption(after=fault_time),
            "coverage": scenario.coverage(),
            "flow": scenario.flow_engine.fingerprint(),
        },
    )


def _router_fail_active():
    scenario = RouterClusterScenario(
        seed=2004, n_routers=2, routing_mode="static", flow_users=1001
    ).start()
    assert scenario.run_until_stable(timeout=60.0)
    probe = scenario.start_probe()
    scenario.sim.run_for(0.5)
    fault_time = scenario.sim.now
    victim = scenario.fail_active()
    scenario.sim.run_for(6.0)
    assert scenario.run_until_stable(timeout=60.0)
    return _trace_pin(
        scenario,
        {
            "interruption": probe.failover_interruption(after=fault_time),
            "victim": victim.host.name,
            "active": scenario.active_router().host.name,
            "flow": scenario.flow_engine.fingerprint(),
        },
    )


def _scale_kill_revive(**extra):
    scenario = ScaleClusterScenario(
        seed=7, n_hosts=64, n_vips=512, segment_size=16, **extra
    ).start()
    assert scenario.settle()
    leader = 0
    scenario.kill(leader)
    assert scenario.settle()
    scenario.revive(leader)
    assert scenario.settle()
    fingerprint = scenario.fingerprint()
    if scenario.flow_engine is not None:
        fingerprint["flow"] = scenario.flow_engine.fingerprint()
    fingerprint["moved_vips"] = scenario.moved_vips()
    return {
        "sha256": _sha(fingerprint),
        "events_fired": scenario.sim.scheduler.events_fired,
    }


def _sharded(shards):
    scenario = ShardedScaleScenario(
        seed=7,
        n_hosts=64,
        n_vips=512,
        segment_size=16,
        shards=shards,
        flow_users=10007,
        kills=[(3.0, 0), (3.5, 21)],
        revives=[(7.0, 0)],
        trace_enabled=True,
        metrics_enabled=True,
    )
    artifact = scenario.run()
    # The event count is pinned as its own field, so it is hashed out
    # of the artifact (both places it appears): an order-identical
    # batching change moves the count and nothing else.
    events_fired = artifact.pop("events_fired")
    assert artifact["metrics"].pop("sim.events_fired") == events_fired
    return {
        "sha256": _sha(artifact_bytes(artifact)),
        "events_fired": events_fired,
    }


CASES = {
    "sharded/shards=1": lambda: _sharded(1),
    "sharded/shards=2": lambda: _sharded(2),
    "scale/kill-revive": _scale_kill_revive,
    "scale/kill-revive+flow": lambda: _scale_kill_revive(flow_users=10007),
    "web/nic-down": _web_nic_down,
    "router/static-fail-active": _router_fail_active,
    "trial/standard+flow/0": lambda: _check_trial("standard", 0, flow_users=1003),
    # The failure path (trace tail, violation list) through a planted bug.
    "trial/broken-balance/0": lambda: _check_trial(
        "standard", 0, fixture="broken-balance"
    ),
    "trial/gray+broken-balance/1": lambda: _check_trial(
        "gray", 1, fixture="broken-balance"
    ),
}
for _repertoire in ("standard", "gray", "corrupt"):
    for _index in range(3):
        CASES["trial/{}/{}".format(_repertoire, _index)] = (
            lambda r=_repertoire, i=_index: _check_trial(r, i)
        )


#: Recorded on the parent of the PR that introduced this file (d67d1ed);
#: the four scale/sharded event counts re-recorded with fan-out batching,
#: the four pins whose trace holds a ``flow/start`` record re-recorded
#: when that record stopped naming the numpy/python backend, the twelve
#: check trials when results gained the coverage engine's ``coverage``,
#: the two broken-balance pins again when a violation began to stop
#: the run at the instant it is known, and the seven trial pins whose
#: schedules overlap faults of one kind when overlapping faults began to
#: compose (each undo reverting its own fault only), and the four
#: scale/sharded event counts again (hashes unmoved) when a leader-lease
#: watch tick that would find the lease fresh began to be skipped, and
#: the two sharded counts (hashes unmoved) when the envelopes bound for
#: one cell at one instant began to be delivered by one event, and the
#: four scale/sharded pins when the cell world became the one scale
#: topology (placement scoped to each segment's cell, cross-cell frames
#: on a 25 ms uplink; one flow engine per world, the sharded artifact
#: traced), and the four again when a leader's beacon became one
#: broadcast on its cell's LAN (scale: counts only; sharded: frame
#: counters, a fresh leader's beacon one ARP exchange sooner, and the
#: meta without the dropped flow_rate, flow_tick and inter_latency),
#: and the four again when cells stopped exchanging leader digests
#: (scale: counts only, the digest timers and deliveries gone; sharded:
#: views per cell, no uplink counters, fewer frames and view records).
GOLDEN = {
    "router/static-fail-active": {
        "events_fired": 4478,
        "sha256": "8e2df23090f1c267d398e45806f5a0faba061018df2c1cd80d70df498ac30a6c",
    },
    "scale/kill-revive": {
        "events_fired": 1086,
        "sha256": "ce03076d78f4920a688cc44e208cc719a2590b37a993931d67de7178b3f13938",
    },
    "scale/kill-revive+flow": {
        "events_fired": 1146,
        "sha256": "b83ada9476638d666474ac398ef73b93c3de57e033f71b9b714764790dbacfe3",
    },
    "sharded/shards=1": {
        "events_fired": 4840,
        "sha256": "518efea8af879305c3d150bb2fdf86bea682785fc13ccb4f12d69ef5fff464a2",
    },
    "sharded/shards=2": {
        "events_fired": 4840,
        "sha256": "518efea8af879305c3d150bb2fdf86bea682785fc13ccb4f12d69ef5fff464a2",
    },
    "trial/broken-balance/0": {
        "events_fired": None,
        "sha256": "d3e75ac44c3cd1595075ac207bf8831a408e20cc0e8469b31f122625424e38d9",
        "verdict": "violation",
    },
    "trial/corrupt/0": {
        "events_fired": 10717,
        "sha256": "3d92d286438fc633555ff0046532025132e975636a1ea2a53b2cfdddd4b1fb14",
        "verdict": "pass",
    },
    "trial/corrupt/1": {
        "events_fired": 15373,
        "sha256": "c14703157edec78dce7700f84229bcc34cf6d1deb9ac3f70769fbf14869a6e9f",
        "verdict": "pass",
    },
    "trial/corrupt/2": {
        "events_fired": 17041,
        "sha256": "09b9f813af372096579187da37b11c88352f2110eb916fa57fa23576d4e95e18",
        "verdict": "pass",
    },
    "trial/gray+broken-balance/1": {
        "events_fired": None,
        "sha256": "a8476e3516ef35732c3ebd3bda006a6507fe4d0887628aca53fd57996a793054",
        "verdict": "violation",
    },
    "trial/gray/0": {
        "events_fired": 20853,
        "sha256": "e3e418ac639ac6a9171280a40f3bfa5ce43fbb6f134320b6ff21839453cbbc7c",
        "verdict": "pass",
    },
    "trial/gray/1": {
        "events_fired": 21312,
        "sha256": "5e139ca2ca6652fe0b36f909cd30b89a1b675510c508d7adf38c537dccfe60fc",
        "verdict": "pass",
    },
    "trial/gray/2": {
        "events_fired": 13598,
        "sha256": "8b6e2e90e13594be1ca3ddfc8e47cf48fe27e45d1359a7f15f7f60d448b6fb39",
        "verdict": "pass",
    },
    "trial/standard+flow/0": {
        "events_fired": 7763,
        "sha256": "7397cb7dfaca123b3ac393e6045e03aa1d6dcd4323720e941929605540c37aba",
        "verdict": "pass",
    },
    "trial/standard/0": {
        "events_fired": 6530,
        "sha256": "0b1e063e28d81c5b76fa2d5c674badc672b2da46d73f3bda0483d13cbe3f416c",
        "verdict": "pass",
    },
    "trial/standard/1": {
        "events_fired": 10020,
        "sha256": "29e4e73d86e8697bca36bab931332932cece4a36fa34710601c16efbece91af8",
        "verdict": "pass",
    },
    "trial/standard/2": {
        "events_fired": 9706,
        "sha256": "0819dfa187b9e3b4bc543887af962353e0143fe6cab47c2f20a78ebc04ec23ab",
        "verdict": "pass",
    },
    "web/nic-down": {
        "events_fired": 3606,
        "sha256": "d7df65b8eb06e7d5132fd91dd9c4711b18d573f342218c4330e6c1d2ab8c8232",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_pin(name):
    assert CASES[name]() == GOLDEN[name]


def test_artifacts_do_not_say_what_is_installed():
    # The same bytes from the pure-python backend: the engine chooses it
    # where numpy does not import, and neither a hashed trace record nor
    # the CLI's output, JSON or text, names the backend that ran.
    def flow(fmt):
        lines = []
        argv = ["flow", "--users", "20000", "--observe", "3", "--format", fmt]
        assert main(argv, out=lines.append) == 0
        return lines

    with_numpy = {fmt: flow(fmt) for fmt in ("json", "text")}
    with numpy_absent():
        assert CASES["web/nic-down"]() == GOLDEN["web/nic-down"]
        for fmt, lines in with_numpy.items():
            assert flow(fmt) == lines


def test_sharded_pins_agree():
    # Shard parity, cross-commit: the two pins are one artifact.
    assert GOLDEN["sharded/shards=1"] == GOLDEN["sharded/shards=2"]


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name in sorted(CASES):
        print('    "{}": {{'.format(_name))
        for _key, _value in sorted(CASES[_name]().items()):
            print('        "{}": {},'.format(_key, json.dumps(_value).replace("null", "None")))
        print("    },")
    print("}")
