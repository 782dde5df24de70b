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
#: views per cell, no uplink counters, fewer frames and view records),
#: and the twelve check trials and the web/router event counts (traces
#: unmoved) when a gathering daemon began to stop re-sending JOIN once
#: every member echoed its set, and a stopping coverage run to end a
#: grace after its last change, and trial/standard+flow/0 (5 908
#: records, past the 4 096-record window) when episodes began to be
#: folded as records are written: it gains the five early episodes the
#: window had cut off and the ``sim.trace_dropped`` metric, and the two
#: sharded hashes (counts unmoved) when the trace sha became a hash of
#: per-cell digests in cell order instead of the time-sorted lines,
#: and trial/corrupt/0 and /1 when corrupt_sequence lost its two
#: receipt-counter mutations (the draw picks from fewer), and the
#: eleven trial pins when a revived representative began to propose
#: past the view its members' ACKs name (the stale rounds and their
#: install-wait regathers gone from the trace), and the six trial pins
#: whose LAN runs a knob (gray/0-2, corrupt/1-2, gray+broken-balance/1)
#: when deliveries due at one instant began to share one event (their
#: results equal with ``events_fired`` removed).
GOLDEN = {
    "router/static-fail-active": {
        "events_fired": 4374,
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
        "sha256": "d536de447ffc6f1ffe5aa00bbb4d6f7c3f291c0225b09bcf1b8be7a1cb448931",
    },
    "sharded/shards=2": {
        "events_fired": 4840,
        "sha256": "d536de447ffc6f1ffe5aa00bbb4d6f7c3f291c0225b09bcf1b8be7a1cb448931",
    },
    "trial/broken-balance/0": {
        "events_fired": None,
        "sha256": "2415e172dc2e2d12a8152d9afa2e66a7520a86a5f01093d1b5f2e62d6bccb383",
        "verdict": "violation",
    },
    "trial/corrupt/0": {
        "events_fired": 8291,
        "sha256": "22323e3b4fbcdbb15fc08f403b2c3d1672c72c96f6d736938c64cab25594c542",
        "verdict": "pass",
    },
    "trial/corrupt/1": {
        "events_fired": 9215,
        "sha256": "5ebf83b5f75aae50af75edcabafb9556e7a8906bdd0f2972cd55a4b8e8ea1c87",
        "verdict": "pass",
    },
    "trial/corrupt/2": {
        "events_fired": 8768,
        "sha256": "6e11034f5e1d20019f2ac43450f93288503f72f9fa5a4e393e0930fff8e5c254",
        "verdict": "pass",
    },
    "trial/gray+broken-balance/1": {
        "events_fired": None,
        "sha256": "07ffed26add2accf0663ad3a5c34d78390dfcf3465d7b6ac51a90e6227c8df41",
        "verdict": "violation",
    },
    "trial/gray/0": {
        "events_fired": 7062,
        "sha256": "ca77b3c1c0f473a117ef1364f63600ee5f48bd9f944ca7d5d48af9af07317a47",
        "verdict": "pass",
    },
    "trial/gray/1": {
        "events_fired": 8676,
        "sha256": "a8480e3fabbf531545832de1e075beaef19bc949f090c63a1790290ea86bac80",
        "verdict": "pass",
    },
    "trial/gray/2": {
        "events_fired": 8090,
        "sha256": "7d22ae07642c4db9f0e9a6747726eef3cda8613c5121048f8527b585600e81a4",
        "verdict": "pass",
    },
    "trial/standard+flow/0": {
        "events_fired": 5029,
        "sha256": "059f51d2e1562912359cb6e50f44e34bcd1bf4118a066cf0bca8dcc4e939b87b",
        "verdict": "pass",
    },
    "trial/standard/0": {
        "events_fired": 3796,
        "sha256": "d58d8cb05e854a3e7c27c7629b85c6df79196d3d7eeb30ff856a4dfa75ceaf17",
        "verdict": "pass",
    },
    "trial/standard/1": {
        "events_fired": 4152,
        "sha256": "d921ae2cc08f7a449323589940b0810b62c5d9d68af9628ac5eb0954f7a3df8d",
        "verdict": "pass",
    },
    "trial/standard/2": {
        "events_fired": 4231,
        "sha256": "76471ea180c001fb5f4c5cf653d546ce829521460fa75d47d82fe6002b7fb7e2",
        "verdict": "pass",
    },
    "web/nic-down": {
        "events_fired": 3036,
        "sha256": "d7df65b8eb06e7d5132fd91dd9c4711b18d573f342218c4330e6c1d2ab8c8232",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_pin(name):
    assert CASES[name]() == GOLDEN[name]


def test_artifacts_do_not_say_what_is_installed():
    # The flow engine imports nothing optional, so a plain rebuild is
    # the check: after a flow command ran in this process, the web pin
    # and the command's own output, JSON and text, are the same bytes.
    def flow(fmt):
        lines = []
        argv = ["flow", "--users", "20000", "--observe", "3", "--format", fmt]
        assert main(argv, out=lines.append) == 0
        return lines

    first = {fmt: flow(fmt) for fmt in ("json", "text")}
    assert CASES["web/nic-down"]() == GOLDEN["web/nic-down"]
    for fmt, lines in first.items():
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
