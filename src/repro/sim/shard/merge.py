"""Deterministic merge of per-shard artifacts into one run artifact.

Every figure a world reports is per cell, and a cell's event timeline
is identical under every shard grouping, so the merge is exact: cell
summaries and trace digests are taken in cell order, counters summed in
sorted key order. The merged artifact — serialized with sorted keys —
is byte-identical across groupings, which the parity suite and the CI
``shard-parity`` job compare with ``cmp``.

World artifact input shape (produced by e.g.
``repro.apps.scalecluster.ScaleClusterScenario.artifacts``)::

    {
      "events_fired": int,
      "now": float,
      "cells": {cell_id: {...json-stable cell summary...}},
      "trace": {cell_id: [records, sha256 of the cell's lines in append order]},
      "metrics": {counter_name: int},     # counter totals, {} if disabled
    }
"""

import hashlib
import json

ARTIFACT_FORMAT = "repro-shard/1"


def view_digest(members):
    """Short stable digest of a sorted member tuple (view identity)."""
    return hashlib.sha256(",".join(members).encode("utf-8")).hexdigest()[:16]


def sum_flow(totals):
    """Field-wise sum of flow totals dicts, a missing field counting 0;
    None for none (no cell ran traffic)."""
    if not totals:
        return None
    merged = {
        field: sum(entry.get(field, 0) for entry in totals)
        for field in ("ticks", "users", "offered", "served", "lost")
    }
    reasons = {}
    for entry in totals:
        for reason, count in entry["lost_by_reason"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    merged["lost_by_reason"] = {reason: reasons[reason] for reason in sorted(reasons)}
    return merged


def merge_artifacts(world_artifacts, meta=None):
    """Combine per-shard world artifacts into the run artifact dict.

    ``meta`` must only carry grouping-independent parameters (seed,
    sizes, horizon, fault schedule — never the shard or worker count):
    the whole point of the artifact is that serial and sharded runs
    produce identical bytes.
    """
    cells = {}
    traces = {}
    metrics = {}
    events_fired = 0
    sim_time = 0.0
    for artifact in world_artifacts:
        events_fired += artifact["events_fired"]
        sim_time = max(sim_time, artifact["now"])
        for cell, summary in artifact["cells"].items():
            cells[int(cell)] = summary
        for cell, pair in artifact["trace"].items():
            traces[int(cell)] = pair
        for name, value in artifact["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value

    cell_summaries = [cells[cell] for cell in sorted(cells)]
    records = sum(count for count, _ in traces.values())
    trace = hashlib.sha256()
    for cell in sorted(traces):
        trace.update("{}|{}|{}\n".format(cell, *traces[cell]).encode("utf-8"))

    # Each cell is judged against its own live hosts: one view among
    # them, naming exactly them, and its VIPs each held once.
    converged = all(
        summary["uncovered"] == 0
        and summary["duplicated"] == 0
        and [view[1] for view in summary["views"]]
        == ([view_digest(tuple(summary["live"]))] if summary["live"] else [])
        for summary in cell_summaries
    )
    views = [[cell] + list(view) for cell in sorted(cells) for view in cells[cell]["views"]]
    live = sum(len(summary["live"]) for summary in cell_summaries)

    return {
        "format": ARTIFACT_FORMAT,
        "meta": dict(meta or {}),
        "sim_time": repr(sim_time),
        "events_fired": events_fired,
        "converged": bool(converged),
        "views": views,
        "n_live": live,
        "cells": {"{:02d}".format(cell): cells[cell] for cell in sorted(cells)},
        "flow": sum_flow([summary["flow"] for summary in cell_summaries if summary["flow"]]),
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "trace": {"records": records, "sha256": trace.hexdigest()},
    }


def artifact_bytes(artifact):
    """Canonical byte serialization (what parity compares and CI cmps)."""
    return json.dumps(artifact, sort_keys=True, indent=2).encode("utf-8")
