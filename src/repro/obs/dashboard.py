"""Render observability state: text dashboard and JSON-lines export.

:func:`format_table` is the one fixed-width table layout, shared with
the paper-style experiment reports (which import it from here, so
``repro observe`` loads no experiment). Both renderers are pure functions of (registry, episodes): deterministic
input produces byte-identical output, which makes the exports diffable
across replays. The JSON-lines form is one self-describing object per
line (``header`` / ``metric`` / ``episode``), dumped with sorted keys
and compact separators so the bytes are stable.
"""

import json


def format_table(headers, rows, title=None):
    """A fixed-width table like the paper's; a float cell shows three decimals."""
    table = [[str(cell) for cell in headers]] + [
        ["{:.3f}".format(cell) if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = [title] if title else []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _format_value(instrument):
    """One-cell summary of an instrument."""
    if instrument.kind in ("counter", "gauge"):
        return str(instrument.value)
    summary = instrument.summary()

    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, float):
            return "{:.4g}".format(value)
        return str(value)

    return "last={} min={} max={} avg={} n={}".format(
        fmt(summary["last"]), fmt(summary["min"]), fmt(summary["max"]),
        fmt(summary["time_avg"]), summary["samples"],
    )


def metric_rows(registry):
    """Deterministic ``[{name, node, labels, kind, summary}]`` rows."""
    rows = []
    for name, node, labels, instrument in registry.collect():
        rows.append(
            {
                "name": name,
                "node": node,
                "labels": {key: value for key, value in labels},
                "kind": instrument.kind,
                "summary": instrument.summary(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# text dashboard


def render_dashboard(registry, episodes=(), title="observability dashboard"):
    """Multi-section text dashboard over a registry and episode list."""
    lines = [title, "=" * len(title), ""]

    layers = registry.layers()
    lines.append(
        "{} instrument(s) across {} layer(s): {}".format(
            len(registry), len(layers), ", ".join(layers) or "-"
        )
    )
    lines.append("")

    rows = []
    for name, node, labels, instrument in registry.collect():
        label_text = ",".join("{}={}".format(k, v) for k, v in labels)
        rows.append((name, node, label_text or "-", _format_value(instrument)))
    if rows:
        lines.append(format_table(("metric", "node", "labels", "value"), rows))
        lines.append("")

    lines.append(render_episodes(episodes).rstrip("\n"))
    return "\n".join(lines).rstrip("\n") + "\n"


def render_episodes(episodes):
    """Text table of fail-over episodes with per-phase durations."""
    episodes = list(episodes)
    if not episodes:
        return "no fail-over episodes observed\n"
    lines = ["fail-over episodes", ""]
    rows = []
    for episode in episodes:
        phases = episode.phase_durations()

        def ms(value):
            return "-" if value is None else "{:.1f}ms".format(value * 1000.0)

        rows.append(
            (
                episode.index,
                episode.trigger_kind,
                "{:.3f}".format(episode.trigger_time),
                episode.victim or "-",
                "yes" if episode.complete else "no",
                ms(phases["detection"]),
                ms(phases["membership"]),
                ms(phases["gather"]),
                ms(phases["arp"]),
                ms(phases["client_recovery"]),
                ms(phases["total"]),
            )
        )
    lines.append(
        format_table(
            ("#", "trigger", "t", "victim", "complete", "detect", "membership",
             "gather", "arp", "client", "total"),
            rows,
        )
    )
    return "\n".join(lines) + "\n"


def render_observation(result, seed, fault):
    """Dashboard for one observed :class:`~repro.apps.cluster.Failover`."""
    title = "repro observe — seed {}, {} against {} at t={:.3f}".format(
        seed, fault, result.victim, result.fault_time
    )
    text = render_dashboard(result.sim.metrics, result.episodes, title=title)
    lines = [text.rstrip("\n"), ""]
    episode = result.failover_episode()
    if episode is not None:
        phases = episode.phase_durations()
        lines.append(
            "fault episode #{}: converged {:.1f}ms after the fault".format(
                episode.index,
                (phases["total"] or 0.0) * 1000.0,
            )
        )
    if result.interruption is not None:
        lines.append(
            "probe interruption: {:.1f}ms".format(result.interruption * 1000.0)
        )
    return "\n".join(lines).rstrip("\n") + "\n"


# ----------------------------------------------------------------------
# JSON-lines export


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonl_export(registry, episodes=(), header=None):
    """One JSON object per line: optional header, metrics, episodes.

    Dumped with sorted keys and compact separators; same state in,
    same bytes out.
    """
    lines = []
    if header is not None:
        payload = {"type": "header"}
        payload.update(header)
        lines.append(_dump(payload))
    for row in metric_rows(registry):
        payload = {"type": "metric"}
        payload.update(row)
        lines.append(_dump(payload))
    for episode in episodes:
        payload = {"type": "episode"}
        payload.update(episode.to_dict())
        lines.append(_dump(payload))
    return "\n".join(lines) + "\n"


def jsonl_observation(result, seed, fault):
    """JSON-lines export for one observed :class:`~repro.apps.cluster.Failover`."""
    header = {
        "seed": seed,
        "fault": fault,
        "fault_time": round(result.fault_time, 9),
        "victim": result.victim,
        "interruption": (
            None if result.interruption is None else round(result.interruption, 9)
        ),
        "layers": result.sim.metrics.layers(),
    }
    return jsonl_export(result.sim.metrics, result.episodes, header=header)
