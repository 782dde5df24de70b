"""Apply the regression bounds to two result sets of ``run.py --all``."""

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def _beats(these, those, better):
    """Every repeat of ``these`` reads better than every repeat of ``those``."""
    if better == "lower":
        return max(these) < min(those)
    return min(these) > max(those)


def judge(base, change, better, bound):
    """One (metric, workload) pair: ``(status, ratio, worse_by)``.

    ``base`` and ``change`` are ``{"value": median, "repeats": [...],
    "spread": quartile distance / median}``. ``unresolved`` means the repeat
    spread of either side is wider than the bound and the two sides'
    repeats overlap, so the medians cannot settle the question.
    """
    ratio = change["value"] / base["value"] if base["value"] else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    separated = _beats(change["repeats"], base["repeats"], better) or _beats(
        base["repeats"], change["repeats"], better
    )
    if max(base["spread"], change["spread"]) > bound and not separated:
        return UNRESOLVED, ratio, worse_by
    return (WORSE if worse_by > bound else OK), ratio, worse_by


def compare(base, change, contract):
    """Rows ``(workload, metric, status, base, change, ratio, bound)`` for every pair."""
    rows = []
    for name in (workload["name"] for workload in contract["workloads"]):
        before = base["workloads"][name]
        after = change["workloads"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            status, ratio, _ = judge(
                before["metrics"][key], after["metrics"][key], metric["better"], metric["bound"]
            )
            rows.append(
                (name, key, status, before["metrics"][key]["value"],
                 after["metrics"][key]["value"], ratio, metric["bound"])
            )
        # Any rise of the failure ratio is a regression: its bound is 0.
        failed_before, failed_after = before["fail_ratio"], after["fail_ratio"]
        rows.append(
            (name, "fail_ratio", WORSE if failed_after > failed_before else OK,
             failed_before, failed_after, None, 0.0)
        )
        moved = before["sim_digest"] != after["sim_digest"]
        rows.append((name, "sim_digest", "moved" if moved else "same", None, None, None, None))
    return rows


def render(rows, base_name, change_name):
    lines = [
        "{:<15} {:<12} {:<10} {:>12} {:>12} {:>20} {:>6}".format(
            "workload", "metric", "status", "base", "change", "ratio (base=1.000)", "bound"
        )
    ]
    for name, key, status, before, after, ratio, bound in rows:
        if before is None:
            lines.append("{:<15} {:<12} {:<10}".format(name, key, status))
            continue
        lines.append(
            "{:<15} {:<12} {:<10} {:>12.4f} {:>12.4f} {:>20} {:>6}".format(
                name, key, status, before, after,
                "-" if ratio is None else "{:.3f}".format(ratio),
                "{:.0%}".format(bound),
            )
        )
    lines.append("base: {}   change: {}".format(base_name, change_name))
    return "\n".join(lines)


def exit_code(rows):
    return 1 if any(row[2] == WORSE for row in rows) else 0
