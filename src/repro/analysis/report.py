"""Text and JSON reporters.

Both formats are deterministic: findings arrive pre-sorted from the
engine, JSON uses sorted keys, and neither embeds timestamps or paths
that vary between runs — two runs over the same tree are
byte-identical (asserted by tests/analysis).
"""

import json

from repro.analysis.proto003 import CODE


def summarize(result):
    """Per-rule counts and totals as a plain dict."""
    per_rule = {}
    for finding in result.findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    return {
        "files": len(result.files),
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
        "parse_errors": len(result.parse_errors),
        "by_rule": per_rule,
    }


def render_json(result):
    """The machine-readable report (one trailing newline, sorted keys)."""
    payload = {
        "format": "repro-lint/1",
        "summary": summarize(result),
        "findings": [f.to_dict() for f in result.findings],
        "parse_errors": [f.to_dict() for f in result.parse_errors],
        "rules": [CODE],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_text(result):
    """The human-readable report."""
    lines = []
    for finding in result.parse_errors + result.findings:
        lines.append(
            "{}:{}:{}: {} {}".format(
                finding.path,
                finding.line,
                finding.col + 1,
                finding.rule,
                finding.message,
            )
        )
        if finding.snippet.strip():
            lines.append("    {}".format(finding.snippet.strip()))
    summary = summarize(result)
    verdict = "clean" if not (result.findings or result.parse_errors) else "FAILED"
    lines.append(
        "repro lint: {} file(s), {} finding(s), {} suppressed — {}".format(
            summary["files"],
            summary["findings"] + summary["parse_errors"],
            summary["suppressed"],
            verdict,
        )
    )
    return "\n".join(lines)
