"""Per-line suppression comments.

A finding on a line carrying ``# repro: allow <rule>[,<rule>...]`` is
suppressed (reported in the summary but not counted against the exit
code). ``# repro: allow *`` suppresses every rule on that line, and a
justification may follow after ``--``::

    # repro: allow PROTO003 -- a fault injector corrupts the field on purpose

The comment documents an *acknowledged* exception.
"""

import re

_ALLOW = re.compile(r"#\s*repro:\s*allow\s+([\w*,\s-]+)", re.IGNORECASE)
_NOT_WIRE = re.compile(r"#\s*repro:\s*not-wire\b", re.IGNORECASE)


def parse_suppressions(lines):
    """Map 1-based line number -> set of lowercased allowed rule codes."""
    suppressions = {}
    for number, text in enumerate(lines, start=1):
        match = _ALLOW.search(text)
        if match is None:
            continue
        # Everything after `--` is the human justification, not a code.
        allowed = match.group(1).split("--", 1)[0]
        codes = {
            code.strip().lower()
            for code in allowed.split(",")
            if code.strip()
        }
        if codes:
            suppressions[number] = codes
    return suppressions


def is_suppressed(suppressions, line, rule):
    """True when ``rule`` is allowed on ``line``."""
    codes = suppressions.get(line)
    if not codes:
        return False
    return "*" in codes or rule.lower() in codes


def is_not_wire(line_text):
    """True when a class-def line opts out of the wire kinds (client-facing)."""
    return _NOT_WIRE.search(line_text) is not None
