"""Rule registry: rules self-register at import time.

A rule is a class with ``code``/``name``/``description`` attributes and
a ``check_project(project, config)`` hook, yielded once per run.
"""

_RULES = {}


class Rule:
    """Base class; subclasses override the check hook.

    ``rationale`` and the ``example_bad``/``example_good`` pair feed
    ``repro lint --explain CODE``; keep the examples minimal (a few
    lines each) and make the good one the smallest fix of the bad one.
    """

    code = ""
    name = ""
    description = ""
    rationale = ""
    example_bad = ""
    example_good = ""

    def check_project(self, project, config):
        return iter(())


def register(rule_class):
    """Class decorator adding the rule to the registry."""
    code = rule_class.code.lower()
    if not code:
        raise ValueError("rule {} has no code".format(rule_class.__name__))
    if code in _RULES:
        raise ValueError("duplicate rule code {}".format(rule_class.code))
    _RULES[code] = rule_class()
    return rule_class


def all_rules():
    """Every registered rule, sorted by code."""
    _ensure_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(code):
    """Look one rule up by (case-insensitive) code."""
    _ensure_loaded()
    return _RULES[code.lower()]


def _ensure_loaded():
    # Importing the rules package triggers every @register decorator.
    import repro.analysis.rules  # noqa: F401
