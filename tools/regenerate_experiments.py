"""Rewrite EXPERIMENTS.md's generated blocks from ``python -m repro all``.

A generated block is a fenced ``text`` block right after a marker line
``<!-- python -m repro COMMAND -->``, and holds that command's stdout
at its defaults, verbatim. ``repro all`` prints each command of
``repro.cli.EXPERIMENTS`` in turn after a rule of 72 ``=`` and before a
blank line; this reads that output on stdin and puts each command's
section into its block::

    PYTHONPATH=src python -m repro all | PYTHONPATH=src python tools/regenerate_experiments.py

CI runs the same line and fails if EXPERIMENTS.md then differs from the
committed file. Exits 1, writing nothing, unless every command has
exactly one block.
"""

import os
import re
import sys

from repro.cli import EXPERIMENTS

DOC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "EXPERIMENTS.md")
BLOCK = re.compile(r"(<!-- python -m repro (\S+) -->\n```text\n)(.*?)(```\n)", re.S)


def main():
    sections = sys.stdin.read().split("=" * 72 + "\n")[1:]
    # Each section ends in the blank line ``all`` prints after the command.
    outputs = {command: section[:-1] for command, section in zip(EXPERIMENTS, sections)}
    with open(DOC) as handle:
        text = handle.read()
    named = [match.group(2) for match in BLOCK.finditer(text)]
    if len(sections) != len(EXPERIMENTS) or sorted(named) != sorted(EXPERIMENTS):
        sys.exit("{} sections on stdin and blocks for {}; expected one of each for {}".format(
            len(sections), named, list(EXPERIMENTS)))
    with open(DOC, "w") as handle:
        handle.write(BLOCK.sub(lambda m: m.group(1) + outputs[m.group(2)] + m.group(4), text))


if __name__ == "__main__":
    main()
