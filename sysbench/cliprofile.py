"""Run ``python -m MODULE ARGS...`` under the profile hook.

The traced ``cli_cold`` ops run through this wrapper, so the hook sees
the command from its first import to its exit::

    python -m sysbench.cliprofile OUT.prof MODULE ARGS...

writes the profile to ``OUT.prof`` and the wall seconds the hook was on
to ``OUT.prof.wall``; the exit code is the command's.
"""

import cProfile
import runpy
import sys
import time


def main():
    out, module = sys.argv[1], sys.argv[2]
    sys.argv = sys.argv[2:]
    profile = cProfile.Profile()
    code = 0
    started = time.perf_counter()
    profile.enable()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code
    finally:
        profile.disable()
        wall = time.perf_counter() - started
        profile.dump_stats(out)
        with open(out + ".wall", "w") as handle:
            handle.write(repr(wall))
    sys.exit(code)


if __name__ == "__main__":
    main()
