"""A command pays for what it uses: what a cold ``repro`` imports, and when.

numpy loads at the first :class:`~repro.flow.engine.FlowEngine` (or in
the parent of a sharded run that will build engines in its workers),
``repro.cli`` imports nothing of ``repro`` until a handler runs, and the
parser is built from names alone. Everything about *what is loaded* is
asked of a fresh interpreter — this process has imported most of it.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.check.fixtures import FIXTURES
from repro.cli import FAULT_MODES, FIXTURE_NAMES, main
from repro.obs import observe

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
TESTS = os.path.join(ROOT, "tests")
#: What the children will find, asked without importing it here.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Prints what a script left loaded: numpy or not, then the repro modules.
REPORT = (
    "import sys; print('numpy' in sys.modules, "
    "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
)


def fresh(script):
    """stdout lines of ``script`` run in a new interpreter at the repo root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), TESTS)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().splitlines()


def test_importing_the_cli_imports_nothing_else_of_repro():
    assert fresh("import repro.cli\n" + REPORT) == ["False repro repro.cli"]


def test_commands_that_build_no_engine_never_load_numpy(tmp_path):
    script = "\n".join([
        "import repro.cli as cli, sys",
        "def run(argv):",
        "    try:",
        "        code = cli.main(argv, out=lambda line: None)",
        "    except SystemExit as stop:",
        "        code = stop.code",
        "    print(code, 'numpy' in sys.modules)",
        "run(['check', '--help'])",
        "run(['lint', '--list-rules'])",
        "run(['check', '--trials', '2', '--workers', '1', '--horizon', '10',",
        "     '--events', '2', '--artifacts', {!r}])".format(str(tmp_path)),
        "run(['flow', '--users', '1000', '--observe', '1'])",
    ])
    lines = fresh(script)
    assert lines[-4:] == ["0 False", "0 False", "0 False", "0 {}".format(HAVE_NUMPY)]


def test_python_leg_engine_first_in_a_fresh_interpreter_loads_no_numpy():
    # The order-independence pin: nothing has asked the loader yet, so a
    # helper that only un-set what an earlier load had bound proves nothing.
    lines = fresh("\n".join([
        "from helpers import numpy_absent",
        "from repro.flow import FlowEngine",
        "from repro.sim.simulation import Simulation",
        "with numpy_absent():",
        "    engine = FlowEngine(Simulation(seed=0), resolver=object())",
        "print(engine.use_numpy)",
        REPORT,
    ]))
    assert lines[0] == "False" and lines[1].startswith("False ")


#: ``build_scale_world`` that first says whether its process — a
#: forked worker, built after the fork — already holds numpy.
SHARDED = "\n".join([
    "import sys",
    "from repro.apps import scalecluster",
    "def world(params, shard_id):",
    "    assert ('numpy' in sys.modules) == (params['flow_users'] > 0), shard_id",
    "    return scalecluster.build_scale_world(params, shard_id)",
    "def run(flow_users):",
    "    scenario = scalecluster.ShardedScaleScenario(",
    "        workers=2, shards=2, n_hosts=64, n_vips=128, segment_size=16, horizon=2.0,",
    "        flow_users=flow_users)",
    "    scenario.FACTORY = world",
    "    scenario.run()",
    "    print(scenario.workers_used, 'numpy' in sys.modules)",
    "run(0)",
    "run(50_000)",
])


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed: nothing to inherit")
def test_sharded_run_loads_numpy_once_in_the_parent_before_the_fork():
    # A worker that had to import numpy itself fails its first reply; a
    # run without flow users leaves even the parent without it.
    assert fresh(SHARDED) == ["2 False", "2 True"]


# ----------------------------------------------------------------------
# the parser is built from names


def test_choice_names_match_the_registries():
    assert FIXTURE_NAMES == tuple(sorted(FIXTURES))
    assert FAULT_MODES == observe.FAULT_MODES


@pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="argparse words and wraps its help differently before 3.10 and after 3.12",
)
def test_help_of_every_subcommand_is_the_recorded_text(monkeypatch, capsys):
    # Re-recorded when `flow --fault` took FAULT_MODES, `lint` lost
    # --protocol and --sim-restrict, and `observe` gained --cost and
    # --hosts; every choice list is a name.
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(TESTS, "golden_cli_help.json")) as handle:
        recorded = json.load(handle)
    assert len(recorded) == 14
    for command, text in recorded.items():
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == text, command
