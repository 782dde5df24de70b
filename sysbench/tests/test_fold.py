"""The fold on a synthetic two-package toy."""

import cProfile
import importlib
import pstats
import sys

import pytest

from sysbench.fold import HARNESS, fold

A = ("/toy/alpha/work.py", 1, "outer")
B = ("/toy/beta/help.py", 1, "inner")
SORT = ("~", 0, "<built-in method builtins.sorted>")


def toy_layer(path):
    for package in ("alpha", "beta"):
        if path.startswith("/toy/{}/".format(package)):
            return package
    return None


def hand_built_stats():
    # outer (alpha) runs 1.0 s itself, calls inner (beta) 3 times and
    # sorted once; inner runs 0.4 s itself and calls sorted 3 times.
    return {
        A: (1, 1, 1.0, 1.7, {}),
        B: (3, 3, 0.4, 0.6, {A: (3, 3, 0.4, 0.6)}),
        SORT: (4, 4, 0.3, 0.3, {A: (1, 1, 0.1, 0.1), B: (3, 3, 0.2, 0.2)}),
    }


def test_builtin_time_is_charged_to_the_calling_layer():
    layers = fold(hand_built_stats(), toy_layer)["layers"]
    assert layers["alpha"]["self_s"] == pytest.approx(1.1)
    assert layers["beta"]["self_s"] == pytest.approx(0.6)


def test_cross_package_call_counts_once_as_calls_in():
    folded = fold(hand_built_stats(), toy_layer)
    assert folded["layers"]["beta"]["calls_in"] == 3
    assert folded["layers"]["beta"]["calls"] == 3
    assert folded["layers"]["alpha"]["calls_in"] == 0
    assert folded["edges"] == {"alpha->beta": {"calls": 3, "inclusive_s": pytest.approx(0.6)}}


def test_self_times_sum_to_the_total():
    folded = fold(hand_built_stats(), toy_layer)
    assert folded["total_s"] == pytest.approx(1.7)
    assert sum(row["self_s"] for row in folded["layers"].values()) == pytest.approx(1.7)


def test_transparent_chain_is_shared_by_call_count():
    # A stdlib function called once from alpha and three times from
    # beta; the builtin below it has no layer caller of its own.
    lib = ("/usr/lib/python/json.py", 1, "dumps")
    enc = ("~", 0, "<built-in method encode>")
    stats = {
        A: (1, 1, 0.0, 1.0, {}),
        B: (1, 1, 0.0, 0.75, {A: (1, 1, 0.0, 0.75)}),
        lib: (4, 4, 0.0, 1.0, {A: (1, 1, 0.0, 0.25), B: (3, 3, 0.0, 0.75)}),
        enc: (4, 4, 1.0, 1.0, {lib: (4, 4, 1.0, 1.0)}),
    }
    layers = fold(stats, toy_layer)["layers"]
    assert layers["alpha"]["self_s"] == pytest.approx(0.25)
    assert layers["beta"]["self_s"] == pytest.approx(0.75)


def test_recursive_transparent_functions_terminate():
    walk = ("/usr/lib/python/ast.py", 1, "walk")
    stats = {
        A: (1, 1, 0.1, 1.0, {}),
        walk: (5, 1, 0.9, 0.9, {A: (1, 1, 0.5, 0.9), walk: (4, 0, 0.4, 0.0)}),
    }
    layers = fold(stats, toy_layer)["layers"]
    assert layers["alpha"]["self_s"] == pytest.approx(1.0)


def test_time_without_a_layer_caller_goes_to_the_harness():
    root = ("~", 0, "<built-in method builtins.exec>")
    stats = {root: (1, 1, 0.2, 1.0, {}), A: (1, 1, 0.8, 0.8, {root: (1, 1, 0.8, 0.8)})}
    folded = fold(stats, toy_layer)
    assert folded["layers"][HARNESS]["self_s"] == pytest.approx(0.2)
    assert folded["layers"]["alpha"]["calls_in"] == 1
    assert "harness->alpha" in folded["edges"]


def test_fold_of_a_real_profile(tmp_path):
    for package, body in (
        ("toyalpha", "from toybeta import help\n\ndef outer(n):\n"
                     "    return [help.inner(i) for i in range(n)] + sorted(range(n))\n"),
        ("toybeta", "def inner(i):\n    return sorted([i, -i])\n"),
    ):
        (tmp_path / package).mkdir()
        (tmp_path / package / "__init__.py").write_text("")
        (tmp_path / package / ("work.py" if package == "toyalpha" else "help.py")).write_text(body)
    sys.path.insert(0, str(tmp_path))
    try:
        work = importlib.import_module("toyalpha.work")
        profile = cProfile.Profile()
        profile.enable()
        work.outer(50)
        profile.disable()
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.startswith(("toyalpha", "toybeta"))]:
            del sys.modules[name]

    def layer(path):
        for package in ("toyalpha", "toybeta"):
            if path.startswith(str(tmp_path / package)):
                return package
        return None

    stats = pstats.Stats(profile).stats
    folded = fold(stats, layer)
    assert folded["layers"]["toybeta"]["calls"] == 50
    assert folded["layers"]["toybeta"]["calls_in"] == 50
    assert folded["edges"]["toyalpha->toybeta"]["calls"] == 50
    total = sum(entry[2] for entry in stats.values())
    assert folded["total_s"] == pytest.approx(total)
    assert sum(row["self_s"] for row in folded["layers"].values()) == pytest.approx(total)
    # sorted() ran 51 times; none of its time may stay unattributed.
    assert folded["layers"][HARNESS]["self_s"] < 0.5 * total
