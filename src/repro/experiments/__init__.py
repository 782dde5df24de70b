"""Experiment harness: regenerates every table and figure of §6.

Each experiment module produces the same rows/series the paper
reports:

* :mod:`repro.experiments.table1` — Table 1: the Spread timeout
  presets and the failure-notification windows they imply, checked
  against measured membership-installation times.
* :mod:`repro.experiments.figure5` — Figure 5: average availability
  interruption vs cluster size (2–12 servers, 10 VIPs) for default and
  fine-tuned Spread.
* :mod:`repro.experiments.graceful` — §6's voluntary-leave
  measurement (most runs ~10 ms, conservative bound 250 ms).
* :mod:`repro.experiments.router_experiment` — §5.2's dynamic-routing
  comparison (naive ≈ +30 s vs advertise-all).
* :mod:`repro.experiments.baselines_experiment` — §7's related
  protocols (VRRP / HSRP / Fake) under the same fault.
"""

from repro.experiments.availability import AvailabilityExperiment
from repro.experiments.baselines_experiment import BaselineComparison
from repro.experiments.figure5 import Figure5Experiment
from repro.experiments.graceful import GracefulLeaveExperiment
from repro.experiments.load import LoadedClusterExperiment
from repro.experiments.plotting import render_series
from repro.experiments.report import mean, stdev
from repro.experiments.router_experiment import RouterFailoverExperiment
from repro.experiments.runner import run_failover_trial
from repro.experiments.table1 import Table1Experiment
from repro.experiments.tuning import FalsePositiveExperiment, SensitivityExperiment
from repro.obs.dashboard import format_table

__all__ = [
    "AvailabilityExperiment",
    "BaselineComparison",
    "FalsePositiveExperiment",
    "Figure5Experiment",
    "GracefulLeaveExperiment",
    "LoadedClusterExperiment",
    "RouterFailoverExperiment",
    "SensitivityExperiment",
    "Table1Experiment",
    "format_table",
    "mean",
    "render_series",
    "run_failover_trial",
    "stdev",
]
