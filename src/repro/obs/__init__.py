"""repro.obs — simulation-time observability.

Three pieces:

* :mod:`repro.obs.metrics` — counters, gauges and time-weighted
  histograms keyed by ``(name, node, labels)``, reading simulated time
  only;
* :mod:`repro.obs.episodes` — fail-over episodes stitched from the
  structured trace, with per-phase durations;
* :mod:`repro.obs.spans` — gray-fault exposure windows and
  corruption time-to-stabilize windows, one pairing loop over two
  rule tables.

The coverage time series come from :class:`repro.core.audit.CoverageEngine`.
The simulation substrate imports :class:`MetricsRegistry` through this
package, so the dashboard renderers and the ``repro observe`` driver,
which import the core layer, are imported from their modules directly.
"""

from repro.obs.episodes import (
    FailoverEpisode,
    episodes_as_dicts,
    extract_episodes,
    first_complete_episode,
)
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeWeightedHistogram,
)
from repro.obs.spans import (
    DegradedSpan,
    StabilizationSpan,
    degraded_spans,
    degraded_spans_as_dicts,
    stabilization_spans,
    stabilization_spans_as_dicts,
)

__all__ = [
    "Counter",
    "DegradedSpan",
    "FailoverEpisode",
    "Gauge",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "StabilizationSpan",
    "TimeWeightedHistogram",
    "degraded_spans",
    "degraded_spans_as_dicts",
    "episodes_as_dicts",
    "extract_episodes",
    "first_complete_episode",
    "stabilization_spans",
    "stabilization_spans_as_dicts",
]
