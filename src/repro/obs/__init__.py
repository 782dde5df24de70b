"""repro.obs — simulation-time observability.

Four pieces:

* :mod:`repro.obs.metrics` — counters, gauges and time-weighted
  histograms keyed by ``(name, node, labels)``, reading simulated time
  only;
* :mod:`repro.obs.episodes` — fail-over episodes stitched from the
  structured trace, with per-phase durations;
* :mod:`repro.obs.spans` — gray-fault exposure windows and
  corruption time-to-stabilize windows, one pairing loop over two
  rule tables;
* :mod:`repro.obs.coverage` — the periodic cluster sampler feeding the
  coverage/duplication time series.

Only the leaf modules (metrics, episodes, spans) are re-exported here: the
simulation substrate imports :class:`MetricsRegistry` through this
package, so pulling :mod:`repro.obs.coverage` (which imports the core
layer) into the package init would create an import cycle. Import
``ClusterObserver``, the dashboard renderers and the ``repro observe``
driver from their modules directly.
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
