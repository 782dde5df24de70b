"""repro.obs — simulation-time observability.

Three pieces, each imported from its module:

* :mod:`repro.obs.metrics` — counters, gauges and time-weighted
  histograms keyed by ``(name, node, labels)``, reading simulated time
  only;
* :mod:`repro.obs.episodes` — fail-over episodes stitched from the
  structured trace, with per-phase durations;
* :mod:`repro.obs.spans` — gray-fault exposure windows and
  corruption time-to-stabilize windows, one pairing fold over two
  rule tables.

Episodes and spans are :class:`~repro.sim.trace.TraceFold` s, fed as
records are written. The coverage time series come from
:class:`repro.core.audit.CoverageEngine`.
"""
