"""Simulation-time metrics: counters, gauges, time-weighted histograms.

The registry is the quantitative side of observability (the qualitative
side — structured events — lives in :mod:`repro.sim.trace`). Every
instrument reads *simulated* time only, iteration order is
deterministic (sorted keys, never insertion order), and the whole layer
can be disabled at construction, in which case instrument handles are
shared no-op singletons so instrumented hot paths pay one dynamic
dispatch and nothing else.

Keys are ``(name, node, labels)``:

* ``name`` — dotted metric name whose first segment is the layer
  (``sim.``, ``net.``, ``gcs.``, ``core.``, ``workload.``);
* ``node`` — the emitting component (host, daemon, LAN, NIC, ...);
* ``labels`` — optional ``key=value`` refinements (e.g. a state name).
"""


class Counter:
    """Monotonic event count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def summary(self):
        return {"value": self.value}


class Gauge:
    """Last-written instantaneous value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        """Replace the current value."""
        self.value = value

    def add(self, delta):
        """Shift the current value by ``delta``."""
        self.value += delta

    def summary(self):
        return {"value": self.value}


class TimeWeightedHistogram:
    """A value tracked over simulated time, summarised by *duration*.

    ``observe(v)`` records that the quantity became ``v`` now; the
    summary weights each value by how long it was held, so a queue that
    spends 99 % of the run empty reports a time-average near zero no
    matter how many samples landed while it was briefly deep. All
    arithmetic is plain float accumulation in observation order, which
    keeps summaries byte-identical across replays.
    """

    kind = "timeseries"
    __slots__ = (
        "_clock",
        "value",
        "minimum",
        "maximum",
        "samples",
        "_last_time",
        "_weighted_sum",
        "_elapsed",
    )

    def __init__(self, clock):
        self._clock = clock
        self.value = None
        self.minimum = None
        self.maximum = None
        self.samples = 0
        self._last_time = None
        self._weighted_sum = 0.0
        self._elapsed = 0.0

    def observe(self, value, at=None):
        """The tracked quantity is ``value`` as of ``at`` (not before the last; default now)."""
        now = self._clock() if at is None else at
        if self.value is not None:
            held = now - self._last_time
            self._weighted_sum += self.value * held
            self._elapsed += held
        value = float(value)
        self.value = value
        self._last_time = now
        self.samples += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def time_average(self):
        """Duration-weighted mean up to the current simulated instant."""
        if self.value is None:
            return None
        tail = self._clock() - self._last_time
        elapsed = self._elapsed + tail
        if elapsed <= 0.0:
            return self.value
        return (self._weighted_sum + self.value * tail) / elapsed

    def summary(self):
        average = self.time_average()
        return {
            "last": self.value,
            "min": self.minimum,
            "max": self.maximum,
            "time_avg": None if average is None else round(average, 9),
            "samples": self.samples,
        }


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()
    kind = "null"
    value = 0

    def inc(self, amount=1):
        return None

    def set(self, value):
        return None

    def add(self, delta):
        return None

    def observe(self, value, at=None):
        return None

    def time_average(self):
        return None

    def summary(self):
        return {}


NULL_INSTRUMENT = _NullInstrument()

_FACTORIES = {
    "counter": lambda clock: Counter(),
    "gauge": lambda clock: Gauge(),
    "timeseries": TimeWeightedHistogram,
}


class MetricsRegistry:
    """All instruments of one simulation run, keyed ``(name, node, labels)``."""

    def __init__(self, clock=None, enabled=True):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.enabled = bool(enabled)
        self._instruments = {}

    # ------------------------------------------------------------------
    # instrument access (get-or-create)

    def _get(self, kind, name, node, labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = (name, node, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _FACTORIES[kind](self._clock)
            self._instruments[key] = instrument
        elif instrument.kind != kind:
            raise TypeError(
                "metric {} already registered as {}, not {}".format(
                    key, instrument.kind, kind
                )
            )
        return instrument

    def counter(self, name, node="", **labels):
        """The counter for ``(name, node, labels)``, created on first use."""
        return self._get("counter", name, node, labels)

    def gauge(self, name, node="", **labels):
        """The gauge for ``(name, node, labels)``, created on first use."""
        return self._get("gauge", name, node, labels)

    def timeseries(self, name, node="", **labels):
        """The time-weighted histogram for ``(name, node, labels)``."""
        return self._get("timeseries", name, node, labels)

    # ------------------------------------------------------------------
    # one-shot conveniences (cold paths; hot paths pre-bind instruments)

    def inc(self, name, node="", amount=1, **labels):
        """Increment a counter without holding the handle."""
        self.counter(name, node, **labels).inc(amount)

    def set(self, name, value, node="", **labels):
        """Set a gauge without holding the handle."""
        self.gauge(name, node, **labels).set(value)

    def observe(self, name, value, node="", **labels):
        """Feed a time-weighted histogram without holding the handle."""
        self.timeseries(name, node, **labels).observe(value)

    # ------------------------------------------------------------------
    # deterministic read side

    def collect(self):
        """Every instrument as ``(name, node, labels, instrument)``, sorted."""
        return [
            (name, node, labels, self._instruments[(name, node, labels)])
            for name, node, labels in sorted(self._instruments)
        ]

    def totals(self):
        """Counter totals summed across nodes/labels: ``{name: value}``.

        The compact summary embedded in ``repro check`` trial results;
        counters only, so values are exact integers.
        """
        totals = {}
        for name, _node, _labels, instrument in self.collect():
            if instrument.kind == "counter":
                totals[name] = totals.get(name, 0) + instrument.value
        return totals

    def layers(self):
        """Distinct layer prefixes present (first dotted name segment)."""
        seen = set()
        for name, _node, _labels, _instrument in self.collect():
            seen.add(name.split(".", 1)[0])
        return sorted(seen)

    def __len__(self):
        return len(self._instruments)
