"""Typed instruments and the cluster-wide metrics registry.

Components register *instruments* — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — under hierarchical dotted names
(``cboard.mn0.tlb.hits``) in a :class:`MetricsRegistry`, and the
registry is the one way to read a counter: ``component.metrics.snapshot()``
for one component, ``registry.snapshot(prefix)`` for any subtree.

Every counter and gauge is a *view*: the component keeps its value in a
plain attribute (incrementing it costs nothing new per event) and the
instrument reads it through the ``fn`` it was registered with.  Only a
histogram holds state of its own, the observations fed to
:meth:`Histogram.observe`.

The registry is *passive*: creating instruments schedules nothing and
draws no RNG, so a cluster with a registry wired in is bit-identical to
one without.  Periodic timeseries sampling is the one active feature and
is strictly opt-in (:meth:`MetricsRegistry.start_sampling`); it uses
``Environment.schedule_callback`` and only *reads* values, so even a
sampled run keeps every workload timestamp unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

#: Cap on raw samples a histogram retains for percentile queries; beyond
#: it, observations still update count/sum/min/max but are not stored.
_HISTOGRAM_SAMPLE_CAP = 65_536


class Instrument:
    """Base class: a named, typed source of one observable value."""

    __slots__ = ("name", "description", "unit")

    kind = "instrument"

    def __init__(self, name: str, description: str = "", unit: str = ""):
        if not name:
            raise ValueError("instrument needs a non-empty name")
        self.name = name
        self.description = description
        self.unit = unit

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}={self.value!r}>"


class Counter(Instrument):
    """Monotonically increasing count (requests served, packets dropped),
    read through ``fn``."""

    __slots__ = ("_fn",)

    kind = "counter"

    def __init__(self, name: str, description: str = "", unit: str = "", *,
                 fn: Callable[[], Any]):
        super().__init__(name, description, unit)
        self._fn = fn

    @property
    def value(self) -> Any:
        return self._fn()


class Gauge(Counter):
    """Point-in-time reading (queue depth, utilization, liveness): a view
    like a counter, free to go down."""

    __slots__ = ()

    kind = "gauge"


class Histogram(Instrument):
    """Distribution of observations (latencies, sizes).

    Keeps exact count/sum/min/max plus up to ``_HISTOGRAM_SAMPLE_CAP``
    raw samples for percentile queries; past the cap the summary stays
    exact while percentiles degrade to the retained prefix (the
    ``truncated`` counter says by how much).
    """

    __slots__ = ("count", "total", "min", "max", "samples", "truncated")

    kind = "histogram"

    def __init__(self, name: str, description: str = "", unit: str = ""):
        super().__init__(name, description, unit)
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: list[float] = []
        self.truncated = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < _HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)
        else:
            self.truncated += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, fraction: float) -> Optional[float]:
        if not self.samples:
            return None
        from repro.analysis.stats import quantile
        return quantile(self.samples, fraction)

    @property
    def value(self) -> dict:
        """Summary dict (histograms have no single scalar value)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsScope:
    """A registry handle that prefixes every name (``cboard.mn0.…``)."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str, description: str = "", unit: str = "", *,
                fn: Callable[[], Any]) -> Counter:
        return self.registry.counter(self._full(name), description, unit,
                                     fn=fn)

    def gauge(self, name: str, description: str = "", unit: str = "", *,
              fn: Callable[[], Any]) -> Gauge:
        return self.registry.gauge(self._full(name), description, unit, fn=fn)

    def histogram(self, name: str, description: str = "",
                  unit: str = "") -> Histogram:
        return self.registry.histogram(self._full(name), description, unit)

    def attribute_counters(self, owner, counters: dict[str, str]) -> None:
        """Declare ``owner``'s plain-attribute counters once: each
        ``name -> help`` becomes a zeroed attribute of ``owner`` and a
        function-backed counter of the same name in this scope."""
        for name, description in counters.items():
            setattr(owner, name, 0)
            self.counter(name, description, fn=partial(getattr, owner, name))

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._full(prefix))

    def snapshot(self) -> dict:
        """All instruments under this prefix, keyed by their local name."""
        strip = len(self.prefix) + 1 if self.prefix else 0
        return {name[strip:]: value for name, value in
                self.registry.snapshot(prefix=self.prefix).items()}


class MetricsRegistry:
    """Cluster-wide instrument namespace plus opt-in timeseries sampling."""

    def __init__(self):
        self._instruments: dict[str, Instrument] = {}
        #: (t_ns, {name: numeric value}) tuples from periodic sampling.
        self.series: list[tuple[int, dict[str, float]]] = []
        #: Token of the running sweep chain, None when stopped.  A sweep
        #: whose token is not the current one ends without rescheduling,
        #: so a stop and a restart never leave two chains running.
        self._sweep_chain: Optional[object] = None
        self.sample_interval_ns = 0

    # -- registration ----------------------------------------------------------

    def _register(self, instrument: Instrument) -> Instrument:
        if instrument.name in self._instruments:
            raise ValueError(
                f"instrument {instrument.name!r} is already registered")
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, description: str = "", unit: str = "", *,
                fn: Callable[[], Any]) -> Counter:
        return self._register(Counter(name, description, unit, fn=fn))

    def gauge(self, name: str, description: str = "", unit: str = "", *,
              fn: Callable[[], Any]) -> Gauge:
        return self._register(Gauge(name, description, unit, fn=fn))

    def histogram(self, name: str, description: str = "",
                  unit: str = "") -> Histogram:
        return self._register(Histogram(name, description, unit))

    def scope(self, prefix: str) -> MetricsScope:
        return MetricsScope(self, prefix)

    # -- queries -----------------------------------------------------------------

    def get(self, name: str) -> Instrument:
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self, prefix: str = "") -> list[str]:
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix + "."
        return sorted(name for name in self._instruments
                      if name == prefix or name.startswith(dotted))

    def instruments(self, prefix: str = "") -> list[Instrument]:
        return [self._instruments[name] for name in self.names(prefix)]

    def snapshot(self, prefix: str = "") -> dict:
        """{name: value} for every instrument under ``prefix``."""
        return {name: self._instruments[name].value
                for name in self.names(prefix)}

    # -- periodic timeseries sampling (opt-in) ------------------------------------

    def start_sampling(self, env, interval_ns: int,
                       prefix: str = "") -> None:
        """Sample numeric instruments every ``interval_ns`` of sim time.

        Strictly opt-in: adds one scheduled callback per interval and
        *reads* values only, so workload timestamps and every RNG stream
        are untouched.  Histograms are sampled as their running count.
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        if self._sweep_chain is not None:
            raise ValueError("sampling is already running")
        self._sweep_chain = chain = object()
        self.sample_interval_ns = interval_ns
        names = self.names(prefix)

        def sweep():
            if self._sweep_chain is not chain:
                return
            sample: dict[str, float] = {}
            for name in names:
                instrument = self._instruments.get(name)
                if instrument is None:
                    continue
                if isinstance(instrument, Histogram):
                    sample[name] = instrument.count
                    continue
                value = instrument.value
                if isinstance(value, bool):
                    sample[name] = int(value)
                elif isinstance(value, (int, float)):
                    sample[name] = value
            self.series.append((env.now, sample))
            env.schedule_callback(interval_ns, sweep)

        env.schedule_callback(interval_ns, sweep)

    def stop_sampling(self) -> None:
        self._sweep_chain = None
