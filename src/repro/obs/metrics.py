"""A dependency-free metrics registry (counters, gauges, histograms).

Design goals, in order:

1. **Cheap enough to leave on.**  Every instrument is a tiny object with
   a per-metric lock; an increment is one lock acquire and one int add.
   Hot paths that cannot afford even that (the per-event grammar append)
   batch locally and flush every few thousand events — see
   :class:`~repro.core.record.PythiaRecord`.
2. **Zero cost when off.**  :class:`NullRegistry` hands out no-op
   instruments; ``PYTHIA_METRICS=0`` (or :func:`set_registry` with a
   null registry) disables the whole subsystem without touching call
   sites.
3. **Scrapeable.**  :func:`render_prometheus` serialises a registry in
   the Prometheus text exposition format; the oracle daemon serves it
   through its ``metrics`` op (``pythia-trace metrics``).

Instruments are identified by ``(name, labels)``: requesting the same
pair twice returns the same object, so call sites may simply call
``registry.counter("pythia_record_events_total")`` and cache nothing.
Collector callbacks (:meth:`MetricsRegistry.register_collector`) let
long-lived objects publish gauges computed at scrape time instead of
paying per-update costs.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_S",
    "ParsedMetrics",
    "get_registry",
    "set_registry",
    "merge_expositions",
    "metrics_enabled",
    "parse_prometheus_text",
    "publish_deltas",
    "quantile_from_buckets",
    "render_prometheus",
]

LabelsKey = tuple[tuple[str, str], ...]

#: generic magnitude buckets (counts, sizes): powers of two, 1 .. 16384
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2**i for i in range(11)) + (4096, 16384)

#: latency buckets in seconds: 1 µs .. 10 s, roughly log-spaced (1 / 2.5 / 5 decades)
LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _labels_key(labels: Mapping[str, str] | None) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelsKey = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def _set_total(self, value: int | float) -> None:
        """Overwrite the total (collector callbacks mirroring external
        counters; not part of the instrumentation API)."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> int | float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelsKey = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        """Move the gauge by ``amount`` (either sign)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max and percentiles.

    Buckets follow Prometheus ``le`` semantics: a sample lands in the
    first bucket whose upper bound is **>= sample**; samples above the
    last bound land in the implicit ``+Inf`` overflow bucket.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "help",
        "bounds",
        "_lock",
        "_counts",
        "_sum",
        "_count",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_batch(self, values) -> None:
        """Record many samples under one lock acquisition.

        Hot paths buffer raw samples and fold them in batches; this
        keeps the per-sample cost to a bisect and a few float ops
        instead of a call + lock round trip each.
        """
        if not values:
            return
        bounds = self.bounds
        with self._lock:
            counts = self._counts
            total = 0.0
            lo = self._min
            hi = self._max
            for v in values:
                counts[bisect_left(bounds, v)] += 1
                total += v
                if v < lo:
                    lo = v
                if v > hi:
                    hi = v
            self._sum += total
            self._count += len(values)
            self._min = lo
            self._max = hi

    @property
    def count(self) -> int:
        """Number of samples observed."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        The estimate is clamped to the observed min/max, so degenerate
        single-bucket distributions do not report a bucket bound the
        data never reached.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            counts = list(self._counts)
            lo, hi = self._min, self._max
        target = q * count
        seen = 0.0
        for idx, c in enumerate(counts):
            if c == 0:
                continue
            if seen + c >= target:
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                upper = self.bounds[idx] if idx < len(self.bounds) else hi
                frac = (target - seen) / c
                est = lower + (upper - lower) * frac
                return min(max(est, lo), hi)
            seen += c
        return hi

    def snapshot(self) -> dict:
        """Sum/count/min/max plus p50/p95/p99 (all in sample units)."""
        with self._lock:
            count = self._count
            total = self._sum
            mn = self._min if count else 0.0
            mx = self._max if count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": mn,
            "max": mx,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        cum = 0
        for bound, c in zip(self.bounds, counts):
            cum += c
            out.append((bound, cum))
        out.append((float("inf"), cum + counts[-1]))
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram.

        Both histograms must share the same bucket bounds (the benches
        merge per-client component digests this way).
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            osum, ocount = other._sum, other._count
            omin, omax = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += osum
            self._count += ocount
            if omin < self._min:
                self._min = omin
            if omax > self._max:
                self._max = omax


class _NullInstrument:
    """Absorbs every instrument method at near-zero cost."""

    kind = "null"
    __slots__ = ("name", "labels", "help", "bounds")

    def __init__(self, name: str = "", labels: LabelsKey = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_batch(self, values) -> None:
        pass

    value = 0
    count = 0
    sum = 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {
            "count": 0,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def bucket_counts(self) -> list[tuple[float, int]]:
        return []


class MetricsRegistry:
    """Thread-safe home of every instrument in the process.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by
    ``(name, labels)``; a name must keep one instrument kind.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelsKey], object] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get(self, cls, name: str, labels, help: str, **kwargs):
        key = (name, _labels_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, key[1], help=help, **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"requested {cls.kind}"
                )
            return inst

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None, *, help: str = ""
    ) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None, *, help: str = ""
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create a histogram (``buckets`` applies on creation only)."""
        return self._get(Histogram, name, labels, help, buckets=buckets)

    def remove(self, name: str, labels: Mapping[str, str] | None = None) -> bool:
        """Drop the instrument registered under ``(name, labels)``.

        Returns True when something was removed.  Used to keep labeled
        families bounded: when the daemon's session table evicts an LRU
        entry, its ``pythia_session_*`` series are removed too, so the
        exposition's cardinality tracks the (bounded) table instead of
        every session id ever seen.
        """
        key = (name, _labels_key(labels))
        with self._lock:
            return self._instruments.pop(key, None) is not None

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every :meth:`collect`.

        Collectors publish values computed at scrape time (active session
        counts, per-tracker stats) so hot paths pay nothing per update.
        """
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Remove a collector registered earlier (idempotent)."""
        with self._lock:
            try:
                self._collectors.remove(fn)
            except ValueError:
                pass

    def collect(self) -> list:
        """Run collectors, then return every instrument (sorted by name)."""
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: (i.name, i.labels))

    def snapshot(self) -> dict:
        """Plain-dict view: ``name{labels}`` -> value or histogram summary."""
        out: dict[str, object] = {}
        for inst in self.collect():
            key = inst.name
            if inst.labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in inst.labels) + "}"
            if isinstance(inst, Histogram):
                out[key] = inst.snapshot()
            else:
                out[key] = inst.value
        return out


class NullRegistry(MetricsRegistry):
    """Disabled registry: every instrument is a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null = _NullInstrument()

    def _get(self, cls, name, labels, help, **kwargs):
        return self._null

    def collect(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------

_registry_lock = threading.Lock()
_registry: MetricsRegistry | None = None


def _default_registry() -> MetricsRegistry:
    if os.environ.get("PYTHIA_METRICS", "1").lower() in ("0", "off", "false", "no"):
        return NullRegistry()
    return MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use; honours
    ``PYTHIA_METRICS=0`` to start disabled)."""
    global _registry
    reg = _registry
    if reg is None:
        with _registry_lock:
            if _registry is None:
                _registry = _default_registry()
            reg = _registry
    return reg


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Replace the process registry (``None`` re-reads the environment).

    Returns the registry now in effect.  Tests and the overhead
    benchmark use this to swap a fresh or a null registry in.
    """
    global _registry
    with _registry_lock:
        _registry = registry if registry is not None else _default_registry()
        return _registry


def metrics_enabled() -> bool:
    """True when the process registry records anything."""
    return get_registry().enabled


def publish_deltas(
    registry: MetricsRegistry,
    families: Iterable[tuple[str, str]],
    values: Iterable[int],
    published: list[int],
) -> None:
    """Add to each ``(name, help)`` counter what its value gained since
    the values last stored in ``published`` (the caller's list, from
    ``[0] * len(families)``), and store them: the batched flush of
    objects whose hot paths bump plain ints, idempotent per call."""
    for i, ((name, help_text), value) in enumerate(zip(families, values, strict=True)):
        delta = value - published[i]
        if delta:
            registry.counter(name, help=help_text).inc(delta)
            published[i] = value


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote and newline (in that order — the backslash
    pass must not re-escape the others' escapes)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and newline (quotes stay verbatim)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_labels(labels: LabelsKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Serialise ``registry`` (default: the process one) as Prometheus text."""
    registry = registry if registry is not None else get_registry()
    lines: list[str] = []
    seen_headers: set[str] = set()
    for inst in registry.collect():
        if inst.name not in seen_headers:
            seen_headers.add(inst.name)
            if inst.help:
                lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, Histogram):
            for bound, cum in inst.bucket_counts():
                le = _fmt_labels(inst.labels, (("le", _fmt_value(bound)),))
                lines.append(f"{inst.name}_bucket{le} {cum}")
            lab = _fmt_labels(inst.labels)
            lines.append(f"{inst.name}_sum{lab} {_fmt_value(inst.sum)}")
            lines.append(f"{inst.name}_count{lab} {inst.count}")
        else:
            lab = _fmt_labels(inst.labels)
            lines.append(f"{inst.name}{lab} {_fmt_value(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Prometheus text parsing (the inverse, for scrapers and the ops console)
# ----------------------------------------------------------------------


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    it = iter(range(len(value)))
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _parse_labels(body: str) -> dict[str, str]:
    """Parse the inside of ``{...}`` (quotes and escapes respected)."""
    labels: dict[str, str] = {}
    i = 0
    n = len(body)
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        i = eq + 1
        if i >= n or body[i] != '"':
            raise ValueError(f"malformed label value near {body[i:]!r}")
        i += 1
        start = i
        raw: list[str] = []
        while i < n:
            c = body[i]
            if c == "\\":
                raw.append(body[start:i] + body[i : i + 2])
                i += 2
                start = i
                continue
            if c == '"':
                break
            i += 1
        else:
            raise ValueError("unterminated label value")
        raw.append(body[start:i])
        labels[key] = _unescape_label_value("".join(raw))
        i += 1  # closing quote
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


class ParsedMetrics:
    """A scraped Prometheus text page, queryable by name + labels.

    The inverse of :func:`render_prometheus` — ``pythia-trace top``
    scrapes the daemon's ``metrics`` op and reads throughputs and
    histogram quantiles back out of the text with this.
    """

    def __init__(self) -> None:
        #: family name -> {"type": str, "help": str}
        self.families: dict[str, dict[str, str]] = {}
        #: raw samples in page order: (sample_name, labels, value)
        self.samples: list[tuple[str, dict[str, str], float]] = []

    def value(self, name: str, labels: Mapping[str, str] | None = None) -> float | None:
        """The sample matching ``name`` and exactly ``labels``, or None."""
        want = dict(labels or {})
        for sname, slabels, val in self.samples:
            if sname == name and slabels == want:
                return val
        return None

    def buckets(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> list[tuple[float, float]]:
        """Cumulative ``(le, count)`` pairs of one histogram series.

        ``labels`` match the series' labels with ``le`` ignored; pairs
        come back sorted by bound, ``+Inf`` last.
        """
        want = dict(labels or {})
        out: list[tuple[float, float]] = []
        for sname, slabels, val in self.samples:
            if sname != name + "_bucket" or "le" not in slabels:
                continue
            rest = {k: v for k, v in slabels.items() if k != "le"}
            if rest != want:
                continue
            out.append((_parse_value(slabels["le"]), val))
        out.sort(key=lambda p: p[0])
        return out

    def quantile(
        self, name: str, q: float, labels: Mapping[str, str] | None = None
    ) -> float | None:
        """Estimate a quantile of one histogram series (or None if absent)."""
        pairs = self.buckets(name, labels)
        if not pairs or pairs[-1][1] == 0:
            return None
        return quantile_from_buckets(pairs, q)

    def series(self, name: str) -> list[tuple[dict[str, str], float]]:
        """Every ``(labels, value)`` sample of one family member name."""
        return [(lab, val) for sname, lab, val in self.samples if sname == name]


def quantile_from_buckets(pairs: Iterable[tuple[float, float]], q: float) -> float:
    """Quantile by linear interpolation over cumulative ``(le, count)``.

    Mirrors :meth:`Histogram.quantile` but works on scraped bucket
    pairs (no min/max clamp available — the top bound stands in).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    pairs = sorted(pairs, key=lambda p: p[0])
    if not pairs:
        return 0.0
    total = pairs[-1][1]
    if total == 0:
        return 0.0
    target = q * total
    prev_bound, prev_cum = 0.0, 0.0
    finite = [b for b, _ in pairs if b != float("inf")]
    top = finite[-1] if finite else 0.0
    for bound, cum in pairs:
        if cum >= target:
            if bound == float("inf"):
                return top
            span = cum - prev_cum
            frac = (target - prev_cum) / span if span else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound, prev_cum = (0.0 if bound == float("inf") else bound), cum
    return top


def parse_prometheus_text(text: str) -> ParsedMetrics:
    """Parse a Prometheus text exposition page into :class:`ParsedMetrics`.

    Understands the subset :func:`render_prometheus` emits (``# HELP`` /
    ``# TYPE`` comments, escaped label values, ``+Inf``).  Unknown
    comment lines and malformed sample lines are skipped — the ops
    console polls whatever daemon it is pointed at, so one stray line
    must not take the whole frame down.
    """
    parsed = ParsedMetrics()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                fam = parsed.families.setdefault(parts[2], {"type": "", "help": ""})
                fam["type" if parts[1] == "TYPE" else "help"] = (
                    parts[3] if len(parts) > 3 else ""
                )
            continue
        try:
            if "{" in line:
                name, rest = line.split("{", 1)
                body, _, tail = rest.rpartition("}")
                labels = _parse_labels(body)
                value_text = tail.strip().split()[0]
            else:
                name, value_text = line.split()[:2]
                labels = {}
            value = _parse_value(value_text)
        except (ValueError, IndexError):
            continue
        parsed.samples.append((name.strip(), labels, value))
    return parsed


def merge_expositions(
    pages: Mapping[str, str], *, label: str = "worker", own: str | None = None
) -> str:
    """Merge per-process Prometheus pages into one labeled exposition.

    ``pages`` maps an instance key (e.g. a worker id) to that
    instance's exposition text; every sample comes back with a
    ``label="<key>"`` label injected, so N workers' identically-named
    series coexist in one scrape (``pythia_server_requests_total{
    worker="0"}`` next to ``worker="1"``).  ``# HELP`` / ``# TYPE``
    headers are emitted once per family (first page to define them
    wins); histogram ``_bucket`` / ``_sum`` / ``_count`` samples stay
    grouped under their family.  A sample that already carries the
    label is overridden — the merger is the authority on instance
    identity.

    ``own`` is an optional extra page merged *without* label injection:
    the merging process's own metrics (the supervisor's
    ``pythia_worker_*`` gauges, its process stats).  Running it through
    the merge — instead of concatenating text — keeps a family that
    exists on both sides (``pythia_process_cpu_seconds_total`` in every
    worker *and* the supervisor) announced by exactly one ``# HELP`` /
    ``# TYPE`` pair, which strict scrapers require.
    """
    families: dict[str, dict[str, str]] = {}
    by_family: dict[str, list[tuple[str, dict[str, str], float]]] = {}

    def _ingest(parsed: ParsedMetrics, inject: str | None) -> None:
        for fam, meta in parsed.families.items():
            cur = families.setdefault(fam, {"type": "", "help": ""})
            for part in ("type", "help"):
                if not cur[part]:
                    cur[part] = meta[part]
        for sname, labels, value in parsed.samples:
            fam = sname
            for suffix in ("_bucket", "_sum", "_count"):
                base = sname[: -len(suffix)]
                if sname.endswith(suffix) and base in parsed.families:
                    fam = base
                    break
            labeled = dict(labels)
            if inject is not None:
                labeled[label] = inject
            by_family.setdefault(fam, []).append((sname, labeled, value))

    for key in sorted(pages, key=str):
        _ingest(parse_prometheus_text(pages[key]), str(key))
    if own:
        _ingest(parse_prometheus_text(own), None)
    lines: list[str] = []
    for fam in sorted(by_family):
        meta = families.get(fam)
        if meta is not None:
            # headers were parsed from exposition text: already escaped
            if meta["help"]:
                lines.append(f"# HELP {fam} {meta['help']}")
            if meta["type"]:
                lines.append(f"# TYPE {fam} {meta['type']}")
        for sname, labels, value in by_family[fam]:
            lines.append(
                f"{sname}{_fmt_labels(_labels_key(labels))} {_fmt_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
