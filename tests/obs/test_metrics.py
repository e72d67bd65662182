"""Unit tests for the dependency-free metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics as m


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = m.MetricsRegistry().counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = m.MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_sixteen_threads_one_counter(self):
        """The registry's core guarantee: no lost updates under contention."""
        reg = m.MetricsRegistry()
        c = reg.counter("contended_total")
        per_thread = 10_000

        def bump():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 16 * per_thread

    def test_concurrent_get_or_create_same_instrument(self):
        reg = m.MetricsRegistry()
        got = []

        def create():
            got.append(reg.counter("shared_total"))

        threads = [threading.Thread(target=create) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is got[0] for c in got)


class TestGauge:
    def test_set_and_add(self):
        g = m.MetricsRegistry().gauge("g")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == 7.0


class TestHistogramBuckets:
    def test_value_on_bucket_edge_counts_as_le(self):
        """Prometheus semantics: le is inclusive — a sample equal to a
        bound lands in that bound's bucket."""
        h = m.Histogram("h", buckets=(1, 2, 4))
        h.observe(2)
        buckets = dict(h.bucket_counts())
        assert buckets[1] == 0
        assert buckets[2] == 1
        assert buckets[4] == 1
        assert buckets[float("inf")] == 1

    def test_overflow_goes_to_inf(self):
        h = m.Histogram("h", buckets=(1, 2))
        h.observe(100)
        buckets = dict(h.bucket_counts())
        assert buckets[2] == 0
        assert buckets[float("inf")] == 1

    def test_cumulative_counts(self):
        h = m.Histogram("h", buckets=(1, 2, 4))
        for v in (0.5, 1.5, 1.5, 3, 10):
            h.observe(v)
        assert h.bucket_counts() == [(1, 1), (2, 3), (4, 4), (float("inf"), 5)]
        assert h.count == 5
        assert h.sum == pytest.approx(16.5)

    def test_quantile_clamped_to_observed_range(self):
        h = m.Histogram("h", buckets=(1000,))
        for _ in range(10):
            h.observe(3.0)
        # all mass in the first bucket; interpolation alone would report
        # somewhere in (0, 1000) — the clamp pins it to the real value
        assert h.quantile(0.5) == 3.0
        assert h.quantile(0.99) == 3.0

    def test_quantile_orders_correctly(self):
        h = m.Histogram("h", buckets=(1, 2, 4, 8, 16))
        for v in range(1, 17):
            h.observe(v)
        assert h.quantile(0.1) <= h.quantile(0.5) <= h.quantile(0.95)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 16.0

    def test_snapshot_keys(self):
        h = m.Histogram("h")
        h.observe(2)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "min", "max", "p50", "p95", "p99"}
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == 2

    def test_empty_snapshot_is_zeroes(self):
        snap = m.Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = m.MetricsRegistry()
        a = reg.counter("x_total", {"op": "a"})
        b = reg.counter("x_total", {"op": "b"})
        assert a is not b
        assert reg.counter("x_total", {"op": "a"}) is a

    def test_kind_conflict_raises(self):
        reg = m.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_collector_runs_at_collect_time(self):
        reg = m.MetricsRegistry()
        calls = []

        def collector(r):
            calls.append(1)
            r.gauge("computed").set(42.0)

        reg.register_collector(collector)
        snap = reg.snapshot()
        assert calls == [1]
        assert snap["computed"] == 42.0
        reg.unregister_collector(collector)
        reg.snapshot()
        assert calls == [1]

    def test_null_registry_absorbs_everything(self):
        reg = m.NullRegistry()
        assert not reg.enabled
        c = reg.counter("x_total")
        c.inc(100)
        reg.histogram("h").observe(1.0)
        reg.histogram("h").observe_batch([1.0, 2.0])
        assert c.value == 0
        assert reg.snapshot() == {}
        assert m.render_prometheus(reg) == ""

    def test_set_registry_swaps_process_registry(self):
        prev = m.get_registry()
        try:
            fresh = m.MetricsRegistry()
            assert m.set_registry(fresh) is fresh
            assert m.get_registry() is fresh
            assert m.metrics_enabled()
            m.set_registry(m.NullRegistry())
            assert not m.metrics_enabled()
        finally:
            m.set_registry(prev)


def _parse_exposition(text: str) -> dict[str, float]:
    """Minimal Prometheus text parser: ``name{labels}`` -> value."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        out[key] = float(value.replace("+Inf", "inf"))
    return out


class TestPrometheusExposition:
    def test_round_trip(self):
        reg = m.MetricsRegistry()
        reg.counter("events_total", help="events").inc(7)
        reg.gauge("active", {"kind": "session"}).set(3)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0), help="latency")
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = m.render_prometheus(reg)
        assert "# TYPE events_total counter" in text
        assert "# HELP lat_seconds latency" in text
        assert "# TYPE lat_seconds histogram" in text
        parsed = _parse_exposition(text)
        assert parsed["events_total"] == 7
        assert parsed['active{kind="session"}'] == 3
        assert parsed['lat_seconds_bucket{le="0.1"}'] == 1
        assert parsed['lat_seconds_bucket{le="1"}'] == 2
        assert parsed['lat_seconds_bucket{le="+Inf"}'] == 3
        assert parsed["lat_seconds_count"] == 3
        assert parsed["lat_seconds_sum"] == pytest.approx(5.55)

    def test_histogram_bucket_counts_are_monotone(self):
        reg = m.MetricsRegistry()
        h = reg.histogram("h", buckets=m.LATENCY_BUCKETS_S)
        for v in (1e-7, 3e-4, 0.02, 0.02, 7.0, 100.0):
            h.observe(v)
        cums = [c for _le, c in h.bucket_counts()]
        assert cums == sorted(cums)
        assert cums[-1] == 6

    def test_label_values_escaped(self):
        """Prometheus exposition: backslash, double-quote and newline in
        a label value must be escaped, or the scrape line is corrupt."""
        reg = m.MetricsRegistry()
        hostile = 'say "hi"\nand C:\\path'
        reg.counter("esc_total", {"app": hostile}).inc(2)
        text = m.render_prometheus(reg)
        line = next(ln for ln in text.splitlines() if ln.startswith("esc_total"))
        # exactly one physical line, quotes and backslashes escaped
        assert "\n" not in line
        assert 'app="say \\"hi\\"\\nand C:\\\\path"' in line
        assert line.endswith(" 2")
        # every sample in the exposition stays one-line parseable
        for sample in text.splitlines():
            if sample and not sample.startswith("#"):
                assert sample.rpartition(" ")[2] != ""

    def test_help_text_escaped(self):
        reg = m.MetricsRegistry()
        reg.counter("h_total", help="multi\nline \\ help").inc()
        text = m.render_prometheus(reg)
        help_line = next(ln for ln in text.splitlines() if ln.startswith("# HELP"))
        assert help_line == "# HELP h_total multi\\nline \\\\ help"
