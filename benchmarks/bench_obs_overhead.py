"""Observability overhead: record/predict throughput, metrics off vs on.

Not a paper figure — this guards the instrumentation added to the hot
paths (grammar append in PYTHIA-RECORD, candidate stepping in
PYTHIA-PREDICT).  Both loops batch plain-int bumps and flush to the
registry every few thousand events, so the full metrics pipeline should
cost well under 5% of throughput; the assertion allows 10% to keep the
benchmark robust on noisy CI machines.  Measured numbers are printed
under ``-s`` and the headline figure is documented in the README's
Observability section.

Every test estimates its overhead the same way, with
:func:`_paired_rounds`: the two sides run in alternating pairs, a
round's figure is the median per-pair ratio, and the asserted figure is
the smallest median over several rounds.

Run with ``pytest benchmarks/bench_obs_overhead.py -s``.
"""

from __future__ import annotations

import statistics
import time

from repro.core.events import EventRegistry
from repro.core.predict import PythiaPredict
from repro.core.record import PythiaRecord
from repro.obs import metrics as obs_metrics

EVENTS = 20_000
#: metrics off/on benchmark: rounds of alternating pairs
METRICS_ROUNDS = 3
METRICS_PAIRS = 24
#: CI headroom over the documented <5% target
MAX_OVERHEAD = 0.10

#: an NPB-style iteration pattern (8-event loop, two payload variants)
PATTERN = [
    ("post_irecv", 1), ("post_irecv", 2), ("post_isend", 1), ("post_isend", 2),
    ("wait_halo", None), ("compute", None), ("allreduce", "dot"), ("barrier", None),
]


def _stream(n: int) -> list[tuple[str, object]]:
    reps = n // len(PATTERN) + 1
    return (PATTERN * reps)[:n]


def _record_run(events) -> None:
    registry = EventRegistry()
    rec = PythiaRecord(registry, record_timestamps=False)
    for name, payload in events:
        rec.record_event(name, payload, None)
    rec.finish()


def _predict_run(grammar, terminals) -> None:
    pred = PythiaPredict(grammar)
    for i, t in enumerate(terminals):
        pred.observe(t)
        if i % 8 == 0:
            pred.predict(1)
    pred.flush_metrics()


def _paired_rounds(run_bare, run_traced, rounds: int, pairs: int):
    """min-of-medians overhead plus best times for two workloads.

    ``run_bare`` and ``run_traced`` each run once and return their
    seconds.  They run in alternating pairs (order flipped each pair); a
    round's figure is the *median* of its per-pair overhead ratios, and
    the reported figure is the smallest median over ``rounds``.  Within
    a pair the machine speed is roughly constant, so each ratio isolates
    the measured cost even on a host that switches between speeds; the
    median rejects the pairs a scheduler hiccup lands in; and since
    CPU-frequency drift can only *inflate* a whole round, the
    least-contaminated round estimates the true cost.  Returns
    ``(overhead, round medians, best bare seconds, best traced seconds)``.
    """
    medians = []
    bare_best = traced_best = float("inf")
    for _ in range(rounds):
        ratios = []
        for i in range(pairs):
            if i % 2:
                traced = run_traced()
                bare = run_bare()
            else:
                bare = run_bare()
                traced = run_traced()
            ratios.append(traced / bare - 1.0)
            bare_best = min(bare_best, bare)
            traced_best = min(traced_best, traced)
        medians.append(statistics.median(ratios))
    return min(medians), medians, bare_best, traced_best


def _timed(fn, registry=None):
    """``fn`` as a run returning its seconds, under ``registry`` if given."""

    def run() -> float:
        if registry is not None:
            obs_metrics.set_registry(registry)
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    return run


def _metrics_overhead(fn):
    """:func:`_paired_rounds` of ``fn`` with metrics off against on."""
    prev = obs_metrics.get_registry()
    off = _timed(fn, obs_metrics.NullRegistry())
    on = _timed(fn, obs_metrics.MetricsRegistry())
    try:
        off()  # warm both sides
        on()
        return _paired_rounds(off, on, METRICS_ROUNDS, METRICS_PAIRS)
    finally:
        obs_metrics.set_registry(prev)


def _report(label: str, events: int, result, bare: str, traced: str) -> float:
    overhead, medians, bare_best, traced_best = result
    print(f"\n{label}: {events / bare_best:,.0f} ev/s {bare}, "
          f"{events / traced_best:,.0f} ev/s {traced}; round medians "
          f"{', '.join(f'{100 * m:+.1f}%' for m in medians)} "
          f"-> overhead {100 * overhead:+.1f}%")
    return overhead


def test_record_overhead_under_bound():
    events = _stream(EVENTS)
    result = _metrics_overhead(lambda: _record_run(events))
    assert _report("record", EVENTS, result, "off", "on") < MAX_OVERHEAD


def test_predict_overhead_under_bound():
    events = _stream(EVENTS)
    registry = EventRegistry()
    rec = PythiaRecord(registry, record_timestamps=False)
    for name, payload in events:
        rec.record_event(name, payload, None)
    grammar = rec.finish().grammar
    terminals = [registry.intern_name(name, payload) for name, payload in events]
    result = _metrics_overhead(lambda: _predict_run(grammar, terminals))
    assert _report("predict", EVENTS, result, "off", "on") < MAX_OVERHEAD


#: flight+drift budget from the issue: <5% (measured target ~2%)
MAX_WATCHER_OVERHEAD = 0.05
#: watcher benchmark: shorter runs, many pairs, several rounds
WATCH_EVENTS = 12_000
WATCH_ROUNDS = 3
WATCH_PAIRS = 20


def _watched_predict_run(grammar, terminals) -> None:
    from repro.obs.drift import DriftMonitor
    from repro.obs.flight import FlightRecorder

    pred = PythiaPredict(grammar)
    pred.attach_flight(FlightRecorder(session="bench", capacity=256))
    pred.attach_drift(DriftMonitor())
    for i, t in enumerate(terminals):
        pred.observe(t)
        if i % 8 == 0:
            pred.predict(1)
    pred.flush_metrics()


def test_flight_and_drift_overhead_under_budget():
    """Flight recorder + drift monitor attached to the hot observe loop
    must stay within the 5% budget (the tracker feeds both one counter
    delta every 32 events, stretched to every 4th boundary while calm;
    measured overhead is typically ~2-3%).  Bare and watched loops are
    compared by :func:`_paired_rounds` after a warmup of each, with the
    same metrics backend on both sides to isolate the watcher cost.
    """
    events = _stream(WATCH_EVENTS)
    registry = EventRegistry()
    rec = PythiaRecord(registry, record_timestamps=False)
    for name, payload in events:
        rec.record_event(name, payload, None)
    grammar = rec.finish().grammar
    terminals = [registry.intern_name(name, payload) for name, payload in events]
    bare = _timed(lambda: _predict_run(grammar, terminals))
    watched = _timed(lambda: _watched_predict_run(grammar, terminals))
    prev = obs_metrics.get_registry()
    try:
        obs_metrics.set_registry(obs_metrics.NullRegistry())
        bare()  # warm the successor machine
        watched()
        result = _paired_rounds(bare, watched, WATCH_ROUNDS, WATCH_PAIRS)
    finally:
        obs_metrics.set_registry(prev)
    overhead = _report("flight+drift", WATCH_EVENTS, result, "bare", "watched")
    assert overhead < MAX_WATCHER_OVERHEAD


#: always-on observability plane budget: the ISSUE's acceptance figure.
#: 19 Hz sampling + 1 Hz history snapshots + 1 Hz rendered scrapes are
#: all off the hot path (background daemon threads), so the measured
#: cost is GIL contention only — typically well under 1%.
MAX_PLANE_OVERHEAD = 0.05
PLANE_EVENTS = 48_000
PLANE_ROUNDS = 3
PLANE_PAIRS = 10


class _AlwaysOnPlane:
    """The daemon's always-on plane: profiler + history + scraper."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def start(self) -> None:
        import threading

        from repro.obs import history as obs_history
        from repro.obs import profiler as obs_profiler

        obs_profiler.enable_profiler(19.0)
        self._history = obs_history.MetricsHistory(self.registry, interval=1.0)
        self._history.start()
        self._stop = threading.Event()

        def scrape_loop() -> None:
            while not self._stop.wait(1.0):
                obs_metrics.render_prometheus(self.registry)

        self._scraper = threading.Thread(
            target=scrape_loop, name="bench-scraper", daemon=True
        )
        self._scraper.start()

    def stop(self) -> None:
        from repro.obs import profiler as obs_profiler

        obs_profiler.disable_profiler()
        self._history.stop()
        self._stop.set()
        self._scraper.join(timeout=2.0)


def test_always_on_plane_overhead_under_budget():
    """Continuous profiling (19 Hz), the metrics history ring (1 Hz)
    and a rendered Prometheus scrape per second must together cost the
    predict hot loop under 5% (same min-of-medians methodology as the
    watcher benchmark; the plane's threads start before and stop after
    each timed run, so only their steady-state interference is
    measured).  The run is sized so the sampler actually fires a few
    times inside every timed window."""
    from repro.obs.profiler import tag_op

    events = _stream(PLANE_EVENTS)
    registry = EventRegistry()
    rec = PythiaRecord(registry, record_timestamps=False)
    for name, payload in events:
        rec.record_event(name, payload, None)
    grammar = rec.finish().grammar
    terminals = [registry.intern_name(name, payload) for name, payload in events]

    prev = obs_metrics.get_registry()
    reg = obs_metrics.MetricsRegistry()
    plane = _AlwaysOnPlane(reg)

    def timed_run() -> float:
        t0 = time.perf_counter()
        with tag_op("bench_predict"):  # the daemon tags every handler
            _predict_run(grammar, terminals)
        return time.perf_counter() - t0

    def run_with_plane() -> float:
        plane.start()
        try:
            return timed_run()
        finally:
            plane.stop()

    try:
        obs_metrics.set_registry(reg)
        timed_run()  # warm the successor machine
        overhead, medians, bare_best, plane_best = _paired_rounds(
            timed_run, run_with_plane, PLANE_ROUNDS, PLANE_PAIRS
        )
    finally:
        obs_metrics.set_registry(prev)
    print(f"\nalways-on plane: {PLANE_EVENTS / bare_best:,.0f} ev/s bare, "
          f"{PLANE_EVENTS / plane_best:,.0f} ev/s with profiler+history+scrape; "
          f"round medians {', '.join(f'{100 * m:+.1f}%' for m in medians)} "
          f"-> overhead {100 * overhead:+.1f}%")
    assert overhead < MAX_PLANE_OVERHEAD


#: context propagation budget: <5% documented; same CI headroom story
#: as MAX_OVERHEAD above.  Asserted against the iteration-grained loop
#: (one 8-event iteration batched per round trip) — the grain the
#: paper's runtime systems drive the oracle at.
MAX_CONTEXT_OVERHEAD = 0.10
#: backstop on the per-event (ping-sized) round trip: tracing is an
#: *absolute* per-request cost, so the microscopic loop is bounded in
#: microseconds, not as a ratio of a denominator this benchmark makes
#: artificially small.  Measured ~5-7µs; the bound only catches a
#: pathological regression (an extra round trip, O(n) accounting).
MAX_CONTEXT_DELTA_US = 25.0
CTX_EVENTS = 800
CTX_ITERS = 100
CTX_ROUNDS = 4
CTX_PAIRS = 12


def test_context_propagation_overhead_under_budget(tmp_path):
    """Tracing on the daemon path (ctx binding out, srv timing back,
    per-session accounting, client-side decomposition) must stay within
    the <5% budget at the grain runtime systems use the oracle:
    one iteration's events batched per round trip
    (``event_batch_and_predict``), decision asked once per iteration.

    The per-event loop (a ping-sized request per event, ~50µs round
    trips) is also measured, as an *absolute* per-request cost: full
    per-request decomposition costs ~5-7µs of client accounting, reply
    bytes and daemon bookkeeping, which is real money against a
    microscopic denominator (~10-15% of a minimal loopback ping) and
    noise against any request that does real work.  The README's
    Operations section documents both figures; the assert here bounds
    the absolute cost so a pathological regression still fails.
    """
    from repro.core.oracle import Pythia
    from repro.server import OracleServer, PythiaClient, TraceStore

    trace_path = str(tmp_path / "ref.pythia")
    oracle = Pythia(trace_path, mode="record", record_timestamps=False)
    events = _stream(CTX_EVENTS)
    for name, payload in events:
        oracle.event(name, payload)
    oracle.finish()
    sock = str(tmp_path / "oracle.sock")

    def run_events(client) -> float:
        t0 = time.perf_counter()
        for name, payload in events:
            client.event_and_predict(name, payload)
        return time.perf_counter() - t0

    def run_iters(client) -> float:
        t0 = time.perf_counter()
        for _ in range(CTX_ITERS):
            client.event_batch_and_predict(PATTERN)
        return time.perf_counter() - t0

    prev = obs_metrics.get_registry()
    try:
        obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        with OracleServer(sock, store=TraceStore()):
            with PythiaClient(trace_path, socket=sock, context=False) as bare_c, \
                    PythiaClient(trace_path, socket=sock) as traced_c:
                run_events(bare_c)  # warm sessions and the trace cache
                run_events(traced_c)
                overhead, medians, it_bare, it_traced = _paired_rounds(
                    lambda: run_iters(bare_c), lambda: run_iters(traced_c),
                    CTX_ROUNDS, CTX_PAIRS,
                )
                _, ev_medians, ev_bare, ev_traced = _paired_rounds(
                    lambda: run_events(bare_c), lambda: run_events(traced_c),
                    CTX_ROUNDS, CTX_PAIRS,
                )
    finally:
        obs_metrics.set_registry(prev)
    delta_us = (ev_traced - ev_bare) / CTX_EVENTS * 1e6
    print(f"\ncontext (per iteration): {CTX_ITERS / it_bare:,.0f} iter/s "
          f"untraced, {CTX_ITERS / it_traced:,.0f} iter/s traced; round "
          f"medians {', '.join(f'{100 * m:+.1f}%' for m in medians)} "
          f"-> overhead {100 * overhead:+.1f}%")
    print(f"context (per event): {CTX_EVENTS / ev_bare:,.0f} req/s untraced, "
          f"{CTX_EVENTS / ev_traced:,.0f} req/s traced "
          f"({', '.join(f'{100 * m:+.1f}%' for m in ev_medians)}) "
          f"-> +{delta_us:.1f}us per traced request")
    assert overhead < MAX_CONTEXT_OVERHEAD
    assert delta_us < MAX_CONTEXT_DELTA_US
