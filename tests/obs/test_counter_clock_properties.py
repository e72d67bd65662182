"""The tracker's counter clock on generated call sequences.

A tracker with a flight recorder and a drift monitor attached follows
the scripts of ``test_path_equivalence_properties.py`` (out-of-order,
unknown and never-recorded events among them) and reads its own
``stats()`` at drawn points.  After a final ``feed_watchers()``:

- the journal's ``run`` entries count every observation once, with its
  outcome (``events``, ``matched``, ``unexpected`` and ``unknown`` sum
  to the tracker's counters);
- the registry's ``pythia_predict_*_total`` counters grew by exactly
  what ``stats()`` reports, and the reads added no
  ``pythia_predict_candidates`` sample: only the clock samples, once per
  METRICS_FLUSH_EVERY observations.

The clock must not depend on the registry: under ``PYTHIA_METRICS=0``
the journal half runs against the null registry and the registry half
is skipped.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.predict import (
    METRIC_FAMILIES,
    METRICS_FLUSH_EVERY,
    WATCH_EVERY,
    PythiaPredict,
)
from repro.obs import metrics as obs_metrics
from repro.obs.drift import DriftMonitor
from repro.obs.flight import FlightRecorder
from tests.conftest import A, B, C, freeze
from tests.core.test_path_equivalence_properties import _call, scripts

#: the ``stats()`` key of each family in METRIC_FAMILIES, in order
STATS_KEYS = (
    "observed", "matched", "unexpected", "unknown", "predictions",
    "pruned", "hits", "misses", "lost_events", "resyncs",
)


#: an in-sync script whose last observation is due on the clock
_ENDS_ON_A_FEED = ([A, B, C] * 11, [("observe", t) for t in ([A, B, C] * 11)[:WATCH_EVERY]])


@given(scripts(), st.sets(st.integers(min_value=0, max_value=400)))
@example(_ENDS_ON_A_FEED, set())
@settings(max_examples=60, deadline=None)
def test_journal_and_registry_agree_with_the_tracker(case, reads):
    """``reads`` holds the script steps after which ``stats()`` is read."""
    stream, script = case
    prev = obs_metrics.get_registry()
    registry = obs_metrics.set_registry(
        obs_metrics.MetricsRegistry() if prev.enabled else prev
    )
    try:
        tracker = PythiaPredict(freeze(stream))
        flight = FlightRecorder(4096)
        tracker.attach_flight(flight)
        tracker.attach_drift(DriftMonitor())
        for i, op in enumerate(script):
            _call(tracker, op, float(i))
            if i in reads:
                tracker.stats()
        tracker.feed_watchers()
        assert len(flight) < flight.capacity  # nothing fell out of the ring
        runs = [e for e in flight.entries() if e["kind"] == "run"]
        assert sum(e["events"] for e in runs) == tracker.observed
        for key in ("matched", "unexpected", "unknown"):
            assert sum(e[key] for e in runs) == getattr(tracker, key), key
        stats = tracker.stats()
        if registry.enabled:
            published = registry.snapshot()
            for (name, _help), key in zip(METRIC_FAMILIES, STATS_KEYS, strict=True):
                assert published.get(name, 0) == stats[key], name
            samples = published.get("pythia_predict_candidates", {"count": 0})["count"]
            assert samples == tracker.observed // METRICS_FLUSH_EVERY
    finally:
        obs_metrics.set_registry(prev)
