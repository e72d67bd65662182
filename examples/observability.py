#!/usr/bin/env python
"""Observability tour: metrics, accuracy tracking, spans and logs.

An NPB-style iterative solver (CG-like: halo exchange, SpMV compute,
dot-product reductions) is recorded once with timestamps, then replayed
with slightly perturbed timing while the oracle follows along.  Every
prediction the oracle makes is scored *online* against what actually
happens, so by the end the run can print its own Table-1-style numbers:

- hit rate (lifetime and rolling) of next-event predictions;
- mean |actual - predicted| delay of the timed predictions (§II-C);
- lost/resync transitions (one is provoked with an event the reference
  run never saw, §II-B2).

The same run leaves Prometheus-style metrics in the process registry and
wall-time spans exportable as a Chrome trace.

Run: ``python examples/observability.py``
"""

from __future__ import annotations

import os
import random
import tempfile

from repro import Pythia
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span, span_recording

ITERATIONS = 50
NEIGHBOURS = (1, 2)  # a 1-D halo: up and down


def solver_step(oracle: Pythia, clock: float, rng: random.Random,
                *, predicting: bool = False) -> float:
    """One CG-like iteration; returns the advanced clock.

    In predict mode, every event is preceded by a timed next-event query
    so the accuracy tracker has a claim to score.
    """
    step = [
        *[("post_irecv", nb) for nb in NEIGHBOURS],
        *[("post_isend", nb) for nb in NEIGHBOURS],
        ("wait_halo", None),
        ("spmv", None),
        ("allreduce", "dot"),
        ("allreduce", "rnorm"),
    ]
    durations = [0.0002, 0.0002, 0.0003, 0.0003, 0.0011, 0.0042, 0.0008, 0.0008]
    for (name, payload), base in zip(step, durations):
        if predicting:
            oracle.predict(1, with_time=True)
        clock += base * rng.uniform(0.95, 1.05)
        oracle.event(name, payload, timestamp=clock)
    return clock


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-obs-") as tmp:
        trace_path = os.path.join(tmp, "cg.pythia")
        registry = obs_metrics.set_registry(obs_metrics.MetricsRegistry())

        with span_recording() as spans:
            # -- run 1: record the reference execution -------------------
            with span("example.record"):
                oracle = Pythia(trace_path, mode="record", meta={"app": "cg-demo"})
                clock, rng = 0.0, random.Random(0)
                for _ in range(ITERATIONS):
                    clock = solver_step(oracle, clock, rng)
                trace = oracle.finish()
            print(f"recorded {trace.event_count} events "
                  f"({trace.rule_count} grammar rules) -> reference trace")

            # -- run 2: replay with perturbed timing, score every claim --
            with span("example.predict"):
                oracle = Pythia(trace_path, mode="predict")
                clock, rng = 0.0, random.Random(7)  # different jitter
                for it in range(ITERATIONS):
                    clock = solver_step(oracle, clock, rng, predicting=True)
                    if it == ITERATIONS // 2:
                        # the reference run never wrote a checkpoint: the
                        # oracle goes lost, then resyncs on the next event
                        oracle.event("checkpoint_write", timestamp=clock)
                report = oracle.stats()

        # -- the accuracy report -----------------------------------------
        print("\naccuracy report (scored online during the replay)")
        print(f"  predictions scored : {report['predictions_scored']}")
        print(f"  hit rate           : {100 * report['hit_rate']:.1f} % "
              f"(rolling {100 * report['rolling_hit_rate']:.1f} %)")
        print(f"  mean |time error|  : {1e3 * report['mean_abs_time_error']:.3f} ms "
              f"(max {1e3 * report['max_abs_time_error']:.3f} ms, "
              f"{report['time_scored']} timed)")
        print(f"  lost -> resync     : {report['lost_events']} lost, "
              f"{report['resyncs']} resyncs")

        # -- the same numbers, as scrapeable metrics ----------------------
        snapshot = registry.snapshot()
        print("\nmetrics registry (selected)")
        for name in ("pythia_record_events_total", "pythia_predict_observe_total",
                     "pythia_predict_hits_total", "pythia_predict_misses_total",
                     "pythia_predict_lost_total"):
            # counters flush lazily: one that never moved reads as 0
            print(f"  {name:32s} {snapshot.get(name, 0)}")

        # -- and where the wall time went ---------------------------------
        print("\nspans (export with recorder.dump() for chrome://tracing)")
        for name, agg in sorted(spans.totals().items()):
            print(f"  {name:18s} x{agg['count']}  {1e3 * agg['total_s']:7.2f} ms")


if __name__ == "__main__":
    main()
