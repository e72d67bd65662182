#!/usr/bin/env python
"""Drift monitoring tour: detect a workload switch, fall back, recover.

A CG-like solver is recorded once as the reference execution.  The
"production" run then goes through three phases:

1. the recorded workload — the oracle stays in sync, the drift monitor
   reports ``ok``, and the OpenMP thread-count policy sizes parallel
   regions from the oracle's duration predictions;
2. a *different* workload (an FFT-style phase the reference never saw)
   — the monitor classifies the divergence within 64 events, fires the
   policy's fallback hook (vanilla thread counts: guidance from a stale
   reference must degrade to default behaviour, not to wrong answers),
   and the flight recorder auto-dumps the minute before the alarm;
3. the recorded workload again — after a few calm windows the monitor
   steps back down with hysteresis and the policy re-adopts the oracle.

Run: ``python examples/drift_monitor.py``
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import tempfile

from repro import Pythia
from repro.openmp.policies import AdaptivePythiaPolicy

ITERATIONS = 40
MAX_THREADS = 8

#: duration ladder: short regions get few threads, long ones get all
THRESHOLDS = [(0.001, 1), (0.004, 4)]


def cg_step(oracle: Pythia, clock: float, rng: random.Random) -> float:
    """One recorded-workload iteration (halo exchange + SpMV + reduce)."""
    step = [
        ("post_irecv", 1), ("post_irecv", 2), ("wait_halo", None),
        ("spmv", None), ("allreduce", "dot"),
    ]
    durations = [0.0002, 0.0002, 0.0004, 0.0048, 0.0009]
    for (name, payload), base in zip(step, durations):
        clock += base * rng.uniform(0.95, 1.05)
        oracle.event(name, payload, timestamp=clock)
    return clock


def region_decision(oracle: Pythia, policy: AdaptivePythiaPolicy) -> int:
    """Ask the oracle how long the next region runs, size the team."""
    pred = oracle.predict(1, with_time=True)
    eta = pred.eta if pred is not None else None
    return policy.threads_for("spmv", eta, MAX_THREADS)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-drift-") as tmp:
        trace_path = os.path.join(tmp, "cg.pythia")
        dump_dir = tmp  # the flight journals land next to the trace

        # -- record the reference execution ------------------------------
        oracle = Pythia(trace_path, mode="record", meta={"app": "cg-demo"})
        clock, rng = 0.0, random.Random(0)
        for _ in range(ITERATIONS):
            clock = cg_step(oracle, clock, rng)
        trace = oracle.finish()
        print(f"recorded {trace.event_count} events -> {trace_path}")

        # -- the production run ------------------------------------------
        oracle = Pythia(trace_path, mode="predict")
        monitor = oracle.enable_drift(flight=128, dump_dir=dump_dir)
        policy = AdaptivePythiaPolicy(thresholds=THRESHOLDS, drift_monitor=monitor)

        @monitor.on_transition
        def announce(old: str, new: str, snapshot: dict) -> None:
            print(f"  [drift] {old} -> {new} after {snapshot['events']} events "
                  f"(hit {snapshot['hit_rate_ewma']:.2f}, "
                  f"unseen {snapshot['unseen_ewma']:.2f})")

        clock, rng = 0.0, random.Random(7)

        print("\nphase 1: the recorded workload")
        for _ in range(ITERATIONS):
            region_decision(oracle, policy)
            clock = cg_step(oracle, clock, rng)
        print(f"  drift state: {monitor.state}, decisions: {policy.decisions}")

        print("\nphase 2: a workload the reference never saw")
        for i in range(24):
            region_decision(oracle, policy)
            for name in ("fft_forward", "transpose", "fft_inverse"):
                clock += 0.001
                oracle.event(name, i % 4, timestamp=clock)
        print(f"  drift state: {monitor.state}, decisions: {policy.decisions}")
        print(f"  policy fallback forced: {policy.force_fallback}")

        print("\nphase 3: back to the recorded workload")
        for _ in range(3 * ITERATIONS):
            region_decision(oracle, policy)
            clock = cg_step(oracle, clock, rng)
        print(f"  drift state: {monitor.state}, decisions: {policy.decisions}")
        print(f"  policy fallback forced: {policy.force_fallback}")

        # -- what the flight recorder kept -------------------------------
        report = oracle.drift_report()
        print(f"\ndrift transitions: "
              f"{[(t['from'], t['to']) for t in report['transitions']]}")
        # every transition auto-dumped the journal: the minute before the
        # alarm is on disk even if the process had died right after
        for path in sorted(pathlib.Path(dump_dir).glob("flight-*.jsonl")):
            entries = [json.loads(line) for line in path.open(encoding="utf-8")]
            kinds: dict[str, int] = {}
            for e in entries:
                kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
            print(f"flight journal {path.name}: {len(entries)} entries {kinds}")

        oracle.finish()


if __name__ == "__main__":
    main()
