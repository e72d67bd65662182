"""``Grammar.append`` scaling: µs per appended event at 10^4, 10^5 and 10^6 events.

Sequitur reduces a sequence in linear time (Nevill-Manning & Witten):
digram uniqueness and rule utility keep the amortised cost of an append
flat however long the trace grows.  This sweep checks that claim on the
recorder's grammar.  It records one long OpenMP Lulesh stream (the begin
and end events of every parallel region, about 60 per timestep), appends
its first 10^4, 10^5 and 10^6 events to a fresh :class:`Grammar` each,
prints the µs per append of every size and exits 1 if the largest size
costs more than ``MAX_GROWTH`` times the smallest per event.

    PYTHONPATH=src python benchmarks/bench_grammar_scaling.py
    PYTHONPATH=src python benchmarks/bench_grammar_scaling.py --max-events 100000

Each size is timed as the best of several runs of at least
``MIN_RUN_S`` seconds of appends in total, after a full collection.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.apps.lulesh_omp import lulesh_omp_run
from repro.core.grammar import Grammar
from repro.machines import PUDDING
from repro.openmp.costmodel import RegionCostModel
from repro.openmp.policies import MaxThreadsPolicy
from repro.openmp.runtime import GompRuntime

SIZES = (10_000, 100_000, 1_000_000)
#: the largest size may cost at most this many times the smallest per event
MAX_GROWTH = 2.0
#: Lulesh problem size of the recorded run
LULESH_SIZE = 10
#: every size is timed over at least this many seconds of appends
MIN_RUN_S = 0.5
#: ... and at least this many runs
MIN_RUNS = 3


class _Capture:
    """``GompRuntime`` interceptor that keeps each region event as a terminal."""

    def __init__(self) -> None:
        self.stream: list[int] = []

    def region_begin(self, region_id: int, clock: float) -> None:
        self.stream.append(2 * region_id)

    def region_end(self, region_id: int, clock: float) -> None:
        self.stream.append(2 * region_id + 1)

    def overhead(self) -> float:
        return 0.0


def lulesh_stream(events: int) -> list[int]:
    """The first ``events`` region events of one OpenMP Lulesh run."""
    def run(timesteps: int) -> list[int]:
        capture = _Capture()
        runtime = GompRuntime(
            PUDDING, max_threads=PUDDING.cores, policy=MaxThreadsPolicy(),
            pool_mode="park", cost_model=RegionCostModel(PUDDING), interceptor=capture,
        )
        lulesh_omp_run(runtime, LULESH_SIZE, timesteps=timesteps)
        return capture.stream

    per_step = len(run(1))
    stream = run(-(-events // per_step))
    return stream[:events]


def append_us(stream: list[int]) -> float:
    """Best µs per append of ``stream`` into a fresh grammar."""
    best = float("inf")
    runs = 0
    spent = 0.0
    while runs < MIN_RUNS or spent < MIN_RUN_S:
        gc.collect()
        grammar = Grammar()
        append = grammar.append
        start = time.perf_counter()
        for terminal in stream:
            append(terminal)
        elapsed = time.perf_counter() - start
        spent += elapsed
        runs += 1
        best = min(best, elapsed)
    return best / len(stream) * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-events", type=int, default=SIZES[-1],
                        help="largest prefix to time (default: %(default)s)")
    args = parser.parse_args(argv)
    sizes = [n for n in SIZES if n <= args.max_events]
    if not sizes:
        parser.error(f"--max-events must be at least {SIZES[0]}")
    stream = lulesh_stream(sizes[-1])
    print(f"Grammar.append over one OpenMP Lulesh stream (size {LULESH_SIZE})")
    print(f"{'events':>10}  {'us/append':>10}  {'vs smallest':>11}")
    costs = []
    for n in sizes:
        costs.append(append_us(stream[:n]))
        print(f"{n:>10,}  {costs[-1]:>10.3f}  {costs[-1] / costs[0]:>10.2f}x")
    growth = costs[-1] / costs[0]
    if growth > MAX_GROWTH:
        print(f"FAIL: {sizes[-1]:,} events cost {growth:.2f}x the per-event time of "
              f"{sizes[0]:,} (limit {MAX_GROWTH:.1f}x)")
        return 1
    print(f"ok: per-event cost grows {growth:.2f}x from {sizes[0]:,} to {sizes[-1]:,} events "
          f"(limit {MAX_GROWTH:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
