"""Shared fixtures for the benchmark suite.

Benchmarks run the paper's experiments at a reduced rank count (4) so
the whole suite finishes in minutes; each one asserts the paper's
qualitative claim (who wins, by roughly what factor, where crossovers
fall) and prints the regenerated rows under ``-s``.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import mpi_record_run

BENCH_RANKS = 4


@pytest.fixture(scope="session")
def recorded_traces(tmp_path_factory):
    """Record-once cache: app name -> (path, record result)."""
    cache: dict[tuple, tuple] = {}
    base = tmp_path_factory.mktemp("traces")

    def get(app: str, ws: str = "small", timestamps: bool = False):
        key = (app, ws, timestamps)
        if key not in cache:
            path = str(base / f"{app}-{ws}.pythia")
            result = mpi_record_run(app, ws, path, ranks=BENCH_RANKS,
                                    seed=0, timestamps=timestamps)
            cache[key] = (path, result)
        return cache[key]

    return get
