"""The example scripts must run end to end (they are documentation)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES = [
    "quickstart.py",
    "mpi_oracle.py",
    "adaptive_openmp.py",
    "trace_anatomy.py",
    "oracle_service.py",
    "observability.py",
    "fault_tolerance.py",
    "ops_console.py",
    "http_observability.py",
    "drift_monitor.py",
    "multi_worker.py",
]
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_example(tmp_path, name: str, *args: str) -> str:
    """Run one example with ``TMPDIR`` set to the empty ``tmp_path``,
    which it must leave empty."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", name), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert sorted(os.listdir(tmp_path)) == [], f"{name} left temporary files behind"
    return result.stdout


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    out = run_example(tmp_path, name)
    assert out.strip()


def test_socket_example_runs_under_a_deep_tmpdir(tmp_path):
    """The daemon's socket lives under ``TMPDIR`` even when its path is
    longer than an AF_UNIX address holds (107 bytes)."""
    deep = tmp_path / ("d" * max(1, 108 - len(str(tmp_path))))
    deep.mkdir()
    assert len(str(deep)) >= 108
    out = run_example(deep, "oracle_service.py")
    assert "2 sessions" in out


def test_quickstart_predicts(tmp_path):
    out = run_example(tmp_path, "quickstart.py")
    assert "mode=record" in out
    assert "mode=predict" in out
    assert "event in 1 steps" in out


def test_adaptive_openmp_reports_gain(tmp_path):
    out = run_example(tmp_path, "adaptive_openmp.py", "20")
    assert "improvement over vanilla" in out
    assert "PYTHIA-PREDICT" in out


def test_oracle_service_shares_one_load(tmp_path):
    out = run_example(tmp_path, "oracle_service.py")
    assert "2 sessions" in out
    assert "1 load(s)" in out  # both apps shared one cached trace bundle
    assert "predictions served" in out


def test_trace_anatomy_shows_paper_figures(tmp_path):
    out = run_example(tmp_path, "trace_anatomy.py")
    assert "Fig 1" in out and "abbcbcab" in out
    assert "distinct estimates" in out


def test_fault_tolerance_rides_out_the_crash(tmp_path):
    out = run_example(tmp_path, "fault_tolerance.py")
    assert "200/200 events" in out  # agreement survives crash + fallback
    assert "'reconnects': 1" in out
    assert "'fallbacks': 1" in out
    assert "resync" in out and "fallback" in out  # flight journal entries


def test_observability_reports_accuracy(tmp_path):
    out = run_example(tmp_path, "observability.py")
    assert "hit rate" in out
    assert "mean |time error|" in out
    assert "1 lost, 1 resyncs" in out
    assert "pythia_predict_hits_total" in out


def test_ops_console_decomposes_and_correlates(tmp_path):
    out = run_example(tmp_path, "ops_console.py")
    # one request decomposed live into wire/queue/handler
    for component in ("wire", "queue", "handler"):
        assert component in out, component
    # both named sessions reach the daemon's table with no duplicate rids
    assert "solver-rank0" in out and "viz-sidecar" in out
    assert "duplicates=0" in out
    # a rendered ops-console frame and the offline analyze report
    assert "throughput" in out
    assert "traced requests from sessions" in out


def test_http_observability_scrapes_and_profiles(tmp_path, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("http-artifacts")
    out = run_example(
        tmp_path, "http_observability.py", "--out-dir", str(out_dir),
        "--load-seconds", "1.5", "--profile-seconds", "0.8",
    )
    assert "scrape endpoint http://127.0.0.1:" in out
    assert "/ready: 200 'ready (2/2 workers)'" in out
    assert "workers ['0', '1']" in out
    assert "scrape validated" in out
    assert "history rates" in out and "requests_total" in out
    # the CI artifacts landed and the flamegraph is a real SVG
    svg = (out_dir / "flamegraph.svg").read_text()
    assert svg.startswith("<svg") and "samples" in svg
    assert (out_dir / "metrics.prom").read_text().count(
        "# TYPE pythia_worker_up gauge") == 1
    import json

    history = json.loads((out_dir / "history.json").read_text())
    assert history["role"] == "supervisor"
