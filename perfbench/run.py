"""The repository benchmark: record / predict / serve over seeded call logs.

    python3 perfbench/run.py --workload {record,predict,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  From ``--seed`` it generates the
interposer call logs (``calllog.py``), sets up what the workload needs,
measures the workload's phase in a fresh process (``replay.py``) for
``--seconds`` seconds of phase time, checks every output, and prints a
report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of the chosen workload.
``--trace 1`` is the traced run: it makes one untraced and one traced
pass of every phase (record, predict and serve) and reports the per-layer
metrics, after printing the per-layer ledger with its residual and the
tracing overhead.  A failed correctness check prints
``"correct": false`` with no metrics and exits 1.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: whole-run budget; children are killed when it runs out
RUN_BUDGET_S = 170.0
#: cold starts of the recorder per record run (setup_s is their median)
COLD_STARTS = 5

#: end-to-end metrics (``--trace 0``), with units
E2E_UNITS = {
    "setup_s": "s",
    "calls_per_s": "calls/s",
    "loop.call_us.p50": "us",
    "loop.call_us.p99": "us",
    "irregular.call_us.p50": "us",
    "irregular.call_us.p99": "us",
    "peak_rss_mb": "MB",
    "trace_bytes": "bytes",
}


class GateError(Exception):
    """A correctness check failed: the run publishes no metrics."""


# ----------------------------------------------------------------------
# process plumbing
# ----------------------------------------------------------------------


class Run:
    """One benchmark invocation: its work directory, environment and clock."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = os.path.join(WORK_ROOT, str(os.getpid()))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.samples: dict[str, int] = {}

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def child(self, phase: str, *, traced: bool = False) -> list[dict]:
        """Measure ``phase`` in a fresh process; returns its passes."""
        cmd = [sys.executable, os.path.join(HERE, "replay.py"), phase,
               "--work", self.work, "--seconds", str(self.seconds)]
        if traced:
            cmd.append("--trace")
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=sys.stderr)
        try:
            proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()  # a daemon it spawned dies with it (PR_SET_PDEATHSIG)
            proc.wait()
            raise
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        with open(os.path.join(self.work, f"{phase}.pkl"), "rb") as fh:
            passes = pickle.load(fh)["passes"]
        self.passes = len(passes)
        self.samples = {fam: len(lat) for fam, lat in passes[0]["lat"].items()}
        for p in passes:
            self.attempted += sum(len(lat) for lat in p["lat"].values()) + p["failed"]
            self.failed += p["failed"]
            if p["errors"]:
                print(f"perfbench: {phase} call errors: {p['errors']}", file=sys.stderr)
        return passes

    def cold_starts(self) -> list[float]:
        """Recorder cold-start times, each in a fresh interpreter."""
        out = []
        for k in range(COLD_STARTS):
            paths = [os.path.join(self.work, f"cold{k}-{fam}.pythia") for fam in ("loop", "irregular")]
            done = subprocess.run([sys.executable, os.path.join(HERE, "coldstart.py"), *paths],
                                  cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, check=True,
                                  timeout=max(1.0, self.remaining()))
            out.append(float(done.stdout.strip().splitlines()[-1]))
        return out


# ----------------------------------------------------------------------
# set-up and correctness gates (in this process: its RSS is not measured)
# ----------------------------------------------------------------------


def record_reference_traces(run: Run, logs: dict) -> None:
    """Record both families' reference traces with this commit (set-up)."""
    import replay

    paths = {fam: os.path.join(run.work, f"{fam}.pythia") for fam in logs}
    result = replay.record_pass(logs, paths)
    result["verify_error"] = replay.verify_record(logs, paths, result.pop("_grammars"))
    check_passes("record", [result])


def reference_sample(seed: int) -> dict[str, set[int]]:
    """Threads checked against the ``compiled=False`` reference path."""
    from calllog import IRREGULAR_RANKS, IRREGULAR_SEEDS

    rank = seed % IRREGULAR_RANKS
    return {"loop": {0, 1 + rank},
            "irregular": {rank, IRREGULAR_SEEDS * IRREGULAR_RANKS + rank}}


def check_against_reference(run: Run, logs: dict, answers: dict) -> None:
    """Compiled predictions equal the reference path's on the sampled threads."""
    import replay

    traces = {fam: os.path.join(run.work, f"{fam}.pythia") for fam in logs}
    sample = reference_sample(run.seed)
    expected = replay.reference_answers(logs, traces, sample)
    for fam, ref in expected.items():
        got = [a for a in answers[fam] if a[0] in sample[fam]]
        if got != ref:
            raise GateError(f"predict: {fam} predictions differ from the compiled=False "
                            f"reference on threads {sorted(sample[fam])}")


def check_same_answers(what: str, passes: list[dict], expected: dict) -> None:
    """Every pass answered alike (checked in the phase process), and like
    ``expected``."""
    if not all(p["same_answers"] for p in passes):
        raise GateError(f"{what}: the passes' prediction streams differ")
    for fam, answers in expected.items():
        if passes[0]["answers"][fam] != answers:
            raise GateError(f"{what}: {fam} prediction stream differs")


def check_passes(phase: str, passes: list[dict]) -> None:
    for k, p in enumerate(passes):
        if p["failed"]:
            raise GateError(f"{phase}: pass {k}: {p['failed']} calls failed: {p['errors']}")
        if phase == "record" and p["verify_error"] is not None:
            raise GateError(f"record: pass {k}: {p['verify_error']}")
        if phase == "serve" and set(p["protocols"].values()) != {"binary"}:
            raise GateError(f"serve: negotiated framing {p['protocols']}, not binary")


# ----------------------------------------------------------------------
# end-to-end metrics (--trace 0)
# ----------------------------------------------------------------------


def e2e_metrics(passes: list[dict], setup: list[float], trace_bytes: int) -> dict:
    """The end-to-end metrics of a run's passes.

    A latency percentile is taken per pass (one pass is one application
    run) and averaged over the passes.  A percentile pooled over the whole
    run would jump whenever the host changes speed mid-run: the loop
    family's calls cost a few tightly clustered amounts, so its median
    sits between the fast-state and slow-state copies of one cluster.
    """
    from ledger import percentile

    metrics = {"setup_s": statistics.median(setup)}
    calls = sum(len(lat) for p in passes for lat in p["lat"].values())
    metrics["calls_per_s"] = calls / sum(p["wall"] for p in passes)
    for fam in ("loop", "irregular"):
        for q in (50, 99):
            metrics[f"{fam}.call_us.p{q}"] = statistics.fmean(
                percentile(p["lat"][fam], q) for p in passes) * 1e6
    metrics["peak_rss_mb"] = statistics.median([p["peak_rss_mb"] for p in passes])
    metrics["trace_bytes"] = trace_bytes
    return metrics


def workload_record(run: Run, logs: dict) -> tuple[dict, dict]:
    setup = run.cold_starts()
    passes = run.child("record")
    check_passes("record", passes)
    extra = {"finish_s": (statistics.median([p["finish_s"] for p in passes]), "s")}
    return e2e_metrics(passes, setup, passes[0]["bytes"]), extra


def _trace_bytes(run: Run) -> int:
    return sum(os.path.getsize(os.path.join(run.work, f"{fam}.pythia"))
               for fam in ("loop", "irregular"))


def workload_predict(run: Run, logs: dict) -> tuple[dict, dict]:
    record_reference_traces(run, logs)
    passes = run.child("predict")
    check_passes("predict", passes)
    check_same_answers("predict", passes, passes[0]["answers"])
    check_against_reference(run, logs, passes[0]["answers"])
    extra = {f"{fam}.hit_rate": (passes[0]["tracker"][fam]["hit_rate"], "ratio")
             for fam in logs}
    metrics = e2e_metrics(passes, [p["setup_s"] for p in passes], _trace_bytes(run))
    return metrics, extra


def workload_serve(run: Run, logs: dict) -> tuple[dict, dict]:
    import replay

    record_reference_traces(run, logs)
    traces = {fam: os.path.join(run.work, f"{fam}.pythia") for fam in logs}
    local = replay.predict_pass(logs, traces)
    check_passes("predict", [local])
    check_against_reference(run, logs, local["answers"])
    passes = run.child("serve")
    check_passes("serve", passes)
    check_same_answers("serve", passes, local["answers"])
    extra = {f"{fam}.hit_rate": (passes[0]["hit_rates"][fam], "ratio") for fam in logs}
    metrics = e2e_metrics(passes, [p["setup_s"] for p in passes], _trace_bytes(run))
    return metrics, extra


WORKLOADS = {"record": workload_record, "predict": workload_predict, "serve": workload_serve}


# ----------------------------------------------------------------------
# the traced run (--trace 1)
# ----------------------------------------------------------------------


def traced_run(run: Run, logs: dict) -> dict:
    import layers

    record_reference_traces(run, logs)
    phases = {}
    for phase in ("record", "predict", "serve"):
        passes = run.child(phase, traced=True)
        check_passes(phase, passes)
        phases[phase] = passes
    check_same_answers("predict", phases["predict"], phases["predict"][0]["answers"])
    check_against_reference(run, logs, phases["predict"][0]["answers"])
    check_same_answers("serve", phases["serve"], phases["predict"][0]["answers"])
    report, metrics = layers.ledger(phases)
    print(report)
    return metrics


# ----------------------------------------------------------------------


def _report(workload: str, metrics: dict, extra: dict, run: Run) -> str:
    lines = [f"perfbench {workload}: seed={run.seed} python={platform.python_version()} "
             f"nproc={os.cpu_count()} attempted={run.attempted} failed={run.failed} "
             f"passes={run.passes} samples per pass: " + ", ".join(
                 f"{fam}={n}" for fam, n in run.samples.items())]
    units = {**E2E_UNITS, **{name: unit for name, (_v, unit) in extra.items()}}
    values = {**metrics, **{name: v for name, (v, _unit) in extra.items()}}
    values["failed_ratio"] = run.failed / max(1, run.attempted)
    units["failed_ratio"] = "ratio"
    for name, value in values.items():
        lines.append(f"  {name:<24} {value:>16.6g} {units[name]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for name in [n for n in os.environ if n.startswith("PYTHIA_")]:
        del os.environ[name]
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    from calllog import make_logs

    run = Run(args.seed, args.seconds)
    os.makedirs(run.work)
    try:
        logs = make_logs(args.seed)
        with open(os.path.join(run.work, "logs.pkl"), "wb") as fh:
            pickle.dump(logs, fh)
        if args.trace:
            metrics = traced_run(run, logs)
            units = {name: unit for name, (_v, unit) in metrics.items()}
            metrics = {name: v for name, (v, _unit) in metrics.items()}
            print(f"perfbench traced run: seed={run.seed} python={platform.python_version()} "
                  f"nproc={os.cpu_count()} attempted={run.attempted} failed={run.failed}")
        else:
            metrics, extra = WORKLOADS[args.workload](run, logs)
            units = E2E_UNITS
            print(_report(args.workload, metrics, extra, run))
        correct = True
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
