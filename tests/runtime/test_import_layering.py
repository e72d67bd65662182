"""The interposers' import path: a traced application loads the oracle only.

A runtime system pays for every module its interposer imports before the
first intercepted call.  :mod:`repro.core`, :mod:`repro.obs` and
:mod:`repro.runtime` re-export nothing, so importing both shims must not
pull in the daemon, the HTTP endpoint, offline analysis, metrics history,
session telemetry or the simulated MPI substrate.  A fresh interpreter
checks this, since the test process has loaded them all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

#: modules an interposer has no use for
NOT_ON_THE_ORACLE_PATH = [
    "http.server",
    "repro.obs.httpd",
    "repro.obs.analysis",
    "repro.obs.history",
    "repro.obs.sessions",
    "repro.obs.process",
    "repro.obs.top",
    "repro.core.analysis",
    "repro.mpi",
    "repro.server",
]


def fresh_modules(code: str) -> list[str]:
    """``sorted(sys.modules)`` after running ``code`` in a new interpreter."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_interposers_load_only_the_oracle():
    loaded = fresh_modules(
        "import repro.runtime.mpi_interpose\nimport repro.runtime.omp_interpose"
    )
    assert "repro.core.oracle" in loaded
    assert [name for name in NOT_ON_THE_ORACLE_PATH if name in loaded] == []


#: the serving tier, which a process that only talks to a daemon never runs
NOT_ON_THE_CLIENT_PATH = [
    "repro.server.daemon",
    "repro.server.supervisor",
    "repro.server.store",
    "repro.server.eventloop",
    "repro.obs.history",
    "repro.obs.sessions",
    "repro.obs.process",
]


def test_client_loads_no_serving_tier():
    loaded = fresh_modules("import repro.server.client")
    assert "repro.server.client" in loaded
    assert [name for name in NOT_ON_THE_CLIENT_PATH if name in loaded] == []


def test_documented_entry_points_still_resolve():
    loaded = fresh_modules(
        "from repro import Pythia\n"
        "from repro.server import OracleServer, PythiaClient"
    )
    assert "repro.server.daemon" in loaded and "repro.server.client" in loaded
