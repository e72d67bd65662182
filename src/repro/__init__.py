"""repro — a full reproduction of *PYTHIA: an oracle to guide runtime
system decisions* (Colin, Trahay, Conan; IEEE CLUSTER 2022).

Public entry points:

- :class:`repro.Pythia` — the oracle facade (record on first run,
  predict on later runs);
- :class:`repro.PythiaRecord` / :class:`repro.PythiaPredict` — the two
  halves used directly;
- :mod:`repro.mpi` / :mod:`repro.openmp` — the simulated runtime-system
  substrates the evaluation runs on;
- :mod:`repro.apps` — the 13 evaluated application skeletons;
- :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation section;
- :mod:`repro.server` — the oracle service (a multi-client prediction
  daemon with a shared trace store) and its :class:`PythiaClient`.

The names below are re-exported from the modules that define them.
:mod:`repro.core`, :mod:`repro.obs` and :mod:`repro.runtime` re-export
nothing, so importing an interposer loads the oracle and nothing else.
"""

from repro.core.events import Event, EventRegistry
from repro.core.frozen import FrozenGrammar
from repro.core.grammar import Grammar, GrammarError
from repro.core.oracle import Pythia
from repro.core.predict import Prediction, PythiaPredict
from repro.core.record import PythiaRecord
from repro.core.timing import TimingTable
from repro.core.trace_file import Trace, TraceFormatError, load_trace, save_trace

__version__ = "1.0.0"

__all__ = [
    "Event",
    "EventRegistry",
    "FrozenGrammar",
    "Grammar",
    "GrammarError",
    "Prediction",
    "Pythia",
    "PythiaPredict",
    "PythiaRecord",
    "TimingTable",
    "Trace",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "__version__",
]
