"""Core PYTHIA oracle library.

This package implements the paper's primary contribution.  It
re-exports nothing: import each name from the module that defines it
(``from repro.core.oracle import Pythia``), or take the public names
from :mod:`repro`.

- :mod:`repro.core.events` — event model and interning registry;
- :mod:`repro.core.grammar` — on-the-fly grammar reduction of event
  sequences (Sequitur extended with consecutive-repetition exponents,
  §II-A of the paper);
- :mod:`repro.core.record` — PYTHIA-RECORD;
- :mod:`repro.core.frozen` — immutable grammar snapshot used for
  prediction;
- :mod:`repro.core.progress` — progress sequences (§II-B);
- :mod:`repro.core.successor` — the memoized successor machine over a
  frozen grammar;
- :mod:`repro.core.predict` — PYTHIA-PREDICT (§II-B, §II-C);
- :mod:`repro.core.explain` — the provenance of a prediction;
- :mod:`repro.core.timing` — duration estimation (§II-C);
- :mod:`repro.core.trace_file` — on-disk trace format;
- :mod:`repro.core.mmap_grammar` — the compiled ``.pygx`` grammar
  artifact the oracle daemon maps;
- :mod:`repro.core.analysis` — post-hoc grammar statistics
  (``pythia-trace dump``);
- :mod:`repro.core.oracle` — the user-facing facade.
"""
