"""A flight recorder for oracle sessions: the last N things that happened.

When a prediction goes wrong in a long run, the interesting part is the
minute *before* the alarm — what the tracker observed, what it claimed,
how the candidate set behaved, what drift state it was in.  A
:class:`FlightRecorder` is a bounded ring buffer journaling exactly
that, cheap enough to leave on in production:

- **anomalies** (unexpected restarts, unknown events) are journaled
  eagerly with full detail — those tracker paths are already cold;
- **steady state** is run-length compressed: at every watcher feed of
  the tracker (every :data:`~repro.core.predict.WATCH_EVERY`
  observations, stretched to every 4th boundary while a co-attached
  drift monitor reports calm) one ``run`` entry summarizes the block's
  counter delta — observations, matches, candidate count, drift state,
  the latest prediction — so an in-sync stream costs a few nanoseconds
  per event, not an entry per event;
- **drift transitions** are journaled by the
  :class:`~repro.obs.drift.DriftMonitor` with a full signal snapshot,
  and trigger :meth:`FlightRecorder.dump`.

The recorder keeps no copy of the tracker's counters or drift state: an
entry's ``drift_state`` is read from the tracker's monitor when written.

The journal exports as JSONL (:meth:`to_jsonl`) and as a Chrome-trace
object (:meth:`to_chrome_trace`) loadable in ``chrome://tracing`` /
Perfetto, both built by :mod:`repro.obs.journal`.  ``PYTHIA_FLIGHT_DIR``
(or ``dump_dir=``) names a directory for dumps, which are staged and
renamed into place; live recorders register in a weak set so a dying
test run or the daemon can :func:`dump_active` every session
post-mortem.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from time import perf_counter

from repro.obs import journal
from repro.obs.drift import STATE_CODES

__all__ = ["FlightRecorder", "active_recorders", "dump_active"]

#: journal entries kept per session by default
DEFAULT_CAPACITY = 256

#: environment variable naming the default dump directory
FLIGHT_DIR_ENV = "PYTHIA_FLIGHT_DIR"

_ACTIVE: weakref.WeakSet = weakref.WeakSet()
_IDS = itertools.count(1)


class FlightRecorder:
    """Bounded journal of one oracle session's recent history.

    Attach with :meth:`~repro.core.predict.PythiaPredict.attach_flight`.
    ``last_pred`` / ``last_distance`` hold the latest prediction — plain
    attributes, so the tracker's predict path pays two pointer stores,
    not a method call.
    """

    __slots__ = (
        "capacity",
        "session",
        "dump_dir",
        "last_pred",
        "last_distance",
        "dumps",
        "_ring",
        "_head",
        "_count",
        "_seq",
        "_tid",
        "__weakref__",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        session: str = "pythia",
        dump_dir: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.session = session
        self.dump_dir = dump_dir
        #: latest Prediction object and its query distance — existing
        #: references, so the predict hot path stores two pointers and
        #: allocates nothing
        self.last_pred = None
        self.last_distance = 0
        self.dumps = 0
        #: journal ring: fixed-arity lists mutated in place on reuse, so
        #: a steady-state tick allocates nothing but the timestamp float
        self._ring: list = [None] * capacity
        self._head = 0
        self._count = 0
        self._seq = 0
        self._tid = next(_IDS)
        _ACTIVE.add(self)

    def __len__(self) -> int:
        return self._count

    def _slot(self) -> list:
        """Next ring slot as a reusable 11-element list.

        Layout: ``[seq, t, kind, *fields]`` where fields depend on kind —
        run: delta, matched, unexpected, unknown, candidates, state,
        distance, prediction; observe: outcome, terminal, candidates,
        state, distance, prediction, count; transition: old, new,
        snapshot; note: message, fields.  Unused tail slots are None.
        """
        ring = self._ring
        i = self._head
        entry = ring[i]
        if entry is None:
            entry = ring[i] = [None] * 11
        self._head = (i + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1
        return entry

    # ------------------------------------------------------------------
    # feeding (called by the tracker / drift monitor)
    # ------------------------------------------------------------------

    def tick(self, tracker, delta: tuple) -> None:
        """Journal one run entry from the counter ``delta`` the tracker's
        watcher feed hands over (``observed > 0``)."""
        self._seq = seq = self._seq + 1
        entry = self._slot()
        entry[0] = seq
        entry[1] = perf_counter()
        entry[2] = "run"
        entry[3] = delta[0]
        entry[4] = delta[1]
        entry[5] = delta[2]
        entry[6] = delta[3]
        entry[7] = len(tracker.candidates)
        entry[8] = _drift_code(tracker)
        entry[9] = self.last_distance
        entry[10] = self.last_pred

    def anomaly(self, outcome: str, terminal: int | None, tracker) -> None:
        """Journal one anomalous observation (``restart`` / ``unknown``)
        with full detail; called from the tracker's cold paths.

        Consecutive repeats of the same anomaly collapse into one entry
        with a ``count`` — an unknown-event storm must not flush the
        context (including any drift transition) out of the ring.
        """
        if self._count:
            last = self._ring[(self._head - 1) % self.capacity]
            if last[2] == "observe" and last[3] == outcome and last[4] == terminal:
                last[1] = perf_counter()
                last[5] = len(tracker.candidates)
                last[6] = _drift_code(tracker)
                last[7] = self.last_distance
                last[8] = self.last_pred
                last[9] = last[9] + 1
                return
        self._seq = seq = self._seq + 1
        entry = self._slot()
        entry[0] = seq
        entry[1] = perf_counter()
        entry[2] = "observe"
        entry[3] = outcome
        entry[4] = terminal
        entry[5] = len(tracker.candidates)
        entry[6] = _drift_code(tracker)
        entry[7] = self.last_distance
        entry[8] = self.last_pred
        entry[9] = 1
        entry[10] = None

    def mark_transition(self, old: str, new: str, snapshot: dict) -> None:
        """Journal a drift state transition with its signal snapshot."""
        self._seq = seq = self._seq + 1
        entry = self._slot()
        entry[0] = seq
        entry[1] = perf_counter()
        entry[2] = "transition"
        entry[3] = old
        entry[4] = new
        entry[5] = snapshot
        entry[6] = entry[7] = entry[8] = entry[9] = entry[10] = None

    def note(self, message: str, **fields) -> None:
        """Journal a free-form marker (session open/close, experiments)."""
        self._seq = seq = self._seq + 1
        entry = self._slot()
        entry[0] = seq
        entry[1] = perf_counter()
        entry[2] = "note"
        entry[3] = message
        entry[4] = fields
        entry[5] = entry[6] = entry[7] = entry[8] = entry[9] = entry[10] = None

    # ------------------------------------------------------------------
    # reading / exporting
    # ------------------------------------------------------------------

    @staticmethod
    def _pred_obj(distance: int, pred) -> dict | None:
        if pred is None:
            return None
        return {
            "distance": distance,
            "terminal": pred.terminal,
            "probability": pred.probability,
        }

    def entries(self) -> list[dict]:
        """The journal, oldest first, as JSON-safe dicts."""
        ring = self._ring
        cap = self.capacity
        count = self._count
        start = (self._head - count) % cap
        out: list[dict] = []
        for k in range(count):
            raw = ring[(start + k) % cap]
            kind = raw[2]
            entry: dict = {
                "seq": raw[0],
                "t": raw[1],
                "kind": kind,
                "session": self.session,
            }
            if kind == "run":
                entry.update(
                    events=raw[3],
                    matched=raw[4],
                    unexpected=raw[5],
                    unknown=raw[6],
                    candidates=raw[7],
                    drift_state=raw[8],
                    prediction=self._pred_obj(raw[9], raw[10]),
                )
            elif kind == "observe":
                entry.update(
                    outcome=raw[3],
                    terminal=raw[4],
                    candidates=raw[5],
                    drift_state=raw[6],
                    prediction=self._pred_obj(raw[7], raw[8]),
                    count=raw[9],
                )
            elif kind == "transition":
                entry.update(**{"from": raw[3], "to": raw[4], "snapshot": raw[5]})
            else:
                entry.update(message=raw[3], **raw[4])
            out.append(entry)
        return out

    def to_jsonl(self) -> str:
        """The journal as JSON Lines (one entry per line)."""
        return journal.to_jsonl(self.entries())

    def to_chrome_trace(self) -> dict:
        """The journal as a Chrome-trace object (instant events).

        Each recorder gets its own ``tid`` under the real process
        ``pid`` — journals from several sessions merge into one timeline
        without overlapping.
        """
        pid = os.getpid()
        tid = self._tid
        events: list[dict] = []
        for entry in self.entries():
            kind = entry["kind"]
            if kind == "run":
                name = f"run x{entry['events']}"
            elif kind == "observe":
                name = f"observe:{entry['outcome']}"
            elif kind == "transition":
                name = f"drift:{entry['from']}->{entry['to']}"
            else:
                name = f"note:{entry['message']}"
            events.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "ts": entry["t"] * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": entry,
                }
            )
        return journal.chrome_trace(events, {(pid, tid): f"flight:{self.session}"})

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------

    def dump(self, path: str | os.PathLike | None = None) -> str | None:
        """Write the journal as JSONL; returns the path written.

        Without ``path``, writes into ``dump_dir`` /
        ``PYTHIA_FLIGHT_DIR`` (one file per session, overwritten — the
        journal always contains the most recent history); returns
        ``None`` when no destination is configured.  The drift monitor
        calls this on every state transition.
        """
        if path is None:
            directory = self.dump_dir or os.environ.get(FLIGHT_DIR_ENV)
            if not directory:
                return None
            path = os.path.join(directory, f"flight-{_safe_name(self.session)}.jsonl")
        target = os.fspath(path)
        journal.dump(target, self.entries())
        self.dumps += 1
        return target


def _drift_code(tracker) -> int:
    """The gauge code of the tracker's drift state; 0 without a monitor."""
    drift = tracker.drift
    return 0 if drift is None else STATE_CODES[drift.state]


def _safe_name(session: str) -> str:
    """A session name usable as a file-name part."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in session)
    return safe or "pythia"


def active_recorders() -> list[FlightRecorder]:
    """Every live recorder in this process (weakly tracked)."""
    return list(_ACTIVE)


def dump_active(directory: str | os.PathLike | None = None) -> list[str]:
    """Dump every live, non-empty recorder; returns the paths written.

    ``directory`` overrides each recorder's own destination; without it,
    recorders lacking a configured destination are skipped.  Used by the
    test-session post-mortem hook and the CI artifact step.
    """
    paths: list[str] = []
    for rec in active_recorders():
        if not len(rec):
            continue
        if directory is not None:
            # the recorder id keeps same-named sessions from clobbering
            # each other in a shared post-mortem directory
            name = f"flight-{_safe_name(rec.session)}-{rec._tid}.jsonl"
            path = rec.dump(os.path.join(os.fspath(directory), name))
        else:
            path = rec.dump()
        if path is not None:
            paths.append(path)
    return paths


def _atexit_dump() -> None:
    """Flush every live recorder with a configured destination at exit.

    A crashing example or a short CLI run otherwise loses the journal
    tail that explains what went wrong.  Recorders without a dump
    directory (no ``dump_dir=``, no ``PYTHIA_FLIGHT_DIR``) are skipped
    by :func:`dump_active`, so the hook never invents output paths.
    """
    try:
        dump_active()
    except OSError:
        pass  # exit paths must never raise


atexit.register(_atexit_dump)
