"""Shared trace store: load every trace file once, serve many sessions.

The in-process :class:`~repro.core.oracle.Pythia` reloads and re-indexes
its trace on every process start; the daemon instead keeps an LRU-bounded
cache of loaded bundles keyed by the file's identity (path + mtime +
size), so N concurrent sessions over the same reference execution share
one :class:`~repro.core.trace_file.Trace` (and therefore one
:class:`~repro.core.frozen.FrozenGrammar` and
:class:`~repro.core.timing.TimingTable` per thread).  Bundles are
immutable once loaded — each session gets its own
:class:`~repro.core.predict.PythiaPredict` tracker on top.

Concurrency: lookups and LRU bookkeeping happen under one lock; the
actual file load happens outside it behind a per-entry event, so two
sessions opening the same cold trace trigger a single load and a slow
load of one trace never blocks hits on another.

The same guarantee extends across *processes*: the store never parses
the JSON trace itself but maps its compiled artifact
(:mod:`repro.core.mmap_grammar`), written next to the trace or under
``PYTHIA_ARTIFACT_DIR``.  :func:`ensure_artifact` holds an exclusive
file lock around compilation, so when the multi-worker daemon starts N
workers against one cold trace exactly one process parses and compiles
while the rest wait on the lock and map the finished file — the
in-process ``waiters_ok`` accounting extended by the cross-process
``artifact_compiles`` / ``artifact_waits`` / ``artifact_reuses``
counters in :meth:`TraceStore.snapshot`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.events import EventRegistry
from repro.core.mmap_grammar import (
    ArtifactFormatError,
    ensure_artifact,
    load_artifact,
)
from repro.core.predict import PythiaPredict
from repro.core.trace_file import Trace, TraceFormatError

__all__ = ["ArtifactWriteError", "TraceBundle", "TraceStore"]

#: (mtime_ns, size) — identifies one version of a trace file
_Sig = tuple[int, int]


@dataclass(frozen=True, slots=True)
class TraceBundle:
    """One loaded trace, shared read-only between sessions."""

    path: str
    signature: _Sig
    trace: Trace
    #: compiled artifact the bundle's grammars are mapped from
    artifact: str

    @property
    def registry(self) -> EventRegistry:
        return self.trace.registry

    def threads(self) -> list[int]:
        return sorted(self.trace.threads)

    def tracker(self, thread: int, *, max_candidates: int = 64) -> PythiaPredict:
        """A fresh per-session tracker over this bundle's grammar.

        Raises :class:`KeyError` when the reference trace has no such
        thread (mirrors the facade).
        """
        tt = self.trace.threads.get(thread)
        if tt is None:
            raise KeyError(f"reference trace has no thread {thread}")
        return PythiaPredict(tt.grammar, tt.timing, max_candidates=max_candidates)


class ArtifactWriteError(OSError):
    """The compiled artifact of a trace cannot be written where it goes.

    Raised by :meth:`TraceStore.get` in place of the underlying
    :class:`OSError` (a read-only trace directory, say); the message
    names ``PYTHIA_ARTIFACT_DIR``, which moves the artifacts elsewhere.
    """


def _per_waiter_copy(exc: Exception) -> Exception:
    """A fresh instance of ``exc`` safe to raise in another thread.

    Falls back to wrapping in :class:`TraceFormatError` for exception
    types whose constructor does not round-trip ``args``.
    """
    try:
        clone = type(exc)(*exc.args)
        if not isinstance(clone, type(exc)):  # exotic __new__ tricks
            raise TypeError
    except Exception:
        return TraceFormatError(f"concurrent trace load failed: {exc}")
    return clone


class _Entry:
    __slots__ = ("signature", "bundle", "error", "ready")

    def __init__(self, signature: _Sig) -> None:
        self.signature = signature
        self.bundle: TraceBundle | None = None
        self.error: Exception | None = None
        self.ready = threading.Event()


class TraceStore:
    """LRU-bounded, thread-safe cache of :class:`TraceBundle`.

    Parameters
    ----------
    capacity:
        Maximum number of cached bundles; least-recently-used bundles
        beyond it are evicted (their sessions keep a reference and stay
        valid — eviction only forgets the cache slot).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        # observability counters (read via snapshot())
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.waiters_ok = 0
        self.waiters_failed = 0
        # cross-process artifact accounting
        self.artifact_compiles = 0
        self.artifact_waits = 0
        self.artifact_reuses = 0

    # ------------------------------------------------------------------

    @staticmethod
    def _signature(path: str) -> _Sig:
        st = os.stat(path)
        return (st.st_mtime_ns, st.st_size)

    def get(self, path: str | os.PathLike) -> TraceBundle:
        """Return the bundle for ``path``, loading it at most once.

        A changed file (different mtime/size) invalidates the cached
        bundle and reloads.  Raises :class:`FileNotFoundError` for an
        absent trace, :class:`TraceFormatError` for one that does not
        parse, and :class:`ArtifactWriteError` when the artifact cannot
        be written.
        """
        path = os.path.abspath(os.fspath(path))
        sig = self._signature(path)  # raises FileNotFoundError for absent files
        with self._lock:
            entry = self._entries.get(path)
            if entry is not None and entry.signature == sig and entry.error is None:
                self._entries.move_to_end(path)
                if entry.ready.is_set():
                    self.hits += 1
                    assert entry.bundle is not None
                    return entry.bundle
                loader = False
            else:
                if entry is not None:
                    self.invalidations += 1
                    del self._entries[path]
                entry = _Entry(sig)
                self._entries[path] = entry
                self.misses += 1
                loader = True
                while len(self._entries) > self.capacity:
                    victim, _ = self._entries.popitem(last=False)
                    if victim != path:
                        self.evictions += 1
        if loader:
            try:
                bundle = self._load(path, sig)
                entry.bundle = bundle
            except Exception as exc:
                entry.error = exc
                with self._lock:
                    # forget failed loads so a repaired file retries
                    if self._entries.get(path) is entry:
                        del self._entries[path]
                raise
            finally:
                entry.ready.set()
            return bundle
        entry.ready.wait()
        if entry.error is not None:
            with self._lock:
                self.waiters_failed += 1
            # Each waiter raises its own exception instance: re-raising
            # the loader's would let N threads race to mutate one
            # __traceback__/__context__, cross-contaminating tracebacks.
            raise _per_waiter_copy(entry.error) from entry.error
        with self._lock:
            self.hits += 1
            self.waiters_ok += 1
        assert entry.bundle is not None
        return entry.bundle

    def _load(self, path: str, sig: _Sig) -> TraceBundle:
        """One actual trace load (runs outside the store lock)."""
        try:
            artifact, outcome = ensure_artifact(path)
        except FileNotFoundError:
            raise  # the trace itself is gone
        except OSError as exc:
            # load_trace turns every other OSError of the trace into
            # TraceFormatError: this one is the artifact's
            raise ArtifactWriteError(
                f"cannot write the compiled artifact of {path}: {exc}; "
                "set PYTHIA_ARTIFACT_DIR to a writable directory"
            ) from exc
        try:
            trace = load_artifact(artifact, expected_signature=sig)
        except ArtifactFormatError:
            # corrupt or concurrently-replaced artifact: recompile once
            # under the lock and retry; a second failure propagates
            artifact, outcome = ensure_artifact(path, force=True)
            trace = load_artifact(artifact, expected_signature=sig)
        with self._lock:
            if outcome == "compiled":
                self.artifact_compiles += 1
            elif outcome == "waited":
                # cross-process cousin of waiters_ok: we blocked while
                # another process compiled, then mapped its output
                self.artifact_waits += 1
                self.waiters_ok += 1
            else:
                self.artifact_reuses += 1
        return TraceBundle(path, sig, trace, artifact=artifact)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached bundle."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict:
        """Counters for the ``stats`` endpoint."""
        with self._lock:
            return {
                "cached": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "waiters_ok": self.waiters_ok,
                "waiters_failed": self.waiters_failed,
                "artifact_compiles": self.artifact_compiles,
                "artifact_waits": self.artifact_waits,
                "artifact_reuses": self.artifact_reuses,
                "artifacts": sorted(
                    {
                        e.bundle.artifact
                        for e in self._entries.values()
                        if e.bundle is not None
                    }
                ),
            }
