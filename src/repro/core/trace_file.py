"""On-disk trace format.

A *trace file* is what PYTHIA-RECORD stores "at the end of the execution"
and what PYTHIA-PREDICT reloads on the next run (§II).  It contains:

- the event registry (so ``(name, payload)`` pairs resolve to the same
  terminal ids across executions),
- one frozen grammar per recorded thread,
- optional per-thread timing tables,
- free-form metadata (application name, working set, ...).

The format is versioned JSON; files ending in ``.gz`` are gzipped.  JSON
keeps traces diffable and debuggable, which matters more here than raw
size — grammars are tiny compared to the traces they compress (Table I:
millions of events, tens of rules).
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass, field
from typing import IO

from repro.core.events import EventRegistry
from repro.core.frozen import FrozenGrammar
from repro.core.record import ThreadTrace
from repro.core.timing import TimingTable
from repro.obs.journal import write_atomic

FORMAT_VERSION = 1

__all__ = ["Trace", "TraceFormatError", "load_trace", "save_trace", "FORMAT_VERSION"]


class TraceFormatError(ValueError):
    """The file is not a readable pythia trace.

    Raised for truncated or corrupt files (bad gzip stream, invalid
    JSON), for files that are valid JSON but not a pythia trace, and for
    trace versions this build does not know how to read.  Subclasses
    :class:`ValueError` so existing ``except ValueError`` callers keep
    working.  A missing file stays a :class:`FileNotFoundError` — the
    facade's auto mode depends on that distinction.
    """


@dataclass(slots=True)
class Trace:
    """A complete recorded reference execution (all threads)."""

    registry: EventRegistry
    threads: dict[int, ThreadTrace] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- single-thread conveniences --------------------------------------

    def _only(self) -> ThreadTrace:
        if len(self.threads) != 1:
            raise ValueError(
                f"trace holds {len(self.threads)} threads; address one explicitly"
            )
        return next(iter(self.threads.values()))

    @property
    def grammar(self) -> FrozenGrammar:
        """Grammar of the only thread (single-thread traces)."""
        return self._only().grammar

    @property
    def timing(self) -> TimingTable | None:
        """Timing table of the only thread (single-thread traces)."""
        return self._only().timing

    @property
    def event_count(self) -> int:
        """Total events recorded across all threads."""
        return sum(t.event_count for t in self.threads.values())

    @property
    def rule_count(self) -> int:
        """Total grammar rules across all threads (Table I aggregates this)."""
        return sum(t.grammar.rule_count for t in self.threads.values())

    def thread(self, tid: int) -> ThreadTrace:
        """Trace of one thread."""
        return self.threads[tid]

    # -- (de)serialization ------------------------------------------------

    def to_obj(self) -> dict:
        """JSON-compatible representation."""
        return {
            "format": "pythia-trace",
            "version": FORMAT_VERSION,
            "meta": self.meta,
            "events": self.registry.to_obj(),
            "threads": {
                str(tid): {
                    "grammar": t.grammar.to_obj(),
                    "timing": t.timing.to_obj() if t.timing is not None else None,
                    "event_count": t.event_count,
                }
                for tid, t in self.threads.items()
            },
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Trace":
        """Inverse of :meth:`to_obj`."""
        if obj.get("format") != "pythia-trace":
            raise TraceFormatError("not a pythia trace file")
        version = obj.get("version")
        if version != FORMAT_VERSION:
            if isinstance(version, int) and version > FORMAT_VERSION:
                raise TraceFormatError(
                    f"trace version {version} is newer than this build "
                    f"(reads version {FORMAT_VERSION}); upgrade to load it"
                )
            raise TraceFormatError(f"unsupported trace version {version!r}")
        threads: dict[int, ThreadTrace] = {}
        for tid, tobj in obj["threads"].items():
            timing = tobj.get("timing")
            threads[int(tid)] = ThreadTrace(
                grammar=FrozenGrammar.from_obj(tobj["grammar"]),
                timing=TimingTable.from_obj(timing) if timing is not None else None,
                event_count=int(tobj.get("event_count", 0)),
            )
        return cls(
            registry=EventRegistry.from_obj(obj["events"]),
            threads=threads,
            meta=obj.get("meta", {}),
        )

    def save(self, path: str | os.PathLike) -> None:
        """Write the trace file (gzipped if the path ends in ``.gz``)."""
        save_trace(self, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Trace":
        """Read a trace file written by :meth:`save`."""
        return load_trace(path)


def _open(path: str | os.PathLike, mode: str, *, gz: bool) -> IO:
    if gz:
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Serialize ``trace`` to ``path``, atomically and durably.

    Concurrent-writer safe: each writer stages into its own temporary
    file (pid + random suffix) in the destination directory, so two
    processes saving the same path never clobber each other's staging
    file — the last ``os.replace`` wins with a complete trace either
    way.  Crash durable: the staged bytes are fsynced before the rename
    and the directory entry after it, so a crash at any point leaves
    either the old complete file or the new complete file, never a
    partial one; failures unlink the staging file instead of leaking it.
    """
    path = os.fspath(path)
    body = json.dumps(trace.to_obj(), separators=(",", ":")).encode("utf-8")
    if path.endswith(".gz"):
        body = gzip.compress(body)
    write_atomic(path, body, durable=True)


def load_trace(path: str | os.PathLike) -> Trace:
    """Load a trace file produced by :func:`save_trace`.

    Raises :class:`TraceFormatError` when the file exists but cannot be
    decoded (truncated gzip, invalid JSON, wrong or future format
    version); :class:`FileNotFoundError` propagates unchanged.
    """
    try:
        with _open(path, "r", gz=str(path).endswith(".gz")) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise
    except (EOFError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {os.fspath(path)!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError(f"not a pythia trace file: {os.fspath(path)!r}")
    try:
        return Trace.from_obj(obj)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{os.fspath(path)!r}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed trace file {os.fspath(path)!r}: {exc}") from exc
