"""Journal formats and file I/O: one place for every export and dump.

The flight recorder, the span recorder and the metrics history keep
their own rings, but they all leave the process the same two ways, and
every reader takes them back the same way:

- **JSON Lines** (:func:`to_jsonl`): one ``sort_keys`` JSON object per
  line — flight journals and history rings;
- **Chrome trace** (:func:`chrome_trace`): a ``traceEvents`` object
  (``thread_name`` metadata first, then the events) loadable in
  ``chrome://tracing`` / Perfetto — span dumps, flight journals and
  ``pythia-trace analyze --merge``;
- :func:`dump` renders either one and writes it with
  :func:`write_atomic`, the staged write that journal dumps, trace
  files and compiled artifacts share: a unique temporary file in the
  destination directory, then ``os.replace``, so a reader (or a
  concurrent writer) sees the old file or the new one, never a torn
  one.  ``durable=True`` adds the fsyncs that trace files and compiled
  artifacts need; journal dumps skip them, because a flight dump can
  run on the daemon's event-loop thread at a drift transition;
- :func:`load` reads either format back, telling them apart per file.

No module here imports :mod:`repro.core`, so the core's trace and
artifact writers can use :func:`write_atomic` without an import cycle.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping

__all__ = ["chrome_trace", "dump", "load", "render", "to_jsonl", "write_atomic"]


def to_jsonl(rows: Iterable[dict]) -> str:
    """Rows as JSON Lines: one ``sort_keys`` object per line."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def chrome_trace(
    events: list[dict], threads: Mapping[tuple[int, int], str]
) -> dict:
    """A Chrome trace-event object: a ``thread_name`` metadata event per
    ``(pid, tid)`` of ``threads`` (sorted), then ``events`` as given."""
    meta = [
        {"ph": "M", "name": "thread_name", "pid": p, "tid": t, "args": {"name": n}}
        for (p, t), n in sorted(threads.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def render(journal: dict | Iterable[dict]) -> str:
    """A Chrome-trace object as indented JSON; rows as JSON Lines."""
    if isinstance(journal, dict):
        return json.dumps(journal, indent=1)
    return to_jsonl(journal)


def write_atomic(
    path: str | os.PathLike, data: str | bytes, *, durable: bool = False
) -> None:
    """Write ``data`` to ``path`` through a staged file and a rename.

    Each writer stages into its own file (pid + random suffix) next to
    ``path``, so concurrent writers never clobber each other's staging
    file and the last ``os.replace`` wins with a complete file; a
    failure unlinks the staging file.  ``durable`` fsyncs the staged
    bytes before the rename and the directory entry after it, so a
    crash leaves the old complete file or the new one.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        _fsync_dir(os.path.dirname(path))


def _fsync_dir(dirname: str) -> None:
    """Flush a directory entry to disk (no-op where unsupported)."""
    try:
        fd = os.open(dirname or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse fsync on directories
    finally:
        os.close(fd)


def dump(path: str | os.PathLike, journal: dict | Iterable[dict]) -> None:
    """:func:`render` ``journal`` into ``path`` (staged, not fsynced),
    creating the parent directory if needed."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_atomic(path, render(journal))


def load(path: str | os.PathLike) -> dict | list:
    """Read a journal file: a Chrome-trace object, or the JSONL rows.

    A body whose first non-space byte is ``{`` and that parses as one
    JSON object with ``traceEvents`` is a Chrome trace; anything else
    is JSON Lines (blank lines skipped).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict) and "traceEvents" in obj:
            return obj
    return [json.loads(line) for line in text.splitlines() if line.strip()]
