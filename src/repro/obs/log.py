"""Structured logging: key=value or JSON lines, per-subsystem loggers.

Built on :mod:`logging` (handlers, levels, thread safety) but exposed
through a thin structured wrapper::

    from repro.obs import log
    logger = log.get_logger("server")
    logger.info("session_opened", session=sid, trace=path)

renders (kv format, the default)::

    2026-08-05T12:00:00 INFO pythia.server session_opened session=s1 trace=/tmp/bt.pythia

or, with ``fmt="json"``, one JSON object per line.  Configuration comes
from :func:`configure`, the ``PYTHIA_LOG`` environment variable
(``PYTHIA_LOG=debug`` or ``PYTHIA_LOG=json:debug``), or the CLI's
``--log-level`` switch.  Logging is **off** (WARNING, stderr) until one
of those asks for more, so the library stays silent by default.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import IO

__all__ = ["StructuredLogger", "configure", "configure_from_env", "get_logger"]

ROOT = "pythia"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "warn": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
    "off": logging.CRITICAL + 10,
}


def _fmt_kv_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        return json.dumps(text)
    return text


class _StructuredFormatter(logging.Formatter):
    """Renders records (message + ``fields`` dict) as kv or JSON lines."""

    def __init__(self, fmt_kind: str = "kv") -> None:
        super().__init__()
        self.fmt_kind = fmt_kind

    def format(self, record: logging.LogRecord) -> str:
        fields = getattr(record, "fields", {})
        ts = time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(record.created))
        if self.fmt_kind == "json":
            obj = {
                "ts": ts,
                "level": record.levelname,
                "logger": record.name,
                "event": record.getMessage(),
            }
            obj.update(fields)
            return json.dumps(obj, default=str)
        parts = [ts, record.levelname, record.name, record.getMessage()]
        parts.extend(f"{k}={_fmt_kv_value(v)}" for k, v in fields.items())
        return " ".join(parts)


class StructuredLogger:
    """Per-subsystem logger taking keyword fields on every call."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _log(self, level: int, event: str, fields: dict) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields) -> None:
        """Log at DEBUG."""
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        """Log at INFO."""
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        """Log at WARNING."""
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        """Log at ERROR."""
        self._log(logging.ERROR, event, fields)


def parse_spec(spec: str) -> tuple[int, str]:
    """Parse a ``PYTHIA_LOG`` spec into ``(level, fmt)``.

    ``"debug"`` -> (DEBUG, "kv"); ``"json:info"`` -> (INFO, "json").
    Unknown levels fall back to WARNING rather than raising: a typo in
    an environment variable must not kill the application.
    """
    spec = (spec or "").strip().lower()
    fmt = "kv"
    if ":" in spec:
        head, _, tail = spec.partition(":")
        if head in ("kv", "json"):
            fmt, spec = head, tail
        elif tail in ("kv", "json"):
            fmt, spec = tail, head
    return _LEVELS.get(spec, logging.WARNING), fmt


def configure(
    level: str | int = "warning",
    *,
    fmt: str = "kv",
    stream: IO[str] | None = None,
) -> None:
    """(Re)configure the ``pythia`` logging tree.

    Replaces any handler installed by a previous call, so tests and the
    CLI can reconfigure freely.  ``fmt`` is ``"kv"`` or ``"json"``.
    """
    if isinstance(level, str):
        level = _LEVELS.get(level.lower(), logging.WARNING)
    if fmt not in ("kv", "json"):
        raise ValueError(f"unknown log format {fmt!r} (want 'kv' or 'json')")
    root = logging.getLogger(ROOT)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(_StructuredFormatter(fmt))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def configure_from_env(default: str = "warning") -> None:
    """Configure from ``PYTHIA_LOG`` (level, or ``json:level``)."""
    spec = os.environ.get("PYTHIA_LOG")
    if spec is None:
        level, fmt = _LEVELS.get(default, logging.WARNING), "kv"
    else:
        level, fmt = parse_spec(spec)
    configure(level=level, fmt=fmt)


_configured = False


def get_logger(subsystem: str) -> StructuredLogger:
    """The structured logger for one subsystem (``pythia.<subsystem>``).

    The first call configures the tree from ``PYTHIA_LOG`` if nothing
    configured it yet.
    """
    global _configured
    if not _configured:
        _configured = True
        root = logging.getLogger(ROOT)
        if not root.handlers:
            configure_from_env()
    return StructuredLogger(logging.getLogger(f"{ROOT}.{subsystem}"))
