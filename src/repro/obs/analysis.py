"""Offline trace analysis: a Pipit-style table over merged journals.

The tracing layer leaves artifacts on disk — Chrome-trace span dumps
(:meth:`~repro.obs.spans.SpanRecorder.dump`, ``PYTHIA_SPANS_DUMP``)
and flight-recorder JSONL journals (``PYTHIA_FLIGHT_DIR``).  This
module loads any mix of them (read back by :func:`repro.obs.journal.
load`, which tells the two formats apart per file) into one columnar
:class:`TraceTable` (rows sorted by timestamp, one dict per event) with
the small dataframe-ish verbs that make trace data usable without pandas:
``filter`` / ``groupby`` / ``percentile`` / ``summary`` — plus the
request-tracing specific ones, ``requests`` (client-side request
spans), ``critical_path`` (one request's wire/queue/handler
decomposition) and ``decompose`` (the decomposition for every traced
request, which is how ``pythia-trace analyze`` reproduces the live
``timing_report`` offline).  ``to_chrome_trace`` writes the rows back
as one Chrome trace (``pythia-trace analyze --merge``).

Column conventions (missing values are ``None``):

``name``   event name (``client.<op>``, ``server.<op>``, flight kinds)
``ts``     start, µs (perf-counter based; comparable within one process)
``dur``    duration, µs (0 for instant events)
``pid`` / ``tid`` / ``source``  origin process/thread/file
``sid`` / ``rid`` / ``op``      tracing context, when tagged
``wire_us`` / ``queue_us`` / ``handler_us`` / ``total_us``  timing
plus every other span attr / journal field, flattened into the row.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.obs import journal

__all__ = ["TraceTable", "load"]

#: row keys that are structural, not attributes
_CORE = ("name", "ph", "ts", "dur", "pid", "tid", "source")


def _rows_from_chrome(obj: dict, source: str) -> list[dict]:
    rows: list[dict] = []
    for ev in obj.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "M":
            continue  # metadata (thread names) is not an event row
        row = {
            "name": ev.get("name"),
            "ph": ph,
            "ts": float(ev.get("ts", 0.0)),
            "dur": float(ev.get("dur", 0.0) or 0.0),
            "pid": ev.get("pid"),
            "tid": ev.get("tid"),
            "source": source,
        }
        args = ev.get("args")
        if isinstance(args, dict):
            for key, value in args.items():
                row.setdefault(key, value)
        rows.append(row)
    return rows


def _rows_from_jsonl(entries: list, source: str) -> list[dict]:
    rows: list[dict] = []
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        row = {
            "name": entry.get("kind", "entry"),
            "ph": "i",
            "ts": float(entry.get("t", 0.0)) * 1e6,
            "dur": 0.0,
            "pid": None,
            "tid": None,
            "source": source,
        }
        for key, value in entry.items():
            if key not in ("kind", "t"):
                row.setdefault(key, value)
        rows.append(row)
    return rows


class TraceTable:
    """An in-memory columnar view over merged trace journals."""

    def __init__(self, rows: Iterable[dict]) -> None:
        self.rows = sorted(rows, key=lambda r: r.get("ts") or 0.0)

    # -- construction ---------------------------------------------------

    @classmethod
    def load(cls, *paths: str | os.PathLike) -> "TraceTable":
        """Load and merge any mix of Chrome-trace JSON and JSONL files
        (the format is told apart per file by :func:`repro.obs.journal.load`)."""
        rows: list[dict] = []
        for path in paths:
            obj = journal.load(path)
            source = os.path.basename(os.fspath(path))
            if isinstance(obj, dict):
                rows.extend(_rows_from_chrome(obj, source))
            else:
                rows.extend(_rows_from_jsonl(obj, source))
        return cls(rows)

    def to_chrome_trace(self) -> dict:
        """The rows as one Chrome trace (the inverse of loading one):
        each row an event, its non-structural columns as ``args``."""
        events = [
            {
                "name": row.get("name"),
                "ph": row.get("ph") or "X",
                "ts": row.get("ts"),
                "dur": row.get("dur"),
                "pid": row.get("pid") or 0,
                "tid": row.get("tid") or 0,
                "args": {
                    k: v
                    for k, v in row.items()
                    if k not in ("name", "ph", "ts", "dur", "pid", "tid")
                    and v is not None
                },
            }
            for row in self.rows
        ]
        return journal.chrome_trace(events, {})

    # -- the dataframe-ish verbs ----------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, key: str) -> list:
        """One column (``None`` where a row lacks the key)."""
        return [row.get(key) for row in self.rows]

    def filter(
        self, predicate: Callable[[dict], bool] | None = None, **eq
    ) -> "TraceTable":
        """Rows matching a predicate and/or exact column values.

        ``t.filter(name="client.observe_predict", sid="c1f...")`` or
        ``t.filter(lambda r: (r.get("dur") or 0) > 100)``.
        """
        rows = self.rows
        if predicate is not None:
            rows = [r for r in rows if predicate(r)]
        for key, value in eq.items():
            rows = [r for r in rows if r.get(key) == value]
        return TraceTable(rows)

    def groupby(self, key: str) -> dict[object, "TraceTable"]:
        """Split into sub-tables by a column's value (None groups too)."""
        groups: dict[object, list[dict]] = {}
        for row in self.rows:
            groups.setdefault(row.get(key), []).append(row)
        return {value: TraceTable(rows) for value, rows in groups.items()}

    def percentile(self, key: str, q: float) -> float:
        """The ``q``-percentile (0..100) of a numeric column.

        Linear interpolation between order statistics; rows without
        the key (or with non-numeric values) are skipped.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        values = sorted(
            v for v in self.column(key) if isinstance(v, (int, float))
        )
        if not values:
            return 0.0
        if len(values) == 1:
            return float(values[0])
        pos = (q / 100.0) * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return float(values[lo]) + (float(values[hi]) - float(values[lo])) * frac

    def summary(self, key: str = "dur") -> dict[str, dict]:
        """Per-name aggregate of a numeric column: count/mean/p50/p99/max."""
        out: dict[str, dict] = {}
        for name, sub in sorted(self.groupby("name").items(), key=lambda kv: str(kv[0])):
            values = [v for v in sub.column(key) if isinstance(v, (int, float))]
            if not values:
                continue
            out[str(name)] = {
                "count": len(values),
                "mean": sum(values) / len(values),
                "p50": sub.percentile(key, 50),
                "p99": sub.percentile(key, 99),
                "max": max(values),
            }
        return out

    # -- request tracing ------------------------------------------------

    def requests(self) -> "TraceTable":
        """Client-side request spans (rows named ``client.<op>``)."""
        return self.filter(
            lambda r: isinstance(r.get("name"), str)
            and r["name"].startswith("client.")
        )

    def critical_path(self, sid: str, rid: int) -> list[tuple[str, float]]:
        """One traced request's component breakdown, ordered as executed.

        Returns ``[(component, µs), ...]`` — ``wire`` (client->daemon +
        daemon->client residual), ``queue`` (frame arrival to handler
        start) and ``handler`` — from the client span; the matching
        ``server.<op>`` span (same sid/rid), when present in the merged
        table, cross-checks the handler time.  Empty when the request
        was not traced.
        """
        client = self.requests().filter(sid=sid, rid=rid)
        if not len(client):
            return []
        row = client.rows[-1]
        path: list[tuple[str, float]] = []
        for component in ("wire", "queue", "handler"):
            value = row.get(f"{component}_us")
            if isinstance(value, (int, float)):
                path.append((component, float(value)))
        if not path and isinstance(row.get("total_us"), (int, float)):
            path.append(("total", float(row["total_us"])))
        return path

    def decompose(self) -> "TraceTable":
        """One row per traced client request: the offline timing table.

        Columns: op, sid, rid, total_us, wire_us, queue_us, handler_us,
        and — when the daemon's span journal is part of the merge —
        ``server_handler_us`` from the correlated ``server.<op>`` span.
        This is the offline reproduction of the client's live
        ``timing_report``.
        """
        server_by_key: dict[tuple[object, object], dict] = {}
        for row in self.rows:
            name = row.get("name")
            if isinstance(name, str) and name.startswith("server."):
                key = (row.get("sid"), row.get("rid"))
                if key[0] is not None and key[1] is not None:
                    server_by_key[key] = row
        out: list[dict] = []
        for row in self.requests():
            rec = {
                "name": row.get("name"),
                "ts": row.get("ts"),
                "dur": row.get("dur"),
                "pid": row.get("pid"),
                "tid": row.get("tid"),
                "source": row.get("source"),
                "op": row.get("op"),
                "sid": row.get("sid"),
                "rid": row.get("rid"),
                "total_us": row.get("total_us"),
                "wire_us": row.get("wire_us"),
                "queue_us": row.get("queue_us"),
                "handler_us": row.get("handler_us"),
            }
            server = server_by_key.get((row.get("sid"), row.get("rid")))
            if server is not None:
                rec["server_handler_us"] = server.get("handler_us")
            out.append(rec)
        return TraceTable(out)

    def report(self) -> dict:
        """The ``pythia-trace analyze`` payload: per-op decomposition.

        ``{"requests": N, "sessions": [...sids...], "ops": {op:
        {component: {count, mean_us, p50_us, p99_us, max_us}}}}`` —
        the same shape as ``PythiaClient.timing_report`` so the live
        and offline views diff cleanly.
        """
        decomposed = self.decompose()
        ops: dict[str, dict[str, dict]] = {}
        for op, sub in sorted(decomposed.groupby("op").items(), key=lambda kv: str(kv[0])):
            if op is None:
                continue
            per_op: dict[str, dict] = {}
            for component in ("total", "wire", "queue", "handler"):
                key = f"{component}_us"
                values = [v for v in sub.column(key) if isinstance(v, (int, float))]
                if not values:
                    continue
                per_op[component] = {
                    "count": len(values),
                    "mean_us": round(sum(values) / len(values), 1),
                    "p50_us": round(sub.percentile(key, 50), 1),
                    "p99_us": round(sub.percentile(key, 99), 1),
                    "max_us": round(max(values), 1),
                }
            ops[str(op)] = per_op
        sids = sorted(
            {s for s in decomposed.column("sid") if isinstance(s, str)}
        )
        return {"requests": len(decomposed), "sessions": sids, "ops": ops}


def load(*paths: str | os.PathLike) -> TraceTable:
    """Module-level alias of :meth:`TraceTable.load`."""
    return TraceTable.load(*paths)
