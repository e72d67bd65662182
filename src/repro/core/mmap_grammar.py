"""Zero-copy, mmap-backed on-disk format for compiled grammar artifacts.

The JSON trace format (:mod:`repro.core.trace_file`) is the *portable*
representation: diffable, greppable, versioned.  Loading it, however,
costs a full JSON parse plus the :class:`~repro.core.frozen.FrozenGrammar`
index build (occurrence counts, use sites, terminal positions) — paid
again by every process that opens the trace.  A multi-worker daemon
would pay it once per worker and hold N private copies of identical
read-only tables.

This module adds a compiled *artifact* next to the trace
(``<trace>.pygx``): a flat little-endian binary with every derived
table precomputed.  Workers ``mmap`` the artifact read-only, so the
kernel keeps **one** physical copy of the bulk data (rule bodies, use
sites, terminal positions) in the page cache no matter how many worker
processes map it.  :class:`MmapGrammar` decodes rows lazily with
``struct.unpack_from`` straight out of the mapping — a rule body that
prediction never touches is never materialised as Python objects — and
is value-identical to the :class:`FrozenGrammar` it was compiled from,
so predictions and explanations are byte-identical across the two load
paths (``tests/core/test_predict_equivalence.py`` proves it).

Cross-process compile stampede control: :func:`ensure_artifact` takes
an exclusive ``flock`` on a sidecar lock file, so when N workers start
against the same cold trace exactly one parses and compiles while the
others block on the lock and then map the finished artifact.  The
artifact header embeds the source trace's ``(mtime_ns, size)``
signature; a rewritten trace invalidates the artifact and the next
:func:`ensure_artifact` recompiles.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from collections.abc import ItemsView, Iterator, KeysView, Mapping, ValuesView

from repro.core.events import EventRegistry
from repro.core.frozen import FrozenGrammar
from repro.core.record import ThreadTrace
from repro.core.timing import TimingTable
from repro.core.trace_file import Trace, TraceFormatError, load_trace
from repro.obs.journal import write_atomic

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ARTIFACT_SUFFIX",
    "ArtifactFormatError",
    "MmapGrammar",
    "artifact_is_fresh",
    "artifact_path_for",
    "compile_artifact",
    "ensure_artifact",
    "load_artifact",
    "write_artifact",
]

ARTIFACT_SUFFIX = ".pygx"

#: 8-byte magic; the last byte is the format version
_MAGIC = b"PYGX\x00\x00\x00\x01"

#: file header: magic, source mtime_ns, source size, meta blob length,
#: thread count, flags (reserved)
_HEADER = struct.Struct("<8sqQQII")

#: per-thread header: tid, event_count, timing blob length, trace_len,
#: rule count, terminal count, body pairs, use pairs, terminal-position pairs
_THREAD = struct.Struct("<qQQQIIQQQ")

_PAIR_BYTES = 16  # one (int64, int64) pair


class ArtifactFormatError(TraceFormatError):
    """The file is not a readable grammar artifact (or a stale one)."""


# ----------------------------------------------------------------------
# lazy views over the mapped region
# ----------------------------------------------------------------------


class _LazyPairsMap(dict):
    """``{key: ((a, b), ...)}`` decoded per key, on first touch.

    ``offsets[i] .. offsets[i+1]`` delimit (in pairs) the rows of
    ``keys[i]`` inside the flat int64-pair array at ``base``.  The dict
    itself holds only the rows this process has decoded, so a repeat
    lookup is a plain dict hit — the prediction path indexes these
    tables on every successor-memo miss — and ``__missing__`` decodes
    the rest; untouched keys stay as bytes in the shared mapping.  The
    mapping methods span every key, decoded or not; code that reads a
    dict's storage directly (``json.dumps``) would see only the decoded
    rows, so serialisers go through ``items()``.
    """

    __slots__ = ("_buf", "_base", "_keys", "_index", "_offsets")

    def __init__(self, buf, base: int, keys: tuple, offsets: tuple) -> None:
        super().__init__()
        self._buf = buf
        self._base = base
        self._keys = keys
        self._index = {k: i for i, k in enumerate(keys)}
        self._offsets = offsets

    def __missing__(self, key):
        i = self._index[key]  # raises KeyError for unknown keys
        lo = self._offsets[i]
        n = self._offsets[i + 1] - lo
        flat = struct.unpack_from(
            f"<{2 * n}q", self._buf, self._base + _PAIR_BYTES * lo
        )
        val = self[key] = tuple(zip(flat[::2], flat[1::2]))
        return val

    def get(self, key, default=None):
        return self[key] if key in self._index else default

    def __iter__(self) -> Iterator:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:  # no decode just to answer `in`
        return key in self._index

    def keys(self) -> KeysView:
        return KeysView(self)

    def items(self) -> ItemsView:
        return ItemsView(self)

    def values(self) -> ValuesView:
        return ValuesView(self)

    # compare the whole mapping, not just the rows decoded so far
    __eq__ = Mapping.__eq__
    __ne__ = object.__ne__

    @property
    def decoded(self) -> int:
        """How many keys this process has materialised (observability)."""
        return dict.__len__(self)


class MmapGrammar(FrozenGrammar):
    """A :class:`FrozenGrammar` whose tables live in a shared mapping.

    ``occ`` (one int per rule) is decoded eagerly — it is tiny and on
    the probability hot path; ``bodies`` / ``uses`` /
    ``terminal_positions`` are :class:`_LazyPairsMap` views that decode
    a row on first access.  Every value is the exact int the source
    grammar held, so prediction arithmetic is byte-identical.
    """

    __slots__ = ("_mm",)

    @classmethod
    def from_mapping(cls, mm, **tables) -> "MmapGrammar":
        self = cls.from_tables(**tables)
        self._mm = mm  # keeps the mapping alive as long as the grammar
        return self

    def decode_stats(self) -> dict[str, int]:
        """How much of the mapped grammar this process has materialised."""
        return {
            "rules": len(self.bodies),
            "bodies_decoded": self.bodies.decoded,
            "uses_decoded": self.uses.decoded,
            "terminals_decoded": self.terminal_positions.decoded,
        }


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def artifact_path_for(trace_path: str | os.PathLike) -> str:
    """Where the compiled artifact for ``trace_path`` lives.

    Next to the trace by default; ``PYTHIA_ARTIFACT_DIR`` redirects
    artifacts into one directory (content-addressed by trace path) for
    read-only trace locations.
    """
    trace_path = os.path.abspath(os.fspath(trace_path))
    art_dir = os.environ.get("PYTHIA_ARTIFACT_DIR")
    if art_dir:
        digest = hashlib.sha1(trace_path.encode("utf-8")).hexdigest()[:20]
        return os.path.join(art_dir, f"{digest}{ARTIFACT_SUFFIX}")
    return trace_path + ARTIFACT_SUFFIX


def _source_signature(trace_path: str) -> tuple[int, int]:
    st = os.stat(trace_path)
    return (st.st_mtime_ns, st.st_size)


def _pack_pairs(out: bytearray, rows: list[tuple]) -> None:
    flat: list[int] = []
    for a, b in rows:
        flat.append(a)
        flat.append(b)
    out.extend(struct.pack(f"<{len(flat)}q", *flat))


def _grammar_sections(fg: FrozenGrammar) -> tuple[bytes, dict]:
    """Serialise one grammar's tables; returns (bytes, counts)."""
    rids = tuple(fg.bodies)  # storage order == the source dict's order
    terms = tuple(fg.terminal_positions)
    out = bytearray()
    out.extend(struct.pack(f"<{len(rids)}q", *rids))
    out.extend(struct.pack(f"<{len(rids)}q", *(fg.occ[r] for r in rids)))

    def table(keys, source) -> int:
        offsets = [0]
        rows: list[tuple] = []
        for key in keys:
            rows.extend(source[key])
            offsets.append(len(rows))
        out.extend(struct.pack(f"<{len(offsets)}Q", *offsets))
        _pack_pairs(out, rows)
        return len(rows)

    body_pairs = table(rids, fg.bodies)
    uses_pairs = table(rids, fg.uses)
    out.extend(struct.pack(f"<{len(terms)}q", *terms))
    term_pairs = table(terms, fg.terminal_positions)
    return bytes(out), {
        "rule_count": len(rids),
        "term_count": len(terms),
        "body_pairs": body_pairs,
        "uses_pairs": uses_pairs,
        "term_pairs": term_pairs,
    }


def write_artifact(
    trace: Trace, artifact_path: str | os.PathLike, source_sig: tuple[int, int]
) -> None:
    """Compile ``trace`` into the artifact at ``artifact_path``.

    Atomic and concurrent-writer safe the same way
    :func:`~repro.core.trace_file.save_trace` is: staged into a unique
    temporary file, fsynced, then renamed into place.
    """
    artifact_path = os.fspath(artifact_path)
    meta_blob = json.dumps(
        {"events": trace.registry.to_obj(), "meta": trace.meta},
        separators=(",", ":"),
    ).encode("utf-8")
    body = bytearray()
    body.extend(
        _HEADER.pack(
            _MAGIC, source_sig[0], source_sig[1], len(meta_blob),
            len(trace.threads), 0,
        )
    )
    body.extend(meta_blob)
    for tid, tt in trace.threads.items():
        timing_blob = (
            json.dumps(tt.timing.to_obj(), separators=(",", ":")).encode("utf-8")
            if tt.timing is not None
            else b""
        )
        section, counts = _grammar_sections(tt.grammar)
        body.extend(
            _THREAD.pack(
                tid, tt.event_count, len(timing_blob), tt.grammar.trace_len,
                counts["rule_count"], counts["term_count"],
                counts["body_pairs"], counts["uses_pairs"], counts["term_pairs"],
            )
        )
        body.extend(timing_blob)
        body.extend(section)
    write_atomic(artifact_path, body, durable=True)


def compile_artifact(
    trace_path: str | os.PathLike, artifact_path: str | os.PathLike | None = None
) -> str:
    """Parse ``trace_path`` (JSON) and write its compiled artifact."""
    trace_path = os.path.abspath(os.fspath(trace_path))
    artifact_path = (
        os.fspath(artifact_path) if artifact_path is not None
        else artifact_path_for(trace_path)
    )
    sig = _source_signature(trace_path)
    write_artifact(load_trace(trace_path), artifact_path, sig)
    return artifact_path


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def _read_header(buf) -> tuple[tuple[int, int], int, int]:
    """Validated header -> (source signature, meta length, thread count)."""
    if len(buf) < _HEADER.size:
        raise ArtifactFormatError("artifact truncated before its header")
    magic, mtime_ns, size, meta_len, threads, _flags = _HEADER.unpack_from(buf, 0)
    if magic[:4] != _MAGIC[:4]:
        raise ArtifactFormatError("not a pythia grammar artifact")
    if magic != _MAGIC:
        raise ArtifactFormatError(
            f"unsupported artifact version {magic[-1]} (this build reads {_MAGIC[-1]})"
        )
    return (mtime_ns, size), meta_len, threads


def artifact_is_fresh(
    artifact_path: str | os.PathLike, source_sig: tuple[int, int]
) -> bool:
    """True when the artifact exists and was compiled from ``source_sig``."""
    try:
        with open(artifact_path, "rb") as fh:
            head = fh.read(_HEADER.size)
        sig, _meta_len, _threads = _read_header(head)
    except (OSError, ArtifactFormatError):
        return False
    return sig == source_sig


def load_artifact(
    artifact_path: str | os.PathLike,
    expected_signature: tuple[int, int] | None = None,
) -> Trace:
    """Map an artifact and return a :class:`Trace` of :class:`MmapGrammar`.

    The returned grammars hold the mapping open; the bulk tables stay
    in the (kernel-shared) page cache and decode lazily.  Raises
    :class:`ArtifactFormatError` for corrupt files and for a signature
    mismatch when ``expected_signature`` is given (stale artifact).
    """
    artifact_path = os.fspath(artifact_path)
    with open(artifact_path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file
            raise ArtifactFormatError(f"empty artifact {artifact_path!r}") from exc
    try:
        sig, meta_len, thread_count = _read_header(mm)
        if expected_signature is not None and sig != expected_signature:
            raise ArtifactFormatError(
                f"stale artifact {artifact_path!r}: source trace changed"
            )
        pos = _HEADER.size
        try:
            meta_obj = json.loads(mm[pos : pos + meta_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactFormatError(f"corrupt artifact metadata: {exc}") from exc
        pos += meta_len
        threads: dict[int, ThreadTrace] = {}
        for _ in range(thread_count):
            if pos + _THREAD.size > len(mm):
                raise ArtifactFormatError("artifact truncated in a thread header")
            (
                tid, event_count, timing_len, trace_len,
                rule_count, term_count, body_pairs, uses_pairs, term_pairs,
            ) = _THREAD.unpack_from(mm, pos)
            pos += _THREAD.size
            timing = None
            if timing_len:
                timing = TimingTable.from_obj(
                    json.loads(mm[pos : pos + timing_len].decode("utf-8"))
                )
            pos += timing_len
            end = (
                pos
                + 2 * 8 * rule_count  # rids + occ
                + 8 * (rule_count + 1) * 2  # body + uses offsets
                + 8 * term_count + 8 * (term_count + 1)  # terms + offsets
                + _PAIR_BYTES * (body_pairs + uses_pairs + term_pairs)
            )
            if end > len(mm):
                raise ArtifactFormatError("artifact truncated in a grammar section")
            rids = struct.unpack_from(f"<{rule_count}q", mm, pos)
            pos += 8 * rule_count
            occ_values = struct.unpack_from(f"<{rule_count}q", mm, pos)
            pos += 8 * rule_count

            def offsets_then_pairs(count: int, pairs: int) -> tuple[tuple, int]:
                nonlocal pos
                offs = struct.unpack_from(f"<{count + 1}Q", mm, pos)
                pos += 8 * (count + 1)
                base = pos
                pos += _PAIR_BYTES * pairs
                return offs, base

            body_offs, body_base = offsets_then_pairs(rule_count, body_pairs)
            uses_offs, uses_base = offsets_then_pairs(rule_count, uses_pairs)
            terms = struct.unpack_from(f"<{term_count}q", mm, pos)
            pos += 8 * term_count
            term_offs, term_base = offsets_then_pairs(term_count, term_pairs)
            grammar = MmapGrammar.from_mapping(
                mm,
                bodies=_LazyPairsMap(mm, body_base, rids, body_offs),
                occ=dict(zip(rids, occ_values)),
                uses=_LazyPairsMap(mm, uses_base, rids, uses_offs),
                terminal_positions=_LazyPairsMap(mm, term_base, terms, term_offs),
                trace_len=trace_len,
            )
            threads[tid] = ThreadTrace(
                grammar=grammar, timing=timing, event_count=event_count
            )
    except ArtifactFormatError:
        mm.close()
        raise
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        mm.close()
        raise ArtifactFormatError(
            f"malformed artifact {artifact_path!r}: {exc}"
        ) from exc
    return Trace(
        registry=EventRegistry.from_obj(meta_obj["events"]),
        threads=threads,
        meta=meta_obj.get("meta", {}),
    )


# ----------------------------------------------------------------------
# compile-once-per-host orchestration
# ----------------------------------------------------------------------


def ensure_artifact(
    trace_path: str | os.PathLike,
    artifact_path: str | os.PathLike | None = None,
    *,
    force: bool = False,
) -> tuple[str, str]:
    """Make sure a fresh artifact exists; returns ``(path, outcome)``.

    ``outcome`` is how this caller got it:

    - ``"reused"``   — a fresh artifact was already on disk;
    - ``"waited"``   — another process held the compile lock; we
      blocked until it finished and mapped its output (the
      cross-process analog of the trace store's ``waiters_ok``);
    - ``"compiled"`` — this caller parsed the trace and wrote the
      artifact (exactly one per host per trace version).

    The lock is an exclusive ``flock`` on ``<artifact>.lock`` so the
    stampede of N workers starting together costs one parse + compile.
    Where ``flock`` is unavailable the compile may race, but the
    atomic rename keeps every reader consistent.
    """
    trace_path = os.path.abspath(os.fspath(trace_path))
    artifact_path = (
        os.fspath(artifact_path) if artifact_path is not None
        else artifact_path_for(trace_path)
    )
    sig = _source_signature(trace_path)  # FileNotFoundError for absent traces
    if not force and artifact_is_fresh(artifact_path, sig):
        return artifact_path, "reused"
    # a PYTHIA_ARTIFACT_DIR that does not exist yet: the lock file and
    # the artifact both land in it
    os.makedirs(os.path.dirname(os.path.abspath(artifact_path)), exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        write_artifact(load_trace(trace_path), artifact_path, sig)
        return artifact_path, "compiled"
    lock_path = artifact_path + ".lock"
    with open(lock_path, "ab") as lock_fh:
        waited = False
        try:
            fcntl.flock(lock_fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            waited = True
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
        try:
            if not force and artifact_is_fresh(artifact_path, sig):
                # somebody compiled while we raced for the lock
                return artifact_path, "waited" if waited else "reused"
            write_artifact(load_trace(trace_path), artifact_path, sig)
            return artifact_path, "compiled"
        finally:
            fcntl.flock(lock_fh, fcntl.LOCK_UN)
