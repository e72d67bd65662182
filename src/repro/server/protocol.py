"""Wire protocol of the oracle service.

Frames are length-prefixed JSON: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  The format is deliberately
dumb — traces are tiny (tens of rules), requests are tinier, and JSON
keeps every exchange greppable with ``socat | head``.

Requests are objects with an ``op`` field; responses carry ``ok`` plus
either the result fields or ``error``/``code``.  Two payload details
need care so that a remote prediction is *byte-identical* to a local
one:

- event payloads may be tuples (the registry interns them); they cross
  the wire with the same ``["__tuple__", ...]`` convention the trace
  file uses, so ``(name, payload)`` resolves to the same terminal;
- prediction distributions are keyed by ``int | None`` — JSON objects
  would stringify the keys, so they travel as ``[terminal, weight]``
  pairs instead.

The fused ``observe_predict`` op reuses both encodings unchanged: its
response carries the ``matched`` flag(s) next to the same
``prediction`` object a plain ``predict`` would return (``null`` when
the oracle is lost or ``require_match`` skipped the predict half), so a
fused round trip decodes with the same helpers as two separate ones.

Tracing context (optional, both directions):

- a request may carry ``ctx = {"sid": str, "rid": int}`` — the
  client's session id and a monotonically increasing request id.  A
  daemon that does not understand ``ctx`` ignores it (unknown request
  fields are not errors), so old daemons interoperate.  A valid ``ctx``
  binds the identity to the connection, after which requests need no
  stamp at all: a bare request on a bound connection inherits the sid,
  and — because a stream connection delivers requests in order — the
  daemon assigns it the next consecutive rid, reproducing the client's
  own counter.  The context rides *every* request of a traced client,
  so the steady-state form costs zero request bytes;
- a reply to a traced request carries ``srv = [queue_us, handler_us]``
  (integer microseconds) — server-side timing that lets the client
  decompose its observed round-trip latency into wire/queue/handler.
  Positional for the same reason prediction distributions travel as
  ``[terminal, weight]`` pairs: it is the one reply field that exists
  on every traced exchange.  No rid is echoed — a connection answers
  in request order, so the client correlates replies itself.  Clients
  that predate ``srv`` ignore it.  Neither field changes any existing
  key, so the formats are forward- and backward-compatible.

Binary framing (protocol v2)
----------------------------
Steady-state ``observe_predict`` spends more time in the JSON encoder
and on the wire than in the tracker, so v2 adds a second, compact
framing that coexists with JSON *per frame* on one connection:

- a binary frame starts with the magic byte ``0xA7`` followed by a
  fixed ``>BBHI`` header (magic, opcode, flags, body length).  A JSON
  frame's first byte is the high byte of its length, which is always
  ``0x00`` while ``max_frame`` stays below 16 MiB — so the first byte
  of every frame says which framing follows, no connection state
  needed, and replies mirror the request's framing;
- hot requests (:data:`OP_OBSERVE` / :data:`OP_OBSERVE_PREDICT` /
  :data:`OP_PREDICT`) carry a ``>IIH`` body — numeric session id,
  interned terminal id, distance — instead of strings: the client
  resolves ``(name, payload)`` against the registry it fetched at
  ``open_session`` (event-id interning), exactly the lookup the daemon
  would have done, so predictions stay byte-identical across framings
  (an event absent from the registry sets :data:`F_UNKNOWN_EVENT` and
  the daemon runs the same ``observe_unknown`` path);
- replies pack matched/prediction into flags + a fixed-layout body
  (IEEE-754 doubles travel exactly); traced replies prepend the same
  ``(queue_us, handler_us)`` pair ``srv`` carries in JSON;
- everything else — ``open_session``, batches, admin ops — stays
  length-prefixed JSON, so old clients, ``socat`` debugging and the
  admin/HTTP surfaces work unchanged.

There is no negotiation request.  A binary request needs the session's
number, and only a v2 daemon hands one out: its ``open_session`` reply
carries ``snum``.  A client therefore sends binary frames on a session
only after such a reply, and stays on JSON against a daemon whose reply
has no ``snum``.  A binary frame reaching an old daemon would read as a
length >= ``0xA7000000`` and be refused as :class:`FrameTooLarge` —
loud and immediate, and a client that waits for ``snum`` never sends
one.
"""

from __future__ import annotations

import json
import os
import socket
import struct
from contextlib import contextmanager
from typing import Hashable, Iterator

from repro.core.predict import Prediction

__all__ = [
    "BIN_MAGIC",
    "BIN_OPS",
    "BIN_REQ",
    "DEFAULT_MAX_FRAME",
    "RETRYABLE_CODES",
    "ProtocolError",
    "FrameTooLarge",
    "ConnectionClosed",
    "FrameParser",
    "parse_frame",
    "OP_OBSERVE",
    "OP_OBSERVE_PREDICT",
    "OP_PREDICT",
    "OP_REPLY_ERROR",
    "OP_REPLY_MATCHED",
    "OP_REPLY_PREDICT",
    "F_WITH_TIME",
    "F_REQUIRE_MATCH",
    "F_UNKNOWN_EVENT",
    "F_MATCHED",
    "F_HAS_PRED",
    "F_HAS_ETA",
    "F_HAS_SRV",
    "SRV_PAIR",
    "read_frame",
    "read_frame_any",
    "write_frame",
    "encode_json_body",
    "encode_json_frame",
    "encode_bin_frame",
    "encode_bin_error",
    "decode_bin_error",
    "encode_payload",
    "decode_payload",
    "encode_prediction",
    "decode_prediction",
    "encode_bin_prediction",
    "decode_bin_prediction",
    "unix_address",
]

_HEADER = struct.Struct(">I")
_JSON_HEAD = _HEADER.size

#: refuse frames beyond this many bytes (a batch of ~100k events fits
#: comfortably; anything larger is a bug or an attack, not a request)
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: longest path an AF_UNIX address holds (``sun_path`` is 108 bytes, NUL included)
UNIX_PATH_MAX = 107


@contextmanager
def unix_address(path) -> Iterator[str]:
    """``path`` as an AF_UNIX address, for one ``bind`` or ``connect``.

    A path longer than :data:`UNIX_PATH_MAX` bytes is reached through an
    ``O_PATH`` descriptor of its directory (``/proc/self/fd/N/<name>``, on
    Linux), held open for the duration of the block, so a socket can live
    in a directory however deep.
    """
    path = os.fspath(path)
    if len(os.fsencode(path)) <= UNIX_PATH_MAX:
        yield path
        return
    directory, name = os.path.split(os.path.abspath(path))
    fd = os.open(directory, os.O_PATH | os.O_DIRECTORY)
    try:
        yield f"/proc/self/fd/{fd}/{name}"
    finally:
        os.close(fd)


# -- binary framing (protocol v2) --------------------------------------

#: first byte of every binary frame.  A JSON frame's first byte is its
#: length's high byte — 0x00 for any frame under 16 MiB — so one peek
#: at the first byte decides the framing.
BIN_MAGIC = 0xA7

#: (magic, opcode, flags, body length)
_BIN_HEADER = struct.Struct(">BBHI")
_BIN_HEAD = _BIN_HEADER.size
#: the header followed by a traced reply's :data:`SRV_PAIR`
_BIN_HEADER_SRV = struct.Struct(">BBHIII")

# request opcodes
OP_OBSERVE = 0x01
OP_OBSERVE_PREDICT = 0x02
OP_PREDICT = 0x03
# reply opcodes
OP_REPLY_MATCHED = 0x10
OP_REPLY_PREDICT = 0x11
OP_REPLY_ERROR = 0x1F  # body: JSON {"code": ..., "error": ...}

#: binary request opcode -> the JSON op name it is equivalent to
BIN_OPS = {
    OP_OBSERVE: "observe",
    OP_OBSERVE_PREDICT: "observe_predict",
    OP_PREDICT: "predict",
}

# request flags
F_WITH_TIME = 0x01
F_REQUIRE_MATCH = 0x02
F_UNKNOWN_EVENT = 0x04  # event absent from the registry: observe_unknown
# reply flags
F_MATCHED = 0x01
F_HAS_PRED = 0x02
F_HAS_ETA = 0x04
F_HAS_SRV = 0x08

#: hot-request body: (session number, terminal id, distance)
BIN_REQ = struct.Struct(">IIH")

#: traced-reply timing prefix: (queue_us, handler_us) — the binary
#: spelling of the JSON ``srv`` pair
SRV_PAIR = struct.Struct(">II")

# prediction body: terminal (i64, -1 = None), probability (f64),
# [eta f64 when F_HAS_ETA], count (u32), then count x (terminal, weight)
_PRED_HEAD = struct.Struct(">qd")
_PRED_ETA = struct.Struct(">d")
_PRED_COUNT = struct.Struct(">I")
_PRED_ITEM = struct.Struct(">qd")

#: error codes that mean "the request was fine, the daemon just cannot
#: take it right now" — a client may retry them (against the same daemon
#: after a restart, or another one) without changing the request.
#: ``shutting_down`` is what a draining daemon answers between SIGTERM
#: and the drain deadline; the session it names dies with the daemon, so
#: retrying means reconnect + reopen + resync, not a blind resend.
RETRYABLE_CODES = frozenset({"shutting_down"})


class ProtocolError(Exception):
    """The peer sent something that is not a valid frame."""


class FrameTooLarge(ProtocolError):
    """A frame announced a length beyond the configured maximum."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (mid-frame if ``partial``)."""

    def __init__(self, message: str = "connection closed", *, partial: bool = False):
        super().__init__(message)
        self.partial = partial


def read_frame(sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME) -> dict | None:
    """Read one JSON frame; ``None`` on clean EOF before a header.

    Raises :class:`FrameTooLarge` for oversized announcements and
    :class:`ProtocolError` for bodies that are not a JSON object — or
    for a binary frame, which a JSON-only peer cannot take.
    """
    frame = read_frame_any(sock, max_frame=max_frame)
    if frame is None:
        return None
    if frame[0] != "json":
        raise ProtocolError("expected a JSON frame, got a binary one")
    return frame[1]


def _parse_json_body(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(obj).__name__}")
    return obj


def read_frame_any(
    sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple | None:
    """Read one frame of either framing; ``None`` on clean EOF.

    Returns ``("json", obj)`` for a length-prefixed JSON frame or
    ``("bin", opcode, flags, body)`` for a binary one — the first byte
    decides (see :data:`BIN_MAGIC`).  Raises the same errors as
    :func:`read_frame`.  Reads only up to the end :func:`parse_frame`
    reports, so the bytes after the frame stay in the socket.
    """
    buf = bytearray()
    end = _JSON_HEAD  # no frame is shorter than a JSON header
    while True:
        n = end - len(buf)
        chunk = sock.recv(n if n < 1 << 16 else 1 << 16)
        if not chunk:
            if not buf:
                return None
            raise ConnectionClosed(
                f"connection closed mid-frame ({len(buf)} bytes in)", partial=True
            )
        buf += chunk
        end, frame = parse_frame(buf, max_frame)
        if frame is not None:
            return frame


def parse_frame(buf: bytes | bytearray, max_frame: int = DEFAULT_MAX_FRAME) -> tuple:
    """Parse the frame at the head of ``buf``: ``(end, frame)``.

    ``frame`` has :func:`read_frame_any`'s shapes, or is ``None`` while
    the frame is incomplete; ``end`` is then how many bytes ``buf`` must
    hold for the next call to make progress — the header until it is
    in, then the whole frame.  It never reaches past the frame, so a
    reader that receives up to ``end`` leaves the next frame unread.
    Raises :class:`FrameTooLarge` once an oversized length is announced
    and :class:`ProtocolError` for a JSON body that is not an object.
    """
    n = len(buf)
    if n and buf[0] == BIN_MAGIC:
        if n < _BIN_HEAD:
            return _BIN_HEAD, None
        _magic, opcode, flags, length = _BIN_HEADER.unpack_from(buf)
        if length > max_frame:
            raise FrameTooLarge(f"frame of {length} bytes exceeds limit {max_frame}")
        end = _BIN_HEAD + length
        if n < end:
            return end, None
        return end, ("bin", opcode, flags, bytes(buf[_BIN_HEAD:end]))
    if n < _JSON_HEAD:
        return _JSON_HEAD, None
    (length,) = _HEADER.unpack_from(buf)
    if length > max_frame:
        raise FrameTooLarge(f"frame of {length} bytes exceeds limit {max_frame}")
    end = _JSON_HEAD + length
    if n < end:
        return end, None
    return end, ("json", _parse_json_body(bytes(buf[_JSON_HEAD:end])))


class FrameParser:
    """Incremental parser over a fed byte buffer, both framings.

    The event-loop daemon reads sockets non-blockingly and feeds raw
    chunks here; :meth:`next_frame` yields complete frames in arrival
    order (same return shapes as :func:`read_frame_any`) or ``None``
    when more bytes are needed.  A framing violation — oversized length
    announcement, non-JSON body — poisons the parser permanently: the
    byte stream has no recoverable resync point after a bad header, so
    every later call re-raises and the connection must be closed.
    """

    __slots__ = ("max_frame", "_buf", "_dead")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()
        self._dead: ProtocolError | None = None

    def feed(self, data: bytes) -> None:
        if data:
            self._buf += data

    def __len__(self) -> int:
        return len(self._buf)

    def next_frame(self) -> tuple | None:
        if self._dead is not None:
            raise self._dead
        buf = self._buf
        if not buf:
            return None
        try:
            end, frame = parse_frame(buf, self.max_frame)
        except ProtocolError as exc:
            self._dead = exc
            raise
        if frame is not None:
            del buf[:end]
        return frame


def encode_json_body(obj: dict, *, extra: str | None = None) -> bytes:
    """Serialize ``obj`` (+ optional pre-serialized ``extra`` splice)."""
    body = json.dumps(obj, separators=(",", ":"))
    if extra:
        body = body[:-1] + extra + "}"
    return body.encode("utf-8")


def encode_json_frame(
    obj: dict,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    extra: str | None = None,
) -> bytes:
    """A length-prefixed JSON frame as bytes.

    ``extra`` is a pre-serialized JSON fragment (``',"key":<value>'``)
    spliced in before the object's closing brace.  Hot paths use it to
    attach a per-request field (tracing ctx, reply timing) without
    paying the encoder for the nested dict — the bytes on the wire are
    identical to encoding the field normally.  The caller guarantees
    the fragment is valid JSON and ``obj`` is a non-empty dict (every
    protocol frame carries at least ``op`` or ``ok``).
    """
    encoded = encode_json_body(obj, extra=extra)
    if len(encoded) > max_frame:
        raise FrameTooLarge(f"frame of {len(encoded)} bytes exceeds limit {max_frame}")
    return _HEADER.pack(len(encoded)) + encoded


def encode_bin_frame(
    opcode: int, flags: int = 0, body: bytes = b"",
    *, max_frame: int = DEFAULT_MAX_FRAME, srv: tuple[int, int] | None = None,
) -> bytes:
    """One binary frame as bytes (header + body).

    ``srv`` — a traced reply's ``(queue_us, handler_us)`` — is prefixed
    to the body as :data:`SRV_PAIR` and flagged :data:`F_HAS_SRV`, so
    the decoder knows where the body proper starts.
    """
    n = len(body)
    if n > max_frame:
        raise FrameTooLarge(f"frame of {n} bytes exceeds limit {max_frame}")
    if srv is None:
        return _BIN_HEADER.pack(BIN_MAGIC, opcode, flags, n) + body
    queue_us, handler_us = srv
    return _BIN_HEADER_SRV.pack(
        BIN_MAGIC, opcode, flags | F_HAS_SRV, n + SRV_PAIR.size,
        queue_us if queue_us < 0xFFFFFFFF else 0xFFFFFFFF,
        handler_us if handler_us < 0xFFFFFFFF else 0xFFFFFFFF,
    ) + body


def encode_bin_error(
    code: str, message: str, *, srv: tuple[int, int] | None = None
) -> bytes:
    """An :data:`OP_REPLY_ERROR` frame (body mirrors the JSON error shape)."""
    body = encode_json_body({"code": code, "error": message})
    return encode_bin_frame(OP_REPLY_ERROR, 0, body, srv=srv)


def decode_bin_error(body: bytes, offset: int = 0) -> tuple[str, str]:
    """``(code, message)`` from an :data:`OP_REPLY_ERROR` body."""
    obj = _parse_json_body(bytes(body[offset:]))
    return str(obj.get("code", "error")), str(obj.get("error", "unknown error"))


def write_frame(
    sock: socket.socket, obj: dict, *, max_frame: int = DEFAULT_MAX_FRAME
) -> None:
    """Serialize ``obj`` and send it as one length-prefixed JSON frame."""
    sock.sendall(encode_json_frame(obj, max_frame=max_frame))


# ----------------------------------------------------------------------
# value encodings
# ----------------------------------------------------------------------


def encode_payload(payload: Hashable):
    """Event payload -> JSON value (tuples use the trace-file convention).

    Tuples become ``["__tuple__", <elements>]`` at every nesting level,
    so ``decode_payload(encode_payload(p)) == p`` holds for any payload
    built from JSON scalars and tuples — including ``()``, a literal
    ``("__tuple__",)`` and nested tuples.
    """
    if isinstance(payload, tuple):
        return ["__tuple__", *(encode_payload(item) for item in payload)]
    return payload


def decode_payload(obj) -> Hashable:
    """Inverse of :func:`encode_payload`.

    A JSON list is only valid as a sentinel-tagged tuple: payloads are
    hashable, so a *bare* list can never come from ``encode_payload``
    and is rejected instead of being guessed into a tuple (the old
    leniency made encode/decode non-inverse).  Raises
    :class:`ValueError` — a request-level error, not a framing one.
    """
    if isinstance(obj, list):
        if not obj or obj[0] != "__tuple__":
            raise ValueError(
                "ambiguous payload: bare JSON lists are not valid payloads; "
                "tuples use the ['__tuple__', ...] sentinel"
            )
        return tuple(decode_payload(item) for item in obj[1:])
    return obj


def encode_prediction(pred: Prediction | None) -> dict | None:
    """Prediction -> JSON object (``None`` stays ``None``: oracle lost)."""
    if pred is None:
        return None
    return {
        "terminal": pred.terminal,
        "probability": pred.probability,
        "eta": pred.eta,
        "distribution": [[t, w] for t, w in pred.distribution.items()],
    }


def decode_prediction(obj: dict | None) -> Prediction | None:
    """Inverse of :func:`encode_prediction`."""
    if obj is None:
        return None
    return Prediction(
        terminal=obj["terminal"],
        probability=obj["probability"],
        eta=obj.get("eta"),
        distribution={t: w for t, w in obj.get("distribution", [])},
    )


def encode_bin_prediction(pred: Prediction | None) -> tuple[int, bytes]:
    """Prediction -> ``(reply flag bits, body bytes)``.

    ``None`` (oracle lost / require_match skipped) encodes as no
    :data:`F_HAS_PRED` flag and an empty body.  Terminals are i64 with
    ``-1`` for the end-of-execution ``None``; probabilities, etas and
    distribution weights are IEEE-754 doubles, which Python floats are,
    so a decoded prediction is bit-for-bit the encoded one.
    """
    if pred is None:
        return 0, b""
    flags = F_HAS_PRED
    parts = [_PRED_HEAD.pack(
        -1 if pred.terminal is None else pred.terminal, pred.probability
    )]
    if pred.eta is not None:
        flags |= F_HAS_ETA
        parts.append(_PRED_ETA.pack(pred.eta))
    dist = pred.distribution
    parts.append(_PRED_COUNT.pack(len(dist)))
    for t, w in dist.items():
        parts.append(_PRED_ITEM.pack(-1 if t is None else t, w))
    return flags, b"".join(parts)


def decode_bin_prediction(
    flags: int, body: bytes, offset: int = 0
) -> Prediction | None:
    """Inverse of :func:`encode_bin_prediction` (reads from ``offset``)."""
    if not flags & F_HAS_PRED:
        return None
    terminal, probability = _PRED_HEAD.unpack_from(body, offset)
    offset += _PRED_HEAD.size
    eta = None
    if flags & F_HAS_ETA:
        (eta,) = _PRED_ETA.unpack_from(body, offset)
        offset += _PRED_ETA.size
    (count,) = _PRED_COUNT.unpack_from(body, offset)
    offset += _PRED_COUNT.size
    distribution: dict = {}
    for _ in range(count):
        t, w = _PRED_ITEM.unpack_from(body, offset)
        offset += _PRED_ITEM.size
        distribution[None if t == -1 else t] = w
    return Prediction(
        terminal=None if terminal == -1 else terminal,
        probability=probability,
        eta=eta,
        distribution=distribution,
    )
