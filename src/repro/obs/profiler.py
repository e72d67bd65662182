"""Continuous sampling profiler: where does daemon CPU actually go?

A background thread wakes at a configurable rate (``PYTHIA_PROFILE_HZ``,
default 0 = off; the daemon processes enable 19 Hz by default) and walks
``sys._current_frames()``, folding every thread's stack into a
collapsed-stack histogram::

    pythia-oracle;op:observe_predict;daemon.dispatch;... 148

Roots carry the thread name and — when the sampled thread is inside a
tagged region (:func:`tag_op`, used by the daemon dispatch loop and
``Pythia.save``) — an ``op:<name>`` frame, so a flamegraph attributes
samples to *named ops* (``observe_predict``, ``save_trace``) instead of
one opaque interpreter frame.

Output formats:

- :func:`render_collapsed` — Brendan Gregg's collapsed-stack text, one
  ``stack count`` line, loadable by any flamegraph tool;
- :func:`render_flamegraph` — a self-contained SVG flamegraph (no
  external assets, no JavaScript required to read it) built from the
  same stacks, served by ``/profile?seconds=N&format=svg`` and written
  by ``pythia-trace profile``.

Cost model: sampling is O(threads × stack depth) per tick, entirely off
the request path; :func:`tag_op` is a dict store/restore and collapses
to a shared no-op context manager while no profiler is installed, so
the daemon's per-request cost is zero until profiling is turned on.
The always-on budget (19 Hz + metrics history + 1 Hz scrape) is
enforced at <5% by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import html
import os
import sys
import threading
import time

__all__ = [
    "PROFILE_HZ_ENV",
    "SamplingProfiler",
    "disable_profiler",
    "enable_profiler",
    "get_profiler",
    "profile_window",
    "profiler_from_env",
    "render_collapsed",
    "render_flamegraph",
    "tag_op",
]

#: sampling rate for the process profiler; 0 (the default) means off.
#: 19 Hz (a prime, per the usual profiling folklore) avoids aliasing
#: against 10/100 Hz timers; daemon entry points default to it.
PROFILE_HZ_ENV = "PYTHIA_PROFILE_HZ"

DEFAULT_HZ = 19.0

#: GIL switch interval forced while a profiler runs.  An in-process
#: sampler can only observe another thread at its last GIL pause point;
#: with CPython's default 5 ms interval a handler burst shorter than
#: 5 ms is always paused at socket I/O, never mid-handler, so compute
#: would be invisible (every sample lands in ``read_frame``).  1 ms
#: makes pause points track compute bursts; the cost is bounded by the
#: <5% always-on budget in ``benchmarks/bench_obs_overhead.py``.
SWITCH_INTERVAL_S = 0.001

#: thread ident -> active op tag.  A plain dict mutated under the GIL:
#: each thread writes only its own key, the sampler only reads, and a
#: torn read at worst mis-tags one sample.
_tags: dict[int, str] = {}


class _NullTag:
    """Shared no-op for :func:`tag_op` while no profiler is installed."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TAG = _NullTag()


class _Tag:
    __slots__ = ("name", "prev", "ident")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        self.ident = threading.get_ident()
        self.prev = _tags.get(self.ident)
        _tags[self.ident] = self.name
        return self

    def __exit__(self, *exc):
        if self.prev is None:
            _tags.pop(self.ident, None)
        else:
            _tags[self.ident] = self.prev
        return False


def tag_op(name: str):
    """Tag the calling thread with an op name for the sampling window.

    Free (a shared no-op) while no profiler is installed, so it can sit
    on hot paths permanently — the daemon wraps every handler call and
    ``Pythia.save`` wraps trace serialisation.
    """
    if _profiler is None:
        return _NULL_TAG
    return _Tag(name)


def _frame_name(code) -> str:
    base = os.path.basename(code.co_filename)
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}.{code.co_name}"


class SamplingProfiler:
    """Samples every thread's stack at ``hz`` into collapsed-stack counts.

    Counts only grow; :meth:`snapshot` + :meth:`diff_since` carve out
    windows (the ``/profile?seconds=N`` endpoint takes a snapshot,
    sleeps, and diffs) without disturbing the cumulative view.
    """

    def __init__(self, hz: float = DEFAULT_HZ, *, max_stack: int = 64) -> None:
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = float(hz)
        self.max_stack = max_stack
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._started_at: float | None = None
        self._active_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev_switch: float | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        current = sys.getswitchinterval()
        if current > SWITCH_INTERVAL_S:
            self._prev_switch = current
            sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._stop.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="pythia-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None
        if self._prev_switch is not None:
            sys.setswitchinterval(self._prev_switch)
            self._prev_switch = None
        if self._started_at is not None:
            self._active_s += time.monotonic() - self._started_at
            self._started_at = None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        next_tick = time.monotonic() + interval
        while not self._stop.is_set():
            delay = next_tick - time.monotonic()
            if delay > 0:
                if self._stop.wait(delay):
                    break
            else:
                next_tick = time.monotonic()  # fell behind: don't burst
            next_tick += interval
            self.sample_once(skip={own})

    # -- sampling -------------------------------------------------------

    def sample_once(self, skip: set[int] | frozenset[int] = frozenset()) -> int:
        """Take one sample of every live thread; returns threads sampled."""
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        stacks: list[str] = []
        for ident, frame in frames.items():
            if ident in skip:
                continue
            parts: list[str] = []
            f = frame
            while f is not None and len(parts) < self.max_stack:
                parts.append(_frame_name(f.f_code))
                f = f.f_back
            parts.reverse()  # root first, leaf last
            root = [names.get(ident, f"thread-{ident}")]
            tag = _tags.get(ident)
            if tag is not None:
                root.append(f"op:{tag}")
            stacks.append(";".join(root + parts))
        with self._lock:
            for stack in stacks:
                self._counts[stack] = self._counts.get(stack, 0) + 1
            self._samples += len(stacks)
        return len(stacks)

    # -- views ----------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Copy of the cumulative ``stack -> count`` histogram."""
        with self._lock:
            return dict(self._counts)

    def diff_since(self, before: dict[str, int]) -> dict[str, int]:
        """Stacks accumulated since ``before`` (a :meth:`snapshot`)."""
        now = self.snapshot()
        out: dict[str, int] = {}
        for stack, count in now.items():
            delta = count - before.get(stack, 0)
            if delta > 0:
                out[stack] = delta
        return out

    def report(self) -> dict:
        """Summary for the ``profile_dump`` op / ``/profile`` endpoint."""
        active = self._active_s
        if self._started_at is not None:
            active += time.monotonic() - self._started_at
        with self._lock:
            samples = self._samples
            distinct = len(self._counts)
        return {
            "hz": self.hz,
            "running": self.running,
            "samples": samples,
            "distinct_stacks": distinct,
            "active_seconds": round(active, 3),
        }

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0
        self._active_s = 0.0
        if self._started_at is not None:
            self._started_at = time.monotonic()


# ----------------------------------------------------------------------
# the process-wide profiler
# ----------------------------------------------------------------------

_lock = threading.Lock()
_profiler: SamplingProfiler | None = None


def get_profiler() -> SamplingProfiler | None:
    """The process profiler, or None while profiling is off."""
    return _profiler


def enable_profiler(hz: float = DEFAULT_HZ) -> SamplingProfiler:
    """Install (or return) the process profiler and start sampling."""
    global _profiler
    with _lock:
        if _profiler is None:
            _profiler = SamplingProfiler(hz)
        _profiler.start()
        return _profiler


def disable_profiler() -> None:
    """Stop and discard the process profiler (no-op when off)."""
    global _profiler
    with _lock:
        prof, _profiler = _profiler, None
    if prof is not None:
        prof.stop()


def profiler_from_env(default_hz: float = 0.0) -> SamplingProfiler | None:
    """Honour ``PYTHIA_PROFILE_HZ`` (falling back to ``default_hz``).

    Daemon entry points (``pythia-trace serve``, the worker main) pass
    ``default_hz=19.0`` so long-lived servers profile out of the box;
    library use keeps the 0 = off default.
    """
    raw = os.environ.get(PROFILE_HZ_ENV, "").strip()
    try:
        hz = float(raw) if raw else float(default_hz)
    except ValueError:
        hz = float(default_hz)
    if hz <= 0:
        return None
    return enable_profiler(hz)


def profile_window(
    seconds: float, hz: float = DEFAULT_HZ
) -> tuple[dict[str, int], dict]:
    """Collect stacks for ``seconds`` and return ``(stacks, report)``.

    Uses the running process profiler when there is one (a snapshot
    diff — concurrent windows don't disturb each other); otherwise
    spins up a temporary profiler for the window.  Requesting ``hz``
    *above* the running profiler's rate runs a temporary booster for
    the window instead — short windows over fast handlers need denser
    sampling than the always-on 19 Hz — without touching the process
    profiler (op tags are shared module state, so boosted samples keep
    their op attribution).
    """
    prof = _profiler
    temporary = prof is None or not prof.running or (hz > 0 and hz > prof.hz)
    if temporary:
        prof = SamplingProfiler(hz)
        prof.start()
    before = prof.snapshot()
    time.sleep(max(0.0, seconds))
    stacks = prof.diff_since(before)
    if temporary:
        prof.stop()
    report = prof.report()
    report["window_seconds"] = seconds
    return stacks, report


# ----------------------------------------------------------------------
# rendering: collapsed text and a self-contained SVG flamegraph
# ----------------------------------------------------------------------


def render_collapsed(stacks: dict[str, int]) -> str:
    """Collapsed-stack text: one ``stack count`` line, sorted by stack."""
    lines = [f"{stack} {count}" for stack, count in sorted(stacks.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[str, int]:
    """Inverse of :func:`render_collapsed` (merges duplicate stacks)."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        try:
            out[stack] = out.get(stack, 0) + int(count)
        except ValueError:
            continue
    return out


def _color(name: str) -> str:
    """Deterministic warm color per frame name (flamegraph convention)."""
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) & 0xFFFFFF
    r = 205 + (h & 0x1F)  # 205..236
    g = 60 + ((h >> 5) & 0x7F)  # 60..187
    b = (h >> 12) & 0x37  # 0..55
    return f"rgb({r},{g},{b})"


def render_flamegraph(
    stacks: dict[str, int],
    *,
    title: str = "pythia flamegraph",
    width: int = 1200,
) -> str:
    """Render collapsed stacks as a self-contained SVG flamegraph.

    Static SVG, no scripts or external assets: rectangles nest by call
    depth, widths are proportional to sample counts, and every frame
    carries a ``<title>`` tooltip with its count and share — enough to
    read in any browser or embed in CI artifacts.
    """
    total = sum(stacks.values())
    # trie of frames: name -> [count, children]
    root: dict = {}

    def _insert(node: dict, frames: list[str], count: int) -> None:
        for frame in frames:
            entry = node.setdefault(frame, [0, {}])
            entry[0] += count
            node = entry[1]

    for stack, count in stacks.items():
        _insert(root, stack.split(";"), count)

    row_h = 17
    font = 12
    depth_max = 0

    rects: list[str] = []

    def _emit(node: dict, x: float, depth: int, scale: float) -> None:
        nonlocal depth_max
        depth_max = max(depth_max, depth)
        for name in sorted(node):
            count, children = node[name]
            w = count * scale
            if w < 0.25:  # sub-quarter-pixel: skip frame and subtree
                x += w
                continue
            y = depth * row_h
            pct = 100.0 * count / total if total else 0.0
            label = html.escape(name, quote=True)
            tip = f"{label} — {count} samples ({pct:.1f}%)"
            rects.append(
                f'<g><title>{tip}</title>'
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h - 1}" '
                f'fill="{_color(name)}" rx="1"/>'
            )
            if w >= font * 2.5:
                max_chars = max(1, int(w / (font * 0.62)))
                text = name if len(name) <= max_chars else name[: max_chars - 1] + "…"
                rects.append(
                    f'<text x="{x + 3:.2f}" y="{y + row_h - 5}" '
                    f'font-size="{font}" font-family="monospace">'
                    f"{html.escape(text)}</text>"
                )
            rects.append("</g>")
            _emit(children, x, depth + 1, scale)
            x += w

    scale = (width - 20) / total if total else 0.0
    _emit(root, 10.0, 0, scale)

    height = (depth_max + 3) * row_h + 30
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="100%" height="100%" fill="#fdfdfd"/>'
        f'<text x="10" y="{(depth_max + 2) * row_h + 14}" font-size="{font}" '
        f'font-family="monospace">{html.escape(title)} — {total} samples</text>'
    )
    return head + "".join(rects) + "</svg>"
