"""The compiled successor machine: memoized traversal of a frozen grammar.

A :class:`~repro.core.frozen.FrozenGrammar` never changes after
freezing, so everything :func:`~repro.core.progress.successors` computes
for a chain is a pure function of the chain — like the per-rule
summaries that let "Data Race Detection on Compressed Traces" analyse
the SLP-compressed trace directly, the grammar can be *compiled* into
lookup structures once and the steady-state step becomes a dictionary
hit.  One machine is shared per grammar (``FrozenGrammar.machine()``),
so every tracker — and, in the oracle daemon, every concurrent session
over the same trace — warms the same cache.  The grammar owns its
machine, which holds the grammar only weakly (no reference cycle); only
cold paths dereference it.

What is cached
--------------
- **expand memo** — chain -> ``((successor, rel_weight, terminal), ...)``,
  the weight-1.0 successor set of :func:`successors_rel` with each
  successor's terminal precomputed.  Chains are stored as given: a
  walk's successor is its next lookup key, so keys and successors share
  one tuple without an intern table.
- **deterministic-transition table** — the common single-successor case
  (an in-sync tracker walking a loop body) as a direct
  chain -> ``(next chain, terminal)`` dict, so the fused observe loop is
  one dictionary lookup instead of a recursive ``_advance`` walk.
  :meth:`SuccessorMachine.deterministic_next` expands a chain it has not
  seen before it reads this table, so its ``None`` means only that the
  step branches or ends — never that the chain was cold.
- **per-position step table** — ``(rule, idx)`` -> the position's
  terminal, exponent and next in-body first-terminal prefix.  A cache
  miss whose step stays in the bottom rule's body (an exponent bump or
  an in-body advance, most of them on a loop) is answered from it in
  O(1) instead of by the recursive traversal, with the same tuples and
  the same 1.0 weight.
- **descend prefixes** — ``(rule, idx)`` -> first-terminal chain, used
  while computing cache misses.
- **start chains** — per-terminal §II-B2 restart sets (mid-stream attach
  and unexpected-event resync), weighted and normalized once.

Memory is bounded: the memo is capped at ``max_entries`` (default
:data:`DEFAULT_MAX_ENTRIES`, overridable via the
``PYTHIA_SUCCESSOR_CACHE`` environment variable) and evicts its oldest
eighth in insertion order when full — a segmented-FIFO approximation of
LRU that keeps eviction O(1) amortized.  The deterministic table only
holds memo keys; the per-position, descend and start-chain tables are
bounded by the grammar's size.  Hit/miss/eviction counters are
published to the process metrics registry (``pythia_successor_*``).

Thread safety: lookups are lock-free dictionary reads (safe under the
GIL); the miss path re-checks and inserts under a per-machine lock.
The hit/miss counters themselves are updated without the lock, so under
heavy cross-thread contention they are approximate — they instrument,
they do not account.
"""

from __future__ import annotations

import os
import threading
import weakref
from itertools import islice

from repro.core.frozen import FrozenGrammar
from repro.core.progress import (
    END,
    Chain,
    descend,
    start_chains,
    successors_rel,
    terminal_of,
)
from repro.obs import metrics as obs_metrics

__all__ = ["DEFAULT_MAX_ENTRIES", "SuccessorMachine"]

#: default memo capacity (chains); ~a few hundred bytes per entry
DEFAULT_MAX_ENTRIES = 65536

#: the counter families a machine publishes, as ``(name, help)``, in the
#: order :meth:`SuccessorMachine.flush_metrics` reads their values
METRIC_FAMILIES: tuple[tuple[str, str], ...] = (
    ("pythia_successor_cache_hits_total", "Successor-machine memo hits"),
    ("pythia_successor_cache_misses_total", "Successor-machine memo misses"),
    ("pythia_successor_cache_evictions_total", "Successor-machine memo evictions"),
    ("pythia_successor_det_hits_total", "Deterministic-transition fast-path hits"),
)

#: Expansion = ((successor chain, relative weight, terminal | None), ...)
Expansion = tuple[tuple[Chain, float, int | None], ...]


def _env_max_entries() -> int:
    raw = os.environ.get("PYTHIA_SUCCESSOR_CACHE", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_ENTRIES
    return value if value >= 1 else DEFAULT_MAX_ENTRIES


def _unique(rel: Expansion) -> tuple[Chain, int] | None:
    """``(successor, terminal)`` of a single-successor expansion at weight
    1.0 that reaches a terminal (a deterministic step); otherwise None."""
    if len(rel) == 1 and rel[0][1] == 1.0 and rel[0][2] is not None:
        return rel[0][0], rel[0][2]
    return None


class SuccessorMachine:
    """Compiled, bounded-memory successor tables over one frozen grammar.

    Parameters
    ----------
    grammar:
        The immutable grammar to compile against, held weakly (the
        caller keeps it alive, as ``FrozenGrammar.machine()`` does).
    max_entries:
        Memo capacity; ``None`` reads ``PYTHIA_SUCCESSOR_CACHE`` and
        falls back to :data:`DEFAULT_MAX_ENTRIES`.
    """

    __slots__ = (
        "_grammar",
        "max_entries",
        "_memo",
        "_det",
        "_descend",
        "_positions",
        "_starts",
        "_lock",
        "hits",
        "misses",
        "evictions",
        "det_hits",
        "_published",
        "__weakref__",
    )

    def __init__(self, grammar: FrozenGrammar, *, max_entries: int | None = None) -> None:
        self._grammar = weakref.ref(grammar)
        self.max_entries = _env_max_entries() if max_entries is None else int(max_entries)
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._memo: dict[Chain, Expansion] = {}
        self._det: dict[Chain, tuple[Chain, int]] = {}
        self._descend: dict[tuple[int, int], Chain] = {}
        self._positions: dict[tuple[int, int], tuple] = {}
        self._starts: dict[int, tuple[tuple[Chain, float], ...]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.det_hits = 0
        self._published = [0] * len(METRIC_FAMILIES)

    @property
    def grammar(self) -> FrozenGrammar:
        """The compiled grammar (a weak reference; only cold paths read it)."""
        fg = self._grammar()
        if fg is None:
            raise ReferenceError("the successor machine's grammar was freed")
        return fg

    # ------------------------------------------------------------------
    # the compiled lookups
    # ------------------------------------------------------------------

    def expand(self, chain: Chain) -> Expansion:
        """Successors of ``chain`` at weight 1.0, terminals included."""
        rel = self._memo.get(chain)
        if rel is not None:
            self.hits += 1
            return rel
        return self._miss(chain)

    def deterministic_next(self, chain: Chain) -> tuple[Chain, int] | None:
        """``(next chain, its terminal)`` when the step is deterministic.

        A warm chain is one dict lookup (counted in ``det_hits``).  A
        chain this machine has not expanded yet is expanded first (one
        miss), so ``None`` means that the step branches or reaches
        :data:`END` — callers then fall back to :meth:`expand`, which also
        answers the rare lock-free read that races another thread's store
        of the same chain.
        """
        nxt = self._det.get(chain)
        if nxt is not None:
            self.det_hits += 1
            return nxt
        if chain in self._memo:
            return None
        return _unique(self._miss(chain))

    def start_chains(self, terminal: int) -> tuple[tuple[Chain, float], ...]:
        """Cached §II-B2 restart set for one observed terminal."""
        got = self._starts.get(terminal)
        if got is None:
            got = tuple(start_chains(self.grammar, terminal))
            self._starts[terminal] = got  # keyed by terminal: naturally bounded
        return got

    def descend(self, rid: int, idx: int, it: int | None = 0) -> Chain:
        """Cached :func:`repro.core.progress.descend` (prefix shared)."""
        base = self._descend_base(rid, idx)
        if it == 0:
            return base
        return base[:-1] + ((rid, idx, it),)

    def _descend_base(self, rid: int, idx: int) -> Chain:
        base = self._descend.get((rid, idx))
        if base is None:
            # setdefault: racing threads agree on one shared tuple
            base = self._descend.setdefault((rid, idx), descend(self.grammar, rid, idx))
        return base

    def _miss(self, chain: Chain) -> Expansion:
        """Compute one cold chain's expansion and store it (one miss)."""
        step = self._level0(chain) if chain else None
        if step is None:
            fg = self.grammar
            rel = tuple(
                (c, w, None if c is END or not c else terminal_of(fg, c))
                for c, w in successors_rel(fg, chain, descend_fn=self._descend_base)
            )
            step = _unique(rel)
        else:
            rel = ((step[0], 1.0, step[1]),)
        with self._lock:
            self.misses += 1
            cached = self._memo.get(chain)
            if cached is not None:
                return cached
            if len(self._memo) >= self.max_entries:
                self._evict_locked()
            self._memo[chain] = rel
            if step is not None:
                self._det[chain] = step
        return rel

    def _level0(self, chain: Chain) -> tuple[Chain, int] | None:
        """The unique successor of a step that stays in ``chain[0]``'s body.

        Answers the two cases :func:`successors_rel` resolves at level 0
        from the per-position table: an exponent bump (``it + 1 < exp``)
        and an in-body advance (the cached first-terminal prefix of the
        next body element).  ``None`` for every other step — an unknown
        iteration (branches) or the end of the body (climbs a level) —
        which the general traversal answers.
        """
        rid, idx, it = chain[0]
        pos = self._positions.get((rid, idx))
        if pos is None:
            pos = self._position(rid, idx)
        term, exp, nxt = pos
        if exp > 1:
            if it is None:
                return None
            if it + 1 < exp:
                return ((rid, idx, it + 1),) + chain[1:], term
        if nxt is None:
            return None
        return nxt[0] + chain[1:], nxt[1]

    def _position(self, rid: int, idx: int) -> tuple:
        """Per-position step entry of a terminal position (a chain bottom):
        ``(terminal, exponent, next)``, where ``next`` is the first-terminal
        prefix of ``(rid, idx + 1)`` with its terminal, or ``None`` at the
        end of the body."""
        fg = self.grammar
        term, exp = fg.bodies[rid][idx]
        nxt = None
        if idx + 1 < fg.body_len(rid):
            prefix = self._descend_base(rid, idx + 1)
            nxt = (prefix, terminal_of(fg, prefix))
        # setdefault: racing threads agree on one entry
        return self._positions.setdefault((rid, idx), (term, exp, nxt))

    def _evict_locked(self) -> None:
        """Drop the oldest eighth of the memo (insertion order). Lock held."""
        drop = max(1, self.max_entries // 8)
        for key in list(islice(iter(self._memo), drop)):
            del self._memo[key]
            self._det.pop(key, None)
        self.evictions += drop

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Cache counters (for benchmarks and the metrics registry)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._memo),
            "max_entries": self.max_entries,
            "det_entries": len(self._det),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "det_hits": self.det_hits,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def flush_metrics(self) -> None:
        """Publish counter deltas and size gauges to the process registry.

        Idempotent (:func:`~repro.obs.metrics.publish_deltas` under the
        machine's lock), so every tracker sharing this machine may call it.
        """
        reg = obs_metrics.get_registry()
        if not reg.enabled:
            return
        with self._lock:
            obs_metrics.publish_deltas(
                reg, METRIC_FAMILIES,
                (self.hits, self.misses, self.evictions, self.det_hits),
                self._published,
            )
            entries = len(self._memo)
        reg.gauge(
            "pythia_successor_cache_entries", help="Memoized successor expansions"
        ).set(entries)
