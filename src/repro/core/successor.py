"""The compiled successor machine: memoized traversal of a frozen grammar.

A :class:`~repro.core.frozen.FrozenGrammar` never changes after
freezing, so everything :func:`~repro.core.progress.successors` computes
for a chain is a pure function of the chain — like the per-rule
summaries that let "Data Race Detection on Compressed Traces" analyse
the SLP-compressed trace directly, the grammar can be *compiled* into
lookup structures once and the steady-state step becomes a table read
or a dictionary hit.  One machine is shared per grammar
(``FrozenGrammar.machine()``), so every tracker — and, in the oracle
daemon, every concurrent session over the same trace — warms the same
cache.  The grammar owns its machine, which holds the grammar only
weakly (no reference cycle); only cold paths dereference it.

What is computed and what is cached
-----------------------------------
- **per-position step table** — per rule, per body position (filled
  lazily): the exponent, the first-terminal prefix of the position's
  next repetition and that of the next body element, each with its
  terminal.  Every step that stays in the bottom rule's body (an
  exponent bump ``it + 1 < exp`` or an in-body advance, nearly every
  step on a loop) is computed from it by
  :meth:`SuccessorMachine.deterministic_next` on every call and stored
  nowhere: a new loop iteration's chains cost one table read each, not a
  memo miss.  A step that climbs (the body ends and the step loops back
  or advances at an upper level) is one iterative loop over the same
  entries.  Both give the tuples and the 1.0 weight of
  :func:`successors_rel`, which answers every other step (an unknown
  iteration branches, a partial chain extends through its rule's uses,
  the trace ends).
- **expand memo** — chain -> ``((successor, rel_weight, terminal), ...)``,
  the weight-1.0 successor set of :func:`successors_rel` with each
  successor's terminal precomputed, for every chain :meth:`expand` is
  asked for (the simulations and multi-candidate observes re-expand the
  same chains) and every chain whose deterministic step does not stay in
  the body.  Chains are stored as given: a walk's successor is its next
  lookup key, so keys and successors share one tuple without an intern
  table.
- **deterministic-transition table** — chain -> ``(next chain,
  terminal)`` for the memoized chains whose step is deterministic and
  leaves the bottom rule's body, so a climb is computed once.
  ``deterministic_next`` expands a chain it has not seen before it reads
  this table, so its ``None`` means only that the step branches or ends
  — never that the chain was cold.
- **descend prefixes** — ``(rule, idx)`` -> first-terminal chain, shared
  by the position entries and the general traversal.
- **start chains** — per-terminal §II-B2 restart sets (mid-stream attach
  and unexpected-event resync), weighted and normalized once.

Counters: ``hits`` counts expand-memo hits and ``misses`` the chains
computed and stored (``entries`` is the memo's size).  ``det_hits``
counts the deterministic steps answered without a miss: in-body steps
computed from the position table and deterministic-table reads.

Memory is bounded: the memo is capped at ``max_entries`` (default
:data:`DEFAULT_MAX_ENTRIES`, overridable via the
``PYTHIA_SUCCESSOR_CACHE`` environment variable) and evicts its oldest
eighth in insertion order when full — a segmented-FIFO approximation of
LRU that keeps eviction O(1) amortized.  The deterministic table only
holds memo keys; the per-position, descend and start-chain tables are
bounded by the grammar's size.  Hit/miss/eviction counters are
published to the process metrics registry (``pythia_successor_*``).

Thread safety: lookups are lock-free dictionary and list reads (safe
under the GIL); the miss path re-checks and inserts under a per-machine
lock.
The hit/miss counters themselves are updated without the lock, so under
heavy cross-thread contention they are approximate — they instrument,
they do not account.
"""

from __future__ import annotations

import os
import threading
import weakref
from itertools import islice

from repro.core.frozen import FrozenGrammar, decode_rule, is_rule_sym
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
    ("pythia_successor_det_hits_total", "Deterministic steps answered without a memo miss"),
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
        self._positions: dict[int, list[tuple | None]] = {}
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

        A step that stays in the bottom rule's body (an exponent bump or
        an in-body advance) is computed from the per-position table on
        every call and stored nowhere.  Any other step is read from the
        deterministic table, a chain the machine has not expanded yet
        being expanded first (one miss).  Every step answered without a
        miss counts in ``det_hits``.  ``None`` means that the step
        branches or reaches :data:`END` — callers then fall back to
        :meth:`expand`, which also answers the rare lock-free read that
        races another thread's store of the same chain.
        """
        if not chain:
            return None
        # the level-0 case of _table_step, inlined: this is the hot path
        rid, idx, it = chain[0]
        row = self._positions.get(rid)
        if row is None or (pos := row[idx]) is None:
            pos = self._position(rid, idx)
        exp, again, nxt = pos
        if it is not None or exp == 1:
            if it is not None and it + 1 < exp:
                self.det_hits += 1
                return ((rid, idx, it + 1),) + chain[1:], again[1]
            if nxt is not None:
                self.det_hits += 1
                return nxt[0] + chain[1:], nxt[1]
        step = self._det.get(chain)
        if step is not None:
            self.det_hits += 1
            return step
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
        """Compute one cold chain's expansion and store it (one miss).

        The deterministic table gets the chain's step only if it leaves
        the bottom rule's body: :meth:`deterministic_next` computes an
        in-body step before it reads the table.
        """
        found = self._table_step(chain)
        if found is None:
            fg = self.grammar
            rel = tuple(
                (c, w, None if c is END or not c else terminal_of(fg, c))
                for c, w in successors_rel(fg, chain, descend_fn=self._descend_base)
            )
            step = _unique(rel)
        else:
            level, succ, term = found
            rel = ((succ, 1.0, term),)
            step = (succ, term) if level else None
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

    def _table_step(self, chain: Chain) -> tuple[int, Chain, int] | None:
        """``(level, successor, terminal)`` of a deterministic step, from
        the per-position table alone.

        Walks the chain bottom-up the way :func:`successors_rel` recurses:
        a level with a known iteration below its exponent repeats (an
        exponent bump at level 0, a loop back into the rule at a higher
        level), else a level with a next body element advances to it,
        else its body ends and the next level up finishes one expansion.
        ``level`` is where the step happened (0: it stays in the bottom
        rule's body).  ``None`` when a level's iteration is unknown (the
        loop may continue or exit) or the chain's top finishes (the trace
        ends, or a partial chain must be extended through its rule's
        uses) — steps the general traversal answers.  The tuples are the
        ones :func:`successors_rel` builds, at weight 1.0.
        """
        positions = self._positions
        for level, (rid, idx, it) in enumerate(chain):
            row = positions.get(rid)
            if row is None or (pos := row[idx]) is None:
                pos = self._position(rid, idx)
            exp, again, nxt = pos
            if exp > 1:
                if it is None:
                    return None
                if it + 1 < exp:
                    prefix, term = again
                    return level, prefix + ((rid, idx, it + 1),) + chain[level + 1 :], term
            if nxt is not None:
                return level, nxt[0] + chain[level + 1 :], nxt[1]
        return None

    def _position(self, rid: int, idx: int) -> tuple:
        """Per-position step entry ``(exponent, again, next)``.

        ``again`` is the first-terminal prefix below the position for its
        next repetition, with that terminal: ``()`` and the terminal
        itself at a terminal position, the first-terminal chain of the
        used rule at a rule use; ``None`` when the exponent is 1.
        ``next`` is the first-terminal prefix of ``(rid, idx + 1)`` with
        its terminal, or ``None`` at the end of the body.
        """
        fg = self.grammar
        body = fg.bodies[rid]
        sym, exp = body[idx]
        again = None
        if exp > 1:
            if is_rule_sym(sym):
                prefix = self._descend_base(decode_rule(sym), 0)
                again = (prefix, terminal_of(fg, prefix))
            else:
                again = ((), sym)
        nxt = None
        if idx + 1 < len(body):
            prefix = self._descend_base(rid, idx + 1)
            nxt = (prefix, terminal_of(fg, prefix))
        row = self._positions.get(rid)
        if row is None:
            # setdefault: racing threads share one row (and store equal entries)
            row = self._positions.setdefault(rid, [None] * len(body))
        row[idx] = pos = (exp, again, nxt)
        return pos

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
