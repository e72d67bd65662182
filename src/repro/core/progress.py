"""Progress sequences: locating and advancing positions in the grammar.

A *progress sequence* (§II-B, Fig. 4) denotes one occurrence of a terminal
in the trace by the path from the terminal occurrence up towards the root
of the grammar.  We represent it as a tuple of steps, **bottom-first**:

``step = (rule id, body index, iteration)``

- ``chain[0]`` points at a terminal: ``bodies[rid][idx]`` is a terminal.
- ``chain[k+1]`` is the use site of ``chain[k]``'s rule:
  ``bodies[chain[k+1].rid][chain[k+1].idx]`` references rule
  ``chain[k].rid``.
- ``iteration`` is the 0-based repetition counter of that use (symbol uses
  carry exponents); ``None`` means *unknown* — the tracker attached
  mid-stream and cannot know which loop iteration the application is in.

A chain whose top step lives in the root rule is *complete*: it denotes a
single occurrence in the trace.  A shorter chain is *partial* (the paper's
"progress sequences containing only the terminal", §II-B2): it stands for
every occurrence compatible with its suffix, and it gets extended lazily
when the tracker needs to know what comes after the top rule — weighting
each possible use site by its occurrence count (§II-C).

:func:`successors` is the depth-first traversal of Fig. 5 generalised to
sets: it returns every possible next position with relative weights, with
:data:`END` marking the end of the reference trace.

The traversal is split in two layers so it can be memoized: the grammar
is immutable after freezing, so the successor set of a chain at weight
1.0 (:func:`successors_rel`) is a pure function of the chain —
:class:`~repro.core.successor.SuccessorMachine` caches exactly that, and
:func:`successors` scales the relative result by the caller's weight.
Cached and uncached paths therefore perform the *same* float
multiplications and produce byte-identical weights.
"""

from __future__ import annotations

from typing import Callable

from repro.core.frozen import ROOT, FrozenGrammar, decode_rule, is_rule_sym

Step = tuple[int, int, int | None]
Chain = tuple[Step, ...]

END: Chain = ()
"""Sentinel chain: the reference execution ends here."""


def terminal_of(fg: FrozenGrammar, chain: Chain) -> int | None:
    """The terminal event id a chain points at (``None`` for :data:`END`)."""
    if chain is END or not chain:
        return None
    rid, idx, _it = chain[0]
    sym, _exp = fg.bodies[rid][idx]
    if is_rule_sym(sym):
        raise ValueError("chain bottom does not point at a terminal")
    return sym


def descend(fg: FrozenGrammar, rid: int, idx: int, it: int | None = 0) -> Chain:
    """Chain from position ``(rid, idx)`` down to its first terminal.

    Newly entered levels start at iteration 0; the top step carries ``it``.
    """
    steps_top_down: list[Step] = []
    r, j = rid, idx
    top = True
    while True:
        sym, _exp = fg.bodies[r][j]
        steps_top_down.append((r, j, it if top else 0))
        top = False
        if not is_rule_sym(sym):
            break
        r = decode_rule(sym)
        if not fg.bodies[r]:
            raise ValueError(f"rule {r} has an empty body")
        j = 0
    return tuple(reversed(steps_top_down))


def start_chains(fg: FrozenGrammar, terminal: int) -> list[tuple[Chain, float]]:
    """All partial chains for one observed terminal, occurrence-weighted.

    This is the §II-B2 restart: when attaching mid-stream (or after an
    unexpected event) the tracker seeds one single-step chain per
    occurrence of the terminal, weighted by how often that occurrence
    appears in the reference trace.
    """
    positions = fg.terminal_positions.get(terminal, ())
    if not positions:
        return []
    weights = [fg.position_occurrences(rid, idx) for rid, idx in positions]
    total = float(sum(weights))
    out: list[tuple[Chain, float]] = []
    for (rid, idx), w in zip(positions, weights):
        _sym, exp = fg.bodies[rid][idx]
        it: int | None = 0 if exp == 1 else None
        out.append((((rid, idx, it),), w / total))
    return out


def initial_chain(fg: FrozenGrammar) -> Chain:
    """The complete chain pointing at the very first terminal of the trace."""
    if not fg.bodies[ROOT]:
        return END
    return descend(fg, ROOT, 0)


def successors_rel(
    fg: FrozenGrammar,
    chain: Chain,
    *,
    descend_fn: Callable[[int, int], Chain] | None = None,
) -> tuple[tuple[Chain, float], ...]:
    """:func:`successors` at weight 1.0 — the memoizable form.

    A pure function of ``(fg, chain)``: the relative weights sum to 1.0
    and callers (or a :class:`~repro.core.successor.SuccessorMachine`
    cache) scale them by the actual candidate weight.  ``descend_fn``
    optionally replaces the ``descend(fg, rid, idx)`` calls with a cached
    equivalent; it must return exactly what :func:`descend` returns.
    """
    if chain is END or not chain:
        return ((END, 1.0),)
    out: list[tuple[Chain, float]] = []
    rid, idx, it = chain[0]
    _sym, exp = fg.bodies[rid][idx]
    w = 1.0
    if exp > 1:
        if it is not None:
            if it + 1 < exp:
                return ((((rid, idx, it + 1),) + chain[1:], 1.0),)
        else:
            # unknown repetition of the terminal itself: may repeat...
            out.append((chain, w * (exp - 1) / exp))
            w = w / exp  # ...or move on with the rest of the weight
    if descend_fn is None:
        descend_fn = lambda r, j: descend(fg, r, j)  # noqa: E731
    _advance(fg, chain, 0, w, out, descend_fn)
    return tuple(out)


def successors(
    fg: FrozenGrammar, chain: Chain, weight: float = 1.0
) -> list[tuple[Chain, float]]:
    """Every possible next-terminal chain, with relative weights.

    Weights sum to ``weight``.  Branches appear when an iteration counter
    is unknown (loop may continue or exit — weighted ``(e-1)/e`` against
    ``1/e`` for a use with exponent ``e``) or when a partial chain must be
    extended through several possible use sites (occurrence-weighted).
    :data:`END` is returned when the reference trace may end here.
    """
    rel = successors_rel(fg, chain)
    if weight == 1.0:
        return list(rel)
    return [(c, w * weight) for c, w in rel]


def _advance(
    fg: FrozenGrammar,
    chain: Chain,
    level: int,
    w: float,
    out: list[tuple[Chain, float]],
    descend_fn: Callable[[int, int], Chain],
) -> None:
    """The symbol at ``chain[level]`` finished one expansion; emit successors."""
    if w <= 0.0:
        return
    rid, idx, it = chain[level]
    sym, exp = fg.bodies[rid][idx]
    if level > 0 and exp > 1:
        # a rule use with several repetitions: loop back or move on
        child = decode_rule(sym)
        if it is not None:
            if it + 1 < exp:
                out.append((descend_fn(child, 0) + ((rid, idx, it + 1),) + chain[level + 1 :], w))
                return
        else:
            out.append(
                (descend_fn(child, 0) + ((rid, idx, None),) + chain[level + 1 :], w * (exp - 1) / exp)
            )
            w = w / exp
    if idx + 1 < fg.body_len(rid):
        out.append((descend_fn(rid, idx + 1) + chain[level + 1 :], w))
        return
    if level + 1 < len(chain):
        _advance(fg, chain, level + 1, w, out, descend_fn)
        return
    # the chain top finished: either the trace ends, or the chain is
    # partial and must be extended through the uses of rule `rid`
    if rid == ROOT:
        out.append((END, w))
        return
    uses = fg.uses[rid]
    if not uses:
        out.append((END, w))
        return
    weights = [fg.position_occurrences(host, hidx) for host, hidx in uses]
    total = float(sum(weights))
    for (host, hidx), uw in zip(uses, weights):
        extended = chain[: level + 1] + ((host, hidx, None),)
        _advance(fg, extended, level + 1, w * uw / total, out, descend_fn)


def advance_exact(fg: FrozenGrammar, chain: Chain) -> Chain:
    """Deterministic advance for a complete chain with known iterations.

    Starting from :func:`initial_chain`, repeated calls walk the whole
    reference trace; keyed with :func:`suffix_key`, that walk defines what
    the one-pass :meth:`~repro.core.timing.TimingTable.from_replay` must
    reproduce (§II-C).  Raises if the chain is ambiguous (mid-stream
    chains are).
    """
    succ = successors(fg, chain)
    if len(succ) != 1:
        raise ValueError(f"chain {chain!r} is ambiguous: {len(succ)} successors")
    return succ[0][0]


def suffix_key(chain: Chain, depth: int | None = None) -> tuple[tuple[int, int], ...]:
    """Iteration-free key of the bottom ``depth`` steps (timing-table key)."""
    steps = chain if depth is None else chain[:depth]
    return tuple((rid, idx) for rid, idx, _it in steps)


def chain_is_complete(chain: Chain) -> bool:
    """True if the chain reaches the root rule."""
    return bool(chain) and chain[-1][0] == ROOT
