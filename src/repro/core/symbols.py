"""Symbol model for the PYTHIA grammar.

A grammar symbol is either a *terminal* — represented by a plain ``int``
event id (see :class:`repro.core.events.EventRegistry`) — or a
*non-terminal* — represented by a :class:`Rule` object whose body is a
sequence of :class:`SymbolUse` nodes.

Rule bodies are circular doubly-linked lists around a *guard* node, the
classic Sequitur layout: splicing a node in or out is O(1), which the
on-line reduction algorithm of §II-A relies on.  Every body node carries a
repetition exponent (the paper's ``a^n`` notation): ``SymbolUse(a, 3)``
stands for ``aaa``.
"""

from __future__ import annotations

from typing import Iterator, Union

Symbol = Union[int, "Rule"]
"""A terminal (non-negative ``int``) or a non-terminal (:class:`Rule`)."""


def is_terminal(sym: Symbol) -> bool:
    """True if ``sym`` is a terminal event id."""
    return isinstance(sym, int)


class SymbolUse:
    """One element of a rule body: a symbol plus a repetition exponent.

    ``owner`` is the rule whose body contains this node, or ``None`` once
    the node has been unlinked (unlinked nodes are inert; algorithms use
    ``owner is None`` as a liveness test).
    """

    __slots__ = ("symbol", "exp", "prev", "next", "owner")

    def __init__(
        self,
        symbol: Symbol | None,
        exp: int = 1,
        prev: SymbolUse | None = None,
        next: SymbolUse | None = None,
        owner: Rule | None = None,
    ) -> None:
        self.symbol = symbol
        self.exp = exp
        self.prev = prev
        self.next = next
        self.owner = owner

    def is_guard(self) -> bool:
        """True for the sentinel node that closes a rule body's circle."""
        return self.symbol is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_guard():
            return "<guard>"
        name = self.symbol.name if isinstance(self.symbol, Rule) else str(self.symbol)
        return f"<{name}^{self.exp}>" if self.exp != 1 else f"<{name}>"


class Rule:
    """A non-terminal symbol and the body it expands to.

    ``usage`` is the paper's invariant-1 counter: the sum of the exponents
    of every :class:`SymbolUse` whose symbol is this rule.  A use with
    exponent ``e`` counts as ``e`` usages because it expands the rule ``e``
    times (this is what keeps the worked example of Fig. 3 consistent:
    ``B^2`` at the root counts as two usages of ``B``).
    """

    __slots__ = ("rid", "guard", "usage", "use_nodes")

    def __init__(self, rid: int) -> None:
        self.rid = rid
        guard = SymbolUse(None, 0)
        guard.prev = guard
        guard.next = guard
        guard.owner = self
        self.guard = guard
        self.usage = 0
        self.use_nodes: set[SymbolUse] = set()

    # -- structure --------------------------------------------------------

    @property
    def first(self) -> SymbolUse | None:
        """First body node, or ``None`` for an empty body."""
        node = self.guard.next
        return None if node is self.guard else node

    @property
    def last(self) -> SymbolUse | None:
        """Last body node, or ``None`` for an empty body."""
        node = self.guard.prev
        return None if node is self.guard else node

    def __iter__(self) -> Iterator[SymbolUse]:
        node = self.guard.next
        while node is not self.guard:
            nxt = node.next  # tolerate unlinking during iteration
            yield node
            node = nxt

    def __len__(self) -> int:
        return sum(1 for _ in self)

    @property
    def name(self) -> str:
        """Display name: ``R`` for the root (rule id 0), ``R<n>`` otherwise."""
        return "R" if self.rid == 0 else f"R{self.rid}"

    def body(self) -> list[tuple[Symbol, int]]:
        """Body as a list of ``(symbol, exponent)`` pairs (for tests/dumps)."""
        return [(n.symbol, n.exp) for n in self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({self.name}, {self.body()!r})"
