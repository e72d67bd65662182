"""On-the-fly grammar reduction of event sequences (§II-A of the paper).

PYTHIA-RECORD compresses the per-thread event sequence into a context-free
grammar whose only derivable word is the trace.  The algorithm is Sequitur
[Nevill-Manning & Witten 1997] extended with *consecutive-repetition
exponents* (the extension Cyclitur introduced and the paper adopts): each
body element carries an exponent, so a loop of 100 iterations is one node
``A^100`` instead of 100 nodes.

The grammar maintains the paper's three invariants after every appended
event:

1. **Rule utility** — every non-root rule is used at least twice, counting
   a use with exponent ``e`` as ``e`` usages ("each non-terminal symbol
   represents a sequence that repeats in the trace").
2. **Digram uniqueness** — every ordered couple of adjacent symbols appears
   at most once among all rule bodies.  With exponents, two sites
   ``x^n y^m`` and ``x^p y^k`` share the couple ``(x, y)``; the shared part
   ``x^min(n,p) y^min(m,k)`` is factored into a rule and residual exponents
   stay in place — exactly the Fig. 3 behaviour (``b^5 c`` against
   ``A -> b^3 c^2`` factors ``C -> b^3 c``).
3. **Adjacent merging** — equal adjacent symbols merge exponents
   (``a^n a^m`` becomes ``a^{n+m}``), so no symbol ever neighbours itself.

The implementation appends terminals at the root's end and restores the
invariants with a local repair loop (digram check / factor / merge /
inline), which is operationally equivalent to the paper's recursive
"remove the last symbol and re-add the non-terminal" description.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.symbols import Rule, Symbol, SymbolUse, is_terminal

DigramKey = tuple

__all__ = ["Grammar", "GrammarError"]


class GrammarError(Exception):
    """Raised when an invariant check fails (a bug, or a corrupted trace)."""


class Grammar:
    """A mutable Sequitur-with-exponents grammar.

    Use :meth:`append` to feed the event sequence one terminal at a time;
    the grammar always represents exactly the sequence appended so far
    (:meth:`unfold` recovers it).
    """

    def __init__(self) -> None:
        self._next_rid = 0
        #: observability counters (monotone; rules_created counts the root
        #: and is never decremented when a rule is later inlined away)
        self.rules_created = 0
        self.exponent_merges = 0
        #: live rules indexed by id (includes the root)
        self.rules: dict[int, Rule] = {}
        self.root = self._new_rule()
        #: ordered couple of symbols -> left node of its unique occurrence
        self._digrams: dict[DigramKey, SymbolUse] = {}
        #: rules whose usage decreased and may need inlining
        self._maybe_useless: list[Rule] = []
        self._length = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of terminals appended so far (length of the trace)."""
        return self._length

    @property
    def rule_count(self) -> int:
        """Number of rules, root included (Table I's "# rules" counts these)."""
        return len(self.rules)

    def append(self, terminal: int) -> None:
        """Append one terminal event id to the represented sequence."""
        if not isinstance(terminal, int) or terminal < 0:
            raise TypeError(f"terminal event id must be a non-negative int, got {terminal!r}")
        self._length += 1
        root = self.root
        guard = root.guard
        last = guard.prev
        if last.symbol == terminal:  # never true for the guard (symbol None)
            last.exp += 1
            self.exponent_merges += 1
            return
        # _link_after(last, terminal, 1, root) without the rule bookkeeping
        node = SymbolUse(terminal, 1, last, guard, root)
        last.next = node
        guard.prev = node
        if last is not guard:
            self._check_digram(last)
        if self._maybe_useless:
            self._drain_useless()

    def extend(self, terminals: Iterable[int]) -> None:
        """Append every terminal of ``terminals`` in order."""
        for t in terminals:
            self.append(t)

    def unfold(self) -> list[int]:
        """Expand the grammar back into the full terminal sequence.

        Iterative (explicit stack) so that adversarial traces cannot hit
        Python's recursion limit.  Each stack entry ``(node, reps)`` means
        "expand ``node`` ``reps`` more times, then continue at
        ``node.next``".
        """
        out: list[int] = []
        stack: list[tuple[SymbolUse, int]] = []
        first = self.root.first
        if first is None:
            return out
        stack.append((first, first.exp))
        while stack:
            node, reps = stack.pop()
            if reps == 0:
                nxt = node.next
                if nxt.symbol is not None:
                    stack.append((nxt, nxt.exp))
                continue
            sym = node.symbol
            if is_terminal(sym):
                out.extend([sym] * reps)
                nxt = node.next
                if nxt.symbol is not None:
                    stack.append((nxt, nxt.exp))
            else:
                stack.append((node, reps - 1))  # continuation after one expansion
                body_first = sym.first
                if body_first is not None:
                    stack.append((body_first, body_first.exp))
        return out

    def dump(self, names: Callable[[int], str] | None = None) -> str:
        """Render the grammar in the paper's notation (one rule per line)."""
        names = names or str

        def sym_str(node: SymbolUse) -> str:
            s = node.symbol
            text = s.name if isinstance(s, Rule) else names(s)
            if node.exp != 1:
                text += f"^{node.exp}"
            return text

        lines = []
        for rid in sorted(self.rules):
            rule = self.rules[rid]
            body = " ".join(sym_str(n) for n in rule) or "<empty>"
            lines.append(f"{rule.name} -> {body}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # invariant checking (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`GrammarError` if any paper invariant is violated."""
        seen_digrams: dict[DigramKey, SymbolUse] = {}
        usage: dict[int, int] = {rid: 0 for rid in self.rules}
        for rule in self.rules.values():
            prev: SymbolUse | None = None
            for node in rule:
                if node.owner is not rule:
                    raise GrammarError(f"node {node!r} has wrong owner in {rule.name}")
                if node.exp < 1:
                    raise GrammarError(f"non-positive exponent on {node!r} in {rule.name}")
                sym = node.symbol
                if isinstance(sym, Rule):
                    if sym.rid not in self.rules:
                        raise GrammarError(f"{rule.name} references dead rule {sym.name}")
                    usage[sym.rid] += node.exp
                    if node not in sym.use_nodes:
                        raise GrammarError(f"use-node index misses {node!r} for {sym.name}")
                if prev is not None:
                    if prev.symbol == sym:
                        raise GrammarError(
                            f"adjacent equal symbols in {rule.name}: {prev!r} {node!r}"
                        )
                    key = (prev.symbol, sym)
                    if key in seen_digrams:
                        raise GrammarError(f"duplicate digram {key!r} in grammar")
                    seen_digrams[key] = prev
                    registered = self._digrams.get(key)
                    if registered is not prev:
                        raise GrammarError(f"digram index stale for {key!r}")
                prev = node
        for rid, count in usage.items():
            rule = self.rules[rid]
            if rule.usage != count:
                raise GrammarError(
                    f"usage counter of {rule.name} is {rule.usage}, recount says {count}"
                )
            if rid != self.root.rid and count < 2:
                raise GrammarError(f"rule {rule.name} used {count} < 2 times")
        for key, node in self._digrams.items():
            if node.owner is None:
                raise GrammarError(f"digram index holds dead node for {key!r}")
            if seen_digrams.get(key) is not node:
                raise GrammarError(f"digram index entry {key!r} points at wrong node")

    # ------------------------------------------------------------------
    # structural primitives
    # ------------------------------------------------------------------

    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rid)
        self._next_rid += 1
        self.rules_created += 1
        self.rules[rule.rid] = rule
        return rule

    # Usage bookkeeping is written out inline below: whenever a rule's
    # usage drops by a non-zero amount, the rule is pushed on
    # ``_maybe_useless`` right there, even if its usage stays >= 2.  The
    # push order decides the order :meth:`_drain_useless` inlines rules in,
    # and so the rule ids of everything built afterwards.

    def _link_after(self, after: SymbolUse, sym: Symbol, exp: int, rule: Rule) -> SymbolUse:
        """Splice a new node carrying ``sym^exp`` right after ``after``."""
        nxt = after.next
        node = SymbolUse(sym, exp, after, nxt, rule)
        after.next = node
        nxt.prev = node
        if isinstance(sym, Rule):
            sym.use_nodes.add(node)
            sym.usage += exp
        return node

    def _unlink(self, node: SymbolUse) -> None:
        """Remove ``node`` from its body; digram entries must be forgotten first."""
        prev = node.prev
        nxt = node.next
        prev.next = nxt
        nxt.prev = prev
        sym = node.symbol
        if isinstance(sym, Rule):
            sym.use_nodes.discard(node)
            exp = node.exp
            if exp:
                sym.usage -= exp
                self._maybe_useless.append(sym)
        node.owner = None
        node.prev = node.next = None

    def _forget(self, left: SymbolUse | None) -> None:
        """Drop the digram-index entry registered for ``(left, left.next)``."""
        if left is None or left.owner is None or left.symbol is None:
            return
        right = left.next
        if right is None or right.symbol is None:
            return
        key = (left.symbol, right.symbol)
        digrams = self._digrams
        if digrams.get(key) is left:
            del digrams[key]

    # ------------------------------------------------------------------
    # repair loop: digram uniqueness + merging + factoring
    # ------------------------------------------------------------------

    def _check_digram(self, left: SymbolUse | None) -> None:
        """Restore invariants for the couple starting at ``left``."""
        if left is None:
            return
        while True:
            if left.owner is None:
                return
            sym = left.symbol
            if sym is None:
                return
            right = left.next
            if right is None:
                return
            rsym = right.symbol
            if rsym is None:
                return
            if sym != rsym:
                break
            # invariant 3: merge exponents (a^n a^m -> a^{n+m}), then
            # re-check the couple ``left`` now starts
            self.exponent_merges += 1
            self._forget(left)
            self._forget(right)
            # the exponent moves from ``right`` onto ``left`` and ``right``
            # is unlinked: the rule's usage is unchanged, but it is queued
            left.exp += right.exp
            nxt = right.next
            left.next = nxt
            nxt.prev = left
            if isinstance(sym, Rule):
                sym.use_nodes.discard(right)
                self._maybe_useless.append(sym)
            right.owner = None
            right.prev = right.next = None
        key = (sym, rsym)
        digrams = self._digrams
        found = digrams.get(key)
        if found is None or found.owner is None:
            digrams[key] = left
            return
        if found is left:
            return
        fnext = found.next
        if fnext is None or fnext.symbol is None or fnext.symbol != rsym:
            # stale entry (should not happen); re-point and continue
            digrams[key] = left
            return
        self._factor(found, left)

    def _factor(self, occ1: SymbolUse, occ2: SymbolUse) -> None:
        """Factor two occurrences of the same couple into a rule (§II-A)."""
        next1 = occ1.next
        next2 = occ2.next
        x = occ1.symbol
        y = next1.symbol
        en = occ1.exp if occ1.exp <= occ2.exp else occ2.exp
        em = next1.exp if next1.exp <= next2.exp else next2.exp

        # reuse a non-root rule whose entire body is exactly x^en y^em
        root = self.root
        reuse: Rule | None = None
        for occ, nxt in ((occ1, next1), (occ2, next2)):
            rule = occ.owner
            if (
                rule is not root
                and occ.prev.symbol is None
                and nxt.next.symbol is None
                and occ.exp == en
                and nxt.exp == em
            ):
                reuse = rule
                break

        if reuse is None:
            target = self._new_rule()
            nx = self._link_after(target.guard, x, en, target)
            self._link_after(nx, y, em, target)
            self._digrams[(x, y)] = nx
            sites = (occ1, occ2)
        else:
            target = reuse
            self._digrams[(x, y)] = target.guard.next  # keep index on the body copy
            sites = [occ for occ in (occ1, occ2) if occ.owner is not target]

        recheck: list[SymbolUse] = []
        for occ in sites:
            recheck.extend(self._substitute(occ, target, en, em))
        check = self._check_digram
        for node in recheck:
            check(node)

    def _substitute(
        self, left: SymbolUse, target: Rule, en: int, em: int
    ) -> list[SymbolUse]:
        """Replace ``x^en y^em`` (inside ``x^n y^m`` at ``left``) by ``target``.

        Residual exponents ``x^{n-en}`` / ``y^{m-em}`` stay in place.
        Returns boundary nodes whose digrams must be re-checked.
        """
        right = left.next
        rule = left.owner
        assert rule is not None and right is not None
        prev = left.prev
        after = right.next
        x = left.symbol
        y = right.symbol
        # _forget(prev), _forget(left), _forget(right)
        digrams = self._digrams
        if prev.symbol is not None:
            key = (prev.symbol, x)
            if digrams.get(key) is prev:
                del digrams[key]
        key = (x, y)
        if digrams.get(key) is left:
            del digrams[key]
        if after.symbol is not None:
            key = (y, after.symbol)
            if digrams.get(key) is right:
                del digrams[key]

        # _link_after(left, target, 1, rule)
        use = SymbolUse(target, 1, left, right, rule)
        left.next = use
        right.prev = use
        target.use_nodes.add(use)
        target.usage += 1

        # take x^en off ``left`` and y^em off ``right``; a node left with
        # exponent 0 is unlinked (which moves no usage).  The boundary
        # nodes to re-check are prev, use.prev, use and use.next, in that
        # order, without guards or repeats.
        recheck = [] if prev.symbol is None else [prev]
        x_is_rule = isinstance(x, Rule)
        if x_is_rule:
            x.usage -= en
            self._maybe_useless.append(x)
        left.exp -= en
        if left.exp:
            recheck.append(left)
        else:
            prev.next = use
            use.prev = prev
            if x_is_rule:
                x.use_nodes.discard(left)
            left.owner = None
            left.prev = left.next = None
        recheck.append(use)
        y_is_rule = isinstance(y, Rule)
        if y_is_rule:
            y.usage -= em
            self._maybe_useless.append(y)
        right.exp -= em
        if right.exp:
            recheck.append(right)
        else:
            use.next = after
            after.prev = use
            if y_is_rule:
                y.use_nodes.discard(right)
            right.owner = None
            right.prev = right.next = None
            if after.symbol is not None:
                recheck.append(after)
        return recheck

    # ------------------------------------------------------------------
    # rule utility (invariant 1)
    # ------------------------------------------------------------------

    def _drain_useless(self) -> None:
        """Inline every rule whose usage dropped below 2 (paper Fig. 3f)."""
        pending = self._maybe_useless
        rules = self.rules
        root = self.root
        while pending:
            rule = pending.pop()
            if rule.usage >= 2 or rule.rid not in rules or rule is root:
                continue
            if rule.usage <= 0:
                raise GrammarError(
                    f"rule {rule.name} usage dropped to {rule.usage}; "
                    "grammar bookkeeping is corrupted"
                )
            self._inline(rule)

    def _inline(self, rule: Rule) -> None:
        """Splice the body of a once-used rule into its single use site."""
        uses = [n for n in rule.use_nodes if n.owner is not None]
        if len(uses) != 1 or uses[0].exp != 1:
            return  # defensive: only a single exp-1 use can be inlined
        use = uses[0]
        host = use.owner
        assert host is not None
        prev = use.prev
        nxt = use.next
        self._forget(prev)
        self._forget(use)
        guard = rule.guard
        first = guard.next
        last = guard.prev
        del self.rules[rule.rid]
        self._unlink(use)
        if first is guard:
            # empty body (cannot normally happen): nothing to splice
            self._check_digram(prev)
            return
        # splice the body nodes (keeping internal digram entries valid)
        node = first
        while True:
            node.owner = host
            if node is last:
                break
            node = node.next
        prev.next = first
        first.prev = prev
        last.next = nxt
        nxt.prev = last
        self._check_digram(prev)
        self._check_digram(last)
