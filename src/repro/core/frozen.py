"""Immutable grammar snapshot used by PYTHIA-PREDICT.

After PYTHIA-RECORD finishes, the mutable linked-list grammar is *frozen*
into flat tuples: rule bodies become ``((symbol, exponent), ...)`` arrays,
symbols are encoded as plain ints (terminals ``>= 0``, rule references
``< 0``), and the structures prediction needs — occurrence counts, the
use-sites of every rule, the positions of every terminal — are
precomputed.  This is what gets written to the trace file and reloaded on
subsequent executions (§II-B: "it is the grammar that is loaded in memory
and used, without the trace being reconstructed").

Two serializations exist: the portable JSON form (:meth:`FrozenGrammar.
to_obj` / :meth:`from_obj`, re-deriving the indexes on load) and the
compiled binary artifact (:mod:`repro.core.mmap_grammar`), which stores
every derived table verbatim so worker processes can ``mmap`` one shared
read-only copy and adopt the tables via :meth:`FrozenGrammar.from_tables`
without parsing or re-deriving anything.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.grammar import Grammar, GrammarError
from repro.core.symbols import Rule

ROOT = 0
"""Rule id of the root (the first rule a :class:`Grammar` allocates)."""


def encode_rule(rid: int) -> int:
    """Encode rule id ``rid`` as a negative symbol."""
    return -(rid + 1)


def decode_rule(sym: int) -> int:
    """Inverse of :func:`encode_rule` (requires ``sym < 0``)."""
    return -sym - 1


def is_rule_sym(sym: int) -> bool:
    """True if the encoded symbol references a rule."""
    return sym < 0


class FrozenGrammar:
    """Read-only grammar with precomputed prediction indexes.

    Attributes
    ----------
    bodies:
        ``{rule id: ((symbol, exponent), ...)}``; symbol ``>= 0`` is a
        terminal event id, ``< 0`` encodes a rule reference
        (see :func:`encode_rule`).
    occ:
        ``{rule id: times the rule is expanded in the full trace}`` — the
        recursive occurrence count §II-C uses as probability estimate.
    uses:
        ``{rule id: ((host rule id, body index), ...)}`` — every use site.
    terminal_positions:
        ``{terminal: ((rule id, body index), ...)}`` — every occurrence.
    """

    __slots__ = (
        "bodies", "occ", "uses", "terminal_positions", "trace_len", "_machine", "__weakref__"
    )

    def __init__(self, bodies: Mapping[int, tuple[tuple[int, int], ...]]) -> None:
        if ROOT not in bodies:
            raise GrammarError("frozen grammar must contain the root rule (id 0)")
        self.bodies: dict[int, tuple[tuple[int, int], ...]] = {
            int(rid): tuple((int(s), int(e)) for s, e in body)
            for rid, body in bodies.items()
        }
        self._validate()
        self.uses = self._build_uses()
        self.occ = self._build_occ()
        self.terminal_positions = self._build_terminal_positions()
        self.trace_len = sum(
            self.occ[rid] * e
            for rid, body in self.bodies.items()
            for s, e in body
            if not is_rule_sym(s)
        )
        self._machine = None

    # ------------------------------------------------------------------

    @classmethod
    def from_grammar(cls, grammar: Grammar) -> "FrozenGrammar":
        """Freeze a mutable :class:`~repro.core.grammar.Grammar`."""
        bodies: dict[int, tuple[tuple[int, int], ...]] = {}
        for rule in grammar.rules.values():
            body = tuple(
                (
                    encode_rule(n.symbol.rid) if isinstance(n.symbol, Rule) else n.symbol,
                    n.exp,
                )
                for n in rule
            )
            bodies[rule.rid] = body
        return cls(bodies)

    def _validate(self) -> None:
        for rid, body in self.bodies.items():
            for sym, exp in body:
                if exp < 1:
                    raise GrammarError(f"rule {rid} has non-positive exponent {exp}")
                if is_rule_sym(sym) and decode_rule(sym) not in self.bodies:
                    raise GrammarError(
                        f"rule {rid} references missing rule {decode_rule(sym)}"
                    )

    def _build_uses(self) -> dict[int, tuple[tuple[int, int], ...]]:
        uses: dict[int, list[tuple[int, int]]] = {rid: [] for rid in self.bodies}
        for rid, body in self.bodies.items():
            for idx, (sym, _exp) in enumerate(body):
                if is_rule_sym(sym):
                    uses[decode_rule(sym)].append((rid, idx))
        return {rid: tuple(v) for rid, v in uses.items()}

    def _build_occ(self) -> dict[int, int]:
        # Worklist topological pass (no recursion: deep grammars used to
        # hit Python's recursion limit here).  A rule's count is known
        # once every one of its use sites lives in a resolved host; the
        # root is 1 by definition, unused rules are 0, and rules left
        # unresolved when the worklist drains sit on a cycle.
        occ: dict[int, int] = {ROOT: 1}
        remaining = {rid: len(self.uses[rid]) for rid in self.bodies if rid != ROOT}
        ready = [ROOT]
        for rid, uses_left in remaining.items():
            if uses_left == 0:
                occ[rid] = 0
                ready.append(rid)
        while ready:
            host = ready.pop()
            for sym, _exp in self.bodies[host]:
                if not is_rule_sym(sym):
                    continue
                rid = decode_rule(sym)
                if rid == ROOT:
                    continue
                remaining[rid] -= 1
                if remaining[rid] == 0:
                    total = 0
                    for h, idx in self.uses[rid]:
                        total += occ[h] * self.bodies[h][idx][1]
                    occ[rid] = total
                    ready.append(rid)
        if len(occ) != len(self.bodies):
            stuck = min(rid for rid in self.bodies if rid not in occ)
            raise GrammarError(f"rule cycle detected at rule {stuck}")
        return occ

    def _build_terminal_positions(self) -> dict[int, tuple[tuple[int, int], ...]]:
        pos: dict[int, list[tuple[int, int]]] = {}
        for rid, body in self.bodies.items():
            for idx, (sym, _exp) in enumerate(body):
                if not is_rule_sym(sym):
                    pos.setdefault(sym, []).append((rid, idx))
        return {t: tuple(v) for t, v in pos.items()}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def rule_count(self) -> int:
        """Number of rules, root included (Table I's "# rules")."""
        return len(self.bodies)

    def machine(self):
        """The shared compiled successor machine for this grammar.

        Created lazily; every tracker over this grammar (and, in the
        daemon, every session over the same trace bundle) shares one
        machine so they warm one cache.  The machine refers back to this
        grammar weakly, so the two form no reference cycle.  A creation
        race can build two machines, of which the last assigned wins —
        both are correct, one just wastes a little warm-up.
        """
        m = self._machine
        if m is None:
            from repro.core.successor import SuccessorMachine

            m = SuccessorMachine(self)
            self._machine = m
        return m

    def body_len(self, rid: int) -> int:
        """Number of body elements of rule ``rid``."""
        return len(self.bodies[rid])

    def position_occurrences(self, rid: int, idx: int) -> int:
        """How many times the use at ``(rid, idx)`` expands in the trace."""
        return self.occ[rid] * self.bodies[rid][idx][1]

    def terminals(self) -> Iterator[int]:
        """Iterate over the distinct terminals appearing in the grammar."""
        return iter(self.terminal_positions)

    def unfold(self) -> list[int]:
        """Expand back into the full terminal sequence (tests / timing replay)."""
        out: list[int] = []
        root_body = self.bodies[ROOT]
        if not root_body:
            return out
        # Each frame (rid, idx, reps) means: expand position (rid, idx)
        # `reps` more times, then continue at (rid, idx + 1).
        stack: list[tuple[int, int, int]] = [(ROOT, 0, root_body[0][1])]
        while stack:
            rid, idx, reps = stack.pop()
            body = self.bodies[rid]
            if reps == 0:
                if idx + 1 < len(body):
                    stack.append((rid, idx + 1, body[idx + 1][1]))
                continue
            sym, _exp = body[idx]
            if not is_rule_sym(sym):
                out.extend([sym] * reps)
                if idx + 1 < len(body):
                    stack.append((rid, idx + 1, body[idx + 1][1]))
            else:
                stack.append((rid, idx, reps - 1))
                child = decode_rule(sym)
                child_body = self.bodies[child]
                if child_body:
                    stack.append((child, 0, child_body[0][1]))
        return out

    def dump(self, names=None) -> str:
        """Render in the paper's notation (mirrors :meth:`Grammar.dump`)."""
        names = names or str
        lines = []
        for rid in sorted(self.bodies):
            parts = []
            for sym, exp in self.bodies[rid]:
                text = f"R{decode_rule(sym)}" if is_rule_sym(sym) else names(sym)
                if is_rule_sym(sym) and decode_rule(sym) == ROOT:
                    text = "R"
                if exp != 1:
                    text += f"^{exp}"
                parts.append(text)
            rule_name = "R" if rid == ROOT else f"R{rid}"
            lines.append(f"{rule_name} -> {' '.join(parts) or '<empty>'}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_obj(self) -> dict:
        """JSON-compatible representation."""
        return {
            "bodies": {str(rid): [[s, e] for s, e in body] for rid, body in self.bodies.items()}
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "FrozenGrammar":
        """Inverse of :meth:`to_obj`."""
        return cls({int(rid): tuple((s, e) for s, e in body) for rid, body in obj["bodies"].items()})

    @classmethod
    def from_tables(cls, *, bodies, occ, uses, terminal_positions, trace_len):
        """Adopt precomputed tables without validating or re-deriving.

        The compiled-artifact loader (:mod:`repro.core.mmap_grammar`)
        persists every derived index at compile time; this constructor
        trusts them verbatim, so loading skips ``_validate`` and the
        ``uses``/``occ``/``terminal_positions`` builds entirely.  The
        tables only need the read-side :class:`~typing.Mapping`
        interface — lazily-decoding views are fine.
        """
        self = object.__new__(cls)
        self.bodies = bodies
        self.occ = occ
        self.uses = uses
        self.terminal_positions = terminal_positions
        self.trace_len = trace_len
        self._machine = None
        return self
