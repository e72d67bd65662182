"""Grammar and trace analytics.

Post-hoc inspection utilities used by the CLI, the experiments and the
test suite: compression metrics (Table I's "# rules" is one of them),
structural statistics (depth, fan-out, loop structure) and a
per-terminal histogram.  These are diagnostics — nothing here is on the
recording hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.frozen import ROOT, FrozenGrammar, decode_rule, is_rule_sym

__all__ = ["GrammarStats", "analyze", "loop_structure", "terminal_histogram"]


@dataclass(frozen=True, slots=True)
class GrammarStats:
    """Summary statistics of one frozen grammar."""

    trace_len: int
    rule_count: int
    symbol_uses: int          # total body elements across all rules
    distinct_terminals: int
    max_exponent: int
    depth: int                # longest rule-nesting chain
    compression_ratio: float  # trace_len / symbol_uses

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.trace_len:,} events -> {self.rule_count} rules / "
            f"{self.symbol_uses} symbol uses "
            f"(x{self.compression_ratio:,.1f} compression, depth {self.depth}, "
            f"max repeat {self.max_exponent})"
        )


def analyze(fg: FrozenGrammar) -> GrammarStats:
    """Compute :class:`GrammarStats` for a frozen grammar."""
    symbol_uses = sum(len(body) for body in fg.bodies.values())
    max_exp = max(
        (exp for body in fg.bodies.values() for _sym, exp in body), default=0
    )
    return GrammarStats(
        trace_len=fg.trace_len,
        rule_count=fg.rule_count,
        symbol_uses=symbol_uses,
        distinct_terminals=len(fg.terminal_positions),
        max_exponent=max_exp,
        depth=_depth(fg),
        compression_ratio=(fg.trace_len / symbol_uses) if symbol_uses else 1.0,
    )


def _depth(fg: FrozenGrammar) -> int:
    """Longest nesting chain from the root down to a terminal."""
    memo: dict[int, int] = {}

    def rule_depth(rid: int) -> int:
        if rid in memo:
            return memo[rid]
        memo[rid] = 0  # break (impossible) cycles defensively
        best = 1
        for sym, _exp in fg.bodies[rid]:
            if is_rule_sym(sym):
                best = max(best, 1 + rule_depth(decode_rule(sym)))
        memo[rid] = best
        return best

    return rule_depth(ROOT) if fg.bodies[ROOT] else 0


def loop_structure(fg: FrozenGrammar, min_reps: int = 2) -> list[tuple[int, int, int]]:
    """The grammar's loops: ``(rule id, body index, repetitions)`` for
    every use with an exponent of at least ``min_reps``, sorted by
    decreasing repetition count.

    This is the view a runtime system would use to find an
    application's main loop (BT's ``A^200`` tops the list).
    """
    loops = [
        (rid, idx, exp)
        for rid, body in fg.bodies.items()
        for idx, (_sym, exp) in enumerate(body)
        if exp >= min_reps
    ]
    loops.sort(key=lambda t: -t[2])
    return loops


def terminal_histogram(fg: FrozenGrammar) -> dict[int, int]:
    """Occurrences of every terminal in the full trace (without unfolding)."""
    return {
        t: sum(fg.position_occurrences(rid, idx) for rid, idx in positions)
        for t, positions in fg.terminal_positions.items()
    }
