"""Unit tests for the on-line grammar reduction (§II-A).

The worked examples of the paper (Figs 1–3) are encoded as exact test
cases; the rest covers the three invariants, exponent merging, rule reuse
and inlining, and structural edge cases.
"""

from __future__ import annotations

import pytest

from repro.core.grammar import Grammar, GrammarError
from repro.core.symbols import Rule
from tests.conftest import A, B, C, D, NAMES, build_grammar


def bodies_by_shape(g: Grammar) -> set[tuple]:
    """Rule bodies as shape tuples (symbol names erased for rules)."""
    out = set()
    for rule in g.rules.values():
        body = tuple(
            ("NT", n.exp) if isinstance(n.symbol, Rule) else (n.symbol, n.exp) for n in rule
        )
        out.add(body)
    return out


class TestAppendBasics:
    def test_empty_grammar(self):
        g = Grammar()
        assert len(g) == 0
        assert g.unfold() == []
        assert g.rule_count == 1  # just the root
        g.check_invariants()

    def test_single_event(self):
        g = build_grammar([A])
        assert g.unfold() == [A]
        assert g.root.body() == [(A, 1)]

    def test_repetition_merges_into_exponent(self):
        g = build_grammar([A, A, A, A])
        assert g.root.body() == [(A, 4)]
        assert g.unfold() == [A] * 4

    def test_two_distinct_events(self):
        g = build_grammar([A, B])
        assert g.root.body() == [(A, 1), (B, 1)]

    def test_rejects_negative_terminal(self):
        g = Grammar()
        with pytest.raises(TypeError):
            g.append(-1)

    def test_rejects_non_int(self):
        g = Grammar()
        with pytest.raises(TypeError):
            g.append("a")  # type: ignore[arg-type]

    def test_len_counts_terminals(self):
        seq = [A, B, A, B, A, A, A]
        g = build_grammar(seq)
        assert len(g) == len(seq)


class TestPaperFig1:
    """Fig 1: trace ``abbcbcab`` reduces to R -> A B^2 A, A -> ab, B -> bc."""

    def test_unfold_roundtrip(self, fig1_grammar, fig1_sequence):
        assert fig1_grammar.unfold() == fig1_sequence

    def test_rule_count(self, fig1_grammar):
        # root + two rules, as in the paper's figure
        assert fig1_grammar.rule_count == 3

    def test_grammar_shape(self, fig1_grammar):
        shapes = bodies_by_shape(fig1_grammar)
        assert ((A, 1), (B, 1)) in shapes  # A -> ab
        assert ((B, 1), (C, 1)) in shapes  # B -> bc
        # root: A B^2 A i.e. NT NT^2 NT
        assert (("NT", 1), ("NT", 2), ("NT", 1)) in shapes

    def test_invariants(self, fig1_grammar):
        fig1_grammar.check_invariants()


class TestPaperFig2:
    """Fig 2: a loop alternating two events reduces to R -> A^50, A -> ab."""

    def test_loop_structure(self):
        g = build_grammar([A, B] * 50)
        assert g.rule_count == 2
        assert g.root.body() == [(g.rules[1], 50)] or len(g.root.body()) == 1
        (sym, exp), = g.root.body()
        assert isinstance(sym, Rule) and exp == 50
        assert sym.body() == [(A, 1), (B, 1)]

    def test_unfold(self):
        seq = [A, B] * 50
        assert build_grammar(seq).unfold() == seq


class TestPaperFig3:
    """The worked example of Fig 3, step by step.

    Fig 3a's "Initial 1" grammar (with unspecified context ``...``) is
    built directly: ``R -> A d B e B b^5``, ``A -> b^3 c^2``,
    ``B -> b^2 A`` (the context ``A d ... e`` realises the hidden extra
    use of ``A`` that invariant 1 requires).  We then append ``c`` twice,
    checking the documented outcomes of step 1 (Fig 3c) and step 2
    (Fig 3h), including the creation and later inlining of ``C -> b^3 c``.
    """

    SPEC = {
        "R": [("A", 1), (D, 1), ("B", 1), (4, 1), ("B", 1), (B, 5)],
        "A": [(B, 3), (C, 2)],
        "B": [(B, 2), ("A", 1)],
    }

    def build(self):
        from tests.conftest import grammar_from_spec

        return grammar_from_spec(self.SPEC, ["R", "A", "B"])

    def test_initial_state_unfolds(self):
        g, rules = self.build()
        # A d B e B b^5 with A=b^3c^2, B=b^2 b^3 c^2
        expected = (
            [B] * 3 + [C] * 2 + [D]
            + [B] * 2 + [B] * 3 + [C] * 2 + [4]
            + [B] * 2 + [B] * 3 + [C] * 2 + [B] * 5
        )
        assert g.unfold() == expected

    def test_step1_creates_C_and_rewrites(self):
        g, rules = self.build()
        before = g.unfold()
        g.append(C)
        g.check_invariants()
        assert g.unfold() == before + [C]
        # Fig 3c: a new rule C -> b^3 c; A -> C c; root ends b^2 C
        shapes = bodies_by_shape(g)
        assert ((B, 3), (C, 1)) in shapes  # C -> b^3 c
        assert (("NT", 1), (C, 1)) in shapes  # A -> C c
        a = rules["A"]
        assert a.body()[1] == (C, 1)
        assert isinstance(a.body()[0][0], Rule)
        root_body = g.root.body()
        assert root_body[-2] == (B, 2)  # residual b^2
        assert root_body[-1][1] == 1  # ... followed by C^1

    def test_step2_reuses_A_and_B_then_inlines_C(self):
        g, rules = self.build()
        before = g.unfold()
        g.append(C)
        g.append(C)
        g.check_invariants()
        assert g.unfold() == before + [C, C]
        # Fig 3h: A -> b^3 c^2 restored, B -> b^2 A, root ends with B^2
        a, b_rule = rules["A"], rules["B"]
        assert a.body() == [(B, 3), (C, 2)]
        assert b_rule.body() == [(B, 2), (a, 1)]
        last = g.root.last
        assert last.symbol is b_rule and last.exp == 2
        # the temporary C rule is gone (inlined, Fig 3f)
        assert ((B, 3), (C, 1)) not in bodies_by_shape(g)
        assert g.rule_count == 3


class TestDigramUniqueness:
    def test_repeated_pair_factors(self):
        g = build_grammar([A, B, A, B])
        # one rule for "ab", used twice -> root is NT^2
        assert g.rule_count == 2
        (sym, exp), = g.root.body()
        assert exp == 2

    def test_partial_exponent_factoring(self):
        # b^3 c ... b^5 c: shared part is b^3 c, residue b^2 stays
        seq = [B] * 3 + [C] + [A] + [B] * 5 + [C]
        g = build_grammar(seq)
        g.check_invariants()
        assert g.unfold() == seq
        shapes = bodies_by_shape(g)
        assert ((B, 3), (C, 1)) in shapes
        # root carries the residual b^2 before the second use
        root_body = g.root.body()
        assert (B, 2) in root_body

    def test_triple_occurrence(self):
        seq = [A, B, C, A, B, C, A, B, C]
        g = build_grammar(seq)
        g.check_invariants()
        assert g.unfold() == seq
        (sym, exp), = g.root.body()
        assert exp == 3


class TestRuleUtility:
    def test_exponent_counts_as_usage(self):
        # (ab)^2 : rule used via exponent 2 only -> must be kept
        g = build_grammar([A, B, A, B])
        g.check_invariants()
        assert g.rule_count == 2

    def test_inlining_on_usage_drop(self):
        # From the Fig 3 walk-through: the temporary rule C -> b^3 c is
        # inlined when its usage drops to 1.
        seq = ([B] * 2 + [B] * 3 + [C] * 2) * 2 + [B] * 5 + [C, C]
        g = build_grammar(seq)
        for rule in g.rules.values():
            if rule is not g.root:
                assert rule.usage >= 2

    def test_no_dead_rules_referenced(self):
        for seed in range(10):
            import random

            rng = random.Random(seed)
            seq = [rng.randrange(3) for _ in range(200)]
            g = build_grammar(seq)
            g.check_invariants()


class TestRepeatedIteration:
    def test_later_iterations_skip_the_repair_loop(self):
        """A repeated iteration of the root's tail is recorded as an
        exponent bump (``test_grammar_properties.py`` checks the result
        against the repair loop alone)."""
        body = [A, B, C, D, B, C]
        g = build_grammar(body * 4)
        created = g.rules_created
        repairs = []
        check_digram = g._check_digram
        g._check_digram = lambda left: (repairs.append(left), check_digram(left))
        g.extend(body * 20)
        assert repairs == []
        assert len(g) == len(body) * 24
        assert g.rules_created > created  # skipped rules still take their ids
        (sym, exp), = g.root.body()
        assert exp == 24 and g.unfold() == body * 24
        g.check_invariants()


class TestUnfold:
    @pytest.mark.parametrize(
        "seq",
        [
            [],
            [A],
            [A, A],
            [A, B, C, D],
            [A, B] * 30,
            [A] * 100,
            [A, A, B, B, A, A, B, B],
            [A, B, C] * 7 + [D] + [A, B, C] * 7 + [D],
        ],
    )
    def test_roundtrip(self, seq):
        g = build_grammar(seq, check=True)
        assert g.unfold() == seq

    def test_deep_nesting(self):
        # nested repetition: ((ab)^3 c)^4 d twice
        inner = ([A, B] * 3 + [C]) * 4 + [D]
        seq = inner * 2
        g = build_grammar(seq)
        g.check_invariants()
        assert g.unfold() == seq


class TestDump:
    def test_dump_names(self, fig1_grammar):
        text = fig1_grammar.dump(NAMES.get)
        assert "R ->" in text
        assert "a b" in text or "b c" in text

    def test_dump_is_stable(self, fig1_grammar):
        assert fig1_grammar.dump() == fig1_grammar.dump()


class TestInvariantChecker:
    def test_detects_corrupted_usage(self, fig1_grammar):
        for rule in fig1_grammar.rules.values():
            if rule is not fig1_grammar.root:
                rule.usage += 1
                break
        with pytest.raises(GrammarError):
            fig1_grammar.check_invariants()

    def test_detects_duplicate_digram(self):
        g = build_grammar([A, B, C, D])
        # manually corrupt: register a fake digram duplicate
        g._digrams[("bogus", "pair")] = g.root.first
        with pytest.raises(GrammarError):
            g.check_invariants()
