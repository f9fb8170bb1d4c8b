"""RL202/RL203: dropped derivations and aliased streams — flag/no-flag/pragma."""

from __future__ import annotations

from textwrap import dedent
from typing import List

from repro.lint import lint_source
from repro.lint.violations import Violation


def run(source: str, code: str, kind: str = "src") -> List[Violation]:
    return lint_source(dedent(source), select=[code], kind=kind).violations


class TestDroppedDerivation:
    def test_discarded_expression_statement(self):
        found = run(
            """
            def advance(rng):
                rng.getrandbits(64)
                return rng.random()
            """,
            "RL202",
        )
        assert [v.code for v in found] == ["RL202"]
        assert "discarded" in found[0].message

    def test_derive_call_bound_to_dead_local(self):
        found = run(
            """
            def setup(seed, derive_child):
                child = derive_child(seed)
                return seed
            """,
            "RL202",
        )
        assert [v.code for v in found] == ["RL202"]
        assert "`child`" in found[0].message

    def test_nested_def_draw_is_reported_once(self):
        found = run(
            """
            def outer(rng):
                def middle():
                    def inner():
                        rng.getrandbits(64)
                    return inner
                return middle
            """,
            "RL202",
        )
        assert [(v.line, v.code) for v in found] == [(5, "RL202")]

    def test_used_draw_is_clean(self):
        assert run(
            """
            import random

            def setup(rng):
                child = rng.getrandbits(64)
                return random.Random(child)
            """,
            "RL202",
        ) == []

    def test_underscore_binding_is_a_deliberate_burn(self):
        assert run(
            """
            def advance(rng):
                _ = rng.getrandbits(64)
                return rng.random()
            """,
            "RL202",
        ) == []

    def test_tests_tree_is_out_of_scope(self):
        assert run(
            """
            def advance(rng):
                rng.getrandbits(64)
            """,
            "RL202",
            kind="tests",
        ) == []

    def test_benchmarks_tree_is_in_scope(self):
        assert [v.code for v in run(
            """
            def advance(rng):
                rng.getrandbits(64)
            """,
            "RL202",
            kind="benchmarks",
        )] == ["RL202"]

    def test_same_line_pragma(self):
        report = lint_source(
            dedent(
                """
                def advance(rng):
                    rng.getrandbits(64)  # reprolint: disable=RL202
                    return rng.random()
                """
            ),
            select=["RL202"],
            kind="src",
        )
        assert report.violations == []
        assert report.suppressed == 1


class TestAliasedStreams:
    def test_same_seed_feeds_two_constructors(self):
        found = run(
            """
            import random

            def build(seed):
                law_rng = random.Random(seed)
                session_rng = random.Random(seed)
                return law_rng, session_rng
            """,
            "RL203",
        )
        assert [v.code for v in found] == ["RL203"]
        assert "identical" in found[0].message
        assert "line 5" in found[0].message

    def test_derive_helper_aliasing_random_random(self):
        found = run(
            """
            import random

            def build(seed, derive_seeds):
                law = random.Random(seed)
                seeds = derive_seeds(seed, 10)
                return law, seeds
            """,
            "RL203",
        )
        assert [v.code for v in found] == ["RL203"]

    def test_fanned_out_child_seeds_are_clean(self):
        # The fix shape: one root stream, per-purpose prefixes.
        assert run(
            """
            import random

            def build(seed):
                entropy = random.Random(seed)
                law_rng = random.Random(entropy.getrandbits(64))
                session_rng = random.Random(entropy.getrandbits(64))
                return law_rng, session_rng
            """,
            "RL203",
        ) == []

    def test_distinct_seeds_are_clean(self):
        assert run(
            """
            import random

            def build(law_seed, session_seed):
                return random.Random(law_seed), random.Random(session_seed)
            """,
            "RL203",
        ) == []

    def test_tests_tree_may_twin_streams(self):
        # Parity tests deliberately construct twin streams to compare
        # two engines bitwise; the rule must not fire there.
        assert run(
            """
            import random

            def parity(seed):
                return random.Random(seed), random.Random(seed)
            """,
            "RL203",
            kind="tests",
        ) == []

    def test_same_line_pragma(self):
        report = lint_source(
            dedent(
                """
                import random

                def build(seed):
                    a = random.Random(seed)
                    b = random.Random(seed)  # reprolint: disable=RL203
                    return a, b
                """
            ),
            select=["RL203"],
            kind="src",
        )
        assert report.violations == []
        assert report.suppressed == 1
