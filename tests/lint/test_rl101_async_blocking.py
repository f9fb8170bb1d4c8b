"""RL101: blocking-op reachability from async def — flag/no-flag/pragma."""

from __future__ import annotations

from textwrap import dedent
from typing import List

from repro.lint import lint_source
from repro.lint.violations import Violation


def rl101(source: str, kind: str = "src") -> List[Violation]:
    return lint_source(dedent(source), select=["RL101"], kind=kind).violations


class TestFlagged:
    def test_direct_blocking_call(self):
        found = rl101(
            """
            import time

            async def serve():
                time.sleep(1)
            """
        )
        assert [v.code for v in found] == ["RL101"]
        assert "time.sleep" in found[0].message
        assert "directly" in found[0].message

    def test_indirect_via_sync_helper_names_the_chain(self):
        found = rl101(
            """
            import subprocess

            def git_sha():
                return subprocess.run(["git", "rev-parse", "HEAD"])

            async def settle():
                return git_sha()
            """
        )
        assert [v.code for v in found] == ["RL101"]
        assert "subprocess.run" in found[0].message
        assert "via git_sha()" in found[0].message

    def test_two_hop_chain(self):
        found = rl101(
            """
            import time

            def inner():
                time.sleep(0.1)

            def outer():
                inner()

            async def serve():
                outer()
            """
        )
        assert [v.code for v in found] == ["RL101"]
        assert "outer() -> inner()" in found[0].message

    def test_open_and_handle_write_are_blocking(self):
        found = rl101(
            """
            async def write_summary(path):
                with open(path, "w") as handle:
                    handle.write("{}")
            """
        )
        # Both the open() and the handle.write() hit the loop.
        assert [v.code for v in found] == ["RL101", "RL101"]

    def test_except_bodies_are_reported_once(self):
        found = rl101(
            """
            import subprocess
            import time

            async def serve():
                try:
                    pass
                except OSError:
                    time.sleep(1)
                try:
                    try:
                        pass
                    except ValueError:
                        subprocess.run(["true"])
                except KeyError:
                    pass
            """
        )
        assert [(v.line, v.code) for v in found] == [(9, "RL101"), (14, "RL101")]

    def test_scripts_tree_is_in_scope(self):
        assert [v.code for v in rl101(
            """
            import time

            async def smoke():
                time.sleep(5)
            """,
            kind="scripts",
        )] == ["RL101"]


class TestAllowed:
    def test_awaited_async_callee_reports_only_at_the_source(self):
        found = rl101(
            """
            import time

            async def inner():
                time.sleep(1)

            async def outer():
                await inner()
            """
        )
        # One finding, inside `inner` — the caller's await is fine.
        assert len(found) == 1
        assert "inner" in found[0].message

    def test_executor_hop_is_clean(self):
        assert rl101(
            """
            import time

            def heavy():
                time.sleep(1)

            async def serve(loop):
                await loop.run_in_executor(None, heavy)
            """
        ) == []

    def test_pure_async_plumbing_is_clean(self):
        assert rl101(
            """
            import asyncio

            async def serve(queue):
                item = await queue.get()
                await asyncio.sleep(0)
                return item
            """
        ) == []

    def test_sync_functions_may_block(self):
        assert rl101(
            """
            import time

            def batch():
                time.sleep(1)
            """
        ) == []

    def test_tests_tree_is_out_of_scope(self):
        assert rl101(
            """
            import time

            async def serve():
                time.sleep(1)
            """,
            kind="tests",
        ) == []


class TestPragmas:
    def test_same_line_disable(self):
        report = lint_source(
            dedent(
                """
                import time

                async def serve():
                    time.sleep(1)  # reprolint: disable=RL101
                """
            ),
            select=["RL101"],
            kind="src",
        )
        assert report.violations == []
        assert report.suppressed == 1
