"""Package-surface tests: version, errors, public exports, README snippet."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestVersion:
    def test_version_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_pyproject_matches(self):
        import pathlib

        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.ProtocolError,
            errors.ExecutionError,
            errors.EnumerationExhaustedError,
            errors.AlgebraError,
            errors.FormulaError,
            errors.VerificationError,
            errors.CodecError,
        ):
            assert issubclass(exc, errors.ReproError)
            assert issubclass(exc, Exception)

    def test_catchable_as_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.CodecError("nope")


class TestPublicSurface:
    def test_all_subpackages_import(self):
        import repro.analysis
        import repro.comm
        import repro.core
        import repro.ip
        import repro.machines
        import repro.mathx
        import repro.multiparty
        import repro.online
        import repro.qbf
        import repro.servers
        import repro.universal
        import repro.users
        import repro.worlds

    def test_declared_exports_exist(self):
        import repro.comm
        import repro.core
        import repro.servers
        import repro.universal
        import repro.users
        import repro.worlds

        for module in (
            repro.core, repro.comm, repro.universal,
            repro.worlds, repro.servers, repro.users,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_readme_quickstart_snippet_runs(self):
        """The snippet in repro/__init__'s docstring (and README) works."""
        import random

        from repro.comm.codecs import codec_family
        from repro.core import run_execution
        from repro.servers import advisor_server_class
        from repro.universal import CompactUniversalUser, ListEnumeration
        from repro.users import follower_user_class
        from repro.worlds import control_goal, control_sensing, random_law

        law = random_law(random.Random(0))
        goal = control_goal(law)
        codecs = codec_family(8)
        user = CompactUniversalUser(
            ListEnumeration(follower_user_class(codecs)), control_sensing()
        )
        server = advisor_server_class(law, codecs)[5]
        result = run_execution(user, server, goal.world, max_rounds=2000, seed=1)
        assert goal.evaluate(result).achieved

    def test_sweep_and_serve_stack_is_stdlib_only(self):
        """Importing the sweep, fault, obs, serve and machine packages loads
        no third-party module — in particular no array library, which every
        sweep process used to import for a tier no paper workload ran.

        Module state is process-global, so this runs in a fresh interpreter
        and only counts modules loaded by the imports themselves (site
        hooks may preload their own at start-up).
        """
        import os
        import pathlib
        import subprocess
        import sys

        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.analysis, repro.faults, repro.obs, repro.serve,"
            " repro.machines\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "foreign = sorted(m for m in new - set(sys.stdlib_module_names)"
            " - {'repro'} if not m.startswith('__'))\n"
            "assert not foreign, foreign\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr
