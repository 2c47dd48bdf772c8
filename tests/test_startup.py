"""Startup budget: each ``art9`` process loads only what its command runs.

Every CLI invocation, sweep worker and queue worker is a fresh interpreter,
so module-level imports and table builds are paid once per process.  asyncio
serves only the coordinator and worker client; nothing needs numpy, and
nothing needs sqlite3, since ``art9 report`` reads run directories directly.
Each case below runs in a fresh subprocess and checks which of them the
command loaded.

The value tables of the fast engines fill on first lookup; they must equal
the trit-level reference for every one of the 3**9 words.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sim import engine
from repro.ternary.logic import word_nti, word_pti
from repro.ternary.word import TernaryWord

HEAVY = ("numpy", "asyncio", "sqlite3")

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _loaded_after(statement: str) -> dict:
    """Which of :data:`HEAVY` a fresh interpreter holds after ``statement``."""
    script = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps({{m: m in sys.modules for m in {HEAVY!r}}}))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestStartupImports:
    def test_importing_the_cli_loads_no_heavy_module(self):
        assert _loaded_after("import repro.cli") == dict.fromkeys(HEAVY, False)

    def test_serial_sweep_runs_without_numpy_or_asyncio(self, tmp_path):
        out = str(tmp_path / "run")
        loaded = _loaded_after(
            "import repro.cli\n"
            "code = repro.cli.main(['sweep', '--workloads', 'bubble_sort',"
            " '--engines', 'fast', 'pipeline', 'compiled',"
            f" '--backend', 'serial', '--out', {out!r}])\n"
            "assert code == 0, code")
        assert not loaded["numpy"]
        assert not loaded["asyncio"]

    def test_report_on_a_run_directory_loads_no_heavy_module(self, tmp_path):
        baseline = os.path.join(os.path.dirname(_SRC), "benchmarks",
                                "baseline")
        out = str(tmp_path / "report.md")
        loaded = _loaded_after(
            "import repro.cli\n"
            f"code = repro.cli.main(['report', {baseline!r}, '--out', {out!r}])\n"
            "assert code == 1, code  # the baseline predates phase timings")
        assert loaded == dict.fromkeys(HEAVY, False)

    def test_fuzz_loads_no_heavy_module(self):
        loaded = _loaded_after(
            "import repro.cli\n"
            "code = repro.cli.main(['fuzz', '--count', '2', '--seed', '0'])\n"
            "assert code == 0, code")
        assert loaded == dict.fromkeys(HEAVY, False)


def _reference(unsigned: int):
    value = unsigned - engine.MOD if unsigned > engine.HALF else unsigned
    word = TernaryWord(value)
    return word.trits, word_pti(word).value, word_nti(word).value


class TestValueTables:
    def test_on_demand_tables_match_the_trit_level_reference(self):
        for unsigned in range(engine.MOD):
            trits, pti, nti = _reference(unsigned)
            assert engine._TRITS[unsigned] == trits, unsigned
            assert engine._PTI_WORD[unsigned] == pti, unsigned
            assert engine._NTI_WORD[unsigned] == nti, unsigned

    @pytest.mark.parametrize("unsigned", [-1, engine.MOD])
    def test_lookups_outside_the_word_universe_fail(self, unsigned):
        with pytest.raises(KeyError):
            engine._TRITS[unsigned]
