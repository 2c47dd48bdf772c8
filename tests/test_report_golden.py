"""Golden ``art9 report`` documents: the report's bytes are pinned.

``art9 report`` regenerates the paper's tables from run directories, so a
refactor of the loading, filtering or timing code must not move a single
byte of its output.  Two inputs are pinned, each in markdown and CSV:

* ``benchmarks/baseline`` itself — its records predate the phase timings,
  so the timing table is a note and the report exits 1;
* a copy of it whose records carry fixed ``timings`` and ``cache_hit``
  values (:func:`timed_copy`), which pins every cell of the timing table.
  The values are multiples of 1/64, so their sums are exact in any order.

Regenerate deliberately, after an intended change to the report, with
``PYTHONPATH=src python tests/test_report_golden.py`` and review the diff.
"""

import json
import os
import shutil

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "baseline")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def timed_copy(destination: str) -> str:
    """Copy the baseline run with fixed phase timings and cache flags.

    Every seventh record lacks ``cache_hit`` (unknown, not a miss), every
    fifth has a null ``codegen_s`` (adds nothing), and one carries no
    ``execute_s`` at all, so it counts as a job but not as a timed one.
    """
    shutil.copytree(BASELINE, destination)
    results = os.path.join(destination, "results.jsonl")
    with open(results, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    with open(results, "w", encoding="utf-8") as handle:
        for index, record in enumerate(records):
            timings = {"xlate_s": (index % 3) / 64,
                       "codegen_s": None if index % 5 == 0 else 1 / 64,
                       "execute_s": (index + 1) / 64}
            if index == 7:
                del timings["execute_s"]
            record["timings"] = timings
            if index % 7:
                record["cache_hit"] = index % 5 < 2
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return destination


#: (golden file, timed copy?, output format, exit code).
CASES = [
    ("report_baseline.md", False, "markdown", 1),
    ("report_baseline.csv", False, "csv", 1),
    ("report_timed.md", True, "markdown", 0),
    ("report_timed.csv", True, "csv", 0),
]


@pytest.mark.parametrize("golden, timed, fmt, exit_code", CASES,
                         ids=[case[0] for case in CASES])
def test_report_matches_golden(golden, timed, fmt, exit_code, tmp_path, capsys):
    run_dir = timed_copy(str(tmp_path / "run")) if timed else BASELINE
    assert main(["report", run_dir, "--format", fmt]) == exit_code
    captured = capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, golden), "r", encoding="utf-8",
              newline="") as handle:
        assert captured.out == handle.read()
    assert captured.err == (f"ingested {os.path.abspath(run_dir)}: 24 records "
                            "(0 duplicating earlier runs)\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        timed_run = timed_copy(os.path.join(workdir, "run"))
        for golden, timed, fmt, _ in CASES:
            main(["report", timed_run if timed else BASELINE, "--format", fmt,
                  "--out", os.path.join(GOLDEN_DIR, golden)])
