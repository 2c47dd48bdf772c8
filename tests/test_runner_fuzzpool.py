"""The parallel fuzz front end: seed-range chunks and their merged reports.

``art9 fuzz --jobs N`` shards a seed range into contiguous chunks and runs
one ``repro.testing.fuzz`` call per chunk; every test here asserts the same
invariant from a different angle: the chunks cover the range exactly, and
the merged report equals the one-process report.
"""

import pytest

from repro.runner import run_parallel_fuzz
from repro.runner.fuzzpool import _chunks


class TestChunkPartition:
    @pytest.mark.parametrize("count,jobs", [
        (1, 1), (3, 2), (7, 2), (8, 3), (10, 4), (100, 7), (5, 16),
    ])
    def test_chunks_exactly_cover_the_seed_range(self, count, jobs):
        chunks = _chunks(count, seed=11, jobs=jobs, max_instructions=1000)
        seeds = []
        for chunk in chunks:
            assert chunk["count"] > 0, "empty chunk handed to a worker"
            seeds.extend(range(chunk["seed"], chunk["seed"] + chunk["count"]))
        assert seeds == list(range(11, 11 + count))

    def test_chunks_are_contiguous_and_ordered(self):
        chunks = _chunks(17, seed=0, jobs=4, max_instructions=1000)
        next_seed = 0
        for chunk in chunks:
            assert chunk["seed"] == next_seed
            next_seed += chunk["count"]
        assert next_seed == 17

    def test_parallel_and_serial_fuzz_reports_match(self):
        serial = run_parallel_fuzz(count=9, seed=2, jobs=1)
        parallel = run_parallel_fuzz(count=9, seed=2, jobs=3)
        assert parallel.programs_run == serial.programs_run == 9
        assert parallel.instructions_executed == serial.instructions_executed
        assert parallel.budget_exhausted == serial.budget_exhausted
        assert parallel.failures == serial.failures

