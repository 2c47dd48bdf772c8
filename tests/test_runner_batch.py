"""The parallel fuzz front end: seed-range chunks and their merged reports.

``art9 fuzz --jobs N`` shards a seed range into contiguous chunks and runs
one ``repro.testing.fuzz`` call per chunk; every test here asserts the same
invariant from a different angle: the chunks cover the range exactly, and
the merged report equals the one-process report, with and without
``--batch-lanes``.
"""

import pytest

from repro.runner import run_parallel_fuzz
from repro.runner.fuzzpool import _chunks
from repro.testing import fuzz


class TestChunkPartition:
    @pytest.mark.parametrize("count,jobs", [
        (1, 1), (3, 2), (7, 2), (8, 3), (10, 4), (100, 7), (5, 16),
    ])
    def test_chunks_exactly_cover_the_seed_range(self, count, jobs):
        chunks = _chunks(count, seed=11, jobs=jobs, max_instructions=1000,
                         check_pipeline=False)
        seeds = []
        for chunk in chunks:
            assert chunk["count"] > 0, "empty chunk handed to a worker"
            seeds.extend(range(chunk["seed"], chunk["seed"] + chunk["count"]))
        assert seeds == list(range(11, 11 + count))

    def test_chunks_are_contiguous_and_ordered(self):
        chunks = _chunks(17, seed=0, jobs=4, max_instructions=1000,
                         check_pipeline=True)
        next_seed = 0
        for chunk in chunks:
            assert chunk["seed"] == next_seed
            next_seed += chunk["count"]
        assert next_seed == 17

    def test_batch_lanes_threads_through_when_meaningful(self):
        with_lanes = _chunks(6, seed=0, jobs=2, max_instructions=1000,
                             check_pipeline=False, batch_lanes=4)
        assert all(chunk["batch_lanes"] == 4 for chunk in with_lanes)
        # 0 and 1 lanes mean "serial" — the key must stay absent so old
        # workers (and the serial fallback) see an unchanged chunk schema.
        for lanes in (0, 1):
            for chunk in _chunks(6, seed=0, jobs=2, max_instructions=1000,
                                 check_pipeline=False, batch_lanes=lanes):
                assert "batch_lanes" not in chunk

    def test_parallel_and_serial_fuzz_reports_match(self):
        serial = run_parallel_fuzz(count=9, seed=2, jobs=1,
                                   check_pipeline=False)
        parallel = run_parallel_fuzz(count=9, seed=2, jobs=3,
                                     check_pipeline=False)
        assert parallel.programs_run == serial.programs_run == 9
        assert parallel.instructions_executed == serial.instructions_executed
        assert parallel.budget_exhausted == serial.budget_exhausted
        assert parallel.failures == serial.failures

    def test_parallel_and_serial_batched_fuzz_reports_match(self):
        serial = fuzz(count=6, seed=0, lanes=3, check_pipeline=False)
        parallel = run_parallel_fuzz(count=6, seed=0, jobs=2,
                                     check_pipeline=False, batch_lanes=3)
        assert parallel.programs_run == serial.programs_run == 6
        assert parallel.instructions_executed == serial.instructions_executed
        assert parallel.budget_exhausted == serial.budget_exhausted
