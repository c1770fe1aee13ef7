"""Every seed-1 input of every benchmark workload, run once through the
harness's own job runner and checker, must pass the workload's reference
checks and reproduce the committed output digest byte for byte."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_one_outputs_match_the_frozen_digests(name):
    workload = run.WORKLOADS[name]
    checker = run.Checker(workload, run.load_frozen(workload, 1))
    assert checker.frozen is not None, "seed 1 is not the frozen seed"
    api = run.import_api()
    pool = workload.make_inputs(1)
    for index, spec in enumerate(pool):
        run.run_job(api, index, spec, checker)
    assert checker.attempted == len(pool)
    assert checker.failed == 0, "\n".join(checker.messages)
