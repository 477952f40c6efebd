"""Byte identity of the benchmark's outputs: every op of every workload in
perfbench/workloads.py, run once at the default seed, must write the files
whose sha256 perfbench/digests.json records and pass the ledger checks that
`incilab verify` makes.  A change that moves a single byte of a report fails
here, without running the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_matches_its_digest(workload, tmp_path):
    digests = workloads.load_digests(workload)
    ops = workloads.make_ops(workload, workloads.DEFAULT_SEED, tmp_path)
    assert sorted(op.name for op in ops) == sorted(digests)
    for op in ops:
        out_dir = tmp_path / op.name
        out_dir.mkdir()
        assert op.check(op.run(out_dir), digests) == []
