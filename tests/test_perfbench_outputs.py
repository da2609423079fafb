"""The benchmark's output readers still read what the program writes.

`summarize` in perfbench/workloads.py reads `results.json`, the checkpoint
tensor prefixes and metadata, `result.json`, `history.jsonl` and the dataset
cache, and rebuilds the active party's local model through
`ActivePretrained` and `local_predict`. A change to any of them should fail
here rather than in a full benchmark run. Each workload runs its set-up and
measured commands on the tiny config of test_cli.py. Only reads perfbench/.
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from vflhlp.cli import main

from test_cli import TINY

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# train-fixture's implied work is that of one aligned count
COUNTS = {"grid-fixture": [20, 40], "train-fixture": [40], "pretrain-fixture": [20, 40]}


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_summarize_reads_every_output_of_a_workload(tmp_path, monkeypatch, name):
    workloads = _load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    raw = {**TINY, "grid": {**TINY["grid"], "aligned_counts": COUNTS[name]}}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    for command in (*workload.setup, workload.command):
        assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 0
    outputs = workloads.summarize(workload, cfg_path, out)
    assert outputs.errors == {}
    assert outputs.work == outputs.expected
    assert set(workloads.operations(workload, raw)) <= set(outputs.ops)
    assert all(math.isfinite(v) and v > 0.0 for v in outputs.metrics.values())
