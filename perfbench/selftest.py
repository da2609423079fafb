"""Fast self-test of the benchmark harness on a tiny fixture config.

    python3 perfbench/selftest.py

Runs every workload at the size of acceptance criterion 7 (n_local 600,
aligned counts 50 and 100, data seed 3, a few epochs), untraced and traced,
against a reference table it records first. It asserts that every metric
prints by name with its unit, that the wrapped call counts equal the counts
the config implies, that the full-size workloads imply the documented
counts, that a forced mismatch with the reference lands in `failed`, and
that a data seed referenced for another workload only is run unchecked.
It takes about half a minute. Exit code 0 means every assertion held.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "data": {"synth": {"n_local": 600, "aligned_pool": 150, "n_validation": 100,
                       "n_test": 300}},
    "ssl": {"epochs": 3},
    "supervised": {"epochs": 3},
    "downstream": {"epochs": 8},
}
TINY_COUNTS = {"grid-fixture": [50, 100], "train-fixture": [100], "pretrain-fixture": [50]}
# what the full-size workloads must do, from the benchmark's definition
FULL_WORK = {
    "grid-fixture": {"rounds": 13_920, "contrastive_batches": 1_240},
    "train-fixture": {"rounds": 10_800, "contrastive_batches": 0},
    "pretrain-fixture": {"rounds": 0, "contrastive_batches": 3_720},
}


def bench(workload: str, reference: Path, *extra: str) -> tuple[dict, str]:
    """Run the benchmark in-process on the tiny config; (result, stdout)."""
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0.1",
            "--reference", str(reference), *extra]
    config = workloads.deep_merge(TINY, {"grid": {"aligned_counts": TINY_COUNTS[workload]}})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, extra_config=config)
    text = buf.getvalue()
    assert code == 0, text
    if "--record-reference" in extra:
        return {}, text
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics(result: dict, text: str, units: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert set(result["metrics"]) == set(units), sorted(result["metrics"])
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert f"\n{name} " in text and text.split(f"\n{name} ")[1].split("\n")[0].endswith(
            f" {unit}"
        ), f"{name} not printed with {unit}"
    assert "\nfailed_ratio " in text


def full_size_work() -> None:
    from vflhlp.config import parse_config

    for name, want in FULL_WORK.items():
        w = workloads.WORKLOADS[name]
        cfg = parse_config(workloads.config(w, workloads.data_seeds(w, 0)))
        got = workloads.expected_work(w, cfg)
        assert {k: got[k] for k in want} == want, (name, got)


def main() -> int:
    full_size_work()
    end_to_end = run.declared_units("end_to_end")
    per_layer = run.declared_units("per_layer")
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        reference = Path(tmp) / "reference.json"
        for name in workloads.WORKLOADS:
            if reference.exists():
                # seed 3 has values for the workloads before this one only
                result, text = bench(name, reference, "--trace", "0", "--data-seeds", "3")
                assert result["correct"] and result["failed"] == 0, text
                assert "note: no " + name + " reference values for data seeds [3]" in text
            bench(name, reference, "--trace", "0", "--data-seeds", "3",
                  "--record-reference")
            result, text = bench(name, reference, "--trace", "0", "--data-seeds", "3")
            check_metrics(result, text, end_to_end)
            assert result["correct"] and result["failed"] == 0, text

            result, text = bench(name, reference, "--trace", "1", "--data-seeds", "3")
            check_metrics(result, text, per_layer)
            assert result["correct"] and result["failed"] == 0, text
            cfg = json.loads((HERE.parent / ".perfbench_work" / name / "config.json").read_text())
            from vflhlp.config import parse_config

            want = workloads.expected_work(workloads.WORKLOADS[name], parse_config(cfg))
            calls = result["metrics"]["federated.run_round.calls"]["value"]
            assert calls == want["rounds"], (name, calls, want)
            if name == "pretrain-fixture":
                batches = result["metrics"]["ssl_pretrain.contrastive_batch.calls"]["value"]
                assert batches == want["contrastive_batches"], (batches, want)

            table = json.loads(reference.read_text())
            key = next(k for k in sorted(table[name]) if k.startswith("seed3/"))
            table[name][key] += 1e-3
            reference.write_text(json.dumps(table))
            result, text = bench(name, reference, "--trace", "0", "--data-seeds", "3")
            assert not result["correct"] and result["failed"] >= 1, text
            assert "FAIL " in text and key.rsplit("/", 1)[0] in text, text
            table[name][key] -= 1e-3
            reference.write_text(json.dumps(table))
            print(f"{name}: ok")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
