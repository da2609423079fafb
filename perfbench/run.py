"""The repo benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--data-seeds 41,42] [--record-reference]

Run from the root of a checkout. Each run is one client in a closed loop:
a batch job with nothing else served. The workload's config is generated
from --seed (data seeds 1 + N % 10 and on; --data-seeds overrides them to
recheck a claim on seeds not used while making it) and the program gets
only that config. Every program process is a fresh `worker.py`.

--trace 0: set up three times (interpreter start, import and the
workload's set-up commands) and report the median as setup_s; then run the
measured command in a fresh process until it has run for --seconds, at
least once, and report medians. Times are at a reference host speed; see
worker.py.

--trace 1: set up once and run the measured command twice, untraced and
traced, with the layers wrapped from `tracer.py`; report the per-layer
metrics of the traced set-up and command, and the tracing overhead.

Every measured command's outputs are checked: each cell's test AUC and
final-epoch loss, and each pre-training stage's result, against
`reference.json` within TOLERANCE; the transport audit; and the exact work
the config implies. A failed check is printed and counts the operation
(a cell or a pre-training stage) as failed; it does not stop the run.
Every measured command starts from a fresh copy of what set-up wrote, so
it never sees an earlier repetition's outputs. The metric names and units
are those of BENCHMARK.json. The last line of standard output is the JSON
result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# BLAS runs one thread here and in every worker, traced or not, set before
# numpy loads, so cpu_s does not count BLAS threads spin-waiting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import workloads  # noqa: E402
from tracer import Spans, layer_metrics, sample_counts  # noqa: E402

SETUPS = 3
TOLERANCE = 1e-6  # |value - reference| <= TOLERANCE * max(1, |reference|)
DEADLINE_S = 170.0  # a run ends within this, whatever its workers do
REFERENCE = HERE / "reference.json"


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Run:
    """The state of one benchmark run: work directory, clock, failures."""

    def __init__(self, args, workload, extra_config=None):
        self.args = args
        self.workload = workload
        self.started = time.monotonic()
        self.loadavg = os.getloadavg()
        self.work = ROOT / ".perfbench_work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        seeds = args.data_seeds or workloads.data_seeds(workload, args.seed)
        self.seeds = seeds
        self.cfg = workloads.config(workload, seeds, extra_config)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self.cfg, indent=2))
        self.commands = 0  # measured commands checked so far
        self.attempted = 0
        self.failed: set[tuple[int, str]] = set()  # (command, operation)
        self.env: dict = {}
        self.spawned = 0

    def worker(
        self, phase: str, out: Path, trace: Path | None = None, sample: bool = False
    ) -> dict | None:
        """Run one fresh worker process; None if it failed or ran out of time.

        With `sample`, the result's `setup_s`, `ref_wall_s` and `ref_cpu_s`
        are at the reference host speed; without, they are raw.
        """
        self.spawned += 1
        tag = f"{phase}{self.spawned}"
        spec = {
            "phase": phase,
            "workload": self.workload.name,
            "config": str(self.config),
            "out": str(out),
            "trace": str(trace) if trace else None,
            "result": str(self.work / f"{tag}.result.json"),
            "log": str(self.work / f"{tag}.log"),
            "sample": sample,
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env.pop("VFLHLP_OUT", None)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(self.time_left(), 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"FAIL {tag}: no result within the run's {DEADLINE_S:.0f} s")
            return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            print(f"FAIL {tag}: worker exited {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(result_path.read_text())
        if result["code"] != 0:
            print(f"FAIL {tag}: the program exited {result['code']}; see {spec['log']}")
            return None
        speed, sampler_wall = result["speed"], result["sampler_wall_s"]
        if phase == "setup":
            result["setup_s"] = (result["ready"] - spawned - sampler_wall) * speed
        else:
            result["ref_wall_s"] = (result["wall_s"] - sampler_wall) * speed
            result["ref_cpu_s"] = (result["cpu_s"] - result["sampler_cpu_s"]) * speed
        self.env = result["env"]
        return result

    def fresh_out(self, setup_out: Path) -> Path:
        """A fresh copy of what set-up wrote, for one measured command to run in."""
        out = self.work / "out-run"
        shutil.rmtree(out, ignore_errors=True)
        if setup_out.exists():
            shutil.copytree(setup_out, out)
        return out

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def check(self, outputs: dict | None, reference: dict) -> int:
        """Count the operations of one measured command and those that failed.

        `reference` is this workload's table. A value of a data seed the
        table has no values for is unchecked; for any other seed a missing
        reference value is a failure. Returns the command's index, for
        failing its operations later.
        """
        referenced = referenced_seeds(reference)
        ops = workloads.operations(self.workload, self.cfg)
        self.commands += 1
        self.attempted += len(ops)
        if outputs is None:
            self.fail(self.commands, "no outputs")
            return self.commands
        bad = dict(outputs["errors"])
        for op in ops:
            if op not in outputs["ops"] and op not in bad:
                bad[op] = "missing from the outputs"
        for op, keys in outputs["ops"].items():
            for key in keys:
                if key.split("/")[0] not in referenced:
                    continue
                value, ref = outputs["values"][key], reference.get(key)
                if ref is None:
                    bad[op] = f"{key} has no reference value"
                elif abs(value - ref) > TOLERANCE * max(1.0, abs(ref)):
                    bad[op] = f"{key} = {value!r}, reference {ref!r}"
        work, expected = outputs["work"], outputs["expected"]
        if work != expected:
            for op in ops:
                bad[op] = f"work counted from the outputs {work} != implied {expected}"
        for op, why in sorted(bad.items()):
            print(f"FAIL {op}: {why}")
            if op in ops:
                self.failed.add((self.commands, op))
        return self.commands

    def fail(self, command: int, why: str) -> None:
        """Count every operation of one measured command as failed."""
        print(f"FAIL command {command}: {why}")
        self.failed.update(
            (command, op) for op in workloads.operations(self.workload, self.cfg)
        )


def referenced_seeds(reference: dict) -> set[str]:
    """The data seeds ("seed3") that one workload's reference table covers."""
    return {key.split("/")[0] for key in reference}


def environment(run: Run) -> dict:
    def src_lines() -> int:
        return sum(
            len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        )

    def git_sha() -> str | None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {
        **run.env,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_at_start": run.loadavg,
        "src_lines": src_lines(),
        "data_seeds": run.seeds,
    }


def measure(run: Run, reference: dict) -> dict[str, float]:
    """Untraced: set-up medians, then the command until --seconds are measured."""
    setups = []
    for i in range(SETUPS):
        setup_out = run.work / f"out-setup{i}"
        result = run.worker("setup", setup_out, sample=True)
        if result is None:
            run.check(None, reference)
            return {}
        setups.append(result["setup_s"])
    results = []
    while not results or sum(r["wall_s"] for r in results) < run.args.seconds:
        longest = max((r["wall_s"] for r in results), default=0.0)
        if results and run.time_left() < 1.5 * longest:
            print(f"note: stopped after {len(results)} repetitions to end in time")
            break
        result = run.worker("measure", run.fresh_out(setup_out), sample=True)
        run.check(result and result.get("outputs"), reference)
        if result is None:
            break
        results.append(result)
    if not results:
        return {"setup_s": statistics.median(setups)}
    wall = statistics.median(r["ref_wall_s"] for r in results)
    outputs = results[0]["outputs"]
    print(
        f"note: raw wall {statistics.median(r['wall_s'] for r in results):.6g} s, "
        f"host speed {statistics.median(r['speed'] for r in results):.4g} of the "
        f"reference, over {len(results)} repetitions"
    )
    return {
        "wall_s": wall,
        "samples_per_s": outputs["work"]["rows"] / wall,
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["ref_cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        **outputs["metrics"],
    }


def trace(run: Run, reference: dict) -> dict[str, float]:
    """Traced: per-layer metrics of the traced set-up and command, and overhead."""
    setup_out = run.work / "out-setup"
    setup_spans = run.work / "setup.spans.npz"
    measure_spans = run.work / "measure.spans.npz"
    if run.worker("setup", setup_out, setup_spans) is None:
        run.check(None, reference)
        return {}
    plain = run.worker("measure", run.fresh_out(setup_out))
    run.check(plain and plain.get("outputs"), reference)
    traced = run.worker("measure", run.fresh_out(setup_out), measure_spans)
    command = run.check(traced and traced.get("outputs"), reference)
    if plain is None or traced is None:
        return {}
    spans = Spans([setup_spans, measure_spans])
    metrics = layer_metrics(spans)
    metrics["trace.overhead_share"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    # exact work of the measured command, counted by the wrappers
    measured = Spans([measure_spans])
    counted = {
        "rounds": int(measured.mask("federated.run_round").sum()),
        "contrastive_batches": int(measured.mask("ssl_pretrain.contrastive_batch").sum()),
    }
    expected = {k: traced["outputs"]["expected"][k] for k in counted}
    if counted != expected:
        run.fail(command, f"wrapped calls {counted} != implied {expected}")
    print("trace samples: " + json.dumps(sample_counts(spans), sort_keys=True))
    return metrics


def record(run: Run, table: dict, path: Path) -> None:
    """Run set-up and the command once and add its values to the workload's table."""
    setup_out = run.work / "out-setup"
    if run.worker("setup", setup_out) is None:
        sys.exit("set-up failed; nothing recorded")
    result = run.worker("measure", run.fresh_out(setup_out))
    if result is None or result["outputs"]["errors"]:
        sys.exit(f"measured command failed; nothing recorded: {result and result['outputs']}")
    reference = table.setdefault(run.workload.name, {})
    for key, value in result["outputs"]["values"].items():
        if key in reference and reference[key] != value:
            sys.exit(f"{key}: {value!r} differs from the recorded {reference[key]!r}")
        reference[key] = value
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result['outputs']['values'])} values for seeds {run.seeds}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--data-seeds",
        type=lambda s: [int(x) for x in s.split(",")],
        help="comma-separated data seeds instead of the ones --seed picks",
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="run once and add the checked values to the workload's reference table",
    )
    parser.add_argument("--reference", type=Path, help="reference tables to use")
    return parser.parse_args(argv)


def main(argv=None, extra_config=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vflhlp" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'vflhlp'} is missing", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference_path = args.reference or REFERENCE
    table = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    run = Run(args, workload, extra_config)
    if args.record_reference:
        record(run, table, reference_path)
        return 0
    reference = table.get(workload.name, {})
    unreferenced = [s for s in run.seeds if f"seed{s}" not in referenced_seeds(reference)]
    if unreferenced:
        print(
            f"note: no {workload.name} reference values for data seeds {unreferenced}; "
            "their values are unchecked"
        )
    if args.trace:
        metrics = trace(run, reference)
        units = declared_units("per_layer")
    else:
        metrics = measure(run, reference)
        units = declared_units("end_to_end")
    print("env: " + json.dumps(environment(run), sort_keys=True))
    attempted, failed = max(run.attempted, 1), len(run.failed)
    missing = [name for name in units if name not in metrics]
    if not failed and missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the harness does not compute: {missing}")
    print(f"failed_ratio {failed / attempted:.6g} share")
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 0.0):.6g} {unit}")
    for out in run.work.glob("out*"):
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
