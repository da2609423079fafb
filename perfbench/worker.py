"""One benchmark process: set up a workload, or run its measured command once.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds `phase` ("setup" or "measure"), `workload`, `config` (the
generated JSON config), `out` (the program's output directory), `trace`
(a span file to write, or null), `result` (where this process writes its
timings as JSON), `log` (where the program's output goes) and `sample`
(whether to measure the host's speed). The program is imported from `src/`
of the checkout and driven in-process through `vflhlp.cli.main`, as a
user's command would run it. Interpreter start counts towards set-up: the
parent takes the time before starting this process and `ready` is read
here, on the same monotonic clock, once imports and set-up commands are
done.

With `sample` set, times are also reported at a reference host speed. The
host this was written on is shared, and its speed drifts by a third within
seconds, which no repetition inside a run averages out and which a probe
before and after the command does not track (see NOTES.md). So
`SpeedSampler` times a small fixed numpy kernel every 50 ms while the
process works, and the times are scaled by REFERENCE_KERNEL_S over the
kernel's mean time, after the sampler's own time is taken out.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_KERNEL_S = 0.0006  # the kernel's time on a quiet 2-core Xeon host
SAMPLE_EVERY_S = 0.05


class SpeedSampler:
    """Times a fixed kernel of small numpy calls on a SIGALRM timer.

    The kernel does what the program does most, small matmuls, concatenation
    and scatter-adds on batch-8 arrays, so it slows down when the program
    does. It is timed on the CPU clock of the thread that runs it: time it
    spends waiting for a CPU while the program's own processes or threads
    hold them does not count, so a program that uses several CPUs at once
    is not scaled by its own load. The first sample is taken on start, so
    there is always one.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((16, 8))
        self._x = rng.standard_normal((8, 16))
        self._idx = rng.integers(0, 80, 8)
        self._table = np.zeros((80, 4))
        self.samples: list[float] = []  # the kernel's CPU seconds, per tick
        self.wall_s = 0.0  # wall seconds in the sampler, over all ticks

    def _kernel(self) -> None:
        for _ in range(60):
            h = np.maximum(self._x @ self._w, 0.0)
            g = np.concatenate([h, h], axis=1)
            np.add.at(self._table, self._idx, g[:, :4])
            (g.T @ self._x).sum()

    def _tick(self, signum=None, frame=None) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self._kernel()
        self.samples.append(time.thread_time() - c0)
        self.wall_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples.clear()
        self.wall_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> dict:
        """The sampler's own wall and CPU seconds, and the factor to the reference."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        cpu = sum(self.samples)
        return {
            "sampler_wall_s": self.wall_s,
            "sampler_cpu_s": cpu,
            "speed": REFERENCE_KERNEL_S / (cpu / len(self.samples)),
        }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        return {"name": None, "version": None}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sampler = SpeedSampler() if spec["sample"] else None
    if sampler and spec["phase"] == "setup":
        sampler.start()
    result: dict = {"code": 0, "speed": 1.0, "sampler_wall_s": 0.0, "sampler_cpu_s": 0.0}
    sys.path.insert(0, str(ROOT / "src"))
    from vflhlp.cli import main as cli_main

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[spec["workload"]]
    common = ["--config", spec["config"], "--out", spec["out"]]
    tracer = Tracer(f"{workload.name}/{spec['phase']}") if spec["trace"] else None
    with open(spec["log"], "a") as log, contextlib.redirect_stdout(log):
        if tracer:
            tracer.install()
        try:
            if spec["phase"] == "setup":
                for command in workload.setup:
                    result["code"] = result["code"] or cli_main([*command, *common])
                result["ready"] = time.monotonic()
                if sampler:
                    result.update(sampler.stop())
            else:
                if sampler:
                    sampler.start()
                cpu0, t0 = _cpu_s(), time.perf_counter()
                result["code"] = cli_main([*workload.command, *common])
                result["wall_s"] = time.perf_counter() - t0
                result["cpu_s"] = _cpu_s() - cpu0
                if sampler:
                    result.update(sampler.stop())
        finally:
            if tracer:
                tracer.uninstall()
                tracer.save(spec["trace"])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux
        if spec["phase"] == "measure" and result["code"] == 0:
            outputs = workloads.summarize(workload, Path(spec["config"]), Path(spec["out"]))
            result["outputs"] = dataclasses.asdict(outputs)
    result["env"] = {"numpy": np.__version__, "blas": _blas()}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
