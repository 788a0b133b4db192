"""Benchmark of the citerank CLI on three generated workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload rank-many-sets --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every invocation is ``python -m citerank.cli ...`` in a child
process (``PYTHONPATH=src``), one at a time, and the end-to-end metrics are
medians over the invocations. With ``--trace 1`` ``cli.main`` runs in this
process, alternately untraced and traced, and the per-layer metrics come from
the traced runs. Every output is checked: the first against the exact oracle,
the rest for byte equality with the first. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SRC = Path("src")
WORKDIR = Path(".perfbench-work")
# the keys of workloads.WORKLOADS, which is imported only after the timed loop
WORKLOAD_NAMES = ("rank-many-sets", "per-paper-large", "simulate-divergence")
SETUP_PER_ROUND = 2
MIN_ROUNDS = 3


def _child(args, stdout) -> tuple[float, float, float, int]:
    """Run ``python -m citerank.cli *args``; return wall s, CPU s, peak RSS MB, exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "citerank.cli", *args], stdout=stdout, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Outputs:
    """Counts invocations and keeps the first successful report, and a digest of every other.

    :meth:`verify` checks the first report with the oracle and every other for
    byte equality with it, after the timed loop, so the checks never overlap it.
    """

    def __init__(self) -> None:
        self.first: str | None = None
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, text: str | None) -> None:
        """Count one operation; ``text`` is its report, or None for ``--version``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif text is None:
            return
        elif self.first is None:
            self.first = text
        else:
            self.digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())

    def verify(self, check) -> None:
        from oracle import Mismatch

        if self.first is not None:
            try:
                check(self.first)
            except Mismatch as exc:
                self.problems.append(str(exc))
            if self.digests - {hashlib.sha256(self.first.encode("utf-8")).hexdigest()}:
                self.problems.append("output differs between identical invocations")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name: str, seed: int, seconds: float, scratch: Path) -> tuple[Outputs, dict]:
    """Time child invocations. numpy, scipy and the oracle stay out of this process until
    the loop is over: a child's peak RSS starts from the RSS of the process that spawns it."""
    generator = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(scratch)]
    spec = json.loads(subprocess.run(generator, check=True, capture_output=True, text=True).stdout)

    outputs = Outputs()
    setup, walls, cpus, rss, rounds = [], [], [], [], []
    report = scratch / "report.txt"
    began = time.perf_counter()
    # Whole rounds only: start another while it is expected to end within the run.
    # Each round times SETUP_PER_ROUND `--version` runs, then one workload invocation.
    while len(walls) < MIN_ROUNDS or time.perf_counter() - began + statistics.median(rounds) <= seconds:
        start = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            wall, _, _, code = _child(["--version"], subprocess.DEVNULL)
            outputs.add(code == 0, None)
            setup.append(wall)
        with open(report, "wb") as out:
            wall, cpu, peak, code = _child(spec["args"], out)
        outputs.add(code == 0, report.read_text(encoding="utf-8"))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        rounds.append(time.perf_counter() - start)

    from workloads import WORKLOADS

    outputs.verify(WORKLOADS[name](seed, scratch).check)
    wall = statistics.median(walls)
    return outputs, {
        "wall_s": _metric(wall, "s"),
        "records_per_s": _metric(spec["records"] / wall, "records/s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _captured(call) -> tuple[int, str]:
    """Exit code and stdout of ``call()``, an in-process ``cli.main`` run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = call()
    return code, buffer.getvalue()


def run_traced(name: str, seed: int, seconds: float, scratch: Path) -> tuple[Outputs, dict]:
    """Run ``cli.main`` in this process, alternately untraced and traced."""
    sys.path.insert(0, str(SRC.resolve()))
    from citerank import cli
    from tracing import SELF_TIME_METRICS, UNITS, Tracer, traced_main
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scratch)
    outputs = Outputs()
    argv = list(workload.args)
    untraced, traced, rounds = [], [], []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began + statistics.median(rounds) <= seconds:
        start = time.perf_counter()
        gc.collect()
        untraced_start = time.perf_counter()
        code, text = _captured(lambda: cli.main(argv))
        untraced.append(time.perf_counter() - untraced_start)
        outputs.add(code == 0, text)
        gc.collect()
        tracer = Tracer()
        code, text = _captured(lambda: traced_main(tracer, cli.main, argv))
        outputs.add(code == 0, text)
        traced.append(tracer.layer_metrics())
        rounds.append(time.perf_counter() - start)

    metrics = {}
    for name in traced[0]:
        values = [run[name] for run in traced]
        unit = UNITS.get(name, "s")
        if unit in ("count", "bytes", "ratio"):
            if len(set(values)) != 1:
                outputs.problems.append(f"count {name} differs between runs: {values}")
            metrics[name] = _metric(values[0], unit)
        else:
            metrics[name] = _metric(statistics.median(values), unit)
    main_s = metrics["cli.main_s"]["value"]
    metrics["trace.overhead_s"] = _metric(main_s - statistics.median(untraced), "s")
    for run in traced:
        accounted = sum(run[name] for name in SELF_TIME_METRICS)
        if abs(accounted - run["cli.main_s"]) > 1e-6:
            outputs.problems.append(f"layer self times sum to {accounted}, cli.main took {run['cli.main_s']}")
    outputs.verify(workload.check)
    return outputs, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "citerank" / "cli.py").is_file():
        print(f"error: no citerank sources under {SRC}/; run from the repository root", file=sys.stderr)
        return 2
    scratch = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        outputs, metrics = run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    for problem in outputs.problems:
        print(f"incorrect output: {problem}", file=sys.stderr)
    result = {"correct": not outputs.problems, "attempted": outputs.attempted,
              "failed": outputs.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
