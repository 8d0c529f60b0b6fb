"""Benchmark of like-sized coloursym checks. Run from the repository root:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 40 --trace 0

Workloads: `orbit` (supplement --m 5 --orbits 2), `cover` (cover-table --m 12
--direct) and `witness` (saturate --k 2 from a 3-vertex, 3-colour graph).
See perfbench/README.md for what each measures and why.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics: checks_per_s, check_p50_s, setup_s and peak_rss_mb.
With `--trace 1` it holds the per-layer figures of a traced run instead.
Either way it also holds the counts of checks attempted and failed, and
whether every completed check's output passed its oracle. The same object,
plus the raw samples, goes to perfbench/results/.

This script imports only the standard library. It times set-up in fresh
worker processes and leaves the checks to one worker process, which runs
them back to back: a closed loop with one client.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5  # set-up-only processes per untraced run, besides the worker
DEADLINE_S = 170  # the whole run, a margin under the 180 s limit


class WorkerError(RuntimeError):
    pass


def timed_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, return the seconds until it printed `ready` and the
    rest of its stdout. Kills it at the deadline; always waits for it."""
    launched = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - launched), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - launched
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(argv[:2])} exited with code {code}")
    return ready, rest


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["orbit", "cover", "witness"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)
    # A terminated run still kills and waits for its worker (see timed_worker).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "coloursym" / "__init__.py").is_file():
        print(f"error: no coloursym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / args.workload  # removed, with its parent, at the end
    results = HERE / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                ready, _ = timed_worker(
                    common + ["--workdir", str(workdir / f"probe-{i}"), "--probe"], deadline
                )
                setups.append(ready)
        spans = ["--trace-out", str(results / f"spans-{tag}.json.gz")] if args.trace else []
        ready, rest = timed_worker(common + ["--workdir", str(workdir / "run"), *spans], deadline)
        setups.append(ready)
        summary = json.loads(rest.strip().splitlines()[-1])
    except (WorkerError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)

    times = summary["check_s"]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in summary["layers"].items()
        }
    else:
        metrics = {
            "checks_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "check_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    detail = dict(result, check_s=times, setup_s=setups, seconds=args.seconds)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    return "s" if metric.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
