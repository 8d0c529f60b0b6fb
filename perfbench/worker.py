"""The process that runs a workload's checks back to back.

    python3 perfbench/worker.py --workload orbit --seed 1 --seconds 40 \
        --trace 0 --workdir perfbench/work/orbit

Set-up is interpreter start, `import coloursym` (numpy included) and the
seeded input files. When it is done the worker prints `ready`; with
`--probe` it then exits, otherwise it runs whole rounds of checks until
`--seconds` have passed and prints one JSON summary line. run.py times the
`ready` line and turns the summary into the benchmark's metrics.

Every check pays what a fresh `coloursym` process pays: coloursym's cover
cache is cleared and garbage is collected before each check, outside its
timed span. Each check's oracle runs after it, also outside the span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["orbit", "cover", "witness"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace-out", type=Path, default=None)
    p.add_argument("--probe", action="store_true", help="exit after set-up")
    return p.parse_args(argv)


def run_check(main, argv: tuple[str, ...]) -> tuple[float, int, str]:
    """One timed call of the CLI; its stdout and stderr are captured. An
    exception counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if code == -1:
        print(err.getvalue(), file=sys.stderr)
    return elapsed, code, out.getvalue()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import coloursym  # noqa: F401  (part of set-up: the package and numpy)
    from coloursym import cli, spin

    if not Path(coloursym.__file__).resolve().is_relative_to(SRC):
        print(f"error: coloursym imported from {coloursym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    args.workdir.mkdir(parents=True, exist_ok=True)
    cycle = checks.plan(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    times: list[float] = []
    traced: list[bool] = []
    failed = 0
    wrong = 0
    start = time.perf_counter()
    rounds = 0
    # Whole rounds only, so the share of failed checks does not depend on
    # how far the last round got. A traced run runs each round twice, traced
    # then untraced, so its overhead compares the same checks under the
    # same drift.
    while rounds < 2 or time.perf_counter() - start < args.seconds:
        traced_round = tracer is not None and rounds % 2 == 0
        for j in range(checks.ROUND):
            i = len(times)
            check = cycle[((rounds // 2 if tracer else rounds) * checks.ROUND + j) % len(cycle)]
            spin.enumerate_cover.cache_clear()
            gc.collect()
            entry = cli.main
            wrapped = contextlib.nullcontext()
            if traced_round:
                tracer.current_check = i
                entry = tracer.wrap("cli.main", cli.main)
                wrapped = tracer.installed()
            with wrapped:
                elapsed, code, stdout = run_check(entry, check.argv)
            times.append(elapsed)
            traced.append(traced_round)
            try:
                checks.judge(check, code, stdout)
            except checks.OracleError as exc:
                failed += 1
                wrong += code == 0
                print(f"check {i} ({' '.join(check.argv)}) failed: {exc}", file=sys.stderr)
        rounds += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {
        "attempted": len(times),
        "failed": failed,
        "correct": wrong == 0,
        "check_s": times,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        traced_ids = [i for i, t in enumerate(traced) if t]
        layers = tracer.layer_metrics(traced_ids)
        plain = [s for s, t in zip(times, traced) if not t]
        with_trace = [s for s, t in zip(times, traced) if t]
        # Traced against untraced checks_per_s, as a percentage.
        layers[tracing.OVERHEAD_METRIC] = 100.0 * (
            statistics.fmean(with_trace) / statistics.fmean(plain) - 1.0
        )
        elements = [tracer.counts.get(i, {}).get("spin.enumerate_cover.elements", 0) for i in traced_ids]
        if args.workload == "orbit" and any(e != checks.ORBIT_COVER_SIZE for e in elements):
            print(f"error: a traced check reused a cover (elements {elements})", file=sys.stderr)
            summary["correct"] = False
        summary["layers"] = layers
        if args.trace_out is not None:
            tracer.dump(args.trace_out)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
