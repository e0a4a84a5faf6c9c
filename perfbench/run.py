"""rankcomp benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload predict --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
line before it stamps the environment and run details.  See README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports and input generation

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402
from clock import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SCRATCH = environment.ROOT / ".perfbench"
WORKLOADS = ("predict", "corpus", "grid", "solver")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs each workload in turn, in its own process")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--heldout",
        action="store_true",
        help="draw inputs from the held-out seed set that gains must also hold on",
    )
    p.add_argument("--out", type=Path, help="also write the full record as JSON here")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all" and (args.out or args.setup_only):
        p.error("--out and --setup-only take a single workload")
    return args


class Phase:
    """Pass and item timings of one closed-loop phase.

    pass_s holds raw wall seconds (they pace the loop); item_s holds
    calibrated seconds (see clock.py), which every reported time uses.
    """

    def __init__(self, items: int):
        self.pass_s: list[float] = []
        self.item_s: list[list[float]] = [[] for _ in range(items)]  # per item, per pass
        self.slowdown = 1.0  # median over the phase, see clock.py
        self.attempted = 0
        self.failed = 0
        self.quality: dict[str, list[float]] = {}

    def mean_quality(self) -> dict:
        return {k: statistics.fmean(v) for k, v in self.quality.items()}

    def item_medians(self) -> list[float]:
        """One latency per item of the pass, its median over the passes; the
        sample count then does not depend on how many passes fit the budget."""
        return [statistics.median(times) for times in self.item_s]

    def wall_s(self) -> float:
        """Median pass time, taken item by item so a burst of machine noise
        in one pass moves only the items it overlapped."""
        return sum(self.item_medians())


def run_phase(workload, budget_s=None, passes=None, tracer=None) -> Phase:
    """Repeat the pass until the next one would overrun the budget, or a fixed count.

    At least one pass runs.  Only item calls are timed; output checks run
    between them, untimed and untraced.
    """
    phase = Phase(len(workload.pass_items))
    clock = SpeedClock(workload.calibration)
    if tracer is not None:
        clock.pause = tracer.paused
    with clock.running():
        k = 0
        while passes is None or k < passes:
            if passes is None and k:
                if sum(phase.pass_s) + statistics.median(phase.pass_s) > budget_s:
                    break
            phase.pass_s.append(run_pass(workload, phase, clock, tracer))
            k += 1
    phase.slowdown = clock.slowdown()
    return phase


def run_pass(workload, phase, clock, tracer) -> float:
    """One pass over the items; returns its raw wall seconds."""
    elapsed = 0.0
    for item, times in zip(workload.pass_items, phase.item_s):
        phase.attempted += 1
        raw_s, calibrated_s, out, exc = clock.time(item.run)
        elapsed += raw_s
        times.append(calibrated_s)
        if exc is not None:
            phase.failed += 1
            print(f"[perfbench] {item.name} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
            continue
        try:
            if tracer is not None:
                with tracer.suspended():
                    quality = item.check(out)
            else:
                quality = item.check(out)
        except Exception:  # CheckFailed, or a check that could not run
            phase.failed += 1
            print(f"[perfbench] {item.name} failed its check:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        for key, value in quality.items():
            phase.quality.setdefault(key, []).append(value)
    return elapsed


def tail(samples):
    """(value, percentile): the highest percentile leaving TAIL_BEYOND samples above it.

    With 2 * TAIL_BEYOND samples or fewer no percentile above the median
    qualifies, and the median is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def calibrated_setup_s(raw_s, weights):
    """Set-up time at the reference speed of clock.py, from three calibrations."""
    clock = SpeedClock(weights)
    for _ in range(3):
        clock.sample()
    return clock.scale(raw_s)


def self_command(args, workload, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    return cmd + ["--heldout"] if args.heldout else cmd


def run_all(args) -> int:
    """Run every workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(self_command(args, workload), cwd=environment.ROOT,
                              capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print(lines[-2])
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def setup_samples(args, own_s):
    """Median set-up time over this process and fresh interpreters."""
    cmd = self_command(args, args.workload, "--setup-only")
    samples = [own_s]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=environment.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        environment.prepare()
    except environment.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads  # imports rankcomp and numpy

    seed_set = "heldout" if args.heldout else "bench"
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    workload = workloads.make(args.workload, args.seed, seed_set, expected, SCRATCH)
    own_setup_s = calibrated_setup_s(time.perf_counter() - T0, workload.calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    SCRATCH.mkdir(exist_ok=True)
    try:
        record = measure(args, workload, own_setup_s)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, seed_set=seed_set,
                  seconds=args.seconds, trace=args.trace, env=environment.stamp())
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    info = {k: v for k, v in record.items() if k not in result}
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(args, workload, own_setup_s) -> dict:
    if args.trace:
        import layers
        from tracer import Tracer

        untraced = run_phase(workload, budget_s=args.seconds / 2)
        tracer = Tracer()
        probes = layers.Probes(tracer)
        tracer.install()
        try:
            traced = run_phase(workload, passes=len(untraced.pass_s), tracer=tracer)
        finally:
            tracer.uninstall()
        phases = (untraced, traced)
        metrics = layers.metrics(tracer, probes, args.workload, traced, untraced)
        extra = {"labels": {name: how for name, (_, how) in layers.METRICS.items()}}
    else:
        phase = run_phase(workload, budget_s=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s, setup_all = setup_samples(args, own_setup_s)
        item_s = phase.item_medians()
        tail_ms, tail_pct = tail(item_s)
        phases = (phase,)
        metrics = {
            "wall_s": {"value": phase.wall_s(), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "item_p50_ms": {"value": 1000.0 * statistics.median(item_s), "unit": "ms"},
        }
        extra = {
            # reported, not gated: its run-to-run spread is too wide for a bound
            "item_tail_ms": 1000.0 * tail_ms,
            "item_samples": len(item_s),
            "slowdown": phase.slowdown,
            "item_tail_percentile": tail_pct,
            "setup_samples_s": setup_all,
            "quality": phase.mean_quality(),
        }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "passes": [len(p.pass_s) for p in phases],
        "pass_s": [p.pass_s for p in phases],
        "metrics": metrics,
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
