"""Benchmark of fbcsf: one workload per call, its result as one JSON line.

Run from the root of the repository:

    python3 bench/run.py --workload egg_analysis --seed 0 --seconds 20 \
        --trace 0
    python3 bench/run.py --workload all

--trace 0 times the workload untraced and reports the end-to-end metrics;
--trace 1 runs it once untraced and twice traced and reports the per-layer
metrics.  --workload all runs every workload in a fresh process of its own
and prints one table.  The last line of standard output is the result
object; the exit code is 1 when a correctness check failed and 2 when the
library sources are missing.  README.md describes every metric.
"""

import os

# pinned before numpy is first imported; child processes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe, array_kernel, interpreter_kernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("disk_extinction", "egg_analysis", "oval_family")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
END_TO_END = ("setup_s", "run_s", "analysis_s", "oval_ms_p50", "oval_ms_p75",
              "peak_rss_mb", "rate_relerr", "profile_c_abserr")


def import_library():
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "fbcsf" / "__init__.py").is_file():
        print(f"fbcsf sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fbcsf
    if Path(fbcsf.__file__).resolve().parent != SRC / "fbcsf":
        print(f"fbcsf imported from {fbcsf.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def setup_probe(name):
    """Child process: reference seconds to import the library and build the
    workload's inputs.  The probe's kernel must not import numpy, which the
    region times."""
    with SpeedProbe(interpreter_kernel) as probe:
        start = time.perf_counter()
        import_library()
        from workloads import WORKLOADS
        WORKLOADS[name].setup()
        end = time.perf_counter()
    print(probe.scaled(start, end))


def measure_setup(name):
    """Median set-up time over fresh processes, and the samples."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_one(args):
    import_library()
    setup = measure_setup(args.workload) if not args.trace else None
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    with SpeedProbe(array_kernel) as probe:
        if args.trace:
            outcome = wl.trace(args.seed, probe)
        else:
            outcome = wl.measure(args.seed, args.seconds, probe)
    outcome.notes.append(f"machine speed {probe.speed():.3f} of the reference "
                         f"over {len(probe.samples)} probe samples")
    if args.trace:
        metrics = outcome.metrics
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found = dict(outcome.metrics, setup_s=(setup[0], "s"),
                     peak_rss_mb=(peak_mb, "MB"))
        metrics = {name: found[name] for name in END_TO_END}
        outcome.notes.insert(0, "setup_s samples " + ", ".join(
            f"{s:.4f}" for s in setup[1]))

    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload}  seed {args.seed}  {args.seconds} s  {mode}")
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload:16} {name:36} {value:>14.6g} {unit}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for line in outcome.notes:
        print(f"  {line}")
    correct = all(ok for _, ok, _ in outcome.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload in a fresh process; one summary table at the end."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
            rows.append((name, "correct", result["correct"], ""))
    print("== summary")
    for name, metric, value, unit in rows:
        print(f"  {name:16} {metric:36} {value!s:>22} {unit}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the fixed rho grid of oval_family")
    parser.add_argument("--seconds", type=int, default=20,
                        help="least time spent repeating the timed operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
