"""Benchmark for the suborbital package: one workload, one run.

    python3 bench/run.py --workload {build,verify,roundtrip} --seed N \
        --seconds S --trace {0,1}

Builds the workload's seeded operation list, starts one worker process
that imports the package from ./src and runs whole passes over the list
for at least S seconds, then checks every output against the reference
computations in reference.py.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics of one traced
pass with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3  # each operation's median is taken over at least this many passes
TAIL_BEYOND = 10  # the tail is the operation time with exactly this many above it
# The worker may take this many times --seconds, set-up and at least
# MIN_PASSES passes included, before it is stopped as hung.  A program
# change that makes a pass up to about ten times slower still ends with a
# reported run.
WORKER_TIMEOUT_FACTOR = 20
# Before every operation the worker times a fixed calibration loop of
# small-object work (worker.calibrate).  Times are reported at the speed at
# which that loop takes this long.
CALIBRATION_REF_S = 0.0016


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(run_dir: Path, args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir), str(SRC),
           str(args.seconds), str(MIN_PASSES), str(args.trace)]
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_FACTOR * max(args.seconds, 30),
                          stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(run_dir / "result.json") as fh:
        return json.load(fh)


def outcome(ops: list[dict], run_dir: Path, result: dict) -> tuple[bool, int, list[str]]:
    """(correct, failed operations, problems) over every pass of the run."""
    passes = len(result["times"])
    correct, failed, problems = True, 0, []
    with open(run_dir / "outputs.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            op = ops[record["i"]]
            found = checks.check(op, record)
            if record["i"] in result["nondeterministic"]:
                found.append("output differs between passes")
            if found:
                failed += passes
                correct = correct and op.get("known_fault", False)
                problems.append(f"op {record['i']} ({op.get('tier')}): {found[0]}")
    return correct, failed, problems


def op_scales(result: dict) -> list[list[float]]:
    """Per operation: the reference calibration time over the median of the
    five calibrations around it (two before, its own, two after)."""
    return [[CALIBRATION_REF_S / statistics.median(c[max(0, i - 2):i + 3]) for i in range(len(c))]
            for c in result["calibration"]]


def end_to_end(result: dict, scaled: bool) -> dict:
    """Metrics over each operation's median time across the run's passes.

    Scaled, every time is multiplied by the calibrations around it to the
    machine speed at which the loop takes CALIBRATION_REF_S; otherwise the
    times are raw.  The median over passes keeps the short bursts in which
    the machine runs half as fast again from moving the result.
    """
    times = result["times"]
    if scaled:
        scales = op_scales(result)
        setup = [t * CALIBRATION_REF_S / c for t, c in result["setup_rounds"]]
    else:
        scales = [[1.0] * len(t) for t in times]
        setup = [t for t, _ in result["setup_rounds"]]
    per_op = sorted(
        statistics.median(times[k][i] * scales[k][i] for k in range(len(times)))
        for i in range(len(times[0]))
    )
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (per_op[-TAIL_BEYOND - 1], "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "suborbital" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    ops, warmup = workloads.make(args.workload, args.seed)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = {"ops": [{k: op[k] for k in ("kind", "argv", "doc") if k in op} for op in ops],
                "warmup": warmup}
        (run_dir / "ops.json").write_text(json.dumps(plan))
        result = run_worker(run_dir, args)
        correct, failed, problems = outcome(ops, run_dir, result)
        if args.trace:
            metrics = result["layers"]
            shutil.move(run_dir / "trace.jsonl", OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(result, True)
            raw = end_to_end(result, False)
            speed = [CALIBRATION_REF_S / c for cal in result["calibration"] for c in cal]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p) for p in result["times"])
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(result['times'])} passes of {len(ops)} ops, "
          f"{attempted} attempted, {failed} failed, correct={correct}, "
          f"{len(result['setup_rounds'])} set-up rounds, "
          f"{result['caches_cleared']} caches cleared before each operation", file=sys.stderr)
    if not args.trace:
        print("unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items())
              + f"; calibration scale median {statistics.median(speed):.3f}, "
              f"range {min(speed):.3f} to {max(speed):.3f}", file=sys.stderr)
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["module_shares"].items())
        print(f"tracing overhead {result['overhead_s']:.3f} s over an untraced pass of "
              f"{sum(result['times'][0]):.3f} s; "
              f"profiled self time: {shares}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
