"""The process that does the program's work for one benchmark run.

Usage (started by run.py, not by hand):

    python3 bench/worker.py RUN_DIR SRC_DIR SECONDS MIN_PASSES TRACE

Reads RUN_DIR/ops.json, imports the package from SRC_DIR, times the set-up
and then whole passes over the operation list, and writes the outputs of
the first pass to RUN_DIR/outputs.jsonl and the timings to
RUN_DIR/result.json.  Checking the outputs is left to the parent process,
so the reference work never inflates this process's peak memory.  The
worker exits at the next operation if its parent has gone.
"""

import sys

# The modules of a fresh interpreter.  Every set-up round drops all others
# from sys.modules, the worker's own imports below included, so an import
# round pays for every module the package pulls in.
BASELINE = frozenset(sys.modules)

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

SETUP_ROUNDS = 3  # at the start of a run; one more comes before every pass
PACKAGE = "suborbital"


def purge() -> None:
    """Drop the modules, and collect the cycles that hold them, so that each
    set-up round adds no memory to the peak that a fresh process would not."""
    for name in [n for n in sys.modules if n not in BASELINE]:
        del sys.modules[name]
    gc.collect()


def import_program() -> dict:
    names = ("cli", "graphs", "oracle", "graph_io", "errors")
    importlib.import_module(PACKAGE)
    return {n: importlib.import_module(f"{PACKAGE}.{n}") for n in names}


def find_caches() -> list:
    """Every functools cache held by a module of the package."""
    caches = []
    for name, module in sys.modules.items():
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    caches.append(value)
    return caches


def clear(caches: list) -> None:
    for cache in caches:
        cache.cache_clear()
        if cache.cache_info().currsize:
            raise RuntimeError(f"cache {cache!r} did not clear")


class Runner:
    """Runs one operation through the package's public entry points."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.suborbital_error = mods["errors"].SuborbitalError
        self.stdout_bytes = 0

    def __call__(self, op: dict) -> tuple[float, dict]:
        if op["kind"] == "doc":
            return self.roundtrip(op["doc"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.mods["cli"].main(op["argv"])
            elapsed = time.perf_counter() - t0
        stdout = out.getvalue()
        self.stdout_bytes += len(stdout.encode())
        return elapsed, {"rc": rc, "stdout": stdout, "stderr": err.getvalue()}

    def roundtrip(self, doc: str) -> tuple[float, dict]:
        graph_io = self.mods["graph_io"]
        t0 = time.perf_counter()
        try:
            emitted = graph_io.emit_json(graph_io.parse_json(doc))
        except Exception as exc:  # every refusal is an output to check
            elapsed = time.perf_counter() - t0
            return elapsed, {"error": type(exc).__name__, "message": str(exc),
                             "domain": isinstance(exc, self.suborbital_error)}
        return time.perf_counter() - t0, {"emitted": emitted}


class _Point:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den


def calibrate() -> float:
    """Seconds for a fixed loop of small-object, tuple, dict and gcd work,
    by which run.py scales the times to one machine speed.

    The loop runs with the collector off, so its time depends on the
    machine's speed of the moment and not on what the program left on the
    heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        for i in range(1000):
            p = _Point(i * 7 % 101, i % 13 + 1)
            key = (p.num, p.den)
            seen[key] = seen.get(key, 0) + math.gcd(p.num, p.den)
        sorted(seen.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> int:
    run_dir, src, seconds, min_passes, trace = argv[0], argv[1], float(argv[2]), int(argv[3]), argv[4] == "1"
    with open(os.path.join(run_dir, "ops.json")) as fh:
        plan = json.load(fh)
    ops, warmup = plan["ops"], plan["warmup"]
    parent = os.getppid()
    sys.path.insert(0, src)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    # Set-up rounds: a few at the start and one before every pass, each with
    # the median of three calibrations taken just before it.
    setup: list[tuple[float, float]] = []

    def set_up() -> dict:
        speed = sorted(calibrate() for _ in range(3))[1]
        purge()
        t0 = time.perf_counter()
        mods = import_program()
        Runner(mods)(warmup)
        setup.append((time.perf_counter() - t0, speed))
        return mods

    times: list[list[float]] = []
    calibration: list[list[float]] = []
    for _ in range(SETUP_ROUNDS):
        mods = set_up()
    origin = os.path.realpath(mods["cli"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported the package from {origin}, not from {src}")

    first: list[str] = []
    nondeterministic: set[int] = set()
    started = time.perf_counter()
    with open(os.path.join(run_dir, "outputs.jsonl"), "w") as out:
        while True:
            if times:
                mods = set_up()
            runner, caches = Runner(mods), find_caches()
            traced = tracer is not None and len(times) == 1
            if traced:
                tracer.install(mods)
            pass_times, pass_calibration = [], []
            for i, op in enumerate(ops):
                if os.getppid() != parent:
                    return 1
                clear(caches)
                pass_calibration.append(calibrate())
                if traced:
                    tracer.profile.enable()
                elapsed, record = runner(op)
                if traced:
                    tracer.profile.disable()
                pass_times.append(elapsed)
                if not times:
                    first.append(digest(record))
                    out.write(json.dumps({"i": i, **record}) + "\n")
                elif digest(record) != first[i]:
                    nondeterministic.add(i)
            times.append(pass_times)
            calibration.append(pass_calibration)
            if traced:
                break
            if tracer is None and time.perf_counter() - started >= seconds \
                    and len(times) >= min_passes:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_rounds": setup,
        "times": times,
        "calibration": calibration,
        "peak_rss_kb": peak_kb,
        "nondeterministic": sorted(nondeterministic),
        "caches_cleared": len(caches),
    }
    if tracer is not None:
        result["layers"] = tracer.layers(runner.stdout_bytes)
        result["overhead_s"] = sum(times[1]) - sum(times[0])
        result["module_shares"] = tracer.module_shares()
        tracer.write(os.path.join(run_dir, "trace.jsonl"))
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
