"""Benchmark of the gridfdi pipeline: three closed-loop workloads, end-to-end
metrics with tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload study118 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The exit code is non-zero when any
correctness check fails.
"""

import os

# Pin BLAS before numpy loads: the matrices here are at most 304 x 118, and
# thread start-up would only add noise on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4          # fresh processes timed per run, besides this one
GRID_BASELINE = "26.4 s under cProfile, ~22 s unprofiled, on 2 cores"

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p95": "ms",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}


def _import_package():
    """Import gridfdi from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gridfdi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'gridfdi'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gridfdi
    if Path(gridfdi.__file__).resolve().parent != (src / "gridfdi").resolve():
        sys.exit(f"perfbench: imported gridfdi from {gridfdi.__file__}, not {src}")


def _set_up(workload_name: str, seed: int, probe: bool):
    """Imports, inputs, warm caches and one warm-up operation; returns the
    workload, its key sequence, the warm-up key and the set-up seconds
    (untimed preparation excluded)."""
    _import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name](seed)
    wl.setup()
    t = time.perf_counter()
    wl.prepare(full=not probe)
    untimed = time.perf_counter() - t
    keys = wl.keys()
    warm_key = next(keys)
    wl.op(warm_key)
    return wl, keys, warm_key, time.perf_counter() - T_START - untimed


class Tally:
    def __init__(self):
        self.keys: list = []            # key of every operation run
        self.errors: dict = {}          # operation number -> message

    def op(self, wl, key):
        try:
            wl.op(key)
        except Exception as exc:  # counted as a failed operation, run goes on
            self.errors[len(self.keys)] = f"{type(exc).__name__}: {exc}"
        self.keys.append(key)


def measure(wl, keys, tally: Tally, seconds: float, recorder=None):
    """Closed loop for ``seconds``; returns (latencies in s, elapsed s)."""
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        key = next(keys)
        t = time.perf_counter()
        if recorder is None:
            tally.op(wl, key)
        else:
            recorder.op = len(tally.keys)
            idx = recorder.begin("op")
            tally.op(wl, key)
            recorder.end(idx)
        latencies.append(time.perf_counter() - t)
    return latencies, time.perf_counter() - start


def finish(wl, tally: Tally):
    """Run what the run-level check still needs (untimed), then check.
    Returns (failed operation count, problems)."""
    for key in wl.uncovered():
        tally.op(wl, key)
    problems = list(tally.errors.values())
    bad_keys = wl.failed_keys(problems)
    failed = sum(1 for i, k in enumerate(tally.keys) if i in tally.errors or k in bad_keys)
    return failed, problems


def _probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _blas_threads() -> dict:
    """OpenBLAS thread count of each BLAS bundled with numpy and scipy."""
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        libs = glob.glob(str(Path(mod.__file__).parent.parent / f"{mod.__name__}.libs" / "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            # numpy bundles the 64-bit-integer build, scipy the 32-bit one.
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    out[mod.__name__] = int(getattr(lib, sym)())
                    break
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def host_info() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "openblas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def latency_metrics(latencies: list[float], elapsed: float) -> dict:
    from stats import percentile, samples_beyond, tail_percentile
    ms = [1e3 * x for x in latencies]
    tail = tail_percentile(len(ms))
    print(f"# latency: n={len(ms)} ops, p50 {percentile(ms, 50):.3f} ms, "
          f"p95 {percentile(ms, 95):.3f} ms ({samples_beyond(len(ms), 95)} beyond); "
          f"highest percentile with >=10 beyond: "
          + (f"p{tail:g} = {percentile(ms, tail):.3f} ms" if tail else "none"))
    if samples_beyond(len(ms), 95) < 10:
        print("# warning: op_ms_p95 rests on fewer than 10 samples beyond it")
    return {
        "ops_per_s": len(ms) / elapsed,
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p95": percentile(ms, 95),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("study118", "n1_sweep", "se_detect"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only time set-up and print it (used by the run itself)")
    args = ap.parse_args(argv)

    wl, keys, warm_key, setup_s = _set_up(args.workload, args.seed, args.probe)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    tally = Tally()
    tally.keys.append(warm_key)     # the warm-up operation counts as attempted
    if args.trace == 0:
        latencies, elapsed = measure(wl, keys, tally, args.seconds)
        metrics = latency_metrics(latencies, elapsed)
    else:
        # Alternate untraced and traced quarters so drift hits both alike.
        recorder = layers.Recorder()
        plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
        for _ in range(2):
            lat, elapsed = measure(wl, keys, tally, args.seconds / 4)
            plain += lat
            plain_s += elapsed
            restore, missing = layers.install(recorder)
            try:
                lat, elapsed = measure(wl, keys, tally, args.seconds / 4, recorder)
            finally:
                restore()
            traced += lat
            traced_s += elapsed
        metrics = layers.layer_metrics(recorder.spans, missing)
        metrics["trace.ops"] = float(len(traced))
        metrics["trace.overhead_frac"] = (
            1.0 - (len(traced) / traced_s) / (len(plain) / plain_s))
        if missing:
            print(f"# missing wrap targets (metrics read null): {', '.join(missing)}")
        _write_spans(args, recorder.spans)
        _print_shares(metrics, traced_s / max(len(traced), 1))

    failed, problems = finish(wl, tally)
    attempted = len(tally.keys)
    if args.trace == 0:
        samples = [setup_s] + [_probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_PROBES)]
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
        metrics["ok_frac"] = 1.0 - failed / attempted
        metrics["setup_s"] = statistics.median(samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.workload == "study118":
            grid = 240 / metrics["ops_per_s"]
            print(f"# study118: 240-scenario grid at this rate {grid:.1f} s; "
                  f"ROADMAP baseline {GRID_BASELINE}")
    print("# host: " + json.dumps(host_info()))
    print("# workload: " + json.dumps(wl.info()))
    print(f"# failed_frac: {failed}/{attempted}; waiting time: n/a (closed loop, no queue)")
    for p in problems[:20]:
        print(f"# FAILED: {p}")

    units = END_TO_END_UNITS if args.trace == 0 else layers.UNITS
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def _write_spans(args, spans):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "error": s.error}) + "\n")
    print(f"# spans: {len(spans)} written to {path.relative_to(ROOT)}")


def _print_shares(metrics, op_s: float):
    """Layer times as shares of the mean traced operation, for reading.
    Busy times include their children, so only self times add up."""
    print(f"# traced operation: {1e3 * op_s:.3f} ms mean; per layer:")
    for key, value in metrics.items():
        if key.endswith("_s") and value is not None:
            print(f"#   {key:40s} {1e3 * value:9.3f} ms/op {100 * value / op_s:6.1f} %")


if __name__ == "__main__":
    sys.exit(main())
