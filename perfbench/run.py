"""contextnet benchmark: run one workload on a closed loop and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics. ``--trace 1`` runs it untraced for half of the time and
with the per-layer wrappers of ``tracing.py`` for the other half, and prints
the per-layer metrics. ``--workload all`` runs every workload both ways in
child processes, repeats each untraced on a held-out seed to check that it
yields the same metrics, and writes every record to
``.perfbench_results.json`` in the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
``record: {...}``, holds the seed, the machine and the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ensemble", "sweep", "cli-mix")
#: Pinned to one thread in this process and in every interpreter it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Pairs of fresh interpreters timed for ``setup_s``; see ``measure_setup``.
SETUP_REPEATS = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
HELD_OUT_SEED_OFFSET = 7919

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracing import TRACED

    units: dict[str, str] = {}
    for key in TRACED:
        units[f"{key}.calls"] = "calls/op"
        units[f"{key}.self_us"] = "us/op"
    units.update({
        "sweep.csv_bytes": "bytes/op",
        "ensemble.relations_checked": "count/op",
        "ensemble.max_residual": "abs",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead": "ratio",
        "trace.absent": "count",
    })
    return units


def measure(workload, seconds: float, first: int = 0, tracer=None):
    """Closed loop: each operation starts when the previous one has returned
    and its output has been checked. Only the operation itself is timed, and
    only it is traced. The loop ends after ``seconds``, or once the
    ``SpeedTrack`` is full. Returns (the ``SpeedTrack``, check counts)."""
    from speed import SpeedTrack
    from workloads import WRONG

    track = SpeedTrack()
    kinds: Counter[str] = Counter()
    start = time.perf_counter()
    i = first
    while i == first or (time.perf_counter() - start < seconds and not track.full()):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # a crashing operation fails; the run goes on
            out = exc
        track.add(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        try:
            kinds[WRONG if isinstance(out, Exception) else workload.check(i, out)] += 1
        except Exception:  # output too malformed to inspect
            kinds[WRONG] += 1
        i += 1
    track.flush()
    return track, kinds


def measure_setup() -> tuple[float, dict[str, float]]:
    """Seconds to import ``contextnet.cli`` in a fresh interpreter, at reference speed.

    Each import of the package is paired with an import of
    ``speed.REF_MODULES`` in another fresh interpreter, run just before or
    just after it, in turn. On a shared 2-vCPU virtual machine, over five
    minutes, the median raw import time of 11 pairs moved by up to 1.8x and
    the median ratio by under 1.1x; the reference slice did not track import
    time. So ``setup_s`` is the median ratio times ``speed.REF_IMPORT_S``. One extra pair runs first and is
    discarded: it compiles the bytecode cache, which a user pays once per
    install. Also returns the raw medians.
    """
    from speed import REF_IMPORT_S, REF_MODULES

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_seconds(modules: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(modules)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout)

    package, reference = [], []
    for i in range(SETUP_REPEATS + 1):
        if i % 2:
            reference.append(import_seconds(REF_MODULES))
        package.append(import_seconds("contextnet.cli"))
        if not i % 2:
            reference.append(import_seconds(REF_MODULES))
    package, reference = package[1:], reference[1:]
    ratio = statistics.median(p / r for p, r in zip(package, reference))
    raw = {"setup_s": statistics.median(package), "ref_import_s": statistics.median(reference)}
    return REF_IMPORT_S * ratio, raw


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its record, result line included."""
    import numpy as np

    import workloads
    from tracing import Tracer

    setup_s, raw_setup = (None, {}) if trace else measure_setup()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.make(name, seed, workdir)
        for i in range(workload.warmup_ops):
            workload.op(i)
        if trace:
            untraced, kinds = measure(workload, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                track, traced_kinds = measure(workload, seconds / 2, untraced.n, tracer)
            finally:
                tracer.uninstall()
            kinds += traced_kinds
            attempted = untraced.n + track.n
        else:
            track, kinds = measure(workload, seconds)
            attempted = track.n
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # ``failed`` counts operations that raised or gave wrong output. A gate
    # outcome is the program's own true verdict on a point, so it is measured
    # in ``pass_ratio`` and ``fail_ratio`` instead.
    failed = kinds[workloads.WRONG]
    flagged = kinds[workloads.GATE] + failed
    n, times, scaled = track.n, track.raw[: track.n], track.scaled[: track.n]
    ops_per_s = n / float(scaled.sum())
    if trace:
        factor = track.factor()
        metrics = {}
        for key in tracer.calls:
            metrics[f"{key}.calls"] = tracer.calls[key] / n
            metrics[f"{key}.self_us"] = tracer.self_ns[key] / 1e3 / n / factor
        untraced_ops_per_s = untraced.n / float(untraced.scaled[: untraced.n].sum())
        metrics.update({
            "sweep.csv_bytes": getattr(workload, "csv_bytes", 0) / attempted,
            "ensemble.relations_checked": getattr(workload, "relations_checked", 0) / attempted,
            "ensemble.max_residual": getattr(workload, "max_residual", 0.0),
            "trace.ops_per_s_untraced": untraced_ops_per_s,
            "trace.ops_per_s_traced": ops_per_s,
            "trace.overhead": untraced_ops_per_s / ops_per_s,
            "trace.absent": len(tracer.absent),
        })
        units = per_layer_units()
    else:
        p50, p99 = np.percentile(scaled, [50, 99])
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_us": float(p50) * 1e6,
            "op_p99_us": float(p99) * 1e6,
            "pass_ratio": (attempted - flagged) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record = environment(seed)
    record.update({
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "timed_ops": n,
        "checks": dict(kinds),
        "fail_ratio": flagged / attempted,
        "speed_factor": track.factor(),
        "raw": {
            "ops_per_s": n / float(times.sum()),
            "op_p50_us": float(np.percentile(times, 50)) * 1e6,
            "op_p99_us": float(np.percentile(times, 99)) * 1e6,
            **raw_setup,
        },
    })
    if trace:
        record["absent"] = tracer.absent
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={result['attempted']} failed={result['failed']} "
          f"fail_ratio={record['fail_ratio']:.6g} correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "result"}))


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{name} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    record = json.loads(lines[-2].removeprefix("record: "))
    record["result"] = json.loads(lines[-1])
    return record


def metric_units(record: dict) -> dict[str, str]:
    return {k: m["unit"] for k, m in record["result"]["metrics"].items()}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, then untraced on a held-out seed."""
    records, ok = [], True
    for name in WORKLOADS:
        untraced = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        held_out = run_child(name, seed + HELD_OUT_SEED_OFFSET, seconds, 0)
        same = metric_units(held_out) == metric_units(untraced)
        print(f"{name}: held-out seed {held_out['seed']} gives the same metrics: {same}")
        ok = ok and same and all(r["result"]["correct"] for r in (untraced, traced, held_out))
        records += [untraced, traced, held_out]
    out = ROOT / ".perfbench_results.json"
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {out.name}; all correct and consistent: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        import contextnet.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import contextnet from {SRC}: {exc}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
