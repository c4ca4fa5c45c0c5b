"""qviterbi benchmark driver.

    python3 qvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from src/, nothing
is built or installed.  One process, single-threaded, closed loop: each
repetition of the workload starts after the previous one returns, until the
next one would end more than --seconds after the first began.  That first
repetition is an untimed warm-up; its checks still count.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
repetitions).  Its times are in reference seconds: each measured time is
divided by the host factor, the slowdown of a fixed probe timed beside it
relative to the reference machine (see host_factor).

--trace 1 alternates untraced and traced repetitions (at least two of each)
and reports the per-layer metrics in plain seconds; the traced repetitions
must agree exactly on every count.  The last line of stdout is the JSON result;
the line before it is the environment fingerprint.  Spans, per-repetition
times and the fingerprint are also written to qvbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from tracing import Tracer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each setup re-imports qviterbi, loads fixtures and generates the inputs.
SETUP_REPEATS = 7

# Probe times on the reference machine (2-vCPU Intel Xeon VM, uncontended).
# The host's speed drifts by up to 1.7x over minutes as neighbours load the
# shared cores; timing the probe beside every measurement removes that drift.
PROBE_PYTHON_REF_S = 0.020
PROBE_NUMPY_REF_S = 0.060

MODES = {"classical": "classical", "iterated-qva": "iterated", "probabilistic-qva": "probabilistic"}

COUNT = ("count", "lower")
SELF_S = ("s", "lower")
LATENCY = ("ms", "lower")
LAYER_METRICS = {
    "qva.sweep_omega": {"calls": COUNT, "self_s": SELF_S, "grid_points": COUNT,
                        "amp_updates": COUNT, "peak_alloc_mb": ("MB", "lower")},
    "qva.amplify_phases": {"calls": COUNT, "self_s": SELF_S, "amp_updates": COUNT},
    "qva.run_qva": {"calls": COUNT, "self_s": SELF_S, "iterations": COUNT,
                    "amp_updates": COUNT, "bytes_computed": ("B", "lower")},
    "qva.build_path_space": {"calls": COUNT, "self_s": SELF_S, "paths": COUNT},
    "qva.default_schedule": {"self_s": SELF_S},
    "qva.adaptive_decode": {"calls": COUNT, "self_s": SELF_S, "attempts": COUNT,
                            "accept_ratio": ("ratio", "higher"), "p50_ms": LATENCY,
                            "p99_ms": LATENCY},
    "qva.measure": {"calls": COUNT, "shots": COUNT, "self_s": SELF_S},
    "trials.amplitude_loaded_state": {"calls": COUNT, "self_s": SELF_S},
    "trials.run_trials": {"calls": COUNT, "draws": COUNT, "self_s": SELF_S,
                          "p50_ms": LATENCY, "p99_ms": LATENCY},
    "viterbi.viterbi_decode": {"calls": COUNT, "self_s": SELF_S, "trellis_steps": COUNT,
                               "p50_ms": LATENCY, "p99_ms": LATENCY},
    "viterbi.brute_force_decode": {"calls": COUNT, "self_s": SELF_S},
    "convcode.encode": {"calls": COUNT, "self_s": SELF_S},
    "convcode.transmit": {"calls": COUNT, "self_s": SELF_S},
    "hmm.to_hmm": {"self_s": SELF_S},
    "circuits.chain_state": {"calls": COUNT, "self_s": SELF_S, "dense_dim": COUNT,
                             "peak_alloc_mb": ("MB", "lower")},
    "circuits.step_block": {"calls": COUNT, "self_s": SELF_S},
    "cli.cmd_table": {"self_s": SELF_S},
    "cli.cmd_verify": {"self_s": SELF_S},
    "cli.run_decode_campaign": {"self_s": SELF_S},
}
RUN_METRICS = {
    "raw_wall_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
    "check_fail_ratio": ("ratio", "lower"),
    "amp_updates_per_s": ("1/s", "higher"),
    **{f"blocks_per_s.{short}": ("1/s", "higher") for short in MODES.values()},
    **{f"block_error_rate.{short}": ("ratio", "lower") for short in MODES.values()},
    "decode_failure_ratio.iterated": ("ratio", "lower"),
}
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "check_pass_ratio": ("ratio", "higher"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {
        f"{layer}.{key}": unit_better
        for layer, keys in LAYER_METRICS.items()
        for key, unit_better in keys.items()
    }
    spec.update(RUN_METRICS)
    return spec


def fresh_import() -> SimpleNamespace:
    """Import qviterbi as a user would: new module objects every time."""
    for name in [n for n in sys.modules if n == "qviterbi" or n.startswith("qviterbi.")]:
        del sys.modules[name]
    names = ("cli", "qva", "trials", "viterbi", "convcode", "circuits")
    return SimpleNamespace(**{n: importlib.import_module(f"qviterbi.{n}") for n in names})


def fingerprint(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "qviterbi").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


def host_factor() -> float:
    """How much slower than on the reference machine the host runs right now.

    The probe shares no code with qviterbi: half of it is interpreter-bound
    Python, half a numpy mark+diffuse loop on a 4 MB vector, the two kinds of
    work the workloads mix.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    t1 = time.perf_counter()
    x = np.arange(1 << 18) % 17
    v = np.ones(1 << 18, dtype=complex)
    for _ in range(5):
        v = v * np.exp(0.2j * x)
        v = (2.0 / len(v)) * v.sum() - v
    t2 = time.perf_counter()
    return 0.5 * (t1 - t0) / PROBE_PYTHON_REF_S + 0.5 * (t2 - t1) / PROBE_NUMPY_REF_S


def should_stop(started: float, seconds: float, walls: list[float]) -> bool:
    """Stop when one more repetition would end after the time budget."""
    return time.perf_counter() - started + median(walls) > seconds


def timed(run, m, inputs):
    t0 = time.perf_counter()
    rep = run(m, inputs)
    return time.perf_counter() - t0, rep


def collect_checks(reps) -> list[tuple[str, bool, str]]:
    checks = [c for rep in reps for c in rep.checks]
    for i, rep in enumerate(reps[1:], start=1):
        for name, digest in reps[0].digests.items():
            checks.append((f"{name}-digest-repeats-rep{i}", rep.digests.get(name) == digest, ""))
    return checks


def end_to_end(run, m, inputs, args, setup_s):
    """Medians of the timed repetitions, each divided by the host factor
    probed just before and just after it."""
    started = time.perf_counter()
    _, warm = timed(run, m, inputs)
    factor = host_factor()
    walls, factors, reps = [], [], [warm]
    while not walls or not should_stop(started, args.seconds, walls):
        wall, rep = timed(run, m, inputs)
        after = host_factor()
        walls.append(wall)
        factors.append((factor + after) / 2.0)
        reps.append(rep)
        factor = after
    checks = collect_checks(reps)
    failed = sum(not ok for _, ok, _ in checks)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median([w / f for w, f in zip(walls, factors)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_ratio": (len(checks) - failed) / len(checks),
    }
    return metrics, checks, {"walls": walls, "host_factors": factors}


def layer_metrics(records) -> dict[str, float]:
    selfs = [r.self_seconds() for r in records]
    out = {}
    for layer, keys in LAYER_METRICS.items():
        counts = records[0].counts.get(layer, {})
        for key in keys:
            if key == "self_s":
                value = median([s.get(layer, 0.0) for s in selfs])
            elif key in ("p50_ms", "p99_ms"):
                q = 50 if key == "p50_ms" else 99
                value = 1000.0 * percentile([d for r in records for d in r.durations(layer)], q)
            elif key == "peak_alloc_mb":
                value = median([r.peak_alloc.get(layer, 0) for r in records]) / 2**20
            elif key == "accept_ratio":
                attempts = counts.get("attempts", 0)
                value = counts.get("accepted", 0) / attempts if attempts else 0.0
            else:
                value = counts.get(key, 0)
            out[f"{layer}.{key}"] = value
    return out


def traced(run, m, inputs, args, workload):
    started = time.perf_counter()
    _, warm = timed(run, m, inputs)
    plain, plain_reps, traced_walls, traced_reps, records = [], [warm], [], [], []
    while len(records) < 2 or not should_stop(
        started, args.seconds, [a + b for a, b in zip(plain, traced_walls)]
    ):
        wall, rep = timed(run, m, inputs)
        plain.append(wall)
        plain_reps.append(rep)
        with Tracer(workload) as record:
            wall, rep = timed(run, m, inputs)
        traced_walls.append(wall)
        traced_reps.append(rep)
        records.append(record)

    first = records[0].exact_counts()
    for i, record in enumerate(records[1:], start=1):
        other = record.exact_counts()
        drift = {k: (first.get(k), other.get(k)) for k in first.keys() | other.keys()
                 if first.get(k) != other.get(k)}
        if drift:
            raise SystemExit(f"count drift between traced runs 0 and {i}: {drift}")

    checks = collect_checks(plain_reps + traced_reps)
    failed = sum(not ok for _, ok, _ in checks)
    metrics = layer_metrics(records)
    counts = records[0].counts
    wall = median(plain)
    amp_updates = sum(counts.get(layer, {}).get("amp_updates", 0)
                      for layer in ("qva.run_qva", "qva.sweep_omega", "qva.amplify_phases"))
    metrics.update({
        "raw_wall_s": wall,
        "trace_overhead_s": median(traced_walls) - wall,
        "check_fail_ratio": failed / len(checks),
        "amp_updates_per_s": amp_updates / wall,
    })
    for mode, short in MODES.items():
        phases = [r.stats[mode] for r in plain_reps[1:] if mode in r.stats]
        first = phases[0] if phases else None
        metrics[f"blocks_per_s.{short}"] = (
            first["blocks"] / median([p["seconds"] for p in phases]) if first else 0.0)
        metrics[f"block_error_rate.{short}"] = (
            first["block_errors"] / first["blocks"] if first else 0.0)
        if short == "iterated":
            metrics["decode_failure_ratio.iterated"] = (
                first["decode_failures"] / first["blocks"] if first else 0.0)
    spans = [
        [s.span_id, s.name, s.start, s.end, s.parent, f"{s.workload}/{i}"]
        for i, record in enumerate(records)
        for s in record.spans
    ]
    return metrics, checks, {"untraced_walls": plain, "traced_walls": traced_walls, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "qviterbi" / "__init__.py").is_file():
        print(f"error: no qviterbi sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (a dependency, not part of the measured set-up)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup, run = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)

    before = host_factor()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m = fresh_import()
        inputs = setup(m, args.seed, args.size, RESULTS)
        setups.append(time.perf_counter() - t0)
    setup_factor = (before + host_factor()) / 2.0

    if args.trace:
        values, checks, detail = traced(run, m, inputs, args, args.workload)
        spec = per_layer_spec()
    else:
        values, checks, detail = end_to_end(run, m, inputs, args, median(setups) / setup_factor)
        spec = END_TO_END
    failed = [c for c in checks if not c[1]]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": spec[name][0]} for name in spec},
    }
    env = fingerprint(args)
    report = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    report.write_text(json.dumps({
        "fingerprint": env, "result": result, "setups": setups, "setup_factor": setup_factor,
        "failed_checks": failed, **detail,
    }))
    for name, _, info in failed:
        print(f"check failed: {name}: {info}", file=sys.stderr)
    print(json.dumps({"fingerprint": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
