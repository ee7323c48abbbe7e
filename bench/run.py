"""qrspaces benchmark: CLI workloads timed end to end and, traced, per layer.

Usage, from the repository root:

    python3 bench/run.py --workload conjugate-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --smoke                       # tiny run, lists metrics

Load is one client in a closed loop: one worker process runs the items of a
workload back to back, each an in-process call to ``qrspaces.cli.main(argv)``
with ``--threads 1`` and BLAS threads pinned to 1.  The seed picks and orders
the items (``pools.py``); qrspaces sees only the generated argv.  The worker
runs whole rounds, and starts another one only while that brings the run
nearer ``--seconds``, so every run measures whole rounds of the same mix.

``--trace 0`` reports the end-to-end metrics: set-up (median of several
spawns of a fresh interpreter up to the point where the first item can
start), items per second, median item time and peak RSS of the worker.
``--trace 1`` runs the same items twice in fresh workers, untraced and
traced, and reports per-layer metrics from spans recorded around calls into
qrspaces' public functions (``tracer.py``), plus the tracing overhead.

Every item's output is checked against ``reference.json`` at 1e-12 relative
and against the reference-free oracles in ``gate.py``.  The last line of
standard output is the result; the lines before it carry the environment,
the failures and the information metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import gate
import pools

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SAMPLES = 5   # interpreter spawns per run; setup_s is their median
RUN_DEADLINE_S = 170.0
MAX_ROUNDS = 50


def work_dir(root: str) -> str:
    path = os.path.join(root, "bench", "_work")
    os.makedirs(path, exist_ok=True)
    return path


def git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def src_hash(root: str) -> str:
    """sha256 over the relative paths and contents of the Python files in src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QRSPACES_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _spawn(root: str, *args):
    """Start a worker; return it with its set-up time (spawn -> ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(root),
        cwd=root, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker failed to import qrspaces")
    return proc, setup


def _finish(proc, stdin_text, deadline: float) -> str:
    """Feed the worker, wait for it (killing it past the deadline), return stdout."""
    try:
        stdout, _ = proc.communicate(stdin_text,
                                     timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return stdout


def measure_setup(root: str, samples: int, deadline: float) -> list:
    out = []
    for _ in range(samples):
        proc, setup = _spawn(root, "--probe")
        _finish(proc, None, deadline)
        out.append(setup)
    return out


def run_worker(root: str, job: dict, deadline: float):
    """One fresh worker running ``job``; returns (result, set-up seconds)."""
    proc, setup = _spawn(root)
    stdout = _finish(proc, json.dumps(job), deadline)
    return json.loads(stdout.strip().splitlines()[-1]), setup


def _tail(times: list):
    """Highest percentile with at least ten items beyond it, or None."""
    n = len(times)
    if n <= 10:
        return None
    q = 1.0 - 10.0 / n
    ordered = sorted(times)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return {"percentile": round(100.0 * q, 2), "value_s": value, "items": n}


def gate_items(result: dict, reference: dict):
    """(failures, max relative deviation) of one worker result."""
    failures, worst = [], 0.0
    for index, item in enumerate(result["items"]):
        if item["error"] is not None:
            failures.append({"item": index, "argv": item["argv"],
                             "problems": [f"raised {item['error']}"]})
            continue
        problems, dev = gate.check_item(item["argv"], item["outcome"], reference)
        worst = max(worst, dev)
        if problems:
            failures.append({"item": index, "argv": item["argv"],
                             "problems": problems})
    return failures, worst


def environment(root: str, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **{k: v for k, v in versions.items() if k != "qrspaces_file"},
        "thread_pins": THREAD_PINS,
        "git_commit": git_commit(root),
        "src_sha256": src_hash(root),
    }


def benchmark(root: str, name: str, strata, seed: int, seconds: float,
              trace: bool):
    """Run one workload; return the result object and the information line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = gate.load_reference()
    tmp = work_dir(root)
    job = {"rounds": pools.rounds(strata, seed, MAX_ROUNDS), "seconds": seconds,
           "max_rounds": MAX_ROUNDS, "trace": False, "work_dir": tmp,
           "trace_file": os.path.join(tmp, f"trace-{name}-{seed}.json")}
    setups = [] if trace else measure_setup(root, SETUP_SAMPLES - 1, deadline)
    plain, setup = run_worker(root, job, deadline)
    setups.append(setup)
    if not plain["versions"]["qrspaces_file"].startswith(
            os.path.join(root, "src") + os.sep):
        raise RuntimeError("qrspaces was not imported from this checkout's src/")
    failures, worst = gate_items(plain, reference)
    attempted = len(plain["items"])
    info = {"environment": environment(root, plain["versions"]),
            "rounds": plain["rounds"], "items": attempted}
    times = [item["seconds"] for item in plain["items"]]
    if not trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": attempted / plain["wall_s"], "unit": "1/s"},
            "item_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }
        info["setup_samples_s"] = setups
        info["item_s_tail"] = _tail(times)
    else:
        job.update(trace=True, max_rounds=plain["rounds"], seconds=float("inf"))
        traced, _ = run_worker(root, job, deadline)
        more, dev = gate_items(traced, reference)
        failures += more
        worst = max(worst, dev)
        attempted += len(traced["items"])
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = {
            "value": traced["wall_s"] / plain["wall_s"], "unit": "ratio"}
        total = sum(traced["self_s"].values())
        info["self_s_share"] = {
            name: round(s / total, 4) for name, s in
            sorted(traced["self_s"].items(), key=lambda kv: -kv[1])}
        info["trace_file"] = os.path.relpath(job["trace_file"], root)
        info["untraced_targets"] = traced["untraced_targets"]
    info["failed_frac"] = len({f["item"] for f in failures}) / attempted
    info["value_max_rel_dev"] = worst
    info["failures"] = failures[:20]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, info


def _declared_metrics(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of both modes; lists every metric")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qrspaces", "cli.py")):
        print("error: src/qrspaces not found; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.smoke:
        runs = [("smoke", pools.SMOKE, trace) for trace in (False, True)]
    elif args.workload == "all":
        runs = [(name, strata, bool(args.trace))
                for name, strata in pools.WORKLOADS.items()]
    elif args.workload in pools.WORKLOADS:
        runs = [(args.workload, pools.WORKLOADS[args.workload], bool(args.trace))]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(pools.WORKLOADS)} or all", file=sys.stderr)
        return 2

    ok = True
    for name, strata, trace in runs:
        try:
            result, info = benchmark(ROOT, name, strata, args.seed,
                                     1.0 if args.smoke else args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        declared = _declared_metrics(ROOT, trace)
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported != declared:
            print(f"error: {name}: metrics {reported} differ from BENCHMARK.json "
                  f"{declared}", file=sys.stderr)
            return 1
        ok &= result["correct"]
        print(json.dumps({"workload": name, "seed": args.seed, "trace": trace,
                          **info}))
        if len(runs) > 1:
            for metric, m in result["metrics"].items():
                print(f"{name:18s} {metric:34s} {m['value']!r:>24} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
