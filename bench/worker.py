"""One benchmark process: import qrspaces, then run CLI items back to back.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Protocol on stdin/stdout:

1. the worker imports ``qrspaces.cli`` and prints ``ready`` (the parent times
   spawn -> ready as set-up);
2. with ``--probe`` it exits there; otherwise it reads one JSON job from
   stdin: ``{"rounds": [[argv, ...], ...], "seconds": s, "max_rounds": n,
   "trace": bool, "work_dir": path, "trace_file": path}``;
3. it runs whole rounds in a closed loop (one item at a time) and prints one
   JSON line with the per-item outcomes, peak RSS and version info.

Each item is one in-process call to ``qrspaces.cli.main(argv)`` with ``--out``
pointing into the work directory; the output file is parsed into an outcome
that ``gate.py`` compares against the stored reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time

import qrspaces
import qrspaces.cli

# Output fields compared against the reference, per record kind.
NORM_FIELDS = ("value", "raw_sup", "sup_a")
CONSTANT_FIELDS = ("value", "sup_rho")
VERIFY_FIELDS = ("pass", "lhs", "rhs", "margin", "norm_u", "norm_v",
                 "in_range", "final_relative_change", "divergence_exponent")
SWEEP_FIELDS = ("pass", "lhs", "rhs", "margin", "error")
GROWTH_FIELDS = ("beta",)


def _out_suffix(argv) -> str:
    return ".csv" if argv[0] == "sweep" else ".jsonl"


def _sweep_value(text: str):
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def parse_outcome(argv, code: int, path: str) -> dict:
    """The reference-comparable part of one CLI call's result."""
    outcome = {"exit": code}
    if not os.path.exists(path):
        return outcome
    command = argv[0]
    if command == "sweep":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        outcome["rows"] = [{k: _sweep_value(row[k]) for k in SWEEP_FIELDS}
                           for row in rows]
        return outcome
    with open(path) as fh:
        rec = json.loads(fh.readline())
    fields = {"norm": NORM_FIELDS, "constants": CONSTANT_FIELDS,
              "verify": VERIFY_FIELDS, "growth": GROWTH_FIELDS}[command]
    for key in fields:
        if key in rec:
            outcome[key] = rec[key]
    if "truncation_trace" in rec:
        outcome["truncation_norms"] = [e["norm"] for e in rec["truncation_trace"]]
    return outcome


def run_item(argv, out_path: str):
    """Run one CLI call; return (exit code, seconds, stdout+file bytes, error)."""
    captured = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = qrspaces.cli.main(list(argv) + ["--out", out_path])
    except Exception as exc:  # an item that raises is a failed item
        code = None
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    out_bytes = len(captured.getvalue().encode())
    if os.path.exists(out_path):
        out_bytes += os.path.getsize(out_path)
    return code, dt, out_bytes, error


def _versions() -> dict:
    import numpy
    import scipy

    blas = {}
    config = getattr(numpy.__config__, "CONFIG", {})
    blas_cfg = config.get("Build Dependencies", {}).get("blas", {})
    if blas_cfg:
        blas = {"name": blas_cfg.get("name"), "version": blas_cfg.get("version")}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "qrspaces_file": qrspaces.__file__,
    }


def run_job(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        import tracer as tracing  # bench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracer.install()
    items = []
    rounds_done = 0
    loop_t0 = time.perf_counter()
    try:
        for round_items in job["rounds"][:job["max_rounds"]]:
            for argv in round_items:
                index = len(items)
                out_path = os.path.join(job["work_dir"],
                                        f"item-{index}{_out_suffix(argv)}")
                if tracer is not None:
                    tracer.begin_item(index)
                code, dt, out_bytes, error = run_item(argv, out_path)
                if tracer is not None:
                    tracer.end_item(out_bytes)
                outcome = parse_outcome(argv, code, out_path) \
                    if error is None else {"exit": None}
                if os.path.exists(out_path):
                    os.unlink(out_path)
                items.append({"argv": argv, "seconds": dt, "outcome": outcome,
                              "error": error, "out_bytes": out_bytes})
            rounds_done += 1
            elapsed = time.perf_counter() - loop_t0
            # start another whole round only if it ends nearer the target
            if elapsed + 0.5 * elapsed / rounds_done >= job["seconds"]:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - loop_t0
    result = {
        "items": items,
        "rounds": rounds_done,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_s"] = tracer.self_times()
        result["untraced_targets"] = tracer.missing
        tracer.write(job["trace_file"])
    return result


def main() -> int:
    print("ready", flush=True)
    if "--probe" in sys.argv[1:]:
        return 0
    job = json.loads(sys.stdin.read())
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
