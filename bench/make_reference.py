"""Regenerate ``reference.json``: the outcome of every pool item.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/make_reference.py

It runs each pool item and each excluded item once, in this process, with
the same single-thread pinning the benchmark uses.  It refuses to write a
reference in which a pool item exits with an error, an oracle fails, or an
excluded item no longer errors (then it belongs back in a pool).
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    import run

    os.environ.update(run.THREAD_PINS)  # before worker imports numpy
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gate
    import pools
    import worker

    work_dir = run.work_dir(ROOT)
    out_path = os.path.join(work_dir, "reference-item")
    items, excluded, problems = {}, {}, []
    for argv, reason in [(a, None) for a in pools.all_items()] + pools.EXCLUDED:
        path = out_path + worker._out_suffix(argv)
        code, dt, _, error = worker.run_item(argv, path)
        outcome = worker.parse_outcome(argv, code, path) if error is None \
            else {"exit": None}
        if os.path.exists(path):
            os.unlink(path)
        key = gate.item_key(argv)
        print(f"{dt:8.3f} s  exit {code}  {key}", flush=True)
        if reason is None:
            if error is not None or code not in (0, 1):
                problems.append(f"pool item exits {code} ({error}): {key}")
            problems += [f"{key}: {p}" for p in gate.oracle(argv, outcome)]
            items[key] = outcome
        else:
            if code in (0, 1):
                problems.append(f"excluded item now exits {code}: {key}")
            excluded[key] = {"exit": code, "reason": reason}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {
        "generated": time.strftime("%Y-%m-%d"),
        "commit": run.git_commit(ROOT),
        "src_sha256": run.src_hash(ROOT),
        "rel_tol": gate.REL_TOL,
        "items": items,
        "excluded": excluded,
    }
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(items)} reference outcomes, {len(excluded)} excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
