"""Digest of every benchmark pool item's CLI outcome, for byte-identity checks.

Usage: ``python tests/pool_digest.py OUT.json [--against OLD.json]``
   or: ``python tests/pool_digest.py --gate``

Runs each ``bench/pools.py`` ``all_items()`` entry in-process through
``qrspaces.cli.main`` (from this checkout's ``src``), with a fixed ``--out``
path per item, and writes one entry per item: the argv, the exit code, the
captured stdout and stderr, the sha256 of the output file (null when the
item wrote none), as ``out_keys``, a sha256 of each top-level key of the
output's records (each column of a sweep's CSV) over all its records, and,
as ``outcome``, the fields the benchmark gates (``bench/worker.parse_outcome``).
Records embed the ``--out`` path, so the path depends only on the item's
position.  Two checkouts behave identically on the pools when their digests
are identical: run the script in one checkout, then in the other with
``--against`` the first digest (one after the other: they share the output
directory, removed at the end).  ``--against`` prints the argv of every item
whose exit, stdout, stderr or ``out_sha256`` differ, with the fields that
differ and the record keys whose values differ, then how far its gated
fields moved: the largest relative change of each numeric field that
differs (over a sweep's rows and a list's entries), or ``changed`` for any
other.  It exits 1 if any item differs.

``--gate`` judges the same runs the way the benchmark does, for changes that
move values in their last bits: each outcome goes through
``bench/worker.parse_outcome`` and ``bench/gate.check_item`` against
``bench/reference.json``.  It prints every item that fails with its
problems, and the worst relative deviation of every item that moved, then
one summary line per workload: its items, its fails, and its worst
deviation with the item that has it, so the headroom left under the gate's
tolerance shows.  It also runs the ``pools.EXCLUDED`` items, whose contract
is their error exit: each must exit as ``reference.json`` ``excluded``
records, and one line sums them up.  It exits 1 if any item fails.  Reads
``bench/`` and writes nothing there; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gate  # noqa: E402
import pools  # noqa: E402
import qrspaces.cli  # noqa: E402
import worker  # noqa: E402

OUT_DIR = Path(tempfile.gettempdir()) / "qrspaces-pool-digest"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_keys(path: Path) -> dict:
    """sha256 of each top-level key's values over every record of an output
    file: the keys of its JSON lines, or the columns of a CSV."""
    with open(path, newline="") as fh:
        records = (list(csv.DictReader(fh)) if path.suffix == ".csv"
                   else [json.loads(line) for line in fh])
    keys = dict.fromkeys(key for record in records for key in record)
    return {key: _sha256(json.dumps([r.get(key) for r in records],
                                    sort_keys=True).encode())
            for key in keys}


def digest_item(index: int, argv):
    """(digest entry, gate outcome) of one item."""
    suffix = ".csv" if argv[0] == "sweep" else ".jsonl"
    out_path = OUT_DIR / f"item-{index:03d}{suffix}"
    if out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = qrspaces.cli.main(list(argv) + ["--out", str(out_path)])
    outcome = worker.parse_outcome(argv, code, str(out_path))
    sha, keys = None, {}
    if out_path.exists():
        sha, keys = _sha256(out_path.read_bytes()), record_keys(out_path)
        out_path.unlink()
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out_sha256": sha,
            "out_keys": keys, "outcome": outcome}, outcome


def excluded_report(entries) -> int:
    """Print every excluded item whose exit differs from its reference exit
    and one summary line; the number that differ."""
    with open(gate.REFERENCE_PATH) as fh:
        reference = json.load(fh)["excluded"]
    failed = 0
    for entry in entries:
        want = reference[gate.item_key(entry["argv"])]["exit"]
        if entry["exit"] != want:
            failed += 1
            print(f"FAIL {json.dumps(entry['argv'])}: exit {entry['exit']}, "
                  f"reference {want}")
    exits = ", ".join(str(entry["exit"]) for entry in entries)
    print(f"excluded: {len(entries)} items, {failed} fail, exits {exits}")
    return failed


def gate_report(runs, excluded) -> int:
    """Print failing and moved items of (entry, outcome) runs and a summary
    per workload, then the excluded items' exits; 1 if any fails."""
    reference = gate.load_reference()
    judged = {}  # argv -> (failed, worst relative deviation)
    for entry, outcome in runs:
        problems, worst = gate.check_item(entry["argv"], outcome, reference)
        item = json.dumps(entry["argv"])
        if problems:
            print(f"FAIL {item}: " + "; ".join(problems))
        elif worst > 0.0:
            print(f"moved {worst:.2e} {item}")
        judged[tuple(entry["argv"])] = (bool(problems), worst)
    failed = sum(fail for fail, _ in judged.values())
    moved = sum(worst > 0.0 for fail, worst in judged.values() if not fail)
    print(f"{len(runs)} items: {failed} fail, {moved} moved within "
          f"{gate.REL_TOL:g}, {len(runs) - failed - moved} identical")
    for name, strata in pools.WORKLOADS.items():
        items = {tuple(argv) for stratum in strata for argv in stratum}
        fails = sum(judged[argv][0] for argv in items)
        worst, argv = max((judged[argv][1], argv) for argv in items)
        print(f"{name}: {len(items)} items, {fails} fail, worst {worst:.2e} "
              f"of {gate.REL_TOL:g} at {json.dumps(list(argv))}")
    failed += excluded_report(excluded)
    return 1 if failed else 0


FIELDS = ("exit", "stdout", "stderr", "out_sha256")


def _field_values(outcome: dict) -> dict:
    """Each gated field of an outcome as the list of its values: a list
    field's entries, a sweep column's values over its rows."""
    fields = {}
    for key, value in outcome.items():
        if key == "rows":
            for row in value:
                for column, v in row.items():
                    fields.setdefault(column, []).append(v)
        else:
            fields[key] = value if isinstance(value, list) else [value]
    return fields


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moved_fields(outcome: dict, old_outcome: dict) -> list:
    """(field, largest relative change) of each gated field whose values
    differ, the change None where the field is not numeric on both sides
    or changed its length."""
    new, old = _field_values(outcome), _field_values(old_outcome)
    moved = []
    for key in dict.fromkeys([*old, *new]):
        xs, rs = new.get(key), old.get(key)
        if xs == rs:
            continue
        if xs is None or rs is None or len(xs) != len(rs) \
                or not all(map(_is_number, xs + rs)):
            moved.append((key, None))
        else:
            moved.append((key, max(gate._rel_dev(float(x), float(r))
                                   for x, r in zip(xs, rs))))
    return moved


def differences(entries, old_entries) -> list:
    """(argv, differing fields, differing record keys, moved gated fields)
    of every item whose outcome differs; an item present in one digest only
    differs in every field.  A key differs when its hash differs or one
    digest lacks it (a digest made before ``out_keys`` lacks them all);
    the moved fields are ``moved_fields``, empty when a digest lacks the
    item's ``outcome``."""
    missing = dict.fromkeys(FIELDS)
    diffs = []
    for i in range(max(len(entries), len(old_entries))):
        new = entries[i] if i < len(entries) else missing
        old = old_entries[i] if i < len(old_entries) else missing
        fields = [k for k in FIELDS if new[k] != old[k]]
        new_keys, old_keys = new.get("out_keys") or {}, old.get("out_keys") or {}
        keys = [k for k in {**old_keys, **new_keys}
                if new_keys.get(k) != old_keys.get(k)]
        moved = []
        if new.get("outcome") is not None and old.get("outcome") is not None:
            moved = moved_fields(new["outcome"], old["outcome"])
        if fields:
            diffs.append((new.get("argv") or old.get("argv"), fields, keys,
                          moved))
    return diffs


def main(argv) -> int:
    gating = argv == ["--gate"]
    if not gating and (len(argv) not in (1, 3)
                       or (len(argv) == 3 and argv[1] != "--against")):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        runs = [digest_item(i, item) for i, item in enumerate(pools.all_items())]
        if gating:
            excluded = [digest_item(len(runs) + i, argv)[0]
                        for i, (argv, _) in enumerate(pools.EXCLUDED)]
    finally:
        OUT_DIR.rmdir()
    if gating:
        return gate_report(runs, excluded)
    entries = [entry for entry, _ in runs]
    with open(argv[0], "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} items -> {argv[0]}")
    if len(argv) == 1:
        return 0
    with open(argv[2]) as fh:
        diffs = differences(entries, json.load(fh))
    for item_argv, fields, keys, moved in diffs:
        in_keys = f" (keys {', '.join(keys)})" if keys else ""
        print(f"differs in {', '.join(fields)}{in_keys}: {json.dumps(item_argv)}")
        if moved:
            print("  moved: " + ", ".join(
                f"{key} changed" if change is None else f"{key} {change:.2e}"
                for key, change in moved))
    print(f"{len(diffs)} of {len(entries)} items differ from {argv[2]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
