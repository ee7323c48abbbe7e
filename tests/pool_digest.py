"""Digest of every benchmark pool item's CLI outcome, for byte-identity checks.

Usage: ``python tests/pool_digest.py OUT.json [--against OLD.json]``
   or: ``python tests/pool_digest.py --gate [OUT.json]``
   or: ``python tests/pool_digest.py --diff NEW.json OLD.json``

Runs each ``bench/pools.py`` ``all_items()`` entry in-process through
``qrspaces.cli.main`` (from this checkout's ``src``), with a fixed ``--out``
path per item, and writes one entry per item: the argv, the exit code, the
captured stdout and stderr, the sha256 of the output file (null when the
item wrote none), as ``out_keys``, a sha256 of each top-level key of the
output's records (each column of a sweep's CSV) over all its records, as
``outcome``, the fields the benchmark gates (``bench/worker.parse_outcome``),
as ``kernel_evaluations``, the item's per-a evaluations by route,
summed over its records (null when no record counts them: a sweep, a
growth fit, a membership check, an error exit), and, as
``error_estimates``, the ``[value, error_estimate]`` of each record that
carries an error estimate (null when none does).
Records embed the ``--out`` path, so the path depends only on the item's
position.  Two checkouts behave identically on the pools when their digests
are identical: run the script in one checkout, then in the other with
``--against`` the first digest (one after the other: they share the output
directory, removed at the end).  ``--against`` prints the argv of every item
whose exit, stdout, stderr or ``out_sha256`` differ, with the fields that
differ and the record keys whose values differ, then how far its gated
fields moved: the largest relative change of each numeric field that
differs (over a sweep's rows and a list's entries), or ``changed`` for any
other, and how each route of its kernel evaluations changed
(``direct 51 -> 45, conjugate 0 -> 6``), and, where its error estimates
moved, each old and new estimate with its ratio to the value
(``4.77e+05 -> 1.49e+06 (4.18x -> 13.1x the value)``); a last line sums
the routes over the items both digests count, so the work a change saves
shows.  It exits 1 if any item differs.

``--gate`` judges the same runs the way the benchmark does, for changes that
move values in their last bits: each outcome goes through
``bench/worker.parse_outcome`` and ``bench/gate.check_item`` against
``bench/reference.json``.  It prints every item that fails with its
problems, and the worst relative deviation of every item that moved, then
one summary line per workload: its items, its fails, and its worst
deviation with the item that has it, so the headroom left under the gate's
tolerance shows.  It also runs the ``pools.EXCLUDED`` items, whose contract
is their error exit: each must exit as ``reference.json`` ``excluded``
records, and one line sums them up.  It exits 1 if any item fails.  With
``OUT.json`` it also writes the pool items' digest there, as the first form
does.  ``--diff`` runs nothing: it compares two digest files as
``--against`` does.  Reads ``bench/`` and writes nothing there; pytest
does not collect this file.
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


def kernel_evaluations(path: Path):
    """The per-a evaluations by route, summed over the records of a JSON
    lines output: each record's own ``kernel_evaluations`` (a conjugate
    check), its ``grid``'s (a norm) or its ``engine_check``'s (a constant).
    None for a CSV or when no record has them."""
    if path.suffix == ".csv":
        return None
    totals = None
    with open(path) as fh:
        for record in map(json.loads, fh):
            holders = (record, record.get("grid"), record.get("engine_check"))
            routes = next((h["kernel_evaluations"] for h in holders
                           if isinstance(h, dict) and "kernel_evaluations" in h),
                          None)
            if routes is not None:
                totals = totals or {}
                for route, count in routes.items():
                    totals[route] = totals.get(route, 0) + count
    return totals


def error_estimates(path: Path):
    """``[value, error_estimate]`` of each record of a JSON lines output that
    carries an error estimate; None for a CSV or when no record does."""
    if path.suffix == ".csv":
        return None
    with open(path) as fh:
        pairs = [[r.get("value"), r["error_estimate"]]
                 for r in map(json.loads, fh) if "error_estimate" in r]
    return pairs or None


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
    sha, keys, routes, estimates = None, {}, None, None
    if out_path.exists():
        sha, keys = _sha256(out_path.read_bytes()), record_keys(out_path)
        routes = kernel_evaluations(out_path)
        estimates = error_estimates(out_path)
        out_path.unlink()
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out_sha256": sha,
            "out_keys": keys, "outcome": outcome,
            "kernel_evaluations": routes,
            "error_estimates": estimates}, outcome


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


def route_changes(routes, old_routes) -> str:
    """``direct 51 -> 45, conjugate 0 -> 6``: each route whose count differs
    between two ``kernel_evaluations``, a route one of them lacks counting
    0; empty when they agree or either is None."""
    if routes is None or old_routes is None:
        return ""
    return ", ".join(
        f"{route} {old_routes.get(route, 0)} -> {routes.get(route, 0)}"
        for route in dict.fromkeys([*old_routes, *routes])
        if routes.get(route, 0) != old_routes.get(route, 0))


def estimate_changes(estimates, old_estimates) -> str:
    """``4.77e+05 -> 1.49e+06 (4.18x -> 13.1x the value)`` for each record
    whose error estimate differs between two ``error_estimates``, the
    ratios to the new and old values; empty when they agree or either is
    None."""
    if estimates is None or old_estimates is None:
        return ""
    return ", ".join(
        f"{old_err:.3g} -> {err:.3g} ("
        + " -> ".join(f"{e / v:.3g}x" if v else "-"
                      for v, e in ((old_value, old_err), (value, err)))
        + " the value)"
        for (value, err), (old_value, old_err) in zip(estimates, old_estimates)
        if err != old_err)


def route_totals(entries, old_entries) -> tuple:
    """The ``kernel_evaluations`` of both digests summed route by route over
    the items at the same position and argv that both count."""
    totals = ({}, {})
    for new, old in zip(entries, old_entries):
        pair = new.get("kernel_evaluations"), old.get("kernel_evaluations")
        if new["argv"] != old["argv"] or None in pair:
            continue
        for total, routes in zip(totals, pair):
            for route, count in routes.items():
                total[route] = total.get(route, 0) + count
    return totals


def differences(entries, old_entries) -> list:
    """(argv, differing fields, differing record keys, moved gated fields,
    route changes, estimate changes) of every item whose outcome differs;
    the estimate changes are ``estimate_changes``, empty when a digest
    lacks the item's ``error_estimates``; an item present in
    one digest only differs in every field.  A key differs when its hash
    differs or one digest lacks it (a digest made before ``out_keys`` lacks
    them all); the moved fields are ``moved_fields``, empty when a digest
    lacks the item's ``outcome``; the route changes are ``route_changes``,
    empty when a digest lacks the item's ``kernel_evaluations``."""
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
        routes = route_changes(new.get("kernel_evaluations"),
                               old.get("kernel_evaluations"))
        estimates = estimate_changes(new.get("error_estimates"),
                                     old.get("error_estimates"))
        if fields:
            diffs.append((new.get("argv") or old.get("argv"), fields, keys,
                          moved, routes, estimates))
    return diffs


def diff_report(entries, old_path) -> int:
    """Print every item of ``entries`` that differs from the digest at
    ``old_path``, a summary line and the route totals; 1 if any differs."""
    with open(old_path) as fh:
        old_entries = json.load(fh)
    diffs = differences(entries, old_entries)
    for item_argv, fields, keys, moved, routes, estimates in diffs:
        in_keys = f" (keys {', '.join(keys)})" if keys else ""
        print(f"differs in {', '.join(fields)}{in_keys}: {json.dumps(item_argv)}")
        if moved:
            print("  moved: " + ", ".join(
                f"{key} changed" if change is None else f"{key} {change:.2e}"
                for key, change in moved))
        if routes:
            print(f"  kernel evaluations: {routes}")
        if estimates:
            print(f"  error estimate: {estimates}")
    print(f"{len(diffs)} of {len(entries)} items differ from {old_path}")
    totals, old_totals = route_totals(entries, old_entries)
    if totals or old_totals:
        print("kernel evaluations over the items both count: "
              + (route_changes(totals, old_totals) or "unchanged"))
    return 1 if diffs else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1]) as fh:
            return diff_report(json.load(fh), argv[2])
    gating = argv[:1] == ["--gate"]
    out = argv[1:] if gating else argv[:1]
    if not (len(argv) <= 2 if gating else
            len(argv) == 1 or len(argv) == 3 and argv[1] == "--against"):
        print("\n".join(__doc__.strip().splitlines()[2:5]), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        runs = [digest_item(i, item) for i, item in enumerate(pools.all_items())]
        if gating:
            excluded = [digest_item(len(runs) + i, argv)[0]
                        for i, (argv, _) in enumerate(pools.EXCLUDED)]
    finally:
        OUT_DIR.rmdir()
    entries = [entry for entry, _ in runs]
    if out:
        with open(out[0], "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"{len(entries)} items -> {out[0]}")
    if gating:
        return gate_report(runs, excluded)
    return diff_report(entries, argv[2]) if len(argv) == 3 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
