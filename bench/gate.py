"""Correctness gate: compare item outcomes with the stored reference.

The reference (``reference.json``) holds, per pool item, the outcome the
seed commit produced: exit code, verdict and values.  An item fails when it
raised, when its exit code or verdict differs, or when a value deviates by
more than ``REL_TOL`` relative.  The oracles below do not depend on the
reference: they are closed forms and patterns the paper's results fix.
"""

from __future__ import annotations

import json
import math
import os
import shlex

REL_TOL = 1e-12
# K-quasiregular conjugate bounds that the affine maps z - k conj(z) attain
EQUALITY_THEOREMS = ("3.1", "3.2", "cor3.1", "cor3.2", "cor3.3")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def item_key(argv) -> str:
    return shlex.join(argv)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["items"]


def _rel_dev(x: float, ref: float, floor: float = 0.0) -> float:
    if x == ref:
        return 0.0
    scale = max(abs(ref), floor)
    return math.inf if scale == 0.0 else abs(x - ref) / scale


def _compare_record(out: dict, ref: dict, where: str, problems: list) -> float:
    worst = 0.0
    for key in sorted(set(out) | set(ref)):
        if key not in out or key not in ref:
            problems.append(f"{where}{key}: present in only one of run/reference")
            continue
        x, r = out[key], ref[key]
        if isinstance(r, bool) or isinstance(r, str) or r is None \
                or isinstance(x, (bool, str)) or x is None:
            if x != r:
                problems.append(f"{where}{key}: {x!r} != reference {r!r}")
            continue
        xs = x if isinstance(x, list) else [x]
        rs = r if isinstance(r, list) else [r]
        if len(xs) != len(rs):
            problems.append(f"{where}{key}: length {len(xs)} != {len(rs)}")
            continue
        # a margin is a difference of two sides: measure it against rhs;
        # sup_a is a disk point: measure it against the unit radius
        floor = {"margin": abs(ref.get("rhs") or 0.0), "sup_a": 1.0}.get(key, 0.0)
        for xv, rv in zip(xs, rs):
            dev = _rel_dev(float(xv), float(rv), floor)
            worst = max(worst, dev)
            if dev > REL_TOL:
                problems.append(f"{where}{key}: {xv!r} vs reference {rv!r} "
                                f"(rel dev {dev:.3e})")
    return worst


def compare(outcome: dict, ref: dict):
    """Return (problems, max relative deviation) of one outcome."""
    problems = []
    if outcome.get("exit") != ref.get("exit"):
        return [f"exit {outcome.get('exit')} != reference {ref.get('exit')}"], 0.0
    out, base = dict(outcome), dict(ref)
    rows_out, rows_ref = out.pop("rows", None), base.pop("rows", None)
    worst = _compare_record(out, base, "", problems)
    if rows_out is not None or rows_ref is not None:
        if rows_out is None or rows_ref is None or len(rows_out) != len(rows_ref):
            problems.append("sweep rows differ in number")
        else:
            for i, (ro, rr) in enumerate(zip(rows_out, rows_ref)):
                worst = max(worst, _compare_record(ro, rr, f"row {i} ", problems))
    return problems, worst


def oracle(argv, outcome: dict) -> list:
    """Reference-free checks for the items that have a known answer."""
    opts = {tok: argv[i + 1] for i, tok in enumerate(argv[:-1])
            if tok.startswith("--")}
    command, problems = argv[0], []
    if command == "norm" and opts.get("--map") == "identity" \
            and opts.get("--scale") == "Q(1,2,0)":
        if _rel_dev(outcome["raw_sup"], math.pi) > REL_TOL:
            problems.append(f"Q(1,2,0) of identity = {outcome['raw_sup']!r}, not pi")
    if command == "constants" and opts.get("--constant") == "qs:s=1":
        if _rel_dev(outcome["value"], math.pi / 2.0) > REL_TOL:
            problems.append(f"qs:s=1 = {outcome['value']!r}, not pi/2")
    if command == "verify" and opts.get("--theorem") in EQUALITY_THEOREMS \
            and opts.get("--map", "").startswith("affine:") \
            and "sign=-1" in opts.get("--map", ""):
        if abs(outcome["margin"]) > 1e-6 * abs(outcome["rhs"]):
            problems.append("affine sign=-1 is not an equality witness: "
                            f"|margin|/rhs = {abs(outcome['margin'] / outcome['rhs']):.2e}")
    if command == "verify" and opts.get("--theorem") == "4.1" \
            and opts.get("--map") in ("koebe", "koebe-shear:k=0") \
            and opts.get("--K") == "1":
        change = outcome["final_relative_change"]
        if opts.get("--scale") == "M(0.8,0,1)" and not (
                outcome["in_range"] and outcome["pass"] and change < 1e-3):
            problems.append("koebe in M(0.8,0,1) does not stabilize")
        if opts.get("--scale") == "M(1.2,0,1)" and not (
                not outcome["in_range"] and change >= 1e-3
                and (outcome.get("divergence_exponent") or 0.0) > 0.0):
            problems.append("koebe in M(1.2,0,1) does not diverge")
    return problems


def check_item(argv, outcome: dict, reference: dict):
    """All problems of one item (reference and oracles) and its max deviation."""
    ref = reference.get(item_key(argv))
    if ref is None:
        return [f"no reference outcome for {item_key(argv)}"], 0.0
    problems, worst = compare(outcome, ref)
    if outcome.get("exit") in (0, 1):
        problems += oracle(argv, outcome)
    return problems, worst
