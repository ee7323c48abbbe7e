"""The benchmark's own tests.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import pools  # noqa: E402

QS_ITEM = ["constants", "--constant", "qs:s=1"]


def _run_cli_item(argv, tmp_path):
    import worker

    path = str(tmp_path / ("out" + worker._out_suffix(argv)))
    code, _, _, error = worker.run_item(argv, path)
    assert error is None
    return worker.parse_outcome(argv, code, path)


def test_smoke_prints_every_metric_with_unit():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lines = proc.stdout.splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert any(line.split()[1:2] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines), \
            metric["name"]
    assert json.loads(lines[-1])["correct"] is True


def test_every_pool_item_has_a_reference():
    reference = gate.load_reference()
    missing = [gate.item_key(a) for a in pools.all_items()
               if gate.item_key(a) not in reference]
    assert missing == []


def test_reference_matches_and_perturbed_reference_fails(tmp_path):
    outcome = _run_cli_item(QS_ITEM, tmp_path)
    reference = gate.load_reference()
    problems, dev = gate.check_item(QS_ITEM, outcome, reference)
    assert problems == [] and dev <= gate.REL_TOL
    perturbed = copy.deepcopy(reference)
    perturbed[gate.item_key(QS_ITEM)]["value"] *= 1.0 + 1e-9
    problems, dev = gate.check_item(QS_ITEM, outcome, perturbed)
    assert problems and dev == pytest.approx(1e-9, rel=1e-3)


def test_oracle_rejects_a_wrong_closed_form():
    outcome = {"exit": 0, "value": 1.5707963267948966 * (1 + 1e-9), "sup_rho": 0.0}
    assert gate.oracle(QS_ITEM, outcome)
    outcome["value"] = 1.5707963267948966
    assert gate.oracle(QS_ITEM, outcome) == []


def test_seed_picks_and_orders_items():
    strata = pools.WORKLOADS["conjugate-sweep"]
    a = pools.rounds(strata, 1, 2)
    assert a == pools.rounds(strata, 1, 2)
    assert a != pools.rounds(strata, 2, 2)
    for round_items in a:
        assert len(round_items) == len(strata)
        assert round_items[0] in strata[0]
        for stratum in strata:
            assert sum(variant in round_items for variant in stratum) == 1


def test_tracer_records_spans_and_restores_qrspaces(tmp_path, monkeypatch):
    import qrspaces
    import qrspaces.cli
    import tracer as tracing

    def snapshot():
        modules = [m for n, m in sys.modules.items()
                   if n == "qrspaces" or n.startswith("qrspaces.")]
        state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        for mod, cls, method, *_ in tracing.METHODS:
            owner = getattr(sys.modules[mod], cls)
            state[(mod, cls, method)] = owner.__dict__[method]
        return state

    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + [
        ("qrspaces.spaces", "no_such_function", "spaces.norm", None)])
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qrspaces.spaces.qs_constant is not before[("qrspaces.spaces",
                                                          "qs_constant")]
        tracer.begin_item(0)
        _run_cli_item(QS_ITEM, tmp_path)
        tracer.end_item(0)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.metrics()
    assert metrics["spaces.constant.calls"]["value"] >= 1
    assert metrics["spaces.kernel.calls"]["value"] > 0
    assert metrics["cli.calls"]["value"] == 1
    names = {span[0] for span in tracer.spans}
    assert {"item", "cli", "spaces.constant", "spaces.kernel"} <= names
    assert all(span[4] == 0 for span in tracer.spans)
    assert tracer.missing == ["qrspaces.spaces.no_such_function"]


def test_setup_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bare / "bench" / name).write_bytes(open(os.path.join(HERE, name),
                                                     "rb").read())
    (bare / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
