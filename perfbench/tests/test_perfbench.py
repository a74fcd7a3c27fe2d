"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from heckefuse import catalog  # noqa: E402

WORKLOADS = ("table", "check", "scale")


@pytest.fixture(scope="module")
def references():
    return run.load_references()


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_calibrated_ops_are_scaled_by_the_kernel_around_them():
    rec = run.Recorder(calibrate=True)
    rec.start_pass(0)
    for label in ("a", "b"):
        with rec.op(label):
            time.sleep(0.01)
    k = rec.kernel_times
    assert len(k) == 3, "one before the pass and one after each op"
    for i, op in enumerate(rec.ops):
        assert op.scaled == pytest.approx(op.seconds * 2 * run.K_REF / (k[i] + k[i + 1]))


def run_one_pass(wl):
    rec, _, _ = run.measure(wl, 0)
    return rec


def test_corrupted_digest_fails_table_op(references):
    bad = copy.deepcopy(references)
    bad["table"]["S3_in_S4"] = "0" * 64
    wl = workloads.TableWorkload(3, bad, tiny=True)
    wl.min_passes = 1
    rec = run_one_pass(wl)
    assert [op.label for op in rec.ops if not op.ok] == ["S3_in_S4"]


def test_corrupted_digest_fails_scale_op(references):
    wl = workloads.ScaleWorkload(3, references, tiny=True)
    label = wl.items[0].label
    bad = copy.deepcopy(references)
    bad["scale"][label] = "0" * 64
    wl.refs = bad["scale"]
    wl.min_passes = 1
    rec = run_one_pass(wl)
    assert [op.label for op in rec.ops if not op.ok] == [label]


def test_failing_check_is_a_failed_op(references, monkeypatch):
    from heckefuse import checks

    def broken(*args):
        raise checks.CheckFailure("injected")

    monkeypatch.setattr(checks, "check_gl2_relations", broken)
    wl = workloads.CheckWorkload(3, references, tiny=True)
    wl.min_passes = 1
    rec = run_one_pass(wl)
    assert [op.label for op in rec.ops if not op.ok] == ["check_gl2_relations"]


def test_span_tree_is_well_formed(references):
    original = catalog.fusion_table
    tr = tracing.Tracer()
    wl = workloads.TableWorkload(3, references, tiny=True)
    rec, passes, _ = run.measure(wl, 0, tr)
    assert catalog.fusion_table is original, "uninstall restores bindings"
    a = tr.arrays()
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert (a["start"][parent] <= a["start"][child]).all()
    assert (a["end"][child] <= a["end"][parent]).all()
    assert (a["end"] >= a["start"]).all()
    own = tr.self_times()
    assert own.min() >= -1e-9
    traced = sum(dt for t, dt in passes if t)
    assert abs(own.sum() - traced) <= 0.01 * traced
    values, samples = run.layer_values(tr, passes)
    assert samples["traced_passes"] == 1
    layers = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
    assert abs(layers + values["bench.self_s"] - traced) <= 0.01 * traced
    assert abs(values["trace.accounted_frac"] - 1) <= 0.01
    names = set(tr.names)
    assert {"catalog.fusion_table", "exthecke.fuse", "projrep.Rep",
            "permcore.DoubleCosetSystem", "exthecke.FinitePair"} <= names
    assert tr.perm_new > 0 and tr.perm_mul > 0
    assert all(op.ok for op in rec.ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_inputs(workload, references):
    cls = workloads.WORKLOADS[workload]
    a, b, c = cls(5, references), cls(5, references), cls(6, references)
    assert json.dumps(a.inputs()) == json.dumps(b.inputs())
    assert json.dumps(a.inputs()) != json.dumps(c.inputs())
    assert a.work() == c.work()
