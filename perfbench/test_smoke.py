"""Smoke test of the benchmark at tiny size, untraced and traced.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs ``perfbench/run.py`` the way the benchmark command does and
asserts that every metric BENCHMARK.json names is printed with its unit,
that the reference check passed, that the error rate is 0, and, traced,
that the layer metrics of the workload's own layers are above 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The per-layer metrics each workload's traced run must move off 0.  A
#: wrapper installed at a name its caller no longer looks up reads 0 and
#: fails the test.  Counts that may be 0 at tiny size (stalls, retries,
#: queue depth, GC pauses) are left out.
LAYERS = {
    "stream-lanes": [
        "synth.generate_dataset_s", "synth.replay_events_s",
        "serve.service_ingest_s", "serve.service_self_s",
        "serve.engine_ingest_calls", "serve.engine_ingest_s",
        "serve.engine_ingest_cpu_s", "serve.engine_self_s",
        "serve.engine_finalize_s", "serve.chunks", "serve.verdicts",
        "serve.snapshot_calls", "serve.snapshot_s", "serve.snapshot_save_s",
        "serve.snapshot_bytes",
        "core.extract_visits_calls", "core.extract_visits_s",
        "core.extract_visits_cpu_s", "core.match_user_s",
        "core.match_user_cpu_s", "core.classify_user_extraneous_s",
        "core.classify_user_extraneous_cpu_s",
        "runtime.ingest_post_s", "runtime.lane0.busy_cpu_s",
    ],
    "store-validate": [
        "synth.generate_scale_store_s",
        "core.extract.busy_s", "core.match.busy_s", "core.classify.busy_s",
        "runtime.extract.wall_s", "runtime.extract.critical_path_s",
        "runtime.extract.imbalance", "runtime.match.wall_s",
        "runtime.match.critical_path_s", "runtime.match.imbalance",
        "runtime.classify.wall_s", "runtime.classify.critical_path_s",
        "runtime.classify.imbalance",
        "store.load_segment_calls", "store.load_segment_s",
        "store.bytes_mapped", "store.checkpoint_save_s",
        "store.checkpoint_bytes",
    ],
    "manet-fig8": [
        "levy.generate_fleet_s", "manet.simulator_init_s", "manet.run_s",
        "manet.run_cpu_s", "manet.control_packets",
    ],
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert record["ungated"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert record["ungated"]["latency_p999_ms"]["unit"] == "ms"
    assert record["check"]["mismatches"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]
    if trace:
        positive = LAYERS[workload] + ["trace.overhead_ratio"]
        if workload == "stream-lanes" and record["nproc"] >= 2:
            positive.append("runtime.lane1.busy_cpu_s")
        for name in positive:
            assert result["metrics"][name]["value"] > 0, name


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
