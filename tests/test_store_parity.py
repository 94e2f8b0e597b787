"""Disk-store runs must be byte-identical to in-memory runs.

The out-of-core path (``validate --store disk``) restructures *how* the
study flows through the pipeline — segment streaming, manifest-count
sharding, incremental merging — but must never change *what* comes out.
This suite pins that contract on the golden fixture across worker
counts and both extraction kernels, at the API level and end to end
through the CLI: stdout, summary text, per-user results, dataset
fingerprint, semantic metrics, and the fidelity scorecard all compare
equal, and checkpoint replay reproduces the same bytes again.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import VisitConfig, validate, validate_store
from repro.io import load_dataset, load_dataset_into_store
from repro.obs import ObsContext, RunManifest, activate
from repro.runtime import SerialExecutor

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

#: One user per segment: the 3-user golden fixture spans 3 segments,
#: exercising the cross-segment merge with every user on a boundary.
SEGMENT_USERS = 1

#: Manifest counters that describe results (not runtime mechanics);
#: these must be identical between the memory and disk paths.
SEMANTIC_PREFIXES = ("extract.", "matching.", "classify.", "pipeline.")


def semantic_metrics(manifest: RunManifest):
    counters = {
        name: value
        for name, value in manifest.metrics.get("counters", {}).items()
        if name.startswith(SEMANTIC_PREFIXES)
    }
    # Gauges likewise, minus runtime mechanics (``store.*`` — e.g. the
    # in-flight window size, which memory runs don't have).
    gauges = {
        name: value
        for name, value in manifest.metrics.get("gauges", {}).items()
        if not name.startswith("store.")
    }
    return counters, gauges


def run_cli(tmp_path, tag, *extra):
    """One golden-fixture validate writing its manifest under ``tag``."""
    manifest_path = tmp_path / f"{tag}.manifest.json"
    argv = ["validate", "--data", str(GOLDEN_DIR),
            "--manifest", str(manifest_path), *extra]
    assert main(argv) == 0
    return RunManifest.load(manifest_path)


def result_lines(stdout: str):
    """stdout minus the one line naming the (run-specific) manifest path."""
    return [line for line in stdout.splitlines() if "manifest" not in line]


class TestCliParity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_disk_matches_memory(self, tmp_path, capsys, workers, kernel):
        base = ["--workers", str(workers), "--kernel", kernel]
        memory = run_cli(tmp_path, "memory", *base)
        memory_out = capsys.readouterr().out
        disk = run_cli(tmp_path, "disk", *base,
                       "--store", "disk", "--segment-users", str(SEGMENT_USERS))
        disk_out = capsys.readouterr().out

        assert result_lines(disk_out) == result_lines(memory_out)
        assert disk.dataset == memory.dataset  # incl. the content sha256
        assert disk.config_hash == memory.config_hash
        assert disk.scorecard == memory.scorecard
        assert disk.scorecard["status"] == "pass"
        assert semantic_metrics(disk) == semantic_metrics(memory)
        # The disk run declares itself and spans several segments.
        assert disk.extra["store"]["mode"] == "disk"
        assert disk.extra["store"]["count"] > 1
        assert disk.extra["extract.kernel"] == kernel

    def test_disk_store_counts_segments(self, tmp_path, capsys):
        manifest = run_cli(tmp_path, "d", "--store", "disk",
                           "--segment-users", "2")
        capsys.readouterr()
        expected = json.loads(
            (GOLDEN_DIR / "expected.json").read_text(encoding="utf-8")
        )
        n_users = expected["n_users"]
        assert manifest.counter("store.segments_total") == -(-n_users // 2)
        assert manifest.counter("matching.honest_total") == expected["venn"]["honest"]

    def test_prebuilt_store_dir_is_reusable(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        first = run_cli(tmp_path, "first", "--store", "disk",
                        "--segment-users", "2", "--store-dir", str(store_dir))
        capsys.readouterr()
        assert (store_dir / "store.json").exists()
        # Second run points --data straight at the store directory.
        manifest_path = tmp_path / "again.manifest.json"
        assert main(["validate", "--data", str(store_dir), "--store", "disk",
                     "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        again = RunManifest.load(manifest_path)
        assert again.dataset == first.dataset
        assert semantic_metrics(again) == semantic_metrics(first)


class TestApiParity:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("parity") / "store"
        return load_dataset_into_store(GOLDEN_DIR, store_dir,
                                       segment_users=SEGMENT_USERS)

    @pytest.fixture(scope="class")
    def memory_report(self):
        return validate(load_dataset(GOLDEN_DIR))

    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_full_report_parity(self, store, kernel):
        reference = validate(load_dataset(GOLDEN_DIR),
                             visit_config=VisitConfig(kernel=kernel))
        report = validate_store(store, visit_config=VisitConfig(kernel=kernel),
                                keep_results=True)
        assert report.summary() == reference.summary()
        assert report.type_counts() == reference.type_counts()
        assert list(report.matching.per_user) == list(reference.matching.per_user)
        assert report.matching.per_user == reference.matching.per_user
        assert report.classification.labels == reference.classification.labels

    @pytest.mark.parametrize("workers", [1, 4])
    def test_summary_mode_parity(self, store, memory_report, workers):
        summary = validate_store(store, workers=workers)
        assert summary.summary() == memory_report.summary()
        assert summary.n_users == len(memory_report.dataset.users)
        assert summary.n_segments == len(store.segments)
        assert summary.segments_reused == 0

    def test_fingerprint_matches_post_extraction_dataset(self, store, memory_report):
        from repro.obs.manifest import dataset_fingerprint

        summary = validate_store(store)
        # The in-memory CLI fingerprints the dataset *after* extraction
        # mutates visits in place; the store path must reproduce that.
        assert store.fingerprint(visit_counts=summary.visit_counts) == \
            dataset_fingerprint(memory_report.dataset)

    def test_checkpoint_replay_is_byte_identical(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"
        cold = validate_store(store, checkpoints=ckpt)
        assert cold.segments_reused == 0
        warm = validate_store(store, checkpoints=ckpt)
        assert warm.segments_reused == len(store.segments)
        assert warm.summary() == cold.summary()
        assert warm.visit_counts == cold.visit_counts
        assert warm.type_counts == cold.type_counts

    def test_checkpoint_replay_restores_semantic_counters(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"

        def counters():
            ctx = ObsContext()
            with activate(ctx):
                validate_store(store, checkpoints=ckpt)
            return {
                name: value
                for name, value in ctx.metrics.snapshot()["counters"].items()
                if name.startswith(SEMANTIC_PREFIXES)
            }

        assert counters() == counters()  # cold run, then full replay

    def test_config_change_invalidates_checkpoints(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"
        validate_store(store, checkpoints=ckpt)
        rerun = validate_store(store, visit_config=VisitConfig(kernel="scalar"),
                               checkpoints=ckpt)
        assert rerun.segments_reused == 0


class _CloseCountingExecutor(SerialExecutor):
    """A serial executor that records how often it was closed."""

    closes = 0

    def close(self) -> None:
        self.closes += 1
        super().close()


class TestPipelinedParity:
    """``--inflight-segments`` must change wall-clock, nothing else.

    Every ``validate_store`` call runs on one segment scheduler; the
    window only sets how many segments overlap their loads and stage
    compute across threads, and ``--inflight-segments 1`` is a window
    of one through that same scheduler, not a separate loop.
    Everything observable — summary, per-user results, semantic
    counters, manifest fingerprint, scorecard, and the checkpoint
    files' literal bytes — must be identical to the in-memory
    ``validate`` oracle and to window 1 at any worker count and any
    window.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("pipelined") / "store"
        return load_dataset_into_store(GOLDEN_DIR, store_dir,
                                       segment_users=SEGMENT_USERS)

    @pytest.fixture(scope="class")
    def memory_report(self, store):
        return validate(store.load_dataset())

    def test_cli_parallel_disk_parity_smoke(self, tmp_path, capsys):
        """The CI smoke: window 3 at 4 workers == window 1, byte-for-byte."""
        base = ["--store", "disk", "--segment-users", str(SEGMENT_USERS)]
        serial = run_cli(tmp_path, "serial", *base,
                         "--inflight-segments", "1")
        serial_out = capsys.readouterr().out
        pipelined = run_cli(tmp_path, "pipelined", *base, "--workers", "4",
                            "--inflight-segments", "3")
        pipelined_out = capsys.readouterr().out

        assert result_lines(pipelined_out) == result_lines(serial_out)
        assert pipelined.dataset == serial.dataset
        assert pipelined.config_hash == serial.config_hash
        assert pipelined.scorecard == serial.scorecard
        assert semantic_metrics(pipelined) == semantic_metrics(serial)

    @pytest.mark.parametrize("inflight", [1, 2, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_summary_parity(self, store, memory_report, workers, inflight):
        serial = validate_store(store, inflight_segments=1)
        pipelined = validate_store(store, workers=workers,
                                   inflight_segments=inflight)
        assert pipelined.summary() == memory_report.summary()
        assert pipelined.summary() == serial.summary()
        assert pipelined.visit_counts == serial.visit_counts
        assert pipelined.type_counts == serial.type_counts
        assert pipelined.type_counts == memory_report.type_counts()
        assert pipelined.visit_counts == {
            user_id: len(data.visits)
            for user_id, data in memory_report.dataset.users.items()
        }

    @pytest.mark.parametrize("inflight", [None, 1])
    def test_explicit_executor_is_one_lane_left_open(self, store, inflight):
        executor = _CloseCountingExecutor()
        summary = validate_store(store, executor=executor,
                                 inflight_segments=inflight)
        serial = validate_store(store, inflight_segments=1)
        assert summary.summary() == serial.summary()
        assert summary.visit_counts == serial.visit_counts
        assert executor.closes == 0  # the caller's executor stays open

    def test_full_report_parity(self, store, memory_report):
        window_one = validate_store(store, inflight_segments=1,
                                    keep_results=True)
        report = validate_store(store, workers=2, inflight_segments=3,
                                keep_results=True)
        for reference in (memory_report, window_one):
            assert report.summary() == reference.summary()
            assert list(report.matching.per_user) == \
                list(reference.matching.per_user)
            assert report.matching.per_user == reference.matching.per_user
            assert report.classification.labels == \
                reference.classification.labels

    @pytest.mark.parametrize("workers", [1, 4])
    def test_checkpoints_byte_identical(self, store, tmp_path, workers):
        serial_dir = tmp_path / f"serial-{workers}"
        pipe_dir = tmp_path / f"pipe-{workers}"
        validate_store(store, workers=workers, inflight_segments=1,
                       checkpoints=serial_dir)
        validate_store(store, workers=workers, inflight_segments=3,
                       checkpoints=pipe_dir)
        serial_files = sorted(p.name for p in serial_dir.glob("*.pkl"))
        pipe_files = sorted(p.name for p in pipe_dir.glob("*.pkl"))
        assert serial_files == pipe_files and serial_files
        for name in serial_files:
            assert (pipe_dir / name).read_bytes() == \
                (serial_dir / name).read_bytes(), name

    def test_pipelined_resumes_serial_checkpoints(self, store, tmp_path):
        """Checkpoint interop: any window replays window 1's files."""
        ckpt = tmp_path / "ckpt"
        cold = validate_store(store, checkpoints=ckpt)
        warm = validate_store(store, workers=2, inflight_segments=3,
                              checkpoints=ckpt)
        assert warm.segments_reused == len(store.segments)
        assert warm.summary() == cold.summary()

    def test_semantic_counters_identical(self, store):
        def counters(run, *args, **kwargs):
            ctx = ObsContext()
            with activate(ctx):
                run(*args, **kwargs)
            return {
                name: value
                for name, value in ctx.metrics.snapshot()["counters"].items()
                if name.startswith(SEMANTIC_PREFIXES)
            }

        pipelined = counters(validate_store, store, workers=2,
                             inflight_segments=3)
        assert pipelined == counters(validate_store, store, workers=2,
                                     inflight_segments=1)
        assert pipelined == counters(validate, store.load_dataset())

    @pytest.mark.parametrize("kwargs,window", [
        pytest.param({}, 1, id="default-serial"),
        pytest.param({"workers": 2, "inflight_segments": 3}, 3, id="window-3"),
    ])
    def test_pipeline_stats_surface_on_manifest(self, store, kwargs, window):
        ctx = ObsContext()
        with activate(ctx):
            validate_store(store, **kwargs)
        snapshot = ctx.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["store.prefetch_overlap_total"] \
            + counters["store.prefetch_stalls_total"] == len(store.segments)
        assert snapshot["gauges"]["store.inflight_segments"] == float(window)

    def test_explicit_executor_rejects_pipelining(self, store):
        from repro.runtime.errors import RuntimeConfigError

        with pytest.raises(RuntimeConfigError, match="in-flight"):
            validate_store(store, executor=SerialExecutor(),
                           inflight_segments=2)
