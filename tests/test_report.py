"""Persistence: CSV schema and round-trips, manifest text, SVG structure."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import onebitcs.harness as harness
from onebitcs import InvalidArgumentError, SweepConfig, SweepRecord, fit_slope, run_from_manifest, run_sweep
from onebitcs.report import (
    CSV_FIELDS,
    compare_records,
    emit_report,
    load_manifest,
    read_records_csv,
    render_loglog_svg,
    write_manifest,
    write_records_csv,
)


# every key load_manifest reads, which are all the keys a manifest holds
_READ_KEYS = (
    "manifest_version", "created_utc", "package_version", "numpy_version",
    "rng.algorithm", "rng.gaussian_transform", "rng.substream_rule",
    "env.blas", "env.blas_core", "env.workers", "env.blas_threads_per_worker", "env.draw_threads",
    "timing.draw_s", "timing.solve_s",
    "config.n", "config.s", "config.m_grid", "config.algorithms",
    "config.trials_per_cell", "config.master_seed", "config.noise_std",
    "config.tau", "config.max_iters", "config.stop_tol", "config.init",
    "config.support_rule", "config.value_rule",
)


@pytest.fixture(scope="module")
def small_sweep():
    cfg = SweepConfig(
        n=32, s=3, m_grid=(64, 128, 256), algorithms=("nbiht", "one_shot"),
        trials_per_cell=3, master_seed=15, max_iters=40,
    )
    return run_sweep(cfg)


class TestCsv:
    def test_exact_header(self, small_sweep, tmp_path):
        records, _ = small_sweep
        path = write_records_csv(records, tmp_path / "r.csv")
        assert path.read_text().splitlines()[0] == ",".join(CSV_FIELDS)

    def test_round_trip_exact(self, small_sweep, tmp_path):
        records, _ = small_sweep
        path = write_records_csv(records, tmp_path / "r.csv")
        back = read_records_csv(path)
        assert [r.comparable() for r in back] == [r.comparable() for r in records]
        assert all(
            abs(a.wall_time_ms - b.wall_time_ms) <= 1e-12 for a, b in zip(back, records)
        )

    def test_empty_records_header_only(self, small_sweep, tmp_path):
        path = write_records_csv([], tmp_path / "empty.csv")
        assert path.read_text().strip() == ",".join(CSV_FIELDS)
        assert read_records_csv(path) == []

    def test_stop_reason_with_comma_round_trips(self, tmp_path):
        rec = SweepRecord("nbiht", 10, 8, 2, 0, 0.5, 3, 0.9, "error: bad, very bad", 1.25)
        path = write_records_csv([rec], tmp_path / "c.csv")
        assert read_records_csv(path)[0].stop_reason == "error: bad, very bad"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidArgumentError):
            read_records_csv(p)

    @pytest.mark.parametrize("row,message", [
        ("nbiht,10,8,2,0,0.5,3,0.9,converged", "has 9 fields, not 10"),
        ("nbiht,10,8,2,0,0.5,3,0.9,converged,1.25,7", "has 11 fields, not 10"),
        ("nbiht,ten,8,2,0,0.5,3,0.9,converged,1.25", "has a malformed value"),
    ], ids=["short", "long", "malformed"])
    def test_bad_row_rejected(self, tmp_path, row, message):
        p = tmp_path / "r.csv"
        p.write_text(f"{','.join(CSV_FIELDS)}\nnbiht,10,8,2,0,0.5,3,0.9,converged,1.25\n{row}\n")
        with pytest.raises(InvalidArgumentError, match=f"line 3 {message}"):
            read_records_csv(p)


class TestManifestFile:
    def test_round_trip(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        # every field is written and read back: the manifest holds nothing else
        assert load_manifest(path) == manifest

    def test_numpy_scalars_round_trip(self, tmp_path):
        # written with str, a numpy scalar reads back as the value it holds
        cfg = SweepConfig(n=np.int64(16), s=2, m_grid=(32,), algorithms=("nbiht",), trials_per_cell=1,
                          master_seed=np.int64(3), noise_std=np.float64(0.1), tau=np.float64(1.25))
        back = load_manifest(write_manifest(harness.build_manifest(cfg), tmp_path / "m.txt"))
        assert back.config == cfg

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(InvalidArgumentError, match="nope.txt"):
            load_manifest(missing)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("config.n = 8\n")
        with pytest.raises(InvalidArgumentError):
            load_manifest(p)

    @pytest.mark.parametrize("line", ["config.n = eight", "env.workers = two"])
    def test_malformed_value_rejected(self, small_sweep, tmp_path, line):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        key = line.split(" = ")[0]
        lines = [line if old.startswith(f"{key} = ") else old for old in path.read_text().splitlines()]
        if line not in lines:
            lines.append(line)  # a key the manifest does not hold
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError, match="malformed"):
            load_manifest(path)

    def test_documented_keys_present(self, small_sweep, tmp_path):
        # the keys load_manifest reads, in order, and no others: no seed and no constant
        _, manifest = small_sweep
        lines = write_manifest(manifest, tmp_path / "m.txt").read_text().splitlines()
        assert [line.split(" = ", 1)[0] for line in lines] == list(_READ_KEYS)

    def test_env_keys(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        kv = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
        assert kv["env.blas"] == manifest.blas != ""
        assert kv["env.blas_core"] == manifest.blas_core == harness._blas_core() != ""
        assert kv["env.workers"] == "1"
        assert kv["env.blas_threads_per_worker"] == manifest.blas_threads_per_worker != ""
        assert kv["env.draw_threads"] == str(manifest.draw_threads)
        back = load_manifest(path)
        assert (back.blas, back.workers, back.blas_threads_per_worker, back.draw_threads) == (
            manifest.blas, 1, manifest.blas_threads_per_worker, manifest.draw_threads
        )

    @pytest.mark.parametrize("key", _READ_KEYS)
    def test_every_read_key_required(self, small_sweep, tmp_path, key):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        lines = [line for line in path.read_text().splitlines() if not line.startswith(f"{key} = ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError, match=f"missing key '{key}'"):
            load_manifest(path)

    def test_repeated_key_rejected(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        path.write_text("config.n = 32\n" + path.read_text())  # the same value follows
        with pytest.raises(InvalidArgumentError, match="repeats key 'config.n'"):
            load_manifest(path)

    def test_numpy_version_mismatch_warns_once_and_reruns(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        text = path.read_text().replace(
            f"numpy_version = {manifest.numpy_version}\n", "numpy_version = 0.0.0\n"
        )
        path.write_text(text)
        with pytest.warns(RuntimeWarning, match="numpy 0.0.0") as caught:
            again, _ = run_from_manifest(load_manifest(path))
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1
        assert [r.comparable() for r in again] == [r.comparable() for r in records]

    def test_kernel_mismatch_warns_naming_both_kernels(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        # a name no manifest of OpenBLAS 0.3.31 holds: OPENBLAS_CORETYPE=Prescott runs a kernel it reports as Katmai
        path.write_text(path.read_text().replace(
            f"env.blas_core = {manifest.blas_core}\n", "env.blas_core = Prescott\n"
        ))
        with pytest.warns(RuntimeWarning) as caught:
            again, _ = run_from_manifest(load_manifest(path))
        (warning,) = [w for w in caught if w.category is RuntimeWarning]
        assert f"OpenBLAS kernel Prescott, this is OpenBLAS kernel {harness._blas_core()}" in str(warning.message)
        assert [r.comparable() for r in again] == [r.comparable() for r in records]

    def test_matching_numpy_version_does_not_warn(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_from_manifest(load_manifest(path))


DATA = Path(__file__).parent / "data"
V6_SWEEP = DATA / "v6_sweep"
# each algorithm's fitted slope on the v6 fixture's records, as plot.svg annotates it
V6_SLOPES = {
    "biht": 0.014821411855867415,
    "iht": -0.9601804605024276,
    "nbiht": -0.35723070082419234,
    "one_shot": -0.577266884107604,
}


# prints the kernel, then replays the manifest in argv[1] and writes its records to argv[2]
_REPLAY_IN_CHILD = """
import sys
from onebitcs.harness import _blas_core, run_from_manifest
from onebitcs.report import load_manifest, write_records_csv
print(_blas_core(), flush=True)
write_records_csv(run_from_manifest(load_manifest(sys.argv[1]))[0], sys.argv[2])
"""


def _with_version_line(src: Path, dst: Path, line: str | None) -> Path:
    """Copy a manifest with its manifest_version line replaced (dropped when None)."""
    lines = [
        old if not old.startswith("manifest_version = ") else line
        for old in src.read_text().splitlines()
    ]
    dst.write_text("\n".join(line for line in lines if line is not None) + "\n")
    return dst


def _replays_bitwise_here(manifest) -> bool:
    """Whether this process runs the numpy, BLAS and OpenBLAS kernel that wrote ``manifest``."""
    here = (np.__version__, harness._blas_name(), harness._blas_core())
    return (manifest.numpy_version, manifest.blas, manifest.blas_core) == here


class TestManifestVersions:
    def test_sweep_writes_version_6(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        lines = write_manifest(manifest, tmp_path / "m.txt").read_text().splitlines()
        assert "manifest_version = 6" in lines
        assert f"rng.substream_rule = {manifest.substream_rule}" in lines
        assert "512-row blocks" in manifest.substream_rule
        # the rule states every seed, so none is stored: 14 head lines and one per config field
        assert len(lines) == 14 + len(dataclasses.fields(SweepConfig))
        assert not any(line.startswith(("trial.", "cell.", "constants.")) for line in lines)
        assert load_manifest(tmp_path / "m.txt").manifest_version == 6

    def test_fixture_re_emitted_byte_for_byte(self, tmp_path):
        # on any numpy: the writers invert the readers, float repr included
        records = read_records_csv(V6_SWEEP / "records.csv")
        manifest = load_manifest(V6_SWEEP / "manifest.txt")
        for written, stored in [
            (write_records_csv(records, tmp_path / "records.csv"), V6_SWEEP / "records.csv"),
            (write_manifest(manifest, tmp_path / "manifest.txt"), V6_SWEEP / "manifest.txt"),
        ]:
            assert written.read_bytes() == stored.read_bytes(), stored.name

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("version", [harness.MANIFEST_VERSION], ids=lambda v: f"v{v}")
    def test_fixture_replays_bitwise(self, version, workers):
        # the fixture of the one version this build writes and replays
        fixture = DATA / f"v{version}_sweep"
        manifest = load_manifest(fixture / "manifest.txt")
        if not _replays_bitwise_here(manifest):
            pytest.skip("fixture written with another numpy, BLAS or OpenBLAS kernel")
        assert manifest.manifest_version == version
        stored = [r.comparable() for r in read_records_csv(fixture / "records.csv")]
        records, rerun = run_from_manifest(manifest, workers=workers)
        assert [r.comparable() for r in records] == stored
        assert rerun.manifest_version == version
        assert rerun.substream_rule == manifest.substream_rule

    def test_fixture_replays_bitwise_at_a_share_of_three(self, monkeypatch):
        # three CPUs for one process: each trial drawn on 3 pool threads, its 12 runs on 3 solver processes
        manifest = load_manifest(V6_SWEEP / "manifest.txt")
        if not _replays_bitwise_here(manifest):
            pytest.skip("fixture written with another numpy, BLAS or OpenBLAS kernel")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        records, rerun = run_from_manifest(manifest, workers=1)
        assert rerun.draw_threads == 3
        stored = [r.comparable() for r in read_records_csv(V6_SWEEP / "records.csv")]
        assert [r.comparable() for r in records] == stored

    def test_fixture_replays_within_tolerance_on_another_kernel(self, tmp_path):
        # a child process on another OpenBLAS kernel: Haswell, or the one this
        # process's environment forces; its products round differently, so the
        # records are compared at rel = 1e-9, not bit for bit
        manifest = load_manifest(V6_SWEEP / "manifest.txt")
        if (manifest.numpy_version, manifest.blas) != (np.__version__, harness._blas_name()):
            pytest.skip("fixture written with another numpy or BLAS: only the kernel may differ")
        kernel = os.environ.get("OPENBLAS_CORETYPE", "Haswell")
        replayed = tmp_path / "records.csv"
        child = subprocess.run(
            [sys.executable, "-c", _REPLAY_IN_CHILD, str(V6_SWEEP / "manifest.txt"), str(replayed)],
            # the child imports the onebitcs this process imported
            env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        core = child.stdout.split("\n", 1)[0]
        if core in ("", "unknown", manifest.blas_core):
            pytest.skip(f"the child did not report a kernel other than the fixture's (asked for {kernel})")
        stored = read_records_csv(V6_SWEEP / "records.csv")
        assert compare_records(stored, read_records_csv(replayed), rel=1e-9) == []

    @pytest.mark.parametrize(
        "value,message",
        [
            (None, "missing key 'manifest_version'"),
            ("1", "unknown manifest_version 1"),
            ("2", "unknown manifest_version 2"),
            ("3", "unknown manifest_version 3"),
            ("4", "unknown manifest_version 4"),
            ("5", "unknown manifest_version 5"),
            ("two", "malformed"),
        ],
    )
    def test_unknown_version_rejected(self, tmp_path, value, message):
        line = None if value is None else f"manifest_version = {value}"
        path = _with_version_line(V6_SWEEP / "manifest.txt", tmp_path / "m.txt", line)
        with pytest.raises(InvalidArgumentError, match=message):
            load_manifest(path)

    def test_timing_keys(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        kv = dict(
            line.split(" = ", 1)
            for line in write_manifest(manifest, tmp_path / "m.txt").read_text().splitlines()
        )
        assert float(kv["timing.draw_s"]) == manifest.draw_s > 0
        assert float(kv["timing.solve_s"]) == manifest.solve_s
        assert manifest.solve_s == pytest.approx(sum(r.wall_time_ms for r in records) / 1e3)
        back = load_manifest(tmp_path / "m.txt")
        assert (back.draw_s, back.solve_s) == (manifest.draw_s, manifest.solve_s)


class TestCompareRecords:
    def _records(self):
        return read_records_csv(V6_SWEEP / "records.csv")

    def test_equal_records_agree(self):
        assert compare_records(self._records(), self._records(), rel=0.0) == []

    def test_rounding_within_rel_agrees(self):
        records = self._records()
        moved = [dataclasses.replace(r, final_l2_error=r.final_l2_error * (1 + 1e-12), wall_time_ms=0.0)
                 for r in records]
        assert compare_records(records, moved, rel=1e-9) == []
        assert len(compare_records(records, moved, rel=1e-15)) == len(records)

    @pytest.mark.parametrize("change", [
        {"final_l2_error": 0.5}, {"sign_agreement": 0.25}, {"iterations_used": 299},
        {"stop_reason": "degenerate"}, {"trial_index": 7},
    ], ids=lambda change: next(iter(change)))
    def test_one_moved_row_named(self, change):
        records = self._records()
        moved = list(records)
        moved[5] = dataclasses.replace(records[5], **change)
        assert compare_records(records, moved, rel=1e-9) == [
            f"{records[5].comparable()} against {moved[5].comparable()}"
        ]

    def test_nan_errors_agree(self):
        # a sweep may record final_l2_error = nan; two identical records still agree
        records = [dataclasses.replace(r, final_l2_error=math.nan) for r in self._records()]
        assert compare_records(records, list(records), rel=0.0) == []
        moved = list(records)
        moved[5] = dataclasses.replace(records[5], final_l2_error=0.5)
        assert compare_records(records, moved, rel=1e-9) == [
            f"{records[5].comparable()} against {moved[5].comparable()}"
        ]

    def test_missing_row_named(self):
        records = self._records()
        assert compare_records(records, records[:-1], rel=1e-9) == ["36 records against 35"]


class TestSvg:
    def test_one_polyline_per_algorithm(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        paths = emit_report(records, manifest, tmp_path / "out")
        svg = paths["svg"].read_text()
        assert svg.count("<polyline") == 2
        assert 'id="series-nbiht"' in svg and 'id="series-one_shot"' in svg

    def test_theory_overlay_adds_dashed_series(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        curve = [(64.0, 0.5), (128.0, 0.35), (256.0, 0.25)]
        paths = emit_report(records, manifest, tmp_path / "out2", theory_curve=curve)
        svg = paths["svg"].read_text()
        assert svg.count("<polyline") == 3
        assert "stroke-dasharray" in svg and 'id="series-theory"' in svg

    def test_slope_annotation_nodes(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        paths = emit_report(records, manifest, tmp_path / "out3")
        svg = paths["svg"].read_text()
        assert svg.count('class="slope-annotation"') == 2
        assert "slope" in svg

    def test_self_contained_document(self, small_sweep):
        records, _ = small_sweep
        svg = render_loglog_svg({"nbiht": [(64.0, 0.5), (256.0, 0.1)]}, ["nbiht: slope -1"])
        assert svg.startswith("<svg xmlns=") and svg.rstrip().endswith("</svg>")
        assert "log10 m" in svg and "log10 error" in svg


class TestEmitReport:
    def test_empty_records_emit_csv_and_manifest_only(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        paths = emit_report([], manifest, tmp_path / "empty")
        assert paths["svg"] is None
        assert paths["csv"].exists() and paths["manifest"].exists()

    def test_nested_directory_created(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        paths = emit_report(records, manifest, tmp_path / "a" / "b" / "c")
        assert paths["csv"].exists()

    def test_io_failure_names_path(self, small_sweep, tmp_path):
        records, manifest = small_sweep
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError, match="blocker"):
            emit_report(records, manifest, blocker / "out")

    def test_fewer_than_three_m_values_plots_without_fit(self, tmp_path):
        cfg = SweepConfig(
            n=16, s=2, m_grid=(32, 64), algorithms=("one_shot",),
            trials_per_cell=2, master_seed=3,
        )
        records, manifest = run_sweep(cfg)
        paths = emit_report(records, manifest, tmp_path / "twopoints")
        svg = paths["svg"].read_text()
        assert svg.count("<polyline") == 1
        assert svg.count('class="slope-annotation"') == 0

    def test_fixture_report_matches_golden(self, tmp_path):
        # on any numpy: the report is computed from the stored records, not a replay
        records = read_records_csv(V6_SWEEP / "records.csv")
        paths = emit_report(records, load_manifest(V6_SWEEP / "manifest.txt"), tmp_path / "report")
        assert paths["svg"].read_bytes() == (V6_SWEEP / "plot.svg").read_bytes()
        for algo, slope in V6_SLOPES.items():
            assert abs(fit_slope(records, algo)[0] - slope) <= 1e-12, algo
