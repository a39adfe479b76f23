"""Persistence: CSV schema and round-trips, manifest text, SVG structure."""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import onebitcs.harness as harness
from onebitcs import InvalidArgumentError, SweepConfig, SweepRecord, run_from_manifest, run_sweep
from onebitcs.report import (
    CSV_FIELDS,
    emit_report,
    load_manifest,
    read_records_csv,
    render_loglog_svg,
    write_manifest,
    write_records_csv,
)


# every key load_manifest reads; the constants are re-derived, so not read
_READ_KEYS = (
    "manifest_version", "created_utc", "package_version", "numpy_version",
    "rng.algorithm", "rng.gaussian_transform", "rng.substream_rule",
    "env.blas", "env.workers", "env.blas_threads_per_worker", "env.draw_threads",
    "timing.draw_s", "timing.solve_s",
    "config.n", "config.s", "config.m_grid", "config.algorithms",
    "config.trials_per_cell", "config.master_seed", "config.noise_std",
    "config.tau", "config.max_iters", "config.stop_tol", "config.init",
    "config.degenerate_policy", "config.support_rule", "config.value_rule",
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
        back = load_manifest(path)
        assert back.config == manifest.config
        assert back.trial_seeds == manifest.trial_seeds
        assert back.rng_algorithm == manifest.rng_algorithm

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

    @pytest.mark.parametrize(
        "line", ["config.n = eight", "env.workers = two", "trial.x = 5", "trial.0.matrix = ten"]
    )
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

    def test_tampered_seed_rejected(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("trial.") and line.split(".")[2].startswith("matrix"):
                key, value = line.split(" = ")
                lines[i] = f"{key} = {int(value) ^ 1}"
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError):
            load_manifest(path)

    def test_documented_keys_present(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        text = write_manifest(manifest, tmp_path / "m.txt").read_text()
        for key in (
            "manifest_version", "created_utc", "package_version", "numpy_version",
            "rng.algorithm", "rng.gaussian_transform", "rng.substream_rule",
            "config.n", "config.s", "config.m_grid", "config.algorithms",
            "config.trials_per_cell", "config.master_seed", "config.noise_std",
            "config.tau", "config.max_iters", "config.stop_tol", "config.init",
            "config.degenerate_policy", "config.support_rule", "config.value_rule",
            "constants.cb", "constants.cb_lower", "constants.c10",
        ):
            assert f"{key} = " in text, key


    def test_env_keys(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        kv = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
        assert kv["env.blas"] == manifest.blas != ""
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [line for line in lines if not line.startswith("trial.1.noise = ")],
            lambda lines: lines + ["trial.3.matrix = 5"],
            lambda lines: lines + ["trial.0.init.biht = 5"],
            lambda lines: ["trial.0.matrix = 5"] + lines,  # the right value follows
        ],
        ids=["missing", "extra-trial", "extra-role", "repeated"],
    )
    def test_trial_lines_must_be_the_derived_tables(self, small_sweep, tmp_path, edit):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(InvalidArgumentError, match="trial seeds|repeats key 'trial.0.matrix'"):
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

    def test_matching_numpy_version_does_not_warn(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        path = write_manifest(manifest, tmp_path / "m.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_from_manifest(load_manifest(path))


DATA = Path(__file__).parent / "data"
V4_SWEEP = DATA / "v4_sweep"


def _with_version_line(src: Path, dst: Path, line: str | None) -> Path:
    """Copy a manifest with its manifest_version line replaced (dropped when None)."""
    lines = [
        old if not old.startswith("manifest_version = ") else line
        for old in src.read_text().splitlines()
    ]
    dst.write_text("\n".join(line for line in lines if line is not None) + "\n")
    return dst


class TestManifestVersions:
    def test_sweep_writes_version_4(self, small_sweep, tmp_path):
        _, manifest = small_sweep
        lines = write_manifest(manifest, tmp_path / "m.txt").read_text().splitlines()
        assert "manifest_version = 4" in lines
        assert f"rng.substream_rule = {manifest.substream_rule}" in lines
        assert "512-row blocks" in manifest.substream_rule
        # one seed line per trial and role: 3 trials x (signal, matrix, noise, 2 inits)
        assert len([line for line in lines if line.startswith("trial.")]) == 15
        assert not any(line.startswith("cell.") for line in lines)
        assert load_manifest(tmp_path / "m.txt").manifest_version == 4

    def test_fixture_re_emitted_byte_for_byte(self, tmp_path):
        # on any numpy: the writers invert the readers, float repr included
        records = read_records_csv(V4_SWEEP / "records.csv")
        manifest = load_manifest(V4_SWEEP / "manifest.txt")
        for written, stored in [
            (write_records_csv(records, tmp_path / "records.csv"), V4_SWEEP / "records.csv"),
            (write_manifest(manifest, tmp_path / "manifest.txt"), V4_SWEEP / "manifest.txt"),
        ]:
            assert written.read_bytes() == stored.read_bytes(), stored.name

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("version", [harness.MANIFEST_VERSION], ids=lambda v: f"v{v}")
    def test_fixture_replays_bitwise(self, version, workers):
        # the fixture of the one version this build writes and replays
        fixture = DATA / f"v{version}_sweep"
        manifest = load_manifest(fixture / "manifest.txt")
        if manifest.numpy_version != np.__version__:
            pytest.skip(f"fixture written with numpy {manifest.numpy_version}, running {np.__version__}")
        if manifest.blas != harness._blas_name():
            pytest.skip(f"fixture written with BLAS {manifest.blas}, running {harness._blas_name()}")
        assert manifest.manifest_version == version
        stored = [r.comparable() for r in read_records_csv(fixture / "records.csv")]
        records, rerun = run_from_manifest(manifest, workers=workers)
        assert [r.comparable() for r in records] == stored
        assert rerun.manifest_version == version
        assert rerun.substream_rule == manifest.substream_rule

    def test_fixture_replays_bitwise_at_a_share_of_three(self, monkeypatch):
        # three CPUs for one process: 2 draw helpers and 3 solver processes for 12 runs per trial
        manifest = load_manifest(V4_SWEEP / "manifest.txt")
        if (manifest.numpy_version, manifest.blas) != (np.__version__, harness._blas_name()):
            pytest.skip("fixture written with another numpy or BLAS")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        records, rerun = run_from_manifest(manifest, workers=1)
        assert rerun.draw_threads == 3
        stored = [r.comparable() for r in read_records_csv(V4_SWEEP / "records.csv")]
        assert [r.comparable() for r in records] == stored

    @pytest.mark.parametrize(
        "value,message",
        [
            (None, "missing key 'manifest_version'"),
            ("1", "unknown manifest_version 1"),
            ("2", "unknown manifest_version 2"),
            ("3", "unknown manifest_version 3"),
            ("two", "malformed"),
        ],
    )
    def test_unknown_version_rejected(self, tmp_path, value, message):
        line = None if value is None else f"manifest_version = {value}"
        path = _with_version_line(V4_SWEEP / "manifest.txt", tmp_path / "m.txt", line)
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
