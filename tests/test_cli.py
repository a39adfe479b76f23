"""CLI: dispatch, exit codes, config merging, golden help text and probe output, BLAS threads."""

import os
import re
from pathlib import Path

import pytest

import onebitcs.cli as cli
import onebitcs.harness as harness
import onebitcs.model as model
import onebitcs.probes as probes
from onebitcs.cli import build_parser, parse_and_dispatch
from onebitcs.harness import ALGORITHMS, SweepConfig, run_sweep

DATA = Path(__file__).parent / "data"


class TestHelpGolden:
    def test_main_help(self):
        assert build_parser().format_help() == (DATA / "help_main.txt").read_text()

    @pytest.mark.parametrize("name", ["recover", "sweep", "probe", "theory", "selftest"])
    def test_subcommand_help(self, name):
        parser = build_parser()
        sub = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0]
        assert sub.choices[name].format_help() == (DATA / f"help_{name}.txt").read_text()

    def test_help_flag_exits_zero(self, capsys):
        assert parse_and_dispatch(["--help"]) == 0
        assert "recover" in capsys.readouterr().out


def _golden_probe_runs() -> list[tuple[list[str], str]]:
    """The (argv, printed output) pairs of data/probe_outputs.txt."""
    runs = []
    for line in (DATA / "probe_outputs.txt").read_text().splitlines(keepends=True):
        if line.startswith("$ onebitcs "):
            runs.append((line.split()[2:], []))
        else:
            runs[-1][1].append(line)
    return [(argv, "".join(lines)) for argv, lines in runs]


class TestProbeOutputsGolden:
    RUNS = _golden_probe_runs()

    @pytest.mark.parametrize("argv,expected", RUNS, ids=[f"{a[1]}-seed{a[-1]}" for a, _ in RUNS])
    def test_printed_output_is_bitwise_the_stored_one(self, argv, expected, capsys):
        assert parse_and_dispatch(argv) == 0
        assert capsys.readouterr().out == expected


class TestBlasThreads:
    # every command runs OpenBLAS at max(1, share - 1) threads; on 2 CPUs that is 1
    COMMANDS = [
        (["recover", "--n", "32", "--s", "2", "--m", "64", "--max-iters", "5"], "run_sweep", 0),
        (["probe", "unbiased", "--n", "16", "--s", "2", "--m", "2000", "--trials", "5"],
         "check_unbiasedness", 0),
        (["probe", "embedding", "--n", "16", "--s", "2", "--m", "64", "--trials", "3"],
         "check_embedding", 0),
        (["probe", "raic", "--n", "16", "--s", "2", "--m", "64", "--trials", "3"], "raic_probe", 0),
        (["probe", "width", "--n", "16", "--s", "2", "--trials", "100"], "gaussian_width_estimate", 0),
        (["probe", "width", "--n", "16", "--s", "2", "--trials", "5"], "gaussian_width_estimate", 1),
        (["probe", "projection", "--n", "16", "--s", "2", "--trials", "5"],
         "projection_inequality_check", 0),
        (["probe", "decomposition", "--n", "16", "--trials", "3"], "check_decomposition", 0),
        (["theory", "--m", "1000"], "theory_schedule", 0),
        (["selftest"], "run_selftest", 0),
    ]
    IDS = [f"{a[1] if a[0] == 'probe' else a[0]}-exit{code}" for a, _, code in COMMANDS]

    @pytest.mark.parametrize("argv,function,code", COMMANDS, ids=IDS)
    def test_one_thread_fewer_than_the_cpus_and_restored(
        self, argv, function, code, blas_at_two, monkeypatch, capsys
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seen = []
        real = getattr(cli, function)

        def recording(*args, **kwargs):
            seen.append(blas_at_two())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, function, recording)
        seed = [] if argv[0] in ("theory", "selftest") else ["--seed", "1"]
        assert parse_and_dispatch(argv + seed) == code
        assert seen and set(seen) == {1}
        assert blas_at_two() == 2  # restored, also after the exit-1 width run


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert parse_and_dispatch(["bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice" in err

    def test_unknown_flag(self, capsys):
        assert parse_and_dispatch(["recover", "--frobnicate", "3"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert parse_and_dispatch([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_config_file_names_path(self, capsys):
        assert parse_and_dispatch(["sweep", "--config", "missing.cfg", "--seed", "1"]) == 1
        assert "missing.cfg" in capsys.readouterr().err

    def test_missing_seed(self, capsys):
        assert parse_and_dispatch(["recover", "--n", "16", "--s", "2", "--m", "32"]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    @pytest.mark.parametrize("argv", [
        ["recover", "--n", "16", "--s", "2", "--m", "32"],
        ["sweep", "--n", "16", "--s", "2", "--m-grid", "32", "--trials", "1"],
        ["probe", "width", "--n", "16", "--s", "2", "--trials", "100"],
    ], ids=["recover", "sweep", "probe"])
    def test_seed_outside_64_bits_rejected(self, argv, seed, tmp_path, capsys):
        # the seed streams take 64 bits, so 2^64 + 5 would otherwise run as seed 5
        out_dir = tmp_path / "out"
        extra = ["--out-dir", str(out_dir)] if argv[0] == "sweep" else []
        assert parse_and_dispatch(argv + ["--seed", seed] + extra) == 1
        assert capsys.readouterr() == ("", f"onebitcs: error: seed must be in [0, 2^64), got {seed}\n")
        assert not out_dir.exists()

    def test_seed_outside_64_bits_rejected_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[recover]\nseed = -1\n")
        assert parse_and_dispatch(["recover", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "onebitcs: error: seed must be in [0, 2^64), got -1\n"

    def test_largest_seed_accepted(self, capsys):
        seed = str(2**64 - 1)
        assert parse_and_dispatch(["recover", "--n", "16", "--s", "2", "--m", "32", "--seed", seed]) == 0
        assert f"seed = {seed}" in capsys.readouterr().out
        assert parse_and_dispatch(["probe", "width", "--n", "16", "--s", "2", "--trials", "100",
                                   "--seed", seed]) == 0

    def test_invalid_argument_is_validation_error(self, capsys):
        assert parse_and_dispatch(
            ["recover", "--n", "4", "--s", "9", "--m", "16", "--seed", "1"]
        ) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_validation_error(self, workers, tmp_path, capsys):
        out = tmp_path / "out"
        assert parse_and_dispatch(
            ["sweep", "--n", "16", "--s", "2", "--m-grid", "32", "--trials", "1",
             "--seed", "1", "--workers", workers, "--out-dir", str(out)]
        ) == 1
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["inf", "nan", "-0.5"])
    def test_bad_noise_rejected_before_any_draw(self, noise, monkeypatch, tmp_path, capsys):
        drawn = []
        real = harness.gen_gaussian_matrix

        def spy(*args, **kwargs):
            drawn.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "gen_gaussian_matrix", spy)
        argv = ["sweep", "--n", "512", "--s", "4", "--m-grid", "256,8192", "--trials", "2",
                "--workers", "1", "--seed", "1", "--out-dir", str(tmp_path / "out")]
        assert parse_and_dispatch(argv + ["--noise-std", noise]) == 1
        assert "noise_std must be finite and nonnegative" in capsys.readouterr().err
        assert drawn == [] and not (tmp_path / "out").exists()
        assert parse_and_dispatch(argv[:6] + ["256,512"] + argv[7:] + ["--noise-std", "0.1"]) == 0
        assert drawn  # the spy sees a sweep's draws

    def test_algorithm_listed_twice_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert parse_and_dispatch(
            ["sweep", "--n", "32", "--s", "2", "--m-grid", "64,128,256", "--algo", "nbiht,nbiht",
             "--trials", "2", "--seed", "1", "--out-dir", str(out)]
        ) == 1
        assert capsys.readouterr() == (
            "", "onebitcs: error: each algorithm may be listed once, got ['nbiht', 'nbiht']\n")
        assert not out.exists()

    def test_infinite_tau_is_validation_error(self, capsys):
        assert parse_and_dispatch(
            ["recover", "--seed", "1", "--n", "64", "--s", "2", "--m", "256", "--tau", "inf"]
        ) == 1
        assert "tau must be finite and positive" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, capsys, monkeypatch):
        import onebitcs.harness as harness
        from onebitcs import DegenerateIterateError

        def boom(*args, **kwargs):
            raise DegenerateIterateError("synthetic collapse")

        monkeypatch.setattr(harness, "one_shot_estimate", boom)
        code = parse_and_dispatch(
            ["recover", "--n", "16", "--s", "2", "--m", "32", "--algo", "one_shot", "--seed", "1"]
        )
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_unexpected_exception_under_recover_exits_two(self, capsys, monkeypatch):
        import onebitcs.harness as harness

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(harness, "solve", boom)  # recover is a one-cell sweep
        code = parse_and_dispatch(["recover", "--n", "16", "--s", "2", "--m", "32", "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["onebitcs: runtime failure: RuntimeError: synthetic fault"]

    def test_unexpected_exception_under_sweep_exits_two(self, tmp_path, capsys, monkeypatch):
        # a failed run is an error row, but a failed draw fails the sweep
        import onebitcs.harness as harness

        def boom(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(harness, "gen_sparse_signal", boom)
        code = parse_and_dispatch(
            ["sweep", "--n", "16", "--s", "2", "--m-grid", "32,64", "--trials", "1",
             "--seed", "1", "--workers", "1", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["onebitcs: runtime failure: ZeroDivisionError: division by zero"]

    def test_dead_solver_process_exits_two(self, tmp_path, capsys, monkeypatch):
        # a one-process sweep at a share of 2 solves on forked processes; one dies
        import multiprocessing
        import os

        import onebitcs.harness as harness

        sweep_pid = os.getpid()

        def dies(*args, **kwargs):
            if os.getpid() != sweep_pid:
                os._exit(1)
            raise AssertionError("solved in the sweep's own process")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "nbiht_run", dies)
        code = parse_and_dispatch(
            ["sweep", "--n", "16", "--s", "2", "--m-grid", "32,64", "--trials", "2",
             "--seed", "1", "--workers", "1", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("onebitcs: runtime failure: BrokenProcessPool: ")
        assert multiprocessing.active_children() == []

    def test_unmappable_solver_buffer_exits_two(self, tmp_path, capsys, monkeypatch):
        # a one-process sweep at a share of 2 maps a buffer for its solver processes
        import errno
        import mmap
        import os

        def enomem(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mmap, "mmap", enomem)
        code = parse_and_dispatch(
            ["sweep", "--n", "16", "--s", "2", "--m-grid", "32,64", "--trials", "2",
             "--seed", "1", "--workers", "1", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"onebitcs: runtime failure: cannot map 64 x 16 float64 entries: "
                       f"[Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}"]

    def test_unallocatable_size_is_validation_error(self, capsys):
        # 10^12 x 512 float64 exceeds any physical memory, so it is refused before the draw
        assert parse_and_dispatch(["recover", "--m", "1000000000000", "--seed", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("onebitcs: error: 1 process(es) x 1000000000000 x 512 float64")
        assert "need 3.81e+06 GiB, more than the" in err[0]


class TestRecover:
    ARGS = ["recover", "--n", "64", "--s", "3", "--m", "512", "--algo", "nbiht", "--seed", "11"]

    def test_prints_error_and_iterations(self, capsys):
        assert parse_and_dispatch(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "final_l2_error = " in out and "iterations_used = " in out
        assert "stop_reason = " in out

    def test_deterministic_output(self, capsys):
        args = ["recover", "--n", "512", "--s", "4", "--m", "4096", "--algo", "nbiht", "--seed", "11"]
        parse_and_dispatch(args)
        first = capsys.readouterr().out
        parse_and_dispatch(args)
        second = capsys.readouterr().out
        assert first == second
        assert "final_l2_error = " in first

    @pytest.mark.parametrize("algo", ["biht", "iht", "one_shot"])
    def test_other_algorithms_run(self, algo, capsys):
        args = list(self.ARGS)
        args[args.index("nbiht")] = algo
        assert parse_and_dispatch(args) == 0
        assert "final_l2_error" in capsys.readouterr().out

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("algo", ["nbiht", "biht", "iht", "one_shot"])
    def test_matches_one_cell_sweep_record(self, algo, noise, capsys):
        args = ["recover", "--n", "64", "--s", "3", "--m", "256", "--algo", algo, "--seed", "11"]
        if noise:
            args += ["--noise-std", str(noise)]
        assert parse_and_dispatch(args) == 0
        printed = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
            if line.count(" = ") == 1
        )
        records, _ = run_sweep(SweepConfig(
            n=64, s=3, m_grid=(256,), algorithms=(algo,), trials_per_cell=1,
            master_seed=11, max_iters=500, noise_std=noise,
        ))
        (rec,) = records
        assert printed["final_l2_error"] == repr(rec.final_l2_error)
        assert printed["iterations_used"] == str(rec.iterations_used)
        assert printed["sign_agreement"] == repr(rec.sign_agreement)
        assert printed["stop_reason"] == rec.stop_reason


    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_matches_sweep_record_at_every_m(self, noise, capsys):
        # trial 0 of any sweep with this master seed: other m values, trials
        # and algorithms in the grid do not change its instance
        records, _ = run_sweep(SweepConfig(
            n=64, s=3, m_grid=(128, 256, 512), algorithms=tuple(ALGORITHMS), trials_per_cell=2,
            master_seed=11, max_iters=500, noise_std=noise,
        ))
        trial0 = {(r.algorithm, r.m): r for r in records if r.trial_index == 0}
        for (algo, m), rec in sorted(trial0.items()):
            args = ["recover", "--n", "64", "--s", "3", "--m", str(m), "--algo", algo, "--seed", "11"]
            assert parse_and_dispatch(args + ["--noise-std", str(noise)]) == 0
            printed = dict(
                line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                if line.count(" = ") == 1
            )
            assert printed["final_l2_error"] == repr(rec.final_l2_error), (algo, m)
            assert printed["iterations_used"] == str(rec.iterations_used), (algo, m)
            assert printed["sign_agreement"] == repr(rec.sign_agreement), (algo, m)
            assert printed["stop_reason"] == rec.stop_reason, (algo, m)
        assert len(trial0) == 12


class TestSweep:
    def test_end_to_end_writes_report_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = parse_and_dispatch(
            [
                "sweep", "--n", "32", "--s", "3", "--m-grid", "64,128,256",
                "--algo", "nbiht,one_shot", "--trials", "3", "--max-iters", "40",
                "--seed", "5", "--workers", "1", "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "plot.svg").exists()
        stdout = capsys.readouterr().out
        assert "slope" in stdout

    ARGS = [
        "sweep", "--n", "32", "--s", "3", "--m-grid", "64,128,256",
        "--algo", "nbiht,one_shot", "--trials", "3", "--max-iters", "40",
        "--seed", "5", "--workers", "1",
    ]

    def test_stop_reason_mix_follows_slope_lines(self, tmp_path, capsys):
        from onebitcs.report import read_records_csv

        out = tmp_path / "out"
        assert parse_and_dispatch(self.ARGS + ["--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = read_records_csv(out / "records.csv")
        nbiht = [r.stop_reason for r in records if r.algorithm == "nbiht"]
        assert lines[2:4] == [
            f"nbiht: stop reasons converged={nbiht.count('converged')} "
            f"max_iters={nbiht.count('max_iters')} degenerate={nbiht.count('degenerate')} error=0",
            "one_shot: stop reasons converged=0 max_iters=0 degenerate=0 error=0 one_shot=9",
        ]
        assert [line.split(":")[0] for line in lines[:2]] == ["nbiht", "one_shot"]
        assert "slope" in lines[0] and "slope" in lines[1]
        assert len(nbiht) == 9

    def test_stage_seconds_follow_stop_reasons(self, tmp_path, capsys):
        from onebitcs.report import load_manifest, read_records_csv

        out = tmp_path / "out"
        assert parse_and_dispatch(self.ARGS + ["--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[1].split()[:2] for line in lines[2:4]] == [["stop", "reasons"]] * 2
        assert re.fullmatch(r"stage seconds: draw=\d+\.\d{3} solve=\d+\.\d{3}", lines[4]), lines[4]
        assert lines[5].startswith("csv: ")
        manifest = load_manifest(out / "manifest.txt")
        assert lines[4] == f"stage seconds: draw={manifest.draw_s:.3f} solve={manifest.solve_s:.3f}"
        solve_s = sum(r.wall_time_ms for r in read_records_csv(out / "records.csv")) / 1e3
        assert manifest.solve_s == pytest.approx(solve_s)

    def test_stop_reason_mix_counts_error_rows(self, tmp_path, capsys, monkeypatch):
        import onebitcs.harness as harness
        from onebitcs import DegenerateIterateError

        def boom(*args, **kwargs):
            raise DegenerateIterateError("synthetic collapse")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        assert parse_and_dispatch(self.ARGS + ["--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "nbiht: stop reasons converged=0 max_iters=0 degenerate=0 error=9" in out

    def test_unexpected_run_failure_is_recorded(self, tmp_path, capsys, monkeypatch):
        import onebitcs.harness as harness
        from onebitcs.report import read_records_csv

        real_solve = harness.solve

        def solve(cfg, algo, *args):
            if algo == "nbiht":
                raise ValueError("synthetic fault")
            return real_solve(cfg, algo, *args)

        monkeypatch.setattr(harness, "solve", solve)
        out = tmp_path / "out"
        assert parse_and_dispatch(self.ARGS + ["--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("nbiht: no fit (")
        assert lines[1].startswith("one_shot: slope = ")
        assert lines[2] == "nbiht: stop reasons converged=0 max_iters=0 degenerate=0 error=9"
        records = read_records_csv(out / "records.csv")
        assert {r.stop_reason for r in records if r.algorithm == "nbiht"} == {
            "error: ValueError: synthetic fault"
        }
        assert len(records) == 18

    def test_all_failed_algorithm_has_no_fit(self, tmp_path, capsys, monkeypatch):
        import onebitcs.harness as harness
        from onebitcs import DegenerateIterateError

        def boom(*args, **kwargs):
            raise DegenerateIterateError("synthetic collapse")

        monkeypatch.setattr(harness, "nbiht_run", boom)
        assert parse_and_dispatch(self.ARGS + ["--out-dir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("nbiht: no fit (")
        assert lines[1].startswith("one_shot: slope = ")
        svg = (tmp_path / "out" / "plot.svg").read_text()
        assert 'id="series-one_shot"' in svg and 'id="series-nbiht"' not in svg

    def test_theory_overlay_flag(self, tmp_path):
        out = tmp_path / "overlay"
        code = parse_and_dispatch(
            [
                "sweep", "--n", "32", "--s", "3", "--m-grid", "64,128,256",
                "--algo", "one_shot", "--trials", "2", "--seed", "5",
                "--workers", "1", "--out-dir", str(out), "--theory-overlay",
            ]
        )
        assert code == 0
        assert 'id="series-theory"' in (out / "plot.svg").read_text()


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[recover]\nn = 64\ns = 3\nm = 512\nalgo = one_shot\nseed = 11\n")
        assert parse_and_dispatch(["recover", "--config", str(cfg)]) == 0
        out1 = capsys.readouterr().out
        assert "algorithm = one_shot" in out1 and "m = 512" in out1
        assert parse_and_dispatch(["recover", "--config", str(cfg), "--m", "256"]) == 0
        assert "m = 256" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[recover]\nwarp_speed = 9\nseed = 1\n")
        assert parse_and_dispatch(["recover", "--config", str(cfg)]) == 1
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("trials", "ten"), ("theory_overlay", "ture")])
    def test_unparsable_config_value_is_validation_error(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[sweep]\n{key} = {value}\nseed = 1\n")
        assert parse_and_dispatch(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"'{value}'" in err and f"'{key}'" in err and "[sweep]" in err

    def test_unreadable_config_is_validation_error(self, tmp_path, capsys):
        # a path that cannot be opened as a file; reading it would skip it and run on the defaults
        assert parse_and_dispatch(["theory", "--config", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"onebitcs: error: cannot parse config file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_undecodable_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[theory]\nn = \xff\xfe\n")
        assert parse_and_dispatch(["theory", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"onebitcs: error: cannot parse config file {cfg}: ")
        assert err.count("\n") == 1

    def test_seed_from_config_satisfies_requirement(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[recover]\nseed = 3\nn = 32\ns = 2\nm = 128\n")
        assert parse_and_dispatch(["recover", "--config", str(cfg)]) == 0


class TestProbeAndTheory:
    def test_probe_projection(self, capsys):
        code = parse_and_dispatch(
            ["probe", "projection", "--n", "16", "--s", "2", "--trials", "200", "--seed", "3"]
        )
        assert code == 0
        assert "max violation" in capsys.readouterr().out

    def test_probe_decomposition(self, capsys):
        code = parse_and_dispatch(
            ["probe", "decomposition", "--n", "12", "--trials", "50", "--seed", "4"]
        )
        assert code == 0
        assert "residual" in capsys.readouterr().out

    def test_probe_width(self, capsys):
        code = parse_and_dispatch(
            ["probe", "width", "--n", "32", "--s", "2", "--trials", "500", "--seed", "4"]
        )
        assert code == 0
        assert "ratio" in capsys.readouterr().out

    def test_probe_raic_uses_config_annulus(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[probe]\nraic_r_lb = 0.2\nraic_r_ub = 0.4\n")
        code = parse_and_dispatch(
            [
                "probe", "raic", "--n", "32", "--s", "3", "--m", "256",
                "--trials", "15", "--seed", "6", "--config", str(cfg),
            ]
        )
        assert code == 0
        assert "annulus [0.2, 0.4]" in capsys.readouterr().out

    @pytest.mark.parametrize("name, argv", [
        ("unbiased", ["--m", "100", "--trials", "99"]),  # 9,900 < 10^4 measurements
        ("unbiased", ["--m", "10000", "--trials", "0"]),  # one trial would have enough
        ("embedding", ["--trials", "0"]),
        ("raic", ["--trials", "0"]),
        ("width", ["--trials", "99"]),
        ("projection", ["--trials", "-5"]),
        ("decomposition", ["--trials", "0"]),
        ("decomposition", ["--n", "1", "--trials", "5"]),  # in R^1 every unit x is +/-y
    ])
    def test_probe_rejected_trial_count_is_validation_error(self, name, argv, monkeypatch, capsys):
        # each probe runs the count asked or none at all; none rounds it up
        def drawn(*args):
            raise AssertionError("a block was drawn before the arguments were validated")

        monkeypatch.setattr(model, "block_generator", drawn)
        monkeypatch.setattr(probes, "block_generator", drawn)
        assert parse_and_dispatch(["probe", name, "--n", "16", "--s", "2", *argv, "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onebitcs: error: ")

    @pytest.mark.parametrize("name, argv, printed", [
        ("unbiased", ["--m", "100", "--trials", "100"], "trials=100)"),
        ("width", ["--trials", "101"], "trials=101)"),
        ("decomposition", ["--trials", "1"], "triples=1)"),
    ])
    def test_probe_runs_the_trial_count_asked(self, name, argv, printed, capsys):
        assert parse_and_dispatch(["probe", name, "--n", "16", "--s", "2", *argv, "--seed", "1"]) == 0
        assert printed in capsys.readouterr().out

    def test_probe_unknown_name(self, capsys):
        assert parse_and_dispatch(["probe", "zeta", "--seed", "1"]) == 1

    def test_theory_table(self, capsys):
        assert parse_and_dispatch(["theory", "--m", "8192", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "L = 0" in out and "diagnostic only" in out and "exponent" in out

    @pytest.mark.parametrize("argv, probe_ini, message", [
        (["theory", "--m", "nan"], None, "need finite m >= 2"),
        (["theory", "--m", "inf"], None, "need finite m >= 2"),
        (["theory", "--m", "1e400"], None, "need finite m >= 2"),
        (["theory", "--constants-cb", "nan"], None, "cb and cb_lower must be finite and positive"),
        (["probe", "raic", "--seed", "1"], "raic_nu = nan", "nu must be finite and positive"),
        (["probe", "raic", "--seed", "1"], "raic_nu = inf", "nu must be finite and positive"),
    ])
    def test_non_finite_value_is_validation_error(self, argv, probe_ini, message, tmp_path, capsys):
        if probe_ini is not None:  # raic_nu is a config key only
            (tmp_path / "p.cfg").write_text(f"[probe]\n{probe_ini}\n")
            argv = argv + ["--config", str(tmp_path / "p.cfg")]
        assert parse_and_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"onebitcs: error: {message}"

    def test_theory_above_threshold(self, capsys):
        assert parse_and_dispatch(["theory", "--m", "1e100", "--n", "1024", "--s", "5"]) == 0
        out = capsys.readouterr().out
        assert "L = 3" in out and "r nonincreasing = True" in out


class TestSelftest:
    def test_healthy_build_exits_zero(self, capsys):
        assert parse_and_dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out and "FAIL" not in out
