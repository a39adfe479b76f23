"""The benchmark's workloads: their inputs, one pass each, and its checks.

A workload turns a seed into CLI argument lists for ``onebitcs``. One pass
runs those lists through ``onebitcs.cli.parse_and_dispatch`` in this process
and checks what they produced. This module imports ``onebitcs`` only inside
functions, so the set-up timer can load it before its clock starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

KNOWN_STOP_REASONS = {"converged", "max_iters", "degenerate"}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class PassResult:
    """What one pass of a workload took and produced."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    digest: str
    manifest_version: str  # as written by the sweep, "" when the pass writes no manifest
    checks: list[Check]
    solve_s_sum: float = 0.0  # sum of the records' wall_time_ms, in seconds
    report_bytes: int = 0


def _cpu_now() -> float:
    """User plus system CPU of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _dispatch(argv: list[str], tracer=None, note=None) -> tuple[int, str]:
    """Run one CLI command, capturing what it prints."""
    from onebitcs.cli import parse_and_dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = parse_and_dispatch(argv)
        else:
            with tracer.span("cli.parse_and_dispatch", note):
                code = parse_and_dispatch(argv)
    return code, out.getvalue()


def manifest_version_of(text: str) -> str:
    match = re.search(r"^manifest_version = (\S+)$", text, re.MULTILINE)
    return match.group(1) if match else "unknown"


@dataclass(frozen=True)
class SweepWorkload:
    """``onebitcs sweep`` over an m grid; ``workers=None`` keeps the CLI default."""

    n: int
    s: int
    m_grid: tuple[int, ...]
    algorithms: tuple[str, ...]
    trials: int
    value_rule: str
    max_iters: int
    workers: int | None

    def argv(self, seed: int, out_dir: Path, workers: int | None = None) -> list[str]:
        argv = [
            "sweep", "--n", str(self.n), "--s", str(self.s),
            "--m-grid", ",".join(str(m) for m in self.m_grid),
            "--algo", ",".join(self.algorithms), "--trials", str(self.trials),
            "--value-rule", self.value_rule, "--max-iters", str(self.max_iters),
            "--seed", str(seed), "--out-dir", str(out_dir),
        ]
        workers = workers if workers is not None else self.workers
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv

    def effective_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)

    def setup(self, seed: int, out_dir: Path) -> None:
        """Everything before the first instance draw: parse, config, manifest."""
        from onebitcs.cli import build_parser
        from onebitcs.harness import SweepConfig, build_manifest

        build_parser().parse_args(self.argv(seed, out_dir))
        cfg = SweepConfig(
            n=self.n, s=self.s, m_grid=self.m_grid, algorithms=self.algorithms,
            trials_per_cell=self.trials, master_seed=seed, max_iters=self.max_iters,
            value_rule=self.value_rule,
        )
        build_manifest(cfg)

    def run_pass(self, seed: int, work_dir: Path, workers: int | None = None, tracer=None) -> PassResult:
        from onebitcs.report import read_records_csv

        out_dir = work_dir / "sweep-out"
        shutil.rmtree(out_dir, ignore_errors=True)
        cpu0, t0 = _cpu_now(), time.perf_counter()
        code, _ = _dispatch(self.argv(seed, out_dir, workers), tracer)
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        checks = [Check("exit code", code == 0, f"sweep exited {code}")]
        if code != 0:
            return PassResult(wall, cpu, 1, 1, "", "unknown", checks)
        records = read_records_csv(out_dir / "records.csv")
        failed = sum(r.stop_reason.startswith("error:") for r in records)
        checks.append(Check("no failed records", failed == 0,
                            f"fail_frac = {failed}/{len(records)} records"))
        checks += self.check_records(records)
        result = PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=len(records),
            failed=failed,
            digest=hashlib.sha256(
                "\n".join(repr(r.comparable()) for r in records).encode()
            ).hexdigest(),
            manifest_version=manifest_version_of((out_dir / "manifest.txt").read_text()),
            checks=checks,
            solve_s_sum=sum(r.wall_time_ms for r in records) / 1e3,
            report_bytes=sum(p.stat().st_size for p in out_dir.iterdir()),
        )
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def check_records(self, records) -> list[Check]:
        expected = len(self.m_grid) * self.trials * len(self.algorithms)
        checks = [Check("record count", len(records) == expected,
                        f"{len(records)} records, expected {expected}")]
        if "one_shot" in self.algorithms:
            checks += _acceptance_checks(records)
        else:
            checks += _solver_checks(records, self.max_iters)
        return checks


def _acceptance_checks(records) -> list[Check]:
    """Acceptance criteria 1 and 2, with the bounds of tests/test_acceptance.py."""
    from onebitcs.errors import InvalidArgumentError
    from onebitcs.harness import fit_slope

    try:
        nbiht, _, r2 = fit_slope(records, "nbiht", error_stat="median")
        one_shot, _, _ = fit_slope(records, "one_shot", error_stat="median")
    except InvalidArgumentError as exc:
        return [Check("slope fit", False, str(exc))]
    gap = one_shot - nbiht
    return [
        Check("criterion 1 nbiht decay slope", nbiht <= -0.75 and r2 >= 0.95,
              f"slope = {nbiht:.4f} <= -0.75, r2 = {r2:.4f} >= 0.95"),
        Check("criterion 2 one-shot slope and gap", -0.65 <= one_shot <= -0.35 and gap >= 0.25,
              f"slope = {one_shot:.4f} in [-0.65, -0.35], gap = {gap:.4f} >= 0.25"),
    ]


def _solver_checks(records, max_iters: int) -> list[Check]:
    bad_error = [r for r in records if not (math.isfinite(r.final_l2_error) and r.final_l2_error <= 2.0)]
    over_budget = [r for r in records if r.iterations_used > max_iters]
    reasons = {r.stop_reason for r in records}
    return [
        Check("errors finite and <= 2", not bad_error, f"{len(bad_error)} of {len(records)} outside"),
        Check("iterations_used <= max_iters", not over_budget,
              f"{len(over_budget)} of {len(records)} over {max_iters}"),
        Check("stop reasons known", reasons <= KNOWN_STOP_REASONS, f"seen {sorted(reasons)}"),
    ]


_FLOAT = r"([-+0-9.eE]+|nan|inf)"
# probe name -> (pattern of the value it prints, upper bound on that value)
_PROBE_RESULTS = {
    "projection": (rf"max violation = {_FLOAT}", 1e-12),
    "decomposition": (rf"max decomposition residual = {_FLOAT}", 1e-12),
}


@dataclass(frozen=True)
class ProbesWorkload:
    """Every ``onebitcs probe`` at the CLI's n, s and m, with per-probe trial counts."""

    trials: dict[str, int]

    def argvs(self, seed: int) -> list[tuple[str, list[str]]]:
        return [
            (probe, ["probe", probe, "--trials", str(trials), "--seed", str(seed)])
            for probe, trials in self.trials.items()
        ]

    def effective_workers(self) -> int:
        return 1

    def setup(self, seed: int, out_dir: Path) -> None:
        from onebitcs.cli import build_parser

        parser = build_parser()
        for _, argv in self.argvs(seed):
            parser.parse_args(argv)

    def run_pass(self, seed: int, work_dir: Path, workers: int | None = None, tracer=None) -> PassResult:
        outputs, checks = [], []
        failed = 0
        cpu0, t0 = _cpu_now(), time.perf_counter()
        for probe, argv in self.argvs(seed):
            try:
                code, text = _dispatch(argv, tracer, note=probe)
            except Exception as exc:  # a probe that raises counts as a failed operation
                code, text = -1, f"raised {exc!r}"
            failed += code != 0
            outputs.append(f"{probe}: {text}")
            checks.append(Check(f"probe {probe} exit code", code == 0, f"exited {code}"))
            if probe in _PROBE_RESULTS:
                pattern, bound = _PROBE_RESULTS[probe]
                match = re.search(pattern, text)
                value = float(match.group(1)) if match else math.nan
                checks.append(Check(f"probe {probe} <= {bound:g}", value <= bound, f"value = {value!r}"))
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        checks.append(Check("no failed probes", failed == 0,
                            f"fail_frac = {failed}/{len(outputs)} probe calls"))
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=len(outputs),
            failed=failed,
            digest=hashlib.sha256("".join(outputs).encode()).hexdigest(),
            manifest_version="",  # probes write no manifest
            checks=checks,
        )


def package_manifest_version(work_dir: Path) -> str:
    """The manifest_version the package writes, read from a manifest of a tiny sweep."""
    from onebitcs.harness import SweepConfig, build_manifest
    from onebitcs.report import write_manifest

    cfg = SweepConfig(n=4, s=1, m_grid=(1,), algorithms=("one_shot",), trials_per_cell=1, master_seed=0)
    path = write_manifest(build_manifest(cfg), work_dir / "version-manifest.txt")
    version = manifest_version_of(path.read_text())
    path.unlink()
    return version


WORKLOADS = {
    "accept_sweep": SweepWorkload(
        n=512, s=4, m_grid=tuple(2**k for k in range(8, 14)),
        algorithms=("nbiht", "one_shot"), trials=50, value_rule="rademacher",
        max_iters=300, workers=None,
    ),
    "solver_heavy": SweepWorkload(
        n=2048, s=16, m_grid=tuple(2**k for k in range(10, 14)),
        algorithms=("nbiht", "biht", "iht"), trials=16, value_rule="gaussian",
        max_iters=300, workers=1,
    ),
    # About 0.4 s per matrix probe. projection and decomposition draw no matrix
    # and are the noisiest on a shared host, so they get about 0.15 s each.
    "probes": ProbesWorkload(
        trials={"unbiased": 12, "embedding": 350, "raic": 300, "width": 70000,
                "projection": 2000, "decomposition": 2000},
    ),
}

# Sizes for the benchmark's own smoke test: every check runs, but the slope
# criteria are not expected to hold this small.
TINY = {
    "accept_sweep": SweepWorkload(
        n=64, s=2, m_grid=(32, 64, 128), algorithms=("nbiht", "one_shot"),
        trials=2, value_rule="rademacher", max_iters=20, workers=None,
    ),
    "solver_heavy": SweepWorkload(
        n=64, s=4, m_grid=(32, 64, 128), algorithms=("nbiht", "biht", "iht"),
        trials=1, value_rule="gaussian", max_iters=20, workers=1,
    ),
    "probes": ProbesWorkload(
        trials={"unbiased": 2, "embedding": 2, "raic": 2, "width": 100,
                "projection": 5, "decomposition": 2},
    ),
}
