"""Run one benchmark workload of onebitcs, check its outputs and print its metrics.

    python3 benchmarks/run.py --workload accept_sweep --seed 1 --seconds 20 --trace 0

Run it from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every check as PASS or FAIL, and each metric with its
unit. The exit code is 0 only when every check passed. README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Check  # noqa: E402


def _fail(message: str) -> int:
    print(f"benchmark: error: {message}", file=sys.stderr)
    return 2


def environment(name: str, seed: int, workers: int, scale: str) -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"].get("found", [])
    except (TypeError, KeyError):  # numpy builds without the dict form of show_config
        blas, simd = {}, []
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "workers": workers,
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "simd": simd,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


# Environment fields that can change the bits of the records.
FINGERPRINT = ("numpy", "blas", "blas_version", "simd", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count")


def digest_check(name: str, seed: int, env: dict, digest: str, manifest_version: str) -> Check:
    """Compare the records digest with the one stored for this workload and seed."""
    title = "records digest"
    if env["scale"] != "full":
        return Check(title, True, "not compared at tiny scale")
    if not DIGESTS.exists():
        return Check(title, True, f"{digest[:16]} not compared: no {DIGESTS.name}")
    stored = json.loads(DIGESTS.read_text())
    changed = [k for k in FINGERPRINT if stored["environment"].get(k) != env[k]]
    if changed:
        return Check(title, True, f"{digest[:16]} not compared: stored for another {', '.join(changed)}")
    expected = stored["digests"].get(name, {}).get(str(seed))
    if expected is None:
        return Check(title, True, f"{digest[:16]} not compared: none stored for seed {seed}")
    if expected == digest:
        return Check(title, True, f"{digest[:16]} matches the stored digest")
    if manifest_version != stored["manifest_version"]:
        return Check(title, True, f"{digest[:16]} differs from {expected[:16]}, with manifest_version "
                                  f"{stored['manifest_version']} -> {manifest_version}")
    return Check(title, False, f"MISMATCH: {digest[:16]} != stored {expected[:16]} "
                               f"at unchanged manifest_version {manifest_version}")


def store_digest(name: str, seed: int, env: dict, digest: str, manifest_version: str) -> None:
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    fingerprint = {k: env[k] for k in FINGERPRINT}
    if stored.get("environment") != fingerprint or stored.get("manifest_version") != manifest_version:
        stored = {"environment": fingerprint, "manifest_version": manifest_version, "digests": {}}
    stored["digests"].setdefault(name, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def measure_setup(name: str, seed: int, scale: str, work_dir: Path) -> list[float]:
    """Set-up seconds of fresh interpreters; the first one, which warms the file cache, is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, str(HERE / "setup_child.py"), name, str(seed), scale, str(work_dir)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def run_passes(seconds: float, one_round) -> list:
    """Repeat ``one_round`` while another round still ends within ``seconds``."""
    rounds, start = [], time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(one_round())
        last = time.perf_counter() - round_start
        if time.perf_counter() - start + last > seconds:
            return rounds


def end_to_end(workload, seed: int, seconds: float, work_dir: Path, setup: list[float]):
    passes = run_passes(seconds, lambda: workload.run_pass(seed, work_dir))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (max(self_kb, children_kb) / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"wall_s, cpu_s: median of {len(passes)} passes; pass wall_s "
        + " ".join(f"{p.wall_s:.3f}" for p in passes),
        f"fail_frac = {failed}/{attempted} = {failed / attempted:g} (base: operations attempted; ok_frac = 1 - fail_frac)",
    ]
    return passes, metrics, notes


def per_layer(workload, seed: int, seconds: float, work_dir: Path):
    """Untraced passes (as configured and with one worker) beside a traced one-worker pass."""
    pooled = workload.effective_workers() > 1

    def one_round():
        configured = workload.run_pass(seed, work_dir)
        serial = workload.run_pass(seed, work_dir, workers=1) if pooled else configured
        tracer = tracing.Tracer()
        with tracer:
            traced = workload.run_pass(seed, work_dir, workers=1, tracer=tracer)
        layers = tracing.layer_metrics(tracer.spans)
        layers.update({
            "harness.solve_s_sum": (configured.solve_s_sum, "s"),
            "harness.solve_s_sum_serial": (traced.solve_s_sum, "s"),
            "harness.pool.solve_inflation": (
                configured.solve_s_sum / traced.solve_s_sum if traced.solve_s_sum else 0.0, "ratio"),
            "report.bytes_written": (traced.report_bytes, "bytes"),
            "trace.wall_s": (traced.wall_s, "s"),
            "trace.overhead_s": (traced.wall_s - serial.wall_s, "s"),
        })
        return [configured, serial, traced] if pooled else [configured, traced], layers

    rounds = run_passes(seconds, one_round)
    passes = [p for round_passes, _ in rounds for p in round_passes]
    metrics = {}
    for key, (value, unit) in rounds[0][1].items():
        values = [layers[key][0] for _, layers in rounds]
        # counts repeat exactly; keep them whole numbers
        metrics[key] = (statistics.median_low(values) if isinstance(value, int) else statistics.median(values), unit)
    notes = [
        f"per-layer values: median of {len(rounds)} traced passes with 1 worker",
        "trace.overhead_s = traced wall_s - untraced wall_s, both with 1 worker",
        "harness.pool.solve_inflation = harness.solve_s_sum (untraced, as configured) "
        "/ harness.solve_s_sum_serial (traced, 1 worker)",
        "model.matrix_mb is computed as 8*m*N bytes summed over the matrices drawn",
        f"algorithms.nbiht.max_iters_frac base: {metrics['algorithms.nbiht.runs'][0]:g} nbiht runs",
    ]
    return passes, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="time to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own smoke test")
    parser.add_argument("--store-digest", action="store_true",
                        help="record this run's records digest in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "onebitcs" / "__init__.py").is_file():
        return _fail(f"no onebitcs package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import onebitcs

    if Path(onebitcs.__file__).resolve().parent != (SRC / "onebitcs").resolve():
        return _fail(f"imported onebitcs from {onebitcs.__file__}, not from {SRC}")

    workload = (wl.TINY if args.scale == "tiny" else wl.WORKLOADS)[args.workload]
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if args.trace else measure_setup(args.workload, args.seed, args.scale, work_dir)
        wl.TINY[args.workload].run_pass(args.seed, work_dir)  # first-call costs, untimed
        if args.trace:
            passes, metrics, notes = per_layer(workload, args.seed, args.seconds, work_dir)
        else:
            passes, metrics, notes = end_to_end(workload, args.seed, args.seconds, work_dir, setup)
        manifest_version = passes[0].manifest_version or wl.package_manifest_version(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it

    env = environment(args.workload, args.seed, workload.effective_workers(), args.scale)
    first = passes[0]
    checks = {c.line(): c for c in first.checks}
    checks.update({c.line(): c for p in passes[1:] for c in p.checks if not c.ok})
    checks = list(checks.values())
    digests = {p.digest for p in passes}
    checks.append(Check("records identical across passes", len(digests) == 1,
                        f"{len(digests)} distinct digests over {len(passes)} passes"))
    checks.append(digest_check(args.workload, args.seed, env, first.digest, manifest_version))
    if args.store_digest:
        store_digest(args.workload, args.seed, env, first.digest, manifest_version)

    correct = all(c.ok for c in checks)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("env " + json.dumps(env, sort_keys=True))
    for check in checks:
        print(check.line())
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    notes.append(f"records digest sha256 {first.digest} at manifest_version {manifest_version}")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
