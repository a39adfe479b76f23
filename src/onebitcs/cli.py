"""Command-line front end.

Subcommands: recover (one instance), sweep (Monte Carlo grid + report), probe
(named theory probe), theory (schedule table), selftest (built-in checks).
Every flag has a config-file equivalent (INI sections named after the
subcommand, keys named like the flags with dashes as underscores); explicit
flags override file values. Randomized commands require a seed, from the
flag or the config file, never from the wall clock. Exit codes: 0 success,
1 validation error, 2 runtime failure. Every command runs OpenBLAS at one
thread fewer than the CPUs, and at least one, restoring the count on exit; a
sweep whose runs overlap on solver processes divides the CPUs among them first
(see ``harness._thread_plan``).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .algorithms import DEFAULT_TAU
from .errors import DegenerateIterateError, InvalidArgumentError, SamplingExhaustedError
from .harness import (
    ALGORITHMS,
    SweepConfig,
    blas_threads,
    fit_slope,
    run_sweep,
)
from .model import gen_sparse_signal
from .probes import (
    RaicProbeConfig,
    check_embedding,
    check_unbiasedness,
    decomposition_check,
    gaussian_width_estimate,
    projection_inequality_check,
    raic_probe,
)
from .report import emit_report
from .rng import generator_for
from .selftest import run_selftest
from .sparse_ops import normalize
from .theory import ScheduleConstants, error_exponent, theory_schedule

PROBES = ("unbiased", "embedding", "raic", "width", "projection", "decomposition")


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so we control the exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=96)


# Built-in defaults per subcommand; config files and flags override in that order.
DEFAULTS = {
    "recover": {
        "n": 512, "s": 4, "m": 4096, "algo": "nbiht", "tau": DEFAULT_TAU,
        "max_iters": 500, "stop_tol": 1e-10, "init": "random_sparse",
        "noise_std": 0.0, "seed": None,
        "support_rule": "uniform_random", "value_rule": "gaussian",
    },
    "sweep": {
        "n": 512, "s": 4, "m_grid": "256,512,1024,2048,4096,8192",
        "algo": "nbiht,one_shot", "trials": 50, "tau": DEFAULT_TAU,
        "max_iters": 300, "stop_tol": 1e-10, "init": "random_sparse",
        "noise_std": 0.0, "workers": os.cpu_count() or 1, "out_dir": "sweep-out",
        "seed": None, "theory_overlay": False,
        "support_rule": "uniform_random", "value_rule": "gaussian",
    },
    "probe": {
        "n": 256, "s": 4, "m": 8192, "trials": 200, "seed": None,
        "raic_r_lb": 0.1, "raic_r_ub": 0.5, "raic_nu": None,
    },
    "theory": {
        "m": 8192, "n": 512, "s": 4, "levels": None,
        "constants_cb": 1.0, "constants_cb_lower": 1.0, "constants_c10": None,
    },
    "selftest": {},
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="onebitcs",
        description="One-bit compressed sensing: recovery, sweeps, and theory probes.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="{recover,sweep,probe,theory,selftest}")

    recover = sub.add_parser(
        "recover", help="reconstruct one instance and print the final error",
        formatter_class=_formatter,
    )
    recover.add_argument("--n", type=int, help="ambient dimension N")
    recover.add_argument("--s", type=int, help="sparsity level")
    recover.add_argument("--m", type=int, help="number of measurements")
    recover.add_argument("--algo", choices=ALGORITHMS, help="reconstruction algorithm")
    recover.add_argument("--tau", type=float, help="step size (default sqrt(pi/2))")
    recover.add_argument("--max-iters", type=int, help="iteration budget")
    recover.add_argument("--stop-tol", type=float, help="movement stopping tolerance")
    recover.add_argument("--init", choices=("random_sparse", "matched_filter"), help="initialization")
    recover.add_argument("--seed", type=int, help="master seed (required; no wall-clock default)")
    recover.add_argument("--noise-std", type=float, help="pre-quantization noise level")
    recover.add_argument("--support-rule", choices=("uniform_random", "first_s"),
                         help="signal support distribution")
    recover.add_argument("--value-rule", choices=("gaussian", "rademacher", "flat"),
                         help="signal value distribution")
    recover.add_argument("--config", help="INI config file")

    sweep = sub.add_parser(
        "sweep", help="Monte Carlo sweep over m; writes CSV, manifest, and SVG",
        formatter_class=_formatter,
    )
    sweep.add_argument("--n", type=int, help="ambient dimension N")
    sweep.add_argument("--s", type=int, help="sparsity level")
    sweep.add_argument("--m-grid", help="comma-separated increasing m values")
    sweep.add_argument("--algo", help="comma-separated subset of biht,iht,nbiht,one_shot")
    sweep.add_argument("--trials", type=int, help="trials per (algorithm, m) cell")
    sweep.add_argument("--tau", type=float, help="step size (default sqrt(pi/2))")
    sweep.add_argument("--max-iters", type=int, help="iteration budget per run")
    sweep.add_argument("--stop-tol", type=float, help="movement stopping tolerance")
    sweep.add_argument("--init", choices=("random_sparse", "matched_filter"), help="initialization")
    sweep.add_argument("--seed", type=int, help="master seed (required; no wall-clock default)")
    sweep.add_argument("--noise-std", type=float, help="pre-quantization noise level")
    sweep.add_argument("--support-rule", choices=("uniform_random", "first_s"),
                       help="signal support distribution")
    sweep.add_argument("--value-rule", choices=("gaussian", "rademacher", "flat"),
                       help="signal value distribution")
    sweep.add_argument("--workers", type=int,
                       help="worker processes (default: logical CPUs), at most one per trial; each "
                            "process draws its matrices on a share of max(1, cpus // pool size) "
                            "threads and runs BLAS at max(1, share // solvers - 1) threads per call, "
                            "with solvers = min(share, runs per trial): pool workers solve inline, "
                            "one process with solvers > 1 forks that many solver processes")
    sweep.add_argument("--out-dir", help="report output directory")
    sweep.add_argument("--theory-overlay", action="store_true", default=None,
                       help="overlay the first-iteration theory curve on the plot")
    sweep.add_argument("--config", help="INI config file")

    probe = sub.add_parser(
        "probe", help="run a named empirical probe of the analysis",
        formatter_class=_formatter,
    )
    probe.add_argument("name", choices=PROBES, help="which probe to run")
    probe.add_argument("--n", type=int, help="ambient dimension N")
    probe.add_argument("--s", type=int, help="sparsity level")
    probe.add_argument("--m", type=int, help="measurements per ensemble")
    probe.add_argument("--trials", type=int, help="sample/pair/trial count for the probe")
    probe.add_argument("--seed", type=int, help="master seed (required; no wall-clock default)")
    probe.add_argument("--config", help="INI config file (extra keys: raic_r_lb, raic_r_ub, raic_nu)")

    theory = sub.add_parser(
        "theory", help="print the deterministic bound schedule table",
        formatter_class=_formatter,
    )
    theory.add_argument("--m", type=float, help="number of measurements (may be huge)")
    theory.add_argument("--n", type=int, help="ambient dimension N")
    theory.add_argument("--s", type=int, help="sparsity level")
    theory.add_argument("--levels", type=int, help="levels to tabulate (default: the attained L)")
    theory.add_argument("--constants-cb", type=float, help="width constant cb")
    theory.add_argument("--constants-cb-lower", type=float, help="concentration constant cb_lower")
    theory.add_argument("--constants-c10", type=float,
                        help="embedding constant c10 (default derived from placeholders)")
    theory.add_argument("--config", help="INI config file")

    sub.add_parser("selftest", help="run the built-in example checks", formatter_class=_formatter)
    return parser


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    file = Path(path)
    if not file.exists():
        raise InvalidArgumentError(f"config file not found: {file}")
    ini = configparser.ConfigParser()
    try:
        ini.read(file)
    except configparser.Error as exc:
        raise InvalidArgumentError(f"cannot parse config file {file}: {exc}") from exc
    if not ini.has_section(section):
        return {}
    return dict(ini.items(section))


_BOOL_KEYS = {"theory_overlay"}
_STR_KEYS = {"algo", "init", "out_dir", "m_grid", "name", "support_rule", "value_rule"}
_FLOAT_KEYS = {"tau", "stop_tol", "noise_std", "raic_r_lb", "raic_r_ub", "raic_nu",
               "constants_cb", "constants_cb_lower", "constants_c10", "m_theory"}


def _coerce(key: str, value: str):
    if key in _BOOL_KEYS:
        state = configparser.ConfigParser.BOOLEAN_STATES.get(value.strip().lower())
        if state is None:
            raise ValueError(f"not a boolean: {value!r}")
        return state
    if key in _STR_KEYS:
        return value.strip()
    if key in _FLOAT_KEYS:
        return float(value)
    return int(value)


def _effective(args: argparse.Namespace, command: str) -> dict:
    """builtin defaults <- config file <- explicit flags."""
    effective = dict(DEFAULTS[command])
    section = _load_config_section(getattr(args, "config", None), command)
    for key, raw in section.items():
        key = key.strip().lower().replace("-", "_")
        if key not in effective:
            raise InvalidArgumentError(f"unknown config key {key!r} in section [{command}]")
        target = "m_theory" if (command == "theory" and key == "m") else key
        try:
            effective[key] = _coerce(target, raw)
        except ValueError as exc:
            raise InvalidArgumentError(f"bad value {raw!r} for key {key!r} in section [{command}]") from exc
    for key in effective:
        given = getattr(args, key, None)
        if given is not None:
            effective[key] = given
    return effective


def _require_seed(opts: dict) -> int:
    if opts.get("seed") is None:
        raise InvalidArgumentError("a --seed is required (flag or config); there is no wall-clock default")
    return int(opts["seed"])


def _cmd_recover(args) -> int:
    opts = _effective(args, "recover")
    seed = _require_seed(opts)
    cfg = SweepConfig(
        n=opts["n"], s=opts["s"], m_grid=(opts["m"],), algorithms=(opts["algo"],),
        trials_per_cell=1, master_seed=seed, noise_std=opts["noise_std"], tau=opts["tau"],
        max_iters=opts["max_iters"], stop_tol=opts["stop_tol"], init=opts["init"],
        support_rule=opts["support_rule"], value_rule=opts["value_rule"],
    )
    (rec,), _ = run_sweep(cfg, workers=1)
    if rec.stop_reason.startswith("error: "):  # the line parse_and_dispatch prints for a runtime failure
        print(f"onebitcs: runtime failure: {rec.stop_reason.removeprefix('error: ')}", file=sys.stderr)
        return 2
    print(f"algorithm = {rec.algorithm}")
    print(f"n = {cfg.n} s = {cfg.s} m = {rec.m} seed = {seed}")
    print(f"final_l2_error = {rec.final_l2_error!r}")
    print(f"iterations_used = {rec.iterations_used}")
    print(f"sign_agreement = {rec.sign_agreement!r}")
    print(f"stop_reason = {rec.stop_reason}")
    return 0


def _cmd_sweep(args) -> int:
    opts = _effective(args, "sweep")
    seed = _require_seed(opts)
    try:
        m_grid = tuple(int(v) for v in str(opts["m_grid"]).split(",") if v.strip())
        algorithms = tuple(v.strip() for v in str(opts["algo"]).split(",") if v.strip())
    except ValueError as exc:
        raise InvalidArgumentError(f"bad grid or algorithm list: {exc}") from exc
    cfg = SweepConfig(
        n=opts["n"], s=opts["s"], m_grid=m_grid, algorithms=algorithms,
        trials_per_cell=opts["trials"], master_seed=seed, noise_std=opts["noise_std"],
        tau=opts["tau"], max_iters=opts["max_iters"], stop_tol=opts["stop_tol"],
        init=opts["init"], support_rule=opts["support_rule"], value_rule=opts["value_rule"],
    )
    records, manifest = run_sweep(cfg, workers=int(opts["workers"]))
    theory_curve = None
    if opts["theory_overlay"]:
        curve = []
        for m in cfg.m_grid:
            sched = theory_schedule(m, cfg.n, cfg.s, levels=1)
            curve.append((float(m), sched.r[0]))
        theory_curve = curve
    paths = emit_report(records, manifest, opts["out_dir"], theory_curve=theory_curve)
    for algo in sorted(set(cfg.algorithms)):
        try:
            slope, intercept, r2 = fit_slope(records, algo)
            print(f"{algo}: slope = {slope:+.4f}  intercept = {intercept:+.4f}  r2 = {r2:.4f}")
        except InvalidArgumentError as exc:
            print(f"{algo}: no fit ({exc})")
    for algo in sorted(set(cfg.algorithms)):
        reasons = Counter(
            "error" if rec.stop_reason.startswith("error:") else rec.stop_reason
            for rec in records
            if rec.algorithm == algo
        )
        mix = {reason: reasons.pop(reason, 0) for reason in ("converged", "max_iters", "degenerate", "error")}
        mix.update(sorted(reasons.items()))  # e.g. one_shot's single step
        print(f"{algo}: stop reasons " + " ".join(f"{reason}={count}" for reason, count in mix.items()))
    print(f"stage seconds: draw={manifest.draw_s:.3f} solve={manifest.solve_s:.3f}")
    for kind, path in paths.items():
        if path is not None:
            print(f"{kind}: {path}")
    return 0


def _cmd_probe(args) -> int:
    opts = _effective(args, "probe")
    seed = _require_seed(opts)
    name = args.name
    n, s, m, trials = opts["n"], opts["s"], opts["m"], opts["trials"]
    if name == "unbiased":
        y = gen_sparse_signal(seed, n, s)
        dev = check_unbiasedness(y.values, m, trials, seed)
        print(f"max coordinate deviation = {dev!r} (n={n} s={s} m={m} trials={trials})")
    elif name == "embedding":
        gap = check_embedding(n, s, m, pairs=trials, seed=seed)
        print(f"max |hamming - geodesic| = {gap!r} (n={n} s={s} m={m} pairs={trials})")
    elif name == "raic":
        cfg = RaicProbeConfig(
            N=n, s=s, m=m, samples=trials, seed=seed,
            r_lb=opts["raic_r_lb"], r_ub=opts["raic_r_ub"], nu=opts["raic_nu"],
        )
        res = raic_probe(cfg)
        print(
            f"fitted_delta = {res.fitted_delta!r} fitted_eta = {res.fitted_eta!r} "
            f"max_residual = {res.max_residual!r} "
            f"(annulus [{cfg.r_lb}, {cfg.r_ub}], samples={cfg.samples})"
        )
    elif name == "width":
        est = gaussian_width_estimate(n, s, trials=trials, seed=seed)
        ref = math.sqrt(2 * s * math.log(n / s)) if n > s else float("nan")
        ratio = est / ref if ref and not math.isnan(ref) else float("nan")
        print(f"width estimate = {est!r} (n={n} s={s} trials={trials})")
        print(f"reference sqrt(2 s log(n/s)) = {ref!r} ratio = {ratio!r}")
    elif name == "projection":
        worst = projection_inequality_check(samples=trials, N=n, s=s, seed=seed)
        print(f"max violation = {worst!r} (samples={trials}, nonpositive up to rounding)")
    else:
        if trials < 1:
            raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
        rng = generator_for(seed)
        worst = 0.0
        for _ in range(trials):
            x = normalize(rng.standard_normal(n))
            y = normalize(rng.standard_normal(n))
            worst = max(worst, *decomposition_check(rng.standard_normal(n), x, y))
        print(f"max decomposition residual = {worst!r} (triples={trials})")
    return 0


def _cmd_theory(args) -> int:
    opts = _effective(args, "theory")
    constants = ScheduleConstants(
        cb=opts["constants_cb"], cb_lower=opts["constants_cb_lower"], c10=opts["constants_c10"],
    )
    m = float(opts["m"])
    levels = opts["levels"]
    sched = theory_schedule(m, opts["n"], opts["s"], constants=constants, levels=levels)
    print(f"m = {m!r} n = {opts['n']} s = {opts['s']}")
    print(f"C(N,s,m) = {sched.c_nsm!r}")
    print(f"L = {sched.L} threshold_met = {sched.threshold_met}")
    placeholder = " (derived from placeholder c_l = c_L = 1)" if constants.c10_is_placeholder_derived else ""
    print(
        f"constants: cb = {constants.cb!r} cb_lower = {constants.cb_lower!r} "
        f"c10 = {constants.effective_c10!r}{placeholder}"
    )
    if not sched.threshold_met:
        print("note: m is below the validity threshold (24^48); sequences are diagnostic only")
    if sched.r:
        print("level  r_i  delta_i")
        for i, (r, d) in enumerate(zip(sched.r, sched.delta), start=1):
            print(f"{i}  {r!r}  {d!r}")
        print(f"r nonincreasing = {sched.r_nonincreasing}")
    print("iterations k -> error exponent (approaches 1):")
    for k in (0, 25, 50, 100, 200, 400, 800):
        print(f"k = {k}: exponent = {error_exponent(k)!r}")
    return 0


def parse_and_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"onebitcs: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("onebitcs: error: a subcommand is required", file=sys.stderr)
        return 1
    handlers = {
        "recover": _cmd_recover,
        "sweep": _cmd_sweep,
        "probe": _cmd_probe,
        "theory": _cmd_theory,
    }
    try:
        with blas_threads():
            if args.command == "selftest":
                return 2 if run_selftest() else 0
            return handlers[args.command](args)
    except InvalidArgumentError as exc:
        print(f"onebitcs: error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateIterateError, SamplingExhaustedError, MemoryError) as exc:
        print(f"onebitcs: runtime failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"onebitcs: io failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is for validation only, so nothing else may escape with it
        print(f"onebitcs: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
