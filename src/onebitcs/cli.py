"""Command-line front end.

Subcommands: recover (one instance), sweep (Monte Carlo grid + report), probe
(named theory probe), theory (schedule table), selftest (built-in checks).
Every flag has a config-file equivalent (INI sections named after the
subcommand, keys named like the flags with dashes as underscores, parsed with
the flag's type); explicit flags override file values. ``COMMANDS`` declares
each option once. Randomized commands require a seed, from the
flag or the config file, never from the wall clock. Exit codes: 0 success,
1 validation error, 2 runtime failure. Every command runs numpy's OpenBLAS at
one thread, restoring the caller's count on exit (``harness.blas_threads``).
Each probe is one call into ``probes``, which draws on every CPU and prints
the same values at any CPU count.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .algorithms import DEFAULT_TAU
from .errors import DegenerateIterateError, InvalidArgumentError, SamplingExhaustedError
from .harness import (
    ALGORITHMS,
    SweepConfig,
    blas_threads,
    fit_slope,
    run_sweep,
)
from .model import SUPPORT_RULES, VALUE_RULES, gen_sparse_signal
from .probes import (
    RaicProbeConfig,
    check_decomposition,
    check_embedding,
    check_unbiasedness,
    decomposition_check,  # noqa: F401  benchmarks/tracing.py wraps this name
    gaussian_width_estimate,
    projection_inequality_check,
    raic_probe,
)
from .report import emit_report
from .selftest import run_selftest
from .sparse_ops import normalize  # noqa: F401  benchmarks/tracing.py wraps this name
from .theory import ScheduleConstants, error_exponent, theory_schedule

PROBES = ("unbiased", "embedding", "raic", "width", "projection", "decomposition")


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so we control the exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=96)


class _Option(NamedTuple):
    """Flag ``--key`` (underscores as dashes) and INI key ``key``, both parsed by ``type``
    (a bool is a store-true flag); an option whose ``help`` is None has no flag."""

    key: str
    type: type
    default: object
    help: str | None
    choices: tuple[str, ...] | None = None


_N = _Option("n", int, 512, "ambient dimension N")
_S = _Option("s", int, 4, "sparsity level")
_SEED = _Option("seed", int, None, "master seed (required; no wall-clock default)")
_TAU = _Option("tau", float, DEFAULT_TAU, "step size (default sqrt(pi/2))")
# What recover and sweep share after --max-iters, whose help and default differ.
_RUN_TAIL = (
    _Option("stop_tol", float, 1e-10, "movement stopping tolerance"),
    _Option("init", str, "random_sparse", "initialization", ("random_sparse", "matched_filter")),
    _SEED,
    _Option("noise_std", float, 0.0, "pre-quantization noise level"),
    _Option("support_rule", str, "uniform_random", "signal support distribution", SUPPORT_RULES),
    _Option("value_rule", str, "gaussian", "signal value distribution", VALUE_RULES),
)

# Each subcommand's help line and options, in help order; config files and flags
# override the defaults in that order. Every subcommand with options also takes --config.
COMMANDS = {
    "recover": ("reconstruct one instance and print the final error", (
        _N, _S,
        _Option("m", int, 4096, "number of measurements"),
        _Option("algo", str, "nbiht", "reconstruction algorithm", ALGORITHMS),
        _TAU,
        _Option("max_iters", int, 500, "iteration budget"),
        *_RUN_TAIL,
    )),
    "sweep": ("Monte Carlo sweep over m; writes CSV, manifest, and SVG", (
        _N, _S,
        _Option("m_grid", str, "256,512,1024,2048,4096,8192", "comma-separated increasing m values"),
        _Option("algo", str, "nbiht,one_shot", f"comma-separated subset of {','.join(ALGORITHMS)}"),
        _Option("trials", int, 50, "trials per (algorithm, m) cell"),
        _TAU,
        _Option("max_iters", int, 300, "iteration budget per run"),
        *_RUN_TAIL,
        _Option("workers", int, os.cpu_count() or 1,
                "worker processes (default: logical CPUs), at most one per trial; each "
                "process draws its matrices on a share of max(1, cpus // pool size) "
                "threads and runs BLAS at one thread: pool workers solve inline, one "
                "process forks min(share, runs per trial) solver processes when that is above 1"),
        _Option("out_dir", str, "sweep-out", "report output directory"),
        _Option("theory_overlay", bool, False, "overlay the first-iteration theory curve on the plot"),
    )),
    "probe": ("run a named empirical probe of the analysis", (
        _N._replace(default=256), _S,
        _Option("m", int, 8192, "measurements per ensemble"),
        _Option("trials", int, 200, "sample/pair/trial count for the probe"),
        _SEED,
        _Option("raic_r_lb", float, 0.1, None),
        _Option("raic_r_ub", float, 0.5, None),
        _Option("raic_nu", float, None, None),
    )),
    "theory": ("print the deterministic bound schedule table", (
        _Option("m", float, 8192.0, "number of measurements (may be huge)"),
        _N, _S,
        _Option("levels", int, None, "levels to tabulate (default: the attained L)"),
        _Option("constants_cb", float, 1.0, "width constant cb"),
        _Option("constants_cb_lower", float, 1.0, "concentration constant cb_lower"),
        _Option("constants_c10", float, None, "embedding constant c10 (default derived from placeholders)"),
    )),
    "selftest": ("run the built-in example checks", ()),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="onebitcs",
        description="One-bit compressed sensing: recovery, sweeps, and theory probes.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    for command, (summary, options) in COMMANDS.items():
        subparser = sub.add_parser(command, help=summary, formatter_class=_formatter)
        if command == "probe":
            subparser.add_argument("name", choices=PROBES, help="which probe to run")
        for option in options:
            if option.help is None:
                continue
            flag = "--" + option.key.replace("_", "-")
            if option.type is bool:
                subparser.add_argument(flag, action="store_true", default=None, help=option.help)
            else:
                subparser.add_argument(flag, type=option.type, choices=option.choices, help=option.help)
        if options:
            extra = ", ".join(option.key for option in options if option.help is None)
            subparser.add_argument(
                "--config", help="INI config file" + (f" (extra keys: {extra})" if extra else ""),
            )
    return parser


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    file = Path(path)
    if not file.exists():
        raise InvalidArgumentError(f"config file not found: {file}")
    ini = configparser.ConfigParser()
    try:
        ini.read_string(file.read_text(), str(file))  # ini.read would skip a file it cannot open
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise InvalidArgumentError(f"cannot parse config file {file}: {exc}") from exc
    return dict(ini.items(section)) if ini.has_section(section) else {}


def _parse(option: _Option, raw: str):
    """A config file's value for ``option``, parsed with the option's own type."""
    if option.type is bool:
        state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if state is None:
            raise ValueError(f"not a boolean: {raw!r}")
        return state
    return option.type(raw.strip())


def _effective(args: argparse.Namespace, command: str) -> dict:
    """builtin defaults <- config file <- explicit flags; a command with a seed needs one."""
    options = {option.key: option for option in COMMANDS[command][1]}
    effective = {key: option.default for key, option in options.items()}
    section = _load_config_section(getattr(args, "config", None), command)
    for key, raw in section.items():
        key = key.strip().lower().replace("-", "_")
        if key not in options:
            raise InvalidArgumentError(f"unknown config key {key!r} in section [{command}]")
        try:
            effective[key] = _parse(options[key], raw)
        except ValueError as exc:
            raise InvalidArgumentError(f"bad value {raw!r} for key {key!r} in section [{command}]") from exc
    for key in effective:
        given = getattr(args, key, None)
        if given is not None:
            effective[key] = given
    if effective.get("seed", 0) is None:
        raise InvalidArgumentError("a --seed is required (flag or config); there is no wall-clock default")
    return effective


def _sweep_config(opts: dict, **fields) -> SweepConfig:
    """recover's or sweep's SweepConfig: the options the two share, plus ``fields``."""
    shared = {option.key: opts[option.key] for option in (_N, _S, _TAU, *_RUN_TAIL) if option is not _SEED}
    return SweepConfig(master_seed=opts["seed"], max_iters=opts["max_iters"], **shared, **fields)


def _cmd_recover(args) -> int:
    opts = _effective(args, "recover")
    cfg = _sweep_config(opts, m_grid=(opts["m"],), algorithms=(opts["algo"],), trials_per_cell=1)
    (rec,), _ = run_sweep(cfg, workers=1)
    if rec.stop_reason.startswith("error: "):  # the line parse_and_dispatch prints for a runtime failure
        print(f"onebitcs: runtime failure: {rec.stop_reason.removeprefix('error: ')}", file=sys.stderr)
        return 2
    print(f"algorithm = {rec.algorithm}")
    print(f"n = {cfg.n} s = {cfg.s} m = {rec.m} seed = {cfg.master_seed}")
    print(f"final_l2_error = {rec.final_l2_error!r}")
    print(f"iterations_used = {rec.iterations_used}")
    print(f"sign_agreement = {rec.sign_agreement!r}")
    print(f"stop_reason = {rec.stop_reason}")
    return 0


def _cmd_sweep(args) -> int:
    opts = _effective(args, "sweep")
    try:
        m_grid = tuple(int(v) for v in str(opts["m_grid"]).split(",") if v.strip())
        algorithms = tuple(v.strip() for v in str(opts["algo"]).split(",") if v.strip())
    except ValueError as exc:
        raise InvalidArgumentError(f"bad grid or algorithm list: {exc}") from exc
    cfg = _sweep_config(opts, m_grid=m_grid, algorithms=algorithms, trials_per_cell=opts["trials"])
    records, manifest = run_sweep(cfg, workers=int(opts["workers"]))
    theory_curve = None
    if opts["theory_overlay"]:
        theory_curve = [(float(m), theory_schedule(m, cfg.n, cfg.s, levels=1).r[0]) for m in cfg.m_grid]
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
    name = args.name
    n, s, m, trials, seed = opts["n"], opts["s"], opts["m"], opts["trials"], opts["seed"]
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
        worst = check_decomposition(n, triples=trials, seed=seed)
        print(f"max decomposition residual = {worst!r} (triples={trials})")
    return 0


def _cmd_theory(args) -> int:
    opts = _effective(args, "theory")
    constants = ScheduleConstants(
        cb=opts["constants_cb"], cb_lower=opts["constants_cb_lower"], c10=opts["constants_c10"],
    )
    m = opts["m"]
    sched = theory_schedule(m, opts["n"], opts["s"], constants=constants, levels=opts["levels"])
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
