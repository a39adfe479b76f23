"""Built-in check suite behind the ``selftest`` CLI command.

Fast, deterministic spot checks of the contract examples: quantizer
convention, generator determinism, projection/dual-norm oracles on small
instances, metric identities, schedule exactness, and miniature end-to-end
recoveries. Exits nonzero if anything fails; the full acceptance experiments
live in the pytest suite.
"""

from __future__ import annotations

import itertools
import math
import traceback

import numpy as np

from .algorithms import AlgorithmConfig, DEFAULT_TAU, iht_run, nbiht_run, nbiht_step, one_shot_estimate
from .errors import DegenerateIterateError, InvalidArgumentError
from .harness import SweepConfig, fit_slope, run_sweep
from .model import gen_gaussian_matrix, gen_sparse_signal, linear_measurements, measure, sign_quantize
from .probes import (
    check_embedding,
    check_unbiasedness,
    decomposition_check,
    projection_inequality_check,
)
from .rng import generator_for, substream_seed
from .sparse_ops import geodesic_distance, hamming_distance, hard_threshold, sparse_dual_norm
from .theory import error_exponent, theory_schedule


def _check_quantizer():
    bits = sign_quantize([2.5, -0.1, 0.0]).bits
    assert bits.tolist() == [1.0, -1.0, -1.0], bits
    A = gen_gaussian_matrix(3, 40, 8)
    x = gen_sparse_signal(4, 8, 3)
    assert np.array_equal(measure(A, x.values).bits, measure(A, 3.0 * x.values).bits)


def _check_generator_determinism():
    a = gen_gaussian_matrix(7, 100, 50).matrix
    b = gen_gaussian_matrix(7, 100, 50).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_gaussian_matrix(8, 100, 50).matrix)


def _check_generator_moments():
    entries = gen_gaussian_matrix(1, 10_000, 1).matrix.ravel()
    assert -0.04 < entries.mean() < 0.04, entries.mean()
    assert 0.94 < entries.var(ddof=1) < 1.06, entries.var(ddof=1)


def _check_flat_signal():
    x = gen_sparse_signal(0, 4, 4, "first_s", "flat")
    assert np.array_equal(x.values, np.full(4, 0.5))


def _check_hard_threshold():
    assert hard_threshold([3.0, -4.0, 1.0], 2).tolist() == [3.0, -4.0, 0.0]
    assert hard_threshold([2.0, -2.0, 0.0], 1).tolist() == [2.0, 0.0, 0.0]
    rng = generator_for(11)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        s = int(rng.integers(1, n + 1))
        v = rng.standard_normal(n)
        best = min(
            np.linalg.norm(v - np.where(np.isin(np.arange(n), supp), v, 0.0))
            for supp in itertools.combinations(range(n), s)
        )
        assert abs(np.linalg.norm(v - hard_threshold(v, s)) - best) <= 1e-12


def _check_dual_norm():
    assert abs(sparse_dual_norm([3.0, 4.0, 1.0], 1) - 5.0) <= 1e-12
    rng = generator_for(12)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        s = int(rng.integers(1, 5))
        v = rng.standard_normal(n)
        k = min(2 * s, n)
        brute = max(
            np.linalg.norm(v[list(supp)]) for supp in itertools.combinations(range(n), k)
        )
        assert abs(sparse_dual_norm(v, s) - brute) <= 1e-12


def _check_metrics():
    e1, e2 = np.eye(2)
    assert geodesic_distance(e1, e1) == 0.0
    assert geodesic_distance(e1, -e1) == 1.0
    assert abs(geodesic_distance(e1, e2) - 0.5) <= 1e-15
    assert hamming_distance([1, -1, 1, 1], [1, 1, 1, 1]) == 0.25


def _check_nbiht_fixed_point():
    A = gen_gaussian_matrix(21, 60, 16)
    x = gen_sparse_signal(22, 16, 3)
    b = measure(A, x.values)
    out = nbiht_step(A, b, x.values, DEFAULT_TAU, 3)
    assert np.allclose(out, x.values, atol=1e-14)


def _check_projection_inequality():
    assert projection_inequality_check(2_000, 32, 3, 31) <= 1e-10


def _check_decomposition():
    rng = generator_for(41)
    for _ in range(500):
        x = rng.standard_normal(12)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(12)
        y /= np.linalg.norm(y)
        assert max(decomposition_check(rng.standard_normal(12), x, y)) <= 1e-10


def _check_unbiasedness_small():
    y = gen_sparse_signal(51, 32, 4)
    dev = check_unbiasedness(y.values, 2_000, 10, seed=52)
    assert dev <= 4 * math.sqrt(math.pi / 2 / 20_000) * 2, dev


def _check_embedding_small():
    assert check_embedding(N=32, s=3, m=2_000, pairs=25, seed=61) <= 0.08


def _check_schedule():
    sched = theory_schedule(1e100, 1024, 5, levels=5)
    log_m = math.log(1e100)
    for i in range(len(sched.r) - 1):
        lhs = sched.r[i + 1] ** 2
        rhs = 600 * sched.constants.effective_c10 * log_m * sched.r[i] * sched.delta[i] * sched.c_nsm
        assert abs(lhs - rhs) <= 1e-9 * rhs
    ks = range(0, 301, 25)
    exps = [error_exponent(k) for k in ks]
    assert all(b >= a for a, b in zip(exps, exps[1:])) and exps[-1] < 1.0


def _check_iht_recovery():
    hits = 0
    for trial in range(20):
        x = gen_sparse_signal(1000 + trial, 64, 3)
        A = gen_gaussian_matrix(2000 + trial, 80, 64)
        trace = iht_run(A, linear_measurements(A, x), AlgorithmConfig(s=3, max_iters=200), truth=x)
        hits += trace.final_error < 1e-6
    assert hits >= 18, hits


def _check_nbiht_improves_on_one_shot():
    nbiht_errs, oneshot_errs = [], []
    for trial in range(10):
        x = gen_sparse_signal(3000 + trial, 128, 4)
        A = gen_gaussian_matrix(4000 + trial, 1024, 128)
        b = measure(A, x.values)
        cfg = AlgorithmConfig(s=4, max_iters=100, init_seed=5000 + trial)
        nbiht_errs.append(nbiht_run(A, b, cfg, truth=x).final_error)
        oneshot_errs.append(float(np.linalg.norm(one_shot_estimate(A, b, 4) - x.values)))
    assert float(np.median(nbiht_errs)) < float(np.median(oneshot_errs))


def _check_sweep_determinism():
    cfg = SweepConfig(
        n=32, s=3, m_grid=(64, 128, 256), algorithms=("nbiht", "one_shot"),
        trials_per_cell=3, master_seed=9, max_iters=50,
    )
    records1, _ = run_sweep(cfg)
    records2, _ = run_sweep(cfg)
    assert [r.comparable() for r in records1] == [r.comparable() for r in records2]
    slope, _, r2 = fit_slope(records1, "one_shot")
    assert slope < 0, slope


def _check_slope_fixture():
    from .harness import SweepRecord

    records = [
        SweepRecord("nbiht", m, 8, 2, t, 10.0 / m, 1, 1.0, "converged", 0.0)
        for m in (100, 1000, 10_000)
        for t in range(3)
    ]
    slope, _, r2 = fit_slope(records, "nbiht")
    assert abs(slope + 1.0) <= 1e-9 and abs(r2 - 1.0) <= 1e-12


def _check_error_guards():
    for fn in (
        lambda: gen_gaussian_matrix(1, 0, 3),
        lambda: gen_sparse_signal(1, 4, 5),
        lambda: hard_threshold([1.0, 2.0], 3),
        lambda: sparse_dual_norm([1.0], 0),
        lambda: check_unbiasedness(np.array([1.0]), 10, 10, 1),
        lambda: substream_seed(-1),  # the seed rule: every seed is in [0, 2^64)
        lambda: gen_gaussian_matrix(2**64 + 5, 4, 4),
    ):
        try:
            fn()
        except InvalidArgumentError:
            continue
        raise AssertionError(f"{fn} did not raise InvalidArgumentError")
    try:
        from .sparse_ops import normalize

        normalize(np.zeros(3))
    except DegenerateIterateError:
        pass
    else:
        raise AssertionError("normalize(0) did not raise DegenerateIterateError")


CHECKS = [
    ("sign quantizer convention and scale invariance", _check_quantizer),
    ("generator determinism", _check_generator_determinism),
    ("generator moments in 4-sigma bands", _check_generator_moments),
    ("flat unit signal", _check_flat_signal),
    ("hard threshold vs brute force", _check_hard_threshold),
    ("sparse dual norm vs brute force", _check_dual_norm),
    ("distance identities", _check_metrics),
    ("sign-consistent fixed point", _check_nbiht_fixed_point),
    ("projection inequality search", _check_projection_inequality),
    ("orthogonal decomposition residuals", _check_decomposition),
    ("sign correlation unbiasedness", _check_unbiasedness_small),
    ("hamming/geodesic embedding", _check_embedding_small),
    ("theory schedule exactness", _check_schedule),
    ("linear baseline exact recovery", _check_iht_recovery),
    ("iteration beats one-shot", _check_nbiht_improves_on_one_shot),
    ("sweep determinism and slope sign", _check_sweep_determinism),
    ("slope fit on planted power laws", _check_slope_fixture),
    ("argument guards", _check_error_guards),
]


def run_selftest() -> int:
    """Run every check; report one line each; return count of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL - {name}: {exc!r}")
            print("       " + traceback.format_exc().splitlines()[-1])
        else:
            print(f"ok   - {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
