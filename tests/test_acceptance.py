"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is seeded and deterministic. Criteria 1 and 2 share
one Monte Carlo sweep (paired instances, equal-magnitude signal values so the
one-shot estimator sits in its square-root decay regime).
"""

import math

import numpy as np
import pytest

from onebitcs import (
    AlgorithmConfig,
    BinaryObservation,
    MeasurementEnsemble,
    SweepConfig,
    check_unbiasedness,
    decomposition_check,
    fit_slope,
    gen_gaussian_matrix,
    gen_sparse_signal,
    geodesic_distance,
    hamming_distance,
    hard_threshold,
    iht_run,
    measure,
    nbiht_run,
    projection_inequality_check,
    run_sweep,
    sparse_dual_norm,
    theory_schedule,
)
from onebitcs.harness import run_from_manifest
from onebitcs.report import emit_report, load_manifest
from onebitcs.rng import generator_for, substream_seed
from onebitcs.theory import error_exponent
from oracles import best_s_term_error, dual_norm_brute, nbiht_step_scalar

SWEEP_SEED = 20260808


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def decay_sweep():
    """Criteria 1-2 experiment: N=512, s=4, noiseless, tau=sqrt(pi/2),
    300 iterations, m = 2^8..2^13, 50 paired trials per cell, median error."""
    cfg = SweepConfig(
        n=512,
        s=4,
        m_grid=(256, 512, 1024, 2048, 4096, 8192),
        algorithms=("nbiht", "one_shot"),
        trials_per_cell=50,
        master_seed=SWEEP_SEED,
        max_iters=300,
        value_rule="rademacher",
    )
    return run_sweep(cfg, workers=2)


def test_criterion_1_nbiht_decay_slope(decay_sweep):
    records, _ = decay_sweep
    slope, _, r2 = fit_slope(records, "nbiht", error_stat="median")
    ok = slope <= -0.75 and r2 >= 0.95
    _report("1 nbiht decay slope", ok, f"slope={slope:.3f} r2={r2:.3f}")
    assert slope <= -0.75
    assert r2 >= 0.95


def test_criterion_2_one_shot_slope_and_gap(decay_sweep):
    records, _ = decay_sweep
    one_shot_slope, _, _ = fit_slope(records, "one_shot", error_stat="median")
    nbiht_slope, _, _ = fit_slope(records, "nbiht", error_stat="median")
    gap = one_shot_slope - nbiht_slope
    ok = -0.65 <= one_shot_slope <= -0.35 and gap >= 0.25
    _report(
        "2 one-shot slope",
        ok,
        f"one_shot={one_shot_slope:.3f} nbiht={nbiht_slope:.3f} gap={gap:.3f}",
    )
    assert -0.65 <= one_shot_slope <= -0.35
    assert gap >= 0.25  # iteration breaks the inverse-square-root rate


def test_criterion_3_unbiasedness():
    # trials*m = 10^6 per signal, ten random unit sparse signals
    worst = 0.0
    for i in range(10):
        y = gen_sparse_signal(substream_seed(33, i), 64, 8)
        dev = check_unbiasedness(y.values, m=20_000, trials=50, seed=substream_seed(34, i))
        worst = max(worst, dev)
    ok = worst <= 0.02
    _report("3 unbiasedness", ok, f"max coordinate deviation={worst:.5f} <= 0.02")
    assert worst <= 0.02


def test_criterion_4_hamming_geodesic_identity():
    m, redraws = 8192, 50
    worst_excess = -math.inf
    for i in range(20):
        x = gen_sparse_signal(substream_seed(44, 2 * i), 32, 4)
        y = gen_sparse_signal(substream_seed(44, 2 * i + 1), 32, 4)
        dg = geodesic_distance(x.values, y.values)
        total = 0.0
        for t in range(redraws):
            A = gen_gaussian_matrix(substream_seed(45, i, t), m, 32)
            total += hamming_distance(measure(A, x.values), measure(A, y.values))
        band = 4.0 * math.sqrt(dg * (1.0 - dg) / (m * redraws))
        worst_excess = max(worst_excess, abs(total / redraws - dg) - band)
    ok = worst_excess <= 0.0
    _report("4 hamming-geodesic mean", ok, f"worst |mean - d_g| - 4sigma = {worst_excess:.2e}")
    assert worst_excess <= 0.0


def test_criterion_5_oracle_equivalence():
    rng = generator_for(505)
    worst_ht = 0.0
    worst_dual = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        v = rng.standard_normal(n)
        s = int(rng.integers(1, n + 1))
        ht_err = float(np.linalg.norm(v - hard_threshold(v, s)))
        worst_ht = max(worst_ht, abs(ht_err - best_s_term_error(v.tolist(), s)))
        s_dual = int(rng.integers(1, 7))
        worst_dual = max(
            worst_dual, abs(sparse_dual_norm(v, s_dual) - dual_norm_brute(v.tolist(), s_dual))
        )
    worst_step = 0.0
    stepped = 0
    for case in range(1_000):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 25))
        s = int(rng.integers(1, n + 1))
        rows = rng.standard_normal((m, n))
        bits = np.where(rng.standard_normal(m) > 0, 1.0, -1.0)
        tau = float(rng.uniform(0.2, 2.5))
        # one step of the run kernel from its seeded start gen_sparse_signal(case, n, s)
        x0 = gen_sparse_signal(case, n, s).values
        want = nbiht_step_scalar(rows.tolist(), bits.tolist(), x0.tolist(), tau, s)
        got = nbiht_run(
            MeasurementEnsemble(matrix=rows, seed=0),
            BinaryObservation(bits=bits),
            AlgorithmConfig(s=s, tau=tau, max_iters=1, init_seed=case),
        )
        stepped += got.iterations_used
        worst_step = max(worst_step, float(np.max(np.abs(got.estimate - np.array(want)))))
    ok = worst_ht <= 1e-12 and worst_dual <= 1e-12 and worst_step <= 1e-12
    _report(
        "5 oracle equivalence",
        ok,
        f"hard_threshold={worst_ht:.2e} dual_norm={worst_dual:.2e} "
        f"nbiht_run_step={worst_step:.2e} ({stepped}/1000 stepped)",
    )
    assert worst_ht <= 1e-12
    assert worst_dual <= 1e-12
    assert worst_step <= 1e-12


def test_criterion_6_deterministic_inequalities():
    violation = projection_inequality_check(10_000, 32, 3, seed=606)
    # 100,000 triples in the order normalize(x), normalize(y), a draws them one by one,
    # each row over its own norm: a (1, 16) @ (16, 1) product is the dot product normalize takes
    x, y, a = generator_for(607).standard_normal((100_000, 3, 16)).transpose(1, 0, 2)
    x, y = (v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0] for v in (x, y))
    worst_residual = float(max(np.max(part) for part in decomposition_check(a, x, y)))
    ok = violation <= 1e-10 and worst_residual <= 1e-10
    _report(
        "6 deterministic inequalities",
        ok,
        f"projection max violation={violation:.2e} decomposition max residual={worst_residual:.2e}",
    )
    assert violation <= 1e-10
    assert worst_residual <= 1e-10


def test_criterion_7_theory_schedule_exactness():
    worst_rel = 0.0
    for m, n, s in ((1e85, 1024, 4), (24.0**48 * 1.01, 512, 4), (1e100, 2048, 8)):
        sched = theory_schedule(m, n, s, levels=6)
        log_m = math.log(m)
        c10 = sched.constants.effective_c10
        for i in range(5):
            lhs = sched.r[i + 1] ** 2
            rhs = 600.0 * c10 * log_m * sched.r[i] * sched.delta[i] * sched.c_nsm
            worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    # desk-scale diagnostics obey the same recurrence
    sched = theory_schedule(8192.0, 512, 4, levels=6)
    log_m = math.log(8192.0)
    for i in range(5):
        lhs = sched.r[i + 1] ** 2
        rhs = 600.0 * sched.constants.effective_c10 * log_m * sched.r[i] * sched.delta[i] * sched.c_nsm
        worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    exponents = [error_exponent(25 * j) for j in range(0, 40)]
    monotone = all(b > a for a, b in zip(exponents, exponents[1:]))
    limit = error_exponent(10**9)
    ok = worst_rel <= 1e-9 and monotone and abs(limit - 1.0) <= 1e-9
    _report(
        "7 theory schedule",
        ok,
        f"recurrence rel err={worst_rel:.2e} exponent monotone={monotone} limit={limit:.6f}",
    )
    assert worst_rel <= 1e-9
    assert monotone
    assert abs(limit - 1.0) <= 1e-9


def test_criterion_8_iht_baseline():
    hits = 0
    ratio_ok_55 = 0
    ratio_ok_50 = 0
    for t in range(100):
        x = gen_sparse_signal(substream_seed(88, t, 0), 256, 4)
        A = gen_gaussian_matrix(substream_seed(88, t, 1), 200, 256)
        trace = iht_run(
            A,
            A.matrix @ x.values,
            AlgorithmConfig(s=4, max_iters=200, init_seed=substream_seed(88, t, 2)),
            truth=x,
        )
        hits += trace.final_error < 1e-6
        errs = trace.errors_vs_truth
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1) if errs[i] > 1e-8]
        if ratios:
            ratio_ok_55 += max(ratios) <= 0.55
            ratio_ok_50 += max(ratios) <= 0.50
    ok = hits >= 95 and ratio_ok_55 >= 95 and ratio_ok_50 >= 85
    _report(
        "8 iht baseline",
        ok,
        f"exact recovery {hits}/100; per-step contraction <=0.55 in {ratio_ok_55}, <=0.50 in {ratio_ok_50}",
    )
    assert hits >= 95
    # near-halving contraction along the trace (asymptotically 1/2; empirical quantiles)
    assert ratio_ok_55 >= 95
    assert ratio_ok_50 >= 85


def test_criterion_9_full_reproducibility(tmp_path):
    cfg = SweepConfig(
        n=64,
        s=3,
        m_grid=(128, 256, 512),
        algorithms=("nbiht", "biht", "one_shot", "iht"),
        trials_per_cell=4,
        master_seed=909,
        max_iters=60,
    )
    records, manifest = run_sweep(cfg, workers=1)
    paths = emit_report(records, manifest, tmp_path / "rep")
    reloaded = load_manifest(paths["manifest"])
    mismatches = 0
    for workers in (1, 2):
        again, _ = run_from_manifest(reloaded, workers=workers)
        if [r.comparable() for r in again] != [r.comparable() for r in records]:
            mismatches += 1
    ok = mismatches == 0
    _report("9 reproducibility", ok, f"bitwise reruns at workers 1 and 2, mismatches={mismatches}")
    assert mismatches == 0


def test_supporting_nbiht_improves_on_one_shot_and_biht_comparable():
    """Module examples at stated scale: N=512, s=4, m=4096, 50 paired trials."""
    nbiht_errs, biht_errs, one_shot_errs = [], [], []
    for t in range(50):
        x = gen_sparse_signal(substream_seed(500, t, 0), 512, 4)
        A = gen_gaussian_matrix(substream_seed(500, t, 1), 4096, 512)
        b = measure(A, x.values)
        cfg = AlgorithmConfig(s=4, max_iters=200, init_seed=substream_seed(500, t, 3))
        from onebitcs import biht_run, nbiht_run, one_shot_estimate

        nbiht_errs.append(nbiht_run(A, b, cfg, truth=x).final_error)
        biht_errs.append(float(np.linalg.norm(biht_run(A, b, cfg, truth=x).estimate - x.values)))
        one_shot_errs.append(float(np.linalg.norm(one_shot_estimate(A, b, 4) - x.values)))
    med_nbiht = float(np.median(nbiht_errs))
    med_biht = float(np.median(biht_errs))
    med_one_shot = float(np.median(one_shot_errs))
    ok = med_nbiht < med_one_shot and med_biht <= 3.0 * med_nbiht
    _report(
        "supporting iteration-vs-one-shot",
        ok,
        f"nbiht={med_nbiht:.5f} biht={med_biht:.5f} one_shot={med_one_shot:.5f}",
    )
    assert med_nbiht < med_one_shot
    assert med_biht <= 3.0 * med_nbiht


def test_supporting_one_shot_unbiased_pre_threshold():
    """Averaged pre-threshold estimate approaches the signal coordinatewise."""
    y = gen_sparse_signal(11, 16, 3)
    dev = check_unbiasedness(y.values, m=20_000, trials=50, seed=111)
    band = 4.0 / math.sqrt(1e6)
    ok = dev <= band
    _report("supporting one-shot unbiasedness", ok, f"deviation={dev:.5f} <= {band:.5f}")
    assert dev <= band


def test_supporting_local_embedding_scale():
    """Hamming tracks geodesic to 0.05 at N=128, s=4, m=8192 over 200 pairs."""
    from onebitcs import check_embedding

    gap = check_embedding(N=128, s=4, m=8192, pairs=200, seed=21)
    ok = gap <= 0.05
    _report("supporting local embedding", ok, f"max |d_H - d_g|={gap:.4f} <= 0.05")
    assert gap <= 0.05


def test_supporting_raic_contraction_regime():
    """Fitted invertibility slope stays below 1 at the probe scale."""
    from onebitcs import RaicProbeConfig, raic_probe

    cfg = RaicProbeConfig(N=256, s=4, m=8192, samples=200, seed=77, r_lb=0.1, r_ub=0.5)
    res = raic_probe(cfg)
    ok = 0.0 <= res.fitted_delta < 1.0 and res.fitted_eta >= 0.0
    _report(
        "supporting raic fit",
        ok,
        f"delta={res.fitted_delta:.4f} eta={res.fitted_eta:.5f} max_residual={res.max_residual:.5f}",
    )
    assert 0.0 <= res.fitted_delta < 1.0
    assert res.fitted_eta >= 0.0
