"""Acceptance gates: every closed form against its sampling or
high-precision oracle at the stated tolerance, one verdict line each.

Monte-Carlo comparisons use the 4-standard-error rule throughout (two-sided
false-failure probability about 6e-5 per check); nothing is compared as a
bare point value.  Verdict lines are echoed in the terminal summary.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
import oracles
from airfl.analysis import conditional_second_moment, xi_mean_offset
from airfl.cli import main as cli_main
from airfl.config import (
    SystemConfig,
    TrainConfig,
    VerifyDivergenceConfig,
    VerifyPdfConfig,
    VerifyXiConfig,
    config_to_kv,
)
from airfl.fltrain import SeedDraws, train_cells
from airfl.harness import (
    Gate,
    divergence_gates,
    k_scan_line,
    k_slope_scan,
    mc_joint_distribution_check,
    mc_weight_divergence,
    mc_xi_moments,
    pdf_gates,
    xi_gates,
)
from airfl.optimizer import (
    ObjectiveCoefficients,
    derivative_h,
    objective_h,
    optimal_threshold,
    second_derivative_h,
)
from airfl.specfun import erf, erfc, exp_integral_ei

RHOS = (0.5, 0.8, 0.95, 1.0)
GAMMAS = (0.1, 0.5, 1.0, 2.0)
SEED = 2026


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def xi_grid():
    """Coefficient moments on the full (rho, gamma) grid, 1e6 draws per cell."""
    cells = {}
    idx = 0
    for rho in RHOS:
        for gamma in GAMMAS:
            cells[(rho, gamma)] = mc_xi_moments(rho, gamma, 10**6, seed=SEED + idx)
            idx += 1
    return cells


def test_criterion_01_coefficient_unbiasedness(xi_grid):
    gates = [g for res in xi_grid.values() for g in xi_gates(res) if g.name.startswith("xi_mean")]
    worst = max(gates, key=lambda g: g.z)
    verdict(
        1,
        all(g.passed for g in gates),
        f"mean of the effective coefficient over {len(gates)} cells at n=1e6: "
        f"worst |mean-1|/se = {worst.z:.2f} at {worst.name} (limit 4)",
    )


def test_criterion_02_coefficient_variance(xi_grid):
    gates = [g for res in xi_grid.values() for g in xi_gates(res) if g.name.startswith("xi_var")]
    rows = [row for res in xi_grid.values() for row in res.records()]
    worst_z = max(g.z for g in gates)
    # where the closed variance exceeds 0.1, 4 SEs resolve a 2 % gap, and
    # the gap itself stays below 2 %
    wide = [r for r in rows if r["var_closed"] > 0.1]
    worst_resolution = max(4.0 * r["var_se"] / r["var_closed"] for r in wide)
    worst_rel = max(abs(r["var_mc"] - r["var_closed"]) / r["var_closed"] for r in wide)
    ok = all(g.passed for g in gates) and len(wide) == len(rows) and worst_resolution <= 0.02 and worst_rel < 0.02
    verdict(
        2,
        ok,
        f"variance vs closed form on the same grid: worst |mc-closed|/se = {worst_z:.2f} "
        f"(limit 4), worst relative gap = {worst_rel:.4f} (limit 0.02 where var > 0.1), "
        f"worst 4se/closed = {worst_resolution:.4f} (limit 0.02)",
    )


@pytest.fixture(scope="module")
def joint_law():
    """One draw of 10^7 (x, y) pairs: the 40x40 histogram, and the tail sums
    of x at every grid gamma."""
    return mc_joint_distribution_check(
        (-4.0, -0.1), (-3.0, 3.0), 10**7, seed=SEED, bins=40, tail_gammas=GAMMAS
    )


def test_criterion_03_joint_density(joint_law):
    meta = joint_law.meta
    checked = ("pdf_tv_distance", "pdf_normalization", "cdf_pdf_consistency", "bin_mass_cdf")
    ok = all(g.passed for g in pdf_gates(joint_law) if g.name in checked)
    verdict(
        3,
        ok,
        f"40x40 histogram at n=1e7: tv = {meta['tv_distance']:.5f} (limit 0.02); density quadrature "
        f"mass = {meta['pdf_normalization']:.9f} (1 +- 1e-6); worst |cdf stencil - pdf| = "
        f"{meta['cdf_pdf_fd_worst']:.2e} (limit 1e-4); worst |bin mass - cdf rectangle| = "
        f"{meta['bin_mass_cdf_gap']:.1e} (limit 1e-9)",
    )


def test_criterion_04_conditional_second_moment(joint_law):
    # x does not depend on rho, so every cell folds the tail sums of the one
    # draw: the cells share it and their z-scores are correlated
    gates = []
    for rho in RHOS:
        if rho == 1.0:
            # the centering offset c divides by sqrt(1 - rho^2); under perfect
            # estimation there is no conditional-moment prediction to check
            continue
        for tail in joint_law.tails:
            c = xi_mean_offset(tail.gamma, rho)
            estimate, se = tail.second_moment(c)
            expected = conditional_second_moment(tail.gamma, c)
            gates.append(Gate(f"(rho,gamma)={(rho, tail.gamma)}", estimate, expected, se, 4.0))
    worst = max(gates, key=lambda g: g.z)
    verdict(
        4,
        all(g.passed for g in gates),
        f"conditional second moment on {len(gates)} cells (rho < 1) of one 1e7 draw: "
        f"worst |mc-closed|/se = {worst.z:.2f} at {worst.name} (limit 4)",
    )


def test_criterion_05_weight_divergence():
    base = SystemConfig()
    configs = [
        ("defaults", base, 20_000),
        ("rho=0.5", replace(base, rho=0.5), 6_000),
        ("gamma=0.3", replace(base, gamma_th=0.3), 6_000),
        ("sigma2=-20dBm", replace(base, sigma2_dbm=-20.0), 6_000),
        ("K=20", replace(base, k_devices=20), 6_000),
        ("p_max=0.01", replace(base, p_max=0.01), 6_000),
        # a quarter of the rounds skip: no transmitter, no receiver noise
        ("gamma=2", replace(base, gamma_th=2.0), 6_000),
    ]
    gates = {}
    for name, cfg, trials in configs:
        (gates[name],) = divergence_gates(mc_weight_divergence(cfg, trials))
        print(f"INFO divergence[{name}]: {gates[name].summary()} n={trials}")
    worst_name = max(gates, key=lambda name: gates[name].z)
    scan_section = VerifyDivergenceConfig(scan_ks=(5, 10, 20, 40), scan_trials=1200)
    scan = k_slope_scan(replace(base, verify_divergence=scan_section))
    print(k_scan_line(scan))
    verdict(
        5,
        all(g.passed for g in gates.values()),
        f"frozen-gradient divergence, defaults plus 6 perturbations: worst "
        f"|mc-exact|/se = {gates[worst_name].z:.2f} at {worst_name} (limit 4); bound printed "
        f"alongside; fitted K-slope {scan.meta['fitted_slope']:.2f} (informational)",
    )


def test_criterion_06_special_functions():
    worst_ei = 0.0
    for x in np.logspace(-6.0, math.log10(50.0), 200):
        for v in (float(x), -float(x)):
            ref = float(oracles.ei_ref(v))
            worst_ei = max(worst_ei, abs(exp_integral_ei(v) - ref) / abs(ref))
    worst_erf = 0.0
    for x in np.linspace(-6.0, 6.0, 200):
        ref = float(oracles.erf_ref(float(x)))
        got = erf(float(x))
        gap = abs(got - ref) / abs(ref) if ref != 0.0 else abs(got - ref)
        worst_erf = max(worst_erf, gap)
    worst_erfc = 0.0
    for x in np.concatenate([np.linspace(-6.0, 1.0, 120), np.logspace(0.0, 1.0, 80)]):
        ref = float(oracles.erfc_ref(float(x)))
        worst_erfc = max(worst_erfc, abs(erfc(float(x)) - ref) / abs(ref))
    chain_ok = True
    for x in np.logspace(-3.0, math.log10(20.0), 200):
        x = float(x)
        upper = -exp_integral_ei(-x)
        mid = 0.5 * math.exp(-x) * math.log1p(2.0 / x)
        lower = math.exp(-x) / (x + 1.0)
        if not (upper > mid > lower):
            chain_ok = False
    ok = worst_ei <= 1e-12 and worst_erf <= 1e-12 and worst_erfc <= 1e-12 and chain_ok
    verdict(
        6,
        ok,
        f"worst relative error vs 40-digit oracles: Ei {worst_ei:.1e}, erf {worst_erf:.1e}, "
        f"erfc {worst_erfc:.1e} (limit 1e-12); -Ei(-x) > e^-x ln(1+2/x)/2 > e^-x/(x+1) "
        f"strict on 200 log points in [1e-3, 20]: {chain_ok}",
    )


def test_criterion_07_convexity_and_optimizer():
    k1_values = (0.0, 0.1, 0.28125, 1.0, 2.0)
    k2_values = (0.01, 0.1, 0.43, 1.0, 2.0)
    xs = np.logspace(-3.0, 1.0, 200)
    grid = np.logspace(-3.0, 1.0, 10_000)
    min_h2 = math.inf
    solves = certified = 0
    worst_resid = 0.0
    worst_slack = -math.inf
    for k1 in k1_values:
        for k2 in k2_values:
            coef = ObjectiveCoefficients(k1, k2)
            for x in xs:
                min_h2 = min(min_h2, second_derivative_h(float(x), coef))
            for mode in ("joint", "computation_oriented") if k1 > 0.0 else ("joint",):
                # the computation mode's root is that of the CSI term alone
                solved = coef if mode == "joint" else ObjectiveCoefficients(k1, 0.0)
                g = optimal_threshold(coef, mode).gamma_star
                f = derivative_h(g, solved)
                below = derivative_h(math.nextafter(g, 0.0), solved)
                above = derivative_h(math.nextafter(g, math.inf), solved)
                solves += 1
                certified += below < 0.0 <= f or f < 0.0 <= above
                worst_resid = max(worst_resid, abs(f))
                if mode == "joint":
                    grid_min = min(objective_h(float(x), coef) for x in grid)
                    worst_slack = max(worst_slack, objective_h(g, coef) - grid_min)
    comm = optimal_threshold(
        ObjectiveCoefficients(0.28125, 0.43), mode="communication_oriented"
    ).gamma_star
    ref = optimal_threshold(ObjectiveCoefficients(0.0, 1.0)).gamma_star
    ok = (
        min_h2 > 0.0
        and solves == 45
        and certified == solves
        and worst_slack <= 1e-9
        and abs(comm - 0.5) <= 1e-9
        and abs(ref - 0.438) <= 1e-3
    )
    verdict(
        7,
        ok,
        f"25 coefficient pairs: min h'' = {min_h2:.3e} (> 0); h' changes sign between gamma* and an "
        f"adjacent double on {certified}/{solves} joint and computation-oriented solves (need 45/45); "
        f"worst |h'(gamma*)| = {worst_resid:.1e} (informational); worst gap to a 1e4-point grid "
        f"minimum = {worst_slack:.1e} (limit 1e-9); communication mode = {comm!r}; "
        f"gamma*(k1=0, k2=1) = {ref:.6f} (0.438 +- 1e-3)",
    )


def test_criterion_08_derivative_consistency():
    coef = ObjectiveCoefficients(0.28125, 0.43)
    worst = 0.0
    for x in np.logspace(math.log10(0.02), math.log10(5.0), 20):
        x = float(x)
        step = 6e-6 * x
        fd1 = (objective_h(x + step, coef) - objective_h(x - step, coef)) / (2 * step)
        fd2 = (derivative_h(x + step, coef) - derivative_h(x - step, coef)) / (2 * step)
        d1 = derivative_h(x, coef)
        d2 = second_derivative_h(x, coef)
        worst = max(
            worst,
            abs(d1 - fd1) / max(abs(d1), abs(fd1)),
            abs(d2 - fd2) / max(abs(d2), abs(fd2)),
        )
    verdict(
        8,
        worst <= 1e-5,
        f"h' and h'' vs central differences of h and h' at 20 log points in "
        f"[0.02, 5]: worst relative gap {worst:.2e} (limit 1e-5)",
    )


def test_criterion_09_training_trend():
    # receiver noise at -20 dBm makes channel quality matter at desk scale;
    # everything else is the reference setup (K=10, 10 features, 200 rounds)
    cfg = SystemConfig(sigma2_dbm=-20.0)
    t0 = time.monotonic()

    # the three thresholds of one seed train in lock-step on one set of draws
    gammas = ("optimize", 0.05, 3.0)
    accs = {g: [] for g in gammas}
    divs = {g: [] for g in gammas}
    for i in range(3):
        draws = SeedDraws(replace(cfg, seed=cfg.seed + i, gamma_th="optimize"))
        thresholds = [draws.cfg.gamma_th if gamma == "optimize" else gamma for gamma in gammas]
        for gamma, trace in zip(gammas, train_cells(draws, thresholds)):
            accs[gamma].append(trace.final_accuracy)
            divs[gamma].append(trace.mean_divergence_sq)
    acc_star, acc_lo, acc_hi = (float(np.mean(accs[g])) for g in gammas)
    div_star, div_lo, div_hi = (float(np.mean(divs[g])) for g in gammas)
    elapsed = time.monotonic() - t0
    ok = (
        acc_star >= acc_lo
        and acc_star >= acc_hi
        and div_star <= div_lo
        and div_star <= div_hi
        and elapsed < 120.0
    )
    verdict(
        9,
        ok,
        f"logistic task, K=10, 200 rounds, 3 seeds: accuracy {acc_star:.4f} at the "
        f"optimized threshold vs {acc_lo:.4f}/{acc_hi:.4f} at extremes 0.05/3.0; "
        f"divergence {div_star:.3f} vs {div_lo:.3f}/{div_hi:.3f}; wall {elapsed:.0f}s (limit 120)",
    )


def _write_cfg(path, cfg, section=None):
    pairs = config_to_kv(cfg, section)
    path.write_text("\n".join(f"{k} = {v}" for k, v in pairs) + "\n")
    return str(path)


def _run(args):
    rc = cli_main(args)
    assert rc == 0, f"command {args} exited {rc}"


def test_criterion_10_manifest_replay(tmp_path):
    matches = []

    f = _write_cfg(
        tmp_path / "xi.cfg", SystemConfig(verify_xi=VerifyXiConfig(rhos=(0.8,), gammas=(0.5,))), "verify_xi"
    )
    _run(["verify-xi", "--config", f, "--trials", "100000", "--jobs", "1", "--out", str(tmp_path / "xi1")])
    _run(
        [
            "verify-xi",
            "--config",
            str(tmp_path / "xi1" / "verify_xi_manifest.txt"),
            "--jobs",
            "2",
            "--out",
            str(tmp_path / "xi2"),
        ]
    )
    matches.append(
        (
            "verify-xi(jobs 1 vs 2)",
            (tmp_path / "xi1" / "verify_xi.csv").read_bytes()
            == (tmp_path / "xi2" / "verify_xi.csv").read_bytes(),
        )
    )

    pdf = VerifyPdfConfig(t_range=(-2.0, 2.0), gamma_range=(-2.0, -0.2), bins=8)
    f = _write_cfg(tmp_path / "pdf.cfg", SystemConfig(verify_pdf=pdf), "verify_pdf")
    _run(["verify-pdf", "--config", f, "--trials", "1000000", "--jobs", "1", "--out", str(tmp_path / "pdf1")])
    _run(
        [
            "verify-pdf",
            "--config",
            str(tmp_path / "pdf1" / "verify_pdf_manifest.txt"),
            "--jobs",
            "2",
            "--out",
            str(tmp_path / "pdf2"),
        ]
    )
    matches.append(
        (
            "verify-pdf(jobs 1 vs 2)",
            (tmp_path / "pdf1" / "verify_pdf.csv").read_bytes()
            == (tmp_path / "pdf2" / "verify_pdf.csv").read_bytes(),
        )
    )

    small_train = TrainConfig(
        batch_size=8, data_per_device=40, n_features=5, test_size=100, rounds_m=5
    )
    scan = VerifyDivergenceConfig(scan_trials=1000, scan_ks=(5, 10))
    f = _write_cfg(
        tmp_path / "div.cfg",
        SystemConfig(k_devices=5, g_bound=2.0, train=small_train, verify_divergence=scan),
        "verify_divergence",
    )
    _run(
        [
            "verify-divergence",
            "--config",
            f,
            "--trials",
            "1500",
            "--jobs",
            "1",
            "--out",
            str(tmp_path / "div1"),
        ]
    )
    _run(
        [
            "verify-divergence",
            "--config",
            str(tmp_path / "div1" / "verify_divergence_manifest.txt"),
            "--jobs",
            "2",
            "--out",
            str(tmp_path / "div2"),
        ]
    )
    div_same = (tmp_path / "div1" / "verify_divergence.csv").read_bytes() == (
        tmp_path / "div2" / "verify_divergence.csv"
    ).read_bytes()
    scan_same = (tmp_path / "div1" / "verify_divergence_kscan.csv").read_bytes() == (
        tmp_path / "div2" / "verify_divergence_kscan.csv"
    ).read_bytes()
    matches.append(("verify-divergence(jobs 1 vs 2)", div_same and scan_same))

    f = _write_cfg(tmp_path / "train.cfg", SystemConfig(train=replace(TrainConfig(), rounds_m=20)))
    _run(["train", "--config", f, "--out", str(tmp_path / "tr1")])
    _run(
        [
            "train",
            "--config",
            str(tmp_path / "tr1" / "train_manifest.txt"),
            "--out",
            str(tmp_path / "tr2"),
        ]
    )
    matches.append(
        (
            "train",
            (tmp_path / "tr1" / "train_trace.csv").read_bytes()
            == (tmp_path / "tr2" / "train_trace.csv").read_bytes(),
        )
    )

    failed = [name for name, ok in matches if not ok]
    verdict(
        10,
        not failed,
        f"{len(matches)} manifest replays byte-identical "
        f"(coefficient moments, joint law and divergence under jobs 1 vs 2, training trace)"
        + (f"; mismatches: {failed}" if failed else ""),
    )
