"""The physical-layer oracle against the package's reduced-form aggregation.

oracles.physical_round_ref builds the superposed receive signal y = sum over
active k of d_k^(-alpha/2) h_k beta_k g_k + z from the paper's CSI model,
pre-scaling beta_k and receive scaling zeta, with its own copy of each
formula, and returns Re(y)/zeta.  On shared normals it must give the
g_hat of aircomp.aggregate_batch (on the divergence kernel's trial rows)
and of fltrain._air_round (on one training round) to a relative 1e-12,
and every active device whose gradient obeys the norm bound G must send
at most P_max.  This covers the step from superposition to the effective
coefficient xi, the noise scale sigma^2/(2 zeta^2) that taking the real
part of CN(0, sigma^2) noise leaves, and zeta itself.  Driven by its own
channels and noise, the oracle's mean squared divergence must also match
analysis.divergence_exact at 4 SEs.
"""

import functools
import math

import numpy as np
import pytest

import oracles
from airfl.aircomp import aggregate_batch, compensation_lambda, receiver_noise_scale, scaling_zeta
from airfl.analysis import divergence_exact
from airfl.channel import channel_from_normals, substream
from airfl.config import STREAM_CHANNEL, STREAM_MC_DIVERGENCE, STREAM_NOISE, SystemConfig
from airfl.fltrain import SeedDraws, _air_round, _Cells, _zetas
from airfl.harness import _TRIAL_BLOCK, _frozen_setup

REL_TOL = 1e-12
POWER_SLACK = 1e-9  # the training loop's own slack for the boundary case |h_hat|^2 == gamma_th
N_BLOCKS = 2
RHOS = [0.8, 0.3, 1.0]  # the default rho first
SECOND_GAMMA = 3.0  # a second cell of the training round, at which many devices truncate
STAT_TRIALS = 2000  # resolves a noise term off by a factor of 2 at the defaults
STAT_SEED = 39  # seeds a default_rng of its own: no substream purpose draws from it


@functools.cache
def frozen(rho):
    """(resolved cfg, grads (K, d), power) of the default system at rho."""
    cfg, grads, power = _frozen_setup(SystemConfig(rho=rho))
    return cfg, np.array(grads), power


def imaginary_noise(d_model, seed=0):
    """Normals for the imaginary part of the receiver noise, which Re(y) drops."""
    return np.random.default_rng(seed).standard_normal(d_model)


def physical(cfg, grads, normals, noise_real, gamma_th, p_max, g_bound, sigma2):
    noise = np.stack([noise_real, imaginary_noise(grads.shape[1])], axis=1)
    return oracles.physical_round_ref(grads, normals, noise, cfg.distances, cfg.alpha, cfg.rho, gamma_th, p_max,
                                      g_bound, sigma2)


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


def checked_power(grads, beta, active, p_max, g_bound) -> int:
    """Assert |beta_k|^2 ||g_k||^2 <= P_max (1 + slack) on every active device
    with ||g_k|| <= G, and return how many devices that checked."""
    norm_sq = np.einsum("kd,kd->k", grads, grads)
    checked = active & (norm_sq <= g_bound * g_bound)
    sent = np.abs(beta[checked]) ** 2 * norm_sq[checked]
    assert np.all(sent <= p_max * (1.0 + POWER_SLACK)), sent.max() / p_max
    return int(checked.sum())


@pytest.mark.parametrize("rho", RHOS)
def test_aggregate_batch_on_the_divergence_kernels_rows(rho):
    cfg, grads, power = frozen(rho)
    k_devices, d_model = grads.shape
    n_channel = 4 * k_devices
    rows = np.concatenate([substream(cfg.seed, STREAM_MC_DIVERGENCE, b).standard_normal(
        (_TRIAL_BLOCK, n_channel + d_model)) for b in range(N_BLOCKS)])
    z = rows[:, :n_channel].reshape(len(rows), k_devices, 4)
    scale = receiver_noise_scale(power.sigma2, scaling_zeta(k_devices, rho, power, cfg.gamma_th))
    _, active, sent, g_hat = aggregate_batch(grads, *channel_from_normals(z, rho), cfg.gamma_th,
                                             compensation_lambda(cfg.gamma_th, rho), rows[:, n_channel:] * scale)
    assert 0 < sent.sum()
    n_checked = 0
    for t, row in enumerate(rows):
        want, beta, want_active = physical(cfg, grads, z[t], row[n_channel:], cfg.gamma_th, power.p_max,
                                           power.g_bound, power.sigma2)
        assert np.array_equal(active[t], want_active)
        assert_close(g_hat[t], want)
        n_checked += checked_power(grads, beta, want_active, power.p_max, power.g_bound)
    assert n_checked > 0


@pytest.mark.parametrize("rho", RHOS)
def test_one_training_round(rho):
    cfg, grads, power = frozen(rho)
    draws = SeedDraws(cfg)
    gammas = [cfg.gamma_th, SECOND_GAMMA]
    cells = _Cells(np.array([[g] for g in gammas]), np.array([[compensation_lambda(g, rho)] for g in gammas]),
                   _zetas(cfg, gammas, [power.g_bound] * 2), np.full((2, 1), power.g_bound))
    g_hat, n_active, skipped = _air_round(np.stack([grads, grads]), cells, draws, 0)
    normals = substream(cfg.seed, STREAM_CHANNEL, 0).standard_normal((cfg.k_devices, 4))
    noise_real = substream(cfg.seed, STREAM_NOISE, 0).standard_normal(grads.shape[1])
    for c, gamma_th in enumerate(gammas):
        want, beta, active = physical(cfg, grads, normals, noise_real, gamma_th, power.p_max, power.g_bound,
                                      power.sigma2)
        assert n_active[c] == active.sum() and skipped[c] == (not active.any())
        assert_close(g_hat[c], want)
        checked_power(grads, beta, active, power.p_max, power.g_bound)
    assert n_active[0] > 0


def test_the_noise_is_a_visible_share():
    # the identity checks test the noise scale only where the receiver
    # noise moves g_hat far past the tolerance
    cfg, grads, power = frozen(0.8)
    normals = substream(cfg.seed, STREAM_CHANNEL, 0).standard_normal((cfg.k_devices, 4))
    noise_real = substream(cfg.seed, STREAM_NOISE, 0).standard_normal(grads.shape[1])
    args = (cfg, grads, normals, noise_real, cfg.gamma_th, power.p_max, power.g_bound)
    quiet, loud = physical(*args, 0.0)[0], physical(*args, power.sigma2)[0]
    assert np.linalg.norm(loud - quiet) > 1e-6 * np.linalg.norm(quiet)


def test_a_device_at_the_design_corner_sends_p_max():
    # |h_hat|^2 = gamma_th, d = d_max and ||g|| = G saturate the budget, so
    # the power checks above are tight
    _, _, power = frozen(0.8)
    grads = np.zeros((2, 3))
    grads[:, 0] = power.g_bound
    normals = np.zeros((2, 4))
    normals[:, 0] = [3.0, 1.0]
    corner = 1.0 * (1.0 / math.sqrt(2.0))  # device 1's h_hat, as the oracle forms it
    gamma_th = corner * corner
    _, beta, active = oracles.physical_round_ref(grads, normals, np.zeros((3, 2)), [10.0, 120.0], 2.2, 0.8,
                                                 gamma_th, power.p_max, power.g_bound, power.sigma2)
    assert active.all()
    assert abs(beta[1]) ** 2 * power.g_bound**2 == pytest.approx(power.p_max, rel=1e-12)
    assert abs(beta[0]) ** 2 * power.g_bound**2 < power.p_max


@pytest.mark.parametrize("rho", RHOS)
def test_the_oracles_divergence_matches_the_closed_form(rho):
    # the oracle's own channels and CN(0, sigma^2 I_d) noise, against
    # divergence_exact at 4 SEs; a round with no active device gives
    # g_hat = 0, so its divergence is ||g||^2 (the skipped-round convention)
    cfg, grads, power = frozen(rho)
    k_devices, d_model = grads.shape
    gen = np.random.default_rng(STAT_SEED)
    g_ideal = grads.mean(axis=0)
    div = np.empty(STAT_TRIALS)
    for t in range(STAT_TRIALS):
        g_hat, _, _ = oracles.physical_round_ref(grads, gen.standard_normal((k_devices, 4)),
                                                 gen.standard_normal((d_model, 2)), cfg.distances, cfg.alpha, rho,
                                                 cfg.gamma_th, power.p_max, power.g_bound, power.sigma2)
        diff = g_hat - g_ideal
        div[t] = diff @ diff
    exact = divergence_exact([float(g @ g) for g in grads], k_devices, cfg.gamma_th, rho, power, d_model)
    se = div.std(ddof=1) / math.sqrt(STAT_TRIALS)
    assert abs(div.mean() - exact) <= 4.0 * se, f"z = {(div.mean() - exact) / se:.2f}"
