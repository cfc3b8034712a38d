"""Metamorphic relations of the weight divergence: checks that need no
closed form and no standard error.

The divergence kernel and its exact expectation share zeta, lambda and the
gain, so a wrong shared rule moves both sides of the Monte-Carlo gate at
once.  Each relation below follows from the system model alone and is
checked on the kernel (harness._divergence_blocks, on shared normals) and
on analysis.divergence_exact, each against itself, to rounding:

- R1: gradients x c and G x c give the divergence x c^2;
- R2: P_max x c and sigma^2 x c leave it unchanged;
- R3: P_max x c and d_max^alpha x c leave it unchanged;
- R4: one orthogonal rotation of gradient space leaves it unchanged;
- R5: one permutation of the devices leaves it unchanged.

R4 and R5 rotate the receiver noise and permute the channels with the
gradients, which the kernel draws in a fixed order, so on the kernel's side
they are checked per trial on one aircomp.aggregate_batch call over shared
normals.  R2 and R3 also leave the threshold objective's weights, and so
the optimal threshold, unchanged to rounding.

R1-R3 also hold for the aggregate itself on one training round,
fltrain._air_round on round 0 of the seed's draws: R1 scales g_hat by c,
and R2 and R3 (the latter with every distance d_k x c^(1/alpha), so d_k^alpha
x c) leave it unchanged.  _air_round asserts the power budget of every
active device, so each scaled system also keeps to its own P_max.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from airfl.aircomp import PowerConfig, aggregate_batch, compensation_lambda, receiver_noise_scale, scaling_zeta
from airfl.analysis import divergence_exact
from airfl.channel import channel_from_normals, substream
from airfl.config import STREAM_MC_DIVERGENCE, SystemConfig
from airfl.fltrain import SeedDraws, _air_round, _Cells, _zetas, ideal_aggregate
from airfl.harness import _TRIAL_BLOCK, _divergence_blocks, _frozen_setup
from airfl.optimizer import coefficients_from_system, optimal_threshold

REL_TOL = 1e-12
SEED = 2026
N_BLOCKS = 2


@functools.cache
def system(name):
    """(grads (K, d), power, gamma_th, rho) of a frozen system."""
    if name == "defaults":
        cfg, grads, power = _frozen_setup(SystemConfig())
        return np.array(grads), power, cfg.gamma_th, cfg.rho
    # K = d = 10 with sigma^2 = 1e-9 W, where the noise term is a large share
    grads = np.random.default_rng(7).standard_normal((10, 10))
    g_bound = float(np.max(np.linalg.norm(grads, axis=1)))
    return grads, PowerConfig(p_max=0.1, sigma2=1e-9, g_bound=g_bound, d_max_alpha=100.0**2.2), 0.5, 0.8


def kernel(grads, power, gamma_th, rho) -> float:
    """Mean squared divergence of the kernel's trials on the normals of SEED."""
    blocks = [(substream(SEED, STREAM_MC_DIVERGENCE, b), _TRIAL_BLOCK) for b in range(N_BLOCKS)]
    return float(np.mean(np.concatenate([div for (div, _), _ in _divergence_blocks((grads, power, gamma_th, rho), blocks)])))


def exact(grads, power, gamma_th, rho) -> float:
    k_devices, d_model = grads.shape
    return divergence_exact([float(g @ g) for g in grads], k_devices, gamma_th, rho, power, d_model)


SYSTEMS = ["defaults", "sigma2=1e-9"]
FORMS = [kernel, exact]
# fixed factors, rotation and permutation, so that every run checks the same cases
SCALES = [1e-2, 0.3, 1.7, 37.0, 1e2]
ROTATION_SEED, PERMUTATION_SEED = 11, 13
RHOS = [0.3, 0.8, 0.95]
# R2 and R3 by the PowerConfig field each scales together with P_max
WITH_P_MAX = {"r2": "sigma2", "r3": "d_max_alpha"}


def batch(grads, power, gamma_th, rho, z, noise) -> np.ndarray:
    """Squared divergence of each trial of one aggregate_batch call on the
    channels of the normals z (T, K, 4) and the receiver noise of the
    normals noise (T, d)."""
    k_devices = grads.shape[0]
    scale = receiver_noise_scale(power.sigma2, scaling_zeta(k_devices, rho, power, gamma_th))
    h, h_hat = channel_from_normals(z, rho)
    _, _, _, g_hat = aggregate_batch(grads, h, h_hat, gamma_th, compensation_lambda(gamma_th, rho), noise * scale)
    diff = g_hat - ideal_aggregate(grads)
    return np.einsum("td,td->t", diff, diff)


def normals(k_devices, d_model):
    """The shared channel (T, K, 4) and receiver-noise (T, d) normals."""
    rng = np.random.default_rng(SEED)
    return rng.standard_normal((_TRIAL_BLOCK, k_devices, 4)), rng.standard_normal((_TRIAL_BLOCK, d_model))


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r1_gradients_and_g_scale_the_divergence_by_c_squared(form, name, c):
    grads, power, gamma_th, rho = system(name)
    scaled = form(grads * c, replace(power, g_bound=power.g_bound * c), gamma_th, rho)
    assert scaled == pytest.approx(c * c * form(grads, power, gamma_th, rho), rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r2_p_max_and_sigma2_together_change_nothing(form, name, c):
    grads, power, gamma_th, rho = system(name)
    scaled = form(grads, replace(power, p_max=power.p_max * c, sigma2=power.sigma2 * c), gamma_th, rho)
    assert scaled == pytest.approx(form(grads, power, gamma_th, rho), rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r3_p_max_and_path_loss_together_change_nothing(form, name, c):
    grads, power, gamma_th, rho = system(name)
    scaled = form(grads, replace(power, p_max=power.p_max * c, d_max_alpha=power.d_max_alpha * c), gamma_th, rho)
    assert scaled == pytest.approx(form(grads, power, gamma_th, rho), rel=REL_TOL, abs=0.0)


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_noise_term_is_a_visible_share(name):
    # the relations on sigma^2, P_max and d_max^alpha test something only
    # where the receiver noise moves the divergence far past the tolerance
    grads, power, gamma_th, rho = system(name)
    for form in FORMS:
        quiet = form(grads, replace(power, sigma2=0.0), gamma_th, rho)
        assert abs(form(grads, power, gamma_th, rho) - quiet) > 1e-6 * quiet


@pytest.mark.parametrize("name", SYSTEMS)
def test_r4_a_rotation_of_gradient_space_changes_nothing(name):
    grads, power, gamma_th, rho = system(name)
    q, _ = np.linalg.qr(np.random.default_rng(ROTATION_SEED).standard_normal((grads.shape[1],) * 2))
    z, noise = normals(*grads.shape)
    rotated = batch(grads @ q.T, power, gamma_th, rho, z, noise @ q.T)
    assert rotated == pytest.approx(batch(grads, power, gamma_th, rho, z, noise), rel=REL_TOL, abs=0.0)
    assert exact(grads @ q.T, power, gamma_th, rho) == pytest.approx(
        exact(grads, power, gamma_th, rho), rel=REL_TOL, abs=0.0
    )


@pytest.mark.parametrize("name", SYSTEMS)
def test_r5_a_device_permutation_changes_nothing(name):
    grads, power, gamma_th, rho = system(name)
    perm = np.random.default_rng(PERMUTATION_SEED).permutation(grads.shape[0])
    z, noise = normals(*grads.shape)
    permuted = batch(grads[perm], power, gamma_th, rho, z[:, perm], noise)
    assert permuted == pytest.approx(batch(grads, power, gamma_th, rho, z, noise), rel=REL_TOL, abs=0.0)
    assert exact(grads[perm], power, gamma_th, rho) == pytest.approx(
        exact(grads, power, gamma_th, rho), rel=REL_TOL, abs=0.0
    )


def within_ulps(a: float, b: float, n: int) -> bool:
    return abs(a - b) <= n * math.ulp(b)


@pytest.mark.parametrize("relation", sorted(WITH_P_MAX))
@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("c", SCALES)
def test_r2_r3_leave_the_optimal_threshold_unchanged(relation, name, rho, c):
    _, power, _, _ = system(name)
    field = WITH_P_MAX[relation]
    scaled = replace(power, p_max=power.p_max * c, **{field: getattr(power, field) * c})
    coef, coef_c = coefficients_from_system(rho, power), coefficients_from_system(rho, scaled)
    assert within_ulps(coef_c.k1, coef.k1, 2) and within_ulps(coef_c.k2, coef.k2, 2)
    for mode in ("joint", "computation_oriented"):
        got, want = optimal_threshold(coef_c, mode).gamma_star, optimal_threshold(coef, mode).gamma_star
        assert within_ulps(got, want, 2), mode


@functools.cache
def training_system(name):
    """(resolved cfg, round-0 grads (K, d), G) of a training system."""
    cfg = SystemConfig() if name == "defaults" else SystemConfig(sigma2_dbm=-60.0)
    cfg, grads, power = _frozen_setup(cfg)
    return cfg, np.array(grads), power.g_bound


def air_round(cfg, grads, g_bound) -> np.ndarray:
    """g_hat of one fltrain._air_round call on round 0 of SeedDraws(cfg), for
    one cell at cfg's threshold with gradient bound g_bound.  The round
    asserts that every active device with ||g_k|| <= G keeps to P_max."""
    draws = SeedDraws(cfg)
    cfg = draws.cfg
    cells = _Cells(np.array([[cfg.gamma_th]]), np.array([[compensation_lambda(cfg.gamma_th, cfg.rho)]]),
                   _zetas(cfg, [cfg.gamma_th], [g_bound]), np.array([[g_bound]]))
    g_hat, n_active, _ = _air_round(grads[None], cells, draws, 0)
    assert n_active[0] > 0
    return g_hat[0]


def assert_rel_close(got, want):
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r1_on_a_training_round(name, c):
    cfg, grads, g_bound = training_system(name)
    assert_rel_close(air_round(cfg, grads * c, g_bound * c), c * air_round(cfg, grads, g_bound))


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r2_on_a_training_round(name, c):
    cfg, grads, g_bound = training_system(name)
    scaled = replace(cfg, p_max=cfg.p_max * c, sigma2_dbm=cfg.sigma2_dbm + 10.0 * math.log10(c))
    assert_rel_close(air_round(scaled, grads, g_bound), air_round(cfg, grads, g_bound))


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("c", SCALES)
def test_r3_on_a_training_round(name, c):
    cfg, grads, g_bound = training_system(name)
    stretch = c ** (1.0 / cfg.alpha)
    scaled = replace(cfg, p_max=cfg.p_max * c, distances=tuple(d * stretch for d in cfg.distances))
    assert_rel_close(air_round(scaled, grads, g_bound), air_round(cfg, grads, g_bound))


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_noise_is_a_visible_share_of_a_training_round(name):
    cfg, grads, g_bound = training_system(name)
    quiet = air_round(replace(cfg, sigma2_dbm=-300.0), grads, g_bound)
    assert np.linalg.norm(air_round(cfg, grads, g_bound) - quiet) > 1e-6 * np.linalg.norm(quiet)
