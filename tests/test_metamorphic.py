"""Metamorphic relations of the weight divergence: checks that need no
closed form and no standard error.

The divergence kernel and its exact expectation share zeta, lambda and the
gain, so a wrong shared rule moves both sides of the Monte-Carlo gate at
once.  Each relation below follows from the system model alone and is
checked on the kernel (harness._divergence_blocks, on shared normals) and
on analysis.divergence_exact, each against itself, to rounding:

- R1: gradients x c and G x c give the divergence x c^2;
- R2: P_max x c and sigma^2 x c leave it unchanged;
- R3: P_max x c and d_max^alpha x c leave it unchanged.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from airfl.aircomp import PowerConfig
from airfl.analysis import divergence_exact
from airfl.channel import substream
from airfl.config import STREAM_MC_DIVERGENCE, SystemConfig
from airfl.harness import _TRIAL_BLOCK, _divergence_blocks, _frozen_setup

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
# fixed factors, not Hypothesis draws: under filterwarnings = error a
# failing Hypothesis example ends the whole session in an INTERNALERROR
SCALES = [1e-2, 0.3, 1.7, 37.0, 1e2]


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
