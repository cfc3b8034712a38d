"""Independent oracles for the test suite.

Nothing here touches the package under test.  The special functions and
closed forms are computed with mpmath at 40 significant digits; the frozen
constants below were produced by those helpers (rounded to double
precision), and tests compare against the constants for headline values and
against the live helpers for grid sweeps.  air_round_ref is one
over-the-air round in the reduced form (1/K) sum_k xi_k g_k + noise, and
physical_round_ref the same round from the superposed receive signal;
logistic_gradient_ref and mlp_gradient_ref are one
device's mini-batch gradient, in plain numpy and Python scalars, for
bit-exact comparison with the package's array kernels; bce_loss_ref is the
loss whose finite differences check those gradients.  read_sweep_csv
reads back a CSV the package wrote.
"""

import csv
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def ei_ref(x: float) -> float:
    return float(mp.ei(mp.mpf(repr(float(x)))))


def erf_ref(x: float) -> float:
    return float(mp.erf(mp.mpf(repr(float(x)))))


def erfc_ref(x: float) -> float:
    return float(mp.erfc(mp.mpf(repr(float(x)))))


def xi_variance_ref(gamma_th: float, rho: float) -> float:
    """e^g - (1 - rho^2)/(2 rho^2) Ei(-g) e^(2g) - 1 at high precision."""
    g = mp.mpf(repr(float(gamma_th)))
    r = mp.mpf(repr(float(rho)))
    val = mp.e**g - (1 - r**2) / (2 * r**2) * mp.ei(-g) * mp.e ** (2 * g) - 1
    return float(val)


def xi_mean_offset_ref(gamma_th: float, rho: float) -> float:
    g = mp.mpf(repr(float(gamma_th)))
    r = mp.mpf(repr(float(rho)))
    return float(r * (1 - mp.e**g) / (mp.e**g * mp.sqrt(1 - r**2)))


def conditional_second_moment_ref(gamma_th: float, c: float) -> float:
    g = mp.mpf(repr(float(gamma_th)))
    cc = mp.mpf(repr(float(c)))
    return float(cc * cc - mp.ei(-g) * mp.e**g / 2)


def joint_pdf_ref(t: float, gamma: float) -> float:
    tt = mp.mpf(repr(float(t)))
    g = mp.mpf(repr(float(gamma)))
    if g >= 0:
        return 0.0
    return float(mp.sqrt(-g / mp.pi) * mp.e ** (g * (1 + tt * tt)))


def joint_cdf_ref(t: float, gamma: float) -> float:
    tt = mp.mpf(repr(float(t)))
    g = mp.mpf(repr(float(gamma)))
    base = tt / (2 * mp.sqrt(1 + tt * tt))
    if g >= 0:
        return float(mp.mpf(1) / 2 + base)
    s = mp.sqrt(-g)
    val = base * (1 - mp.erf(s * mp.sqrt(1 + tt * tt))) + mp.e**g / 2 * mp.erfc(-s * tt)
    return float(val)


def objective_h_ref(x, k1, k2):
    xx = mp.mpf(repr(float(x)))
    a = mp.mpf(repr(float(k1)))
    b = mp.mpf(repr(float(k2)))
    return mp.e**xx - a * mp.ei(-xx) * mp.e ** (2 * xx) + b * mp.e ** (2 * xx) / xx


def derivative_h_ref(x, k1, k2) -> float:
    """d/dx of objective_h_ref by high-precision numerical differentiation."""
    return float(mp.diff(lambda z: objective_h_ref_mp(z, k1, k2), mp.mpf(repr(float(x)))))


def second_derivative_h_ref(x, k1, k2) -> float:
    return float(
        mp.diff(lambda z: objective_h_ref_mp(z, k1, k2), mp.mpf(repr(float(x))), 2)
    )


def objective_h_ref_mp(x, k1, k2):
    # mp-native variant for mp.diff (no repr round-trip on the moving argument)
    a = mp.mpf(repr(float(k1)))
    b = mp.mpf(repr(float(k2)))
    return mp.e**x - a * mp.ei(-x) * mp.e ** (2 * x) + b * mp.e ** (2 * x) / x


def gamma_star_ref(k1: float, k2: float) -> float:
    """Minimizer of the threshold objective, solved on h' at high precision."""
    a = mp.mpf(repr(float(k1)))
    b = mp.mpf(repr(float(k2)))

    def hp(x):
        ex = mp.e**x
        e2x = ex * ex
        val = ex + b * e2x * (2 * x - 1) / (x * x)
        if a != 0:
            val += -a * ex / x - 2 * a * mp.ei(-x) * e2x
        return val

    return float(mp.findroot(hp, mp.mpf("0.4")))


def air_round_ref(grads, channel_normals, noise_normals, rho, gamma_th, p_max, g_bound, d_max_alpha, sigma2):
    """One cell's over-the-air round the scalar way: (g_hat, xi, active, noise).

    grads is (K, d); channel_normals holds K rows of four standard normals
    (Re h_hat, Im h_hat, Re v, Im v), each scaled by 1/sqrt(2) to build
    h_hat, v ~ CN(0, 1) and h = rho h_hat + sqrt(1 - rho^2) v as complex
    scalars.  A device with |h_hat|^2 >= gamma_th has
    xi = lambda Re{conj(h) h_hat} / |h_hat|^2 with lambda = e^gamma / rho.
    If any device is active, g_hat = (1/K) sum_k xi_k g_k accumulated in
    device order, plus noise_normals * sqrt(sigma2) / (sqrt(2) zeta) when
    sigma2 > 0, with zeta = K rho sqrt(P_max gamma) / (G sqrt(d_max^alpha) e^gamma);
    otherwise g_hat and the noise are 0.
    """
    k_devices, dim = grads.shape
    lam = math.exp(gamma_th) / rho
    zeta = k_devices * rho * math.sqrt(p_max * gamma_th) / (g_bound * math.sqrt(d_max_alpha) * math.exp(gamma_th))
    xi = np.zeros(k_devices)
    active = np.zeros(k_devices, dtype=bool)
    for k, z in enumerate(channel_normals):
        z = z * (1.0 / math.sqrt(2.0))
        h_hat = complex(z[0], z[1])
        h = rho * h_hat + math.sqrt(1.0 - rho * rho) * complex(z[2], z[3])
        gain = (h_hat * h_hat.conjugate()).real
        if gain >= gamma_th:
            active[k] = True
            xi[k] = lam * (h.conjugate() * h_hat).real / gain
    g_hat = np.zeros(dim)
    noise = np.zeros(dim)
    if active.any():
        for k in range(k_devices):
            g_hat += xi[k] * grads[k]
        g_hat /= k_devices
        if sigma2 > 0.0:
            noise = noise_normals * (math.sqrt(sigma2) / (math.sqrt(2.0) * zeta))
            g_hat += noise
    return g_hat, xi, active, noise


def physical_round_ref(grads, channel_normals, noise_normals, distances, alpha, rho, gamma_th, p_max, g_bound,
                       sigma2):
    """One over-the-air round from the superposed receive signal, the
    scalar way: (g_hat, beta, active).

    grads is (K, d); device k sits at distances[k] with path-loss exponent
    alpha.  channel_normals holds K rows of four standard normals (Re h_hat,
    Im h_hat, Re v, Im v), each scaled by 1/sqrt(2) to build h_hat, v ~
    CN(0, 1) and the true channel h = rho h_hat + sqrt(1 - rho^2) v.
    noise_normals is (d, 2): the receiver noise is z = sqrt(sigma2 / 2)
    (n[:, 0] + i n[:, 1]) ~ CN(0, sigma2 I_d).  A device with |h_hat|^2 >=
    gamma_th transmits beta_k g_k with the truncated-inversion pre-scaling

        beta_k = zeta lambda d_k^(alpha/2) conj(h_hat_k) / (K |h_hat_k|^2),
        lambda = e^gamma / rho,
        zeta = K rho sqrt(P_max gamma) / (G sqrt(d_max^alpha) e^gamma),

    d_max the largest distance; beta_k is 0 for the others.  The receiver
    gets y = sum_{k active} d_k^(-alpha/2) h_k beta_k g_k + z, summed in
    device order, and returns g_hat = Re(y) / zeta.  With no active device
    nothing is sent and g_hat is 0.
    """
    k_devices, dim = grads.shape
    lam = math.exp(gamma_th) / rho
    d_max_alpha = max(distances) ** alpha
    zeta = k_devices * rho * math.sqrt(p_max * gamma_th) / (g_bound * math.sqrt(d_max_alpha) * math.exp(gamma_th))
    beta = np.zeros(k_devices, dtype=complex)
    active = np.zeros(k_devices, dtype=bool)
    y = np.zeros(dim, dtype=complex)
    for k, (z, d) in enumerate(zip(channel_normals, distances)):
        z = z * (1.0 / math.sqrt(2.0))
        h_hat = complex(z[0], z[1])
        h = rho * h_hat + math.sqrt(1.0 - rho * rho) * complex(z[2], z[3])
        gain = (h_hat * h_hat.conjugate()).real
        if gain >= gamma_th:
            active[k] = True
            beta[k] = zeta * lam * d ** (alpha / 2.0) * h_hat.conjugate() / (k_devices * gain)
            y += (d ** (-alpha / 2.0) * h * beta[k]) * grads[k]
    if not active.any():
        return np.zeros(dim), beta, active
    y += math.sqrt(sigma2 / 2.0) * (noise_normals[:, 0] + 1j * noise_normals[:, 1])
    return y.real / zeta, beta, active


def _sigmoid_ref(s):
    # the stable split: 1/(1 + e^-s) for s >= 0, e^s/(1 + e^s) below
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def bce_loss_ref(scores, y):
    """Mean cross-entropy of sigmoid(scores) against labels y, as log(1 + e^s) - y s."""
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


def logistic_gradient_ref(w, x, y):
    """Gradient of the mean cross-entropy of sigmoid(x @ w) at w, batch (x, y)."""
    residual = _sigmoid_ref(x @ w) - y
    return x.T @ residual / x.shape[0]


def mlp_gradient_ref(w, x, y, hidden_units):
    """The same for one relu hidden layer, w packed as [W1.ravel(), b1, w2, b2]."""
    h, d = hidden_units, x.shape[1]
    w1 = w[: h * d].reshape(h, d)
    b1, w2, b2 = w[h * d : h * d + h], w[h * d + h : h * d + 2 * h], w[-1]
    z1 = x @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    dscore = (_sigmoid_ref(a1 @ w2 + b2) - y) / x.shape[0]
    dz1 = np.outer(dscore, w2) * (z1 > 0.0)
    return np.concatenate([(dz1.T @ x).ravel(), dz1.sum(axis=0), a1.T @ dscore, [np.sum(dscore)]])


def _parse_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_sweep_csv(path):
    """(columns, rows) of a CSV written by the package; ints and floats are
    parsed back, floats bit-exactly (the writer uses repr)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            columns = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = [tuple(_parse_cell(c) for c in row) for row in reader]
    return columns, rows


# Frozen values (mpmath, dps=40, rounded to the nearest double).
EI_MINUS_1 = -0.21938393439552027
EI_MINUS_HALF = -0.5597735947761608
EI_MINUS_4 = -0.0037793524098489065
EI_MINUS_20 = -9.835525290649882e-11
ERF_1 = 0.8427007929497149
ERF_HALF = 0.5204998778130465
ERFC_1 = 0.15729920705028513
ERFC_5 = 1.5374597944280349e-12
XI_VAR_G05_R08 = 1.076677568093288       # gamma_th = 0.5, rho = 0.8
XI_VAR_G05_R1 = 0.6487212707001282       # gamma_th = 0.5, rho = 1 (e^0.5 - 1)
COND_M2_G1_C0 = 0.29817368116159704      # -Ei(-1) e / 2
LAMBDA_G05_R08 = 2.0609015883751602      # e^0.5 / 0.8
GAMMA_STAR_K10_K21 = 0.43808114654707675  # arg min of e^x + e^(2x)/x
H_AT_GAMMA_STAR_K10_K21 = 7.03196866320077
D500_POW_22 = 866431.0539439330          # 500^2.2
DIV_BOUND_DEFAULTS_G1 = 0.047566834892626815  # K=10 g=0.5 rho=0.8 G=1 dmax=500
EMPTY_BLOB_SHA1 = "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
