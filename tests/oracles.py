"""Independent high-precision oracles for the test suite.

Everything here is computed with mpmath at 40 significant digits and never
touches the package under test.  The frozen constants below were produced
by the helpers in this module (rounded to double precision); tests compare
against the constants for headline values and against the live helpers for
grid sweeps.
"""

import mpmath as mp

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
