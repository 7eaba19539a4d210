"""Independent reference oracles for the test suite.

Everything here is deliberately decoupled from the package internals:
Bessel J0 comes from its power series / Hankel asymptotic series evaluated
in mpmath arbitrary precision, and the frozen constants below were produced
by the same routines (plus direct high-precision quadrature for the ray
values) before the package was built.
"""

from __future__ import annotations

import mpmath as mp

# --- frozen high-precision values -----------------------------------------

GAMMA_GRID = {
    0.05: 19.47008531125551175634,
    0.1: 9.513507698668731285808,
    0.25: 3.625609908221908311931,
    0.5: 1.772453850905516027298,
    0.75: 1.225416702465177645129,
    1.0: 1.0,
    1.2254: 0.9118216618712355159395,
    1.5: 0.8862269254527580136491,
    2.0: 1.0,
    3.7: 4.170651783796604030087,
    5.0: 24.0,
    7.5: 1871.254305797788346476,
    10.0: 362880.0,
    13.3: 1025640025.16963107109,
    17.0: 20922789888000.0,
    22.5: 238280159446418432596.8,
    30.0: 8.841761993739701954544e+30,
    37.7: 4.645646398072897347576e+42,
    42.1: 4.856093781177093140961e+49,
    50.0: 6.082818640342675608723e+62,
}

GAMMA_3Q = 1.225416702465177645129          # Gamma(0.75)

J0_SPOTS = {
    0.5: 0.9384698072408129042284,
    1.0: 0.7651976865579665514497,
    2.0: 0.2238907791412356680518,
    5.0: -0.1775967713143383043474,
    6.0: 0.1506452572509969316623,
    12.0: 0.04768931079683353662381,
    25.0: 0.0962667832759581161735,
    50.0: 0.05581232766925181500475,
    500.0: -0.03410055688073199826513,
    5000.0: -0.006648984251448347893587,
}

# int_0^25 u^(-1/2) e^(iu) du, by the power series at dps = 140
FRESNEL_INC_25 = 1.222933532792925223588 + 1.055834562330644827689j

# int_0^1 p^(-1/2)(1-p)^(-1/2) e^(i 10 p) dp = pi e^(i5) J0(5)
BESSEL_ORACLE_10 = -0.1582655470937848377603 + 0.5350190569223653441264j

# int_0^inf (0.2 + i tau/50)^(0.35-1) e^-tau dtau (direct mp quadrature)
LAPLACE_FACTOR_SPOT = 0.05637012725169465505291 - 0.003559628497391437910064j

# ray integral J(s=0.5, w=10, rho=1, mu=0.5, side=1) = i e^(i5) L
RAY_SPOT = 0.1359765082771793841907 + 0.02699699911637803161526j

# int_0^1 p^(m1-1)(1-p)^(m2-1) e^(i w p) dp = B(m1,m2) 1F1(m1; m1+m2; i w)
BETA_OSC_SPOTS = {
    (0.3, 0.4, 10.0): 0.4437526974784879805337 + 0.7739093295355677738903j,
    (0.7, 0.6, 100.0): 0.03229557486383630500865 - 0.04742319467657677382094j,
}


# --- Bessel J0 oracle -------------------------------------------------------

_SERIES_CUT = 30.0


def _j0_series(x, dps=80):
    with mp.workdps(dps):
        x = mp.mpf(x)
        acc = mp.mpf(1)
        term = mp.mpf(1)
        n = 0
        while True:
            n += 1
            term *= -(x / 2) ** 2 / n ** 2
            acc += term
            if abs(term) < mp.mpf(10) ** (-40) * max(1, abs(acc)):
                return acc


def _j0_asymptotic(x, dps=50):
    # J0 = Re[ sqrt(2/(pi x)) e^(i(x - pi/4)) sum_k A_k (i/x)^k ],
    # A_0 = 1, A_k = A_{k-1} * (-(2k-1)^2) / (8k); truncated at the
    # smallest term.
    with mp.workdps(dps):
        x = mp.mpf(x)
        a = mp.mpf(1)
        acc = mp.mpc(1)
        power = mp.mpc(1)
        best = abs(a)
        k = 0
        while True:
            k += 1
            a = a * (-(2 * k - 1) ** 2) / (8 * k)
            power *= mp.mpc(0, 1) / x
            term = a * power
            if abs(term) > best:
                break
            best = abs(term)
            acc += term
            if best < mp.mpf(10) ** (-30):
                break
        val = mp.sqrt(2 / (mp.pi * x)) * mp.e ** (mp.mpc(0, 1) * (x - mp.pi / 4)) * acc
        return val.real


def bessel_j0(x: float) -> float:
    """J0(x) for x >= 0 via series (x <= 30) or Hankel asymptotics."""
    x = abs(float(x))
    if x <= _SERIES_CUT:
        return float(_j0_series(x))
    return float(_j0_asymptotic(x))


def bessel_closed_form(omega: float) -> complex:
    """pi e^(i w/2) J0(w/2): the Bessel-case oscillatory integral."""
    with mp.workdps(40):
        w = mp.mpf(omega)
        val = mp.pi * mp.e ** (mp.mpc(0, 1) * w / 2) * mp.mpf(bessel_j0(omega / 2.0))
        return complex(val)


def primitive_closed_form(s: float, omega: float, rho: float, mu: float,
                          side: int) -> complex:
    """Phi(s) = int_s^inf r^(mu-1) e^(sig i w r^rho) dr, sig = (-1)^(side+1),
    as (-i sig w)^(-m) Gamma(m, -i sig w s^rho) / rho with m = mu/rho, the
    upper incomplete gamma function in mpmath at 40 digits."""
    with mp.workdps(40):
        a = mp.mpc(0, -1 if side == 1 else 1) * mp.mpf(omega)
        m = mp.mpf(mu) / mp.mpf(rho)
        r = mp.mpf(s) ** mp.mpf(rho)
        return complex(a ** (-m) * mp.gammainc(m, a * r) / mp.mpf(rho))


def singular_fresnel_closed_form(mu: float, omega: float) -> complex:
    """int_0^1 p^(mu-1) e^(-i w p^2) dp = (i w)^(-mu/2) gamma(mu/2, i w) / 2,
    the lower incomplete gamma function in mpmath at 40 digits: a singular
    amplitude with the stationary point on its singular end."""
    with mp.workdps(40):
        a = mp.mpf(mu) / 2
        z = mp.mpc(0, omega)
        return complex(z ** (-a) * mp.gammainc(a, 0, z) / 2)


def beta_quadratic_reference(mu1: float, mu2: float, p0: float, c: float,
                             omega: float) -> complex:
    """int_0^1 p^(mu1-1) (1-p)^(mu2-1) e^(i w (c - (p - p0)^2)) dp at 30
    digits.  Each half is substituted as v = |p - p_j|^mu_j, which takes the
    endpoint singularity out of the integrand (plain mp.quad in p is off by
    1.4e-10 at mu1 = 0.3), and summed by mpmath quadrature on four pieces."""
    with mp.workdps(30):
        mu1, mu2, p0, c, w = (mp.mpf(x) for x in (mu1, mu2, p0, c, omega))
        half = mp.mpf(1) / 2

        def phase(p):
            return mp.expj(w * (c - (p - p0) ** 2))

        def left(v):
            p = v ** (1 / mu1)
            return (1 - p) ** (mu2 - 1) * phase(p) / mu1

        def right(v):
            p = 1 - v ** (1 / mu2)
            return p ** (mu1 - 1) * phase(p) / mu2

        total = mp.mpc(0)
        for f, mu in ((left, mu1), (right, mu2)):
            total += mp.quad(f, mp.linspace(0, half ** mu, 5))
        return complex(total)


def beta_dk_dxi_reference(psi, psi_prime, rho: float, mu: float,
                          mu_other: float, side: int, xi: float) -> float:
    """d/dxi k_j(phi_j(p)) at p = p_j +- xi for the amplitude
    p^(mu1-1) (1-p)^(mu2-1) on [0, 1] at 40 digits, with ``psi`` and
    ``psi_prime`` taking and returning mpf.  k_j(phi_j(p)) = V Y^(1-mu) / phi'
    with Delta = |psi(p) - psi(p_j)|, phi = Delta^(1/rho), Y = phi / xi and
    V = |p - p_far|^(mu_other - 1), straight from the definitions: the
    difference Delta cancels, and 40 digits leave 30 at xi = 1e-9."""
    with mp.workdps(40):
        sign = 1 if side == 1 else -1
        p_j, p_far = (mp.mpf(0), mp.mpf(1))[::sign]
        rho, mu, mu_other = (mp.mpf(x) for x in (rho, mu, mu_other))

        def k(x):
            p = p_j + sign * x
            delta = sign * (psi(p) - psi(p_j))
            dphi = sign * delta ** (1 / rho - 1) * abs(psi_prime(p)) / rho
            return (abs(p - p_far) ** (mu_other - 1)
                    * (delta ** (1 / rho) / x) ** (1 - mu) / dphi)

        return float(mp.diff(k, mp.mpf(xi)))
