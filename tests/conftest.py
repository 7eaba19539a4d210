import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "ci", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

from stasis.model import PhaseModel, SingularAmplitude  # noqa: E402
from stasis.oracle import integrate_oscillatory  # noqa: E402
from stasis.quadratic import QuadraticPhase  # noqa: E402
from stasis.schrodinger import SchrodingerSetup  # noqa: E402

# any float (nan and both infinities included), tiny, subnormal and huge ones
EXTREME_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-1e-250, max_value=1e-250),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.floats(min_value=1e250, allow_infinity=False),
    st.floats(max_value=-1e250, allow_infinity=False))

# the acceptance matrix: 12 configurations, each at 25 frequencies
MU1S = (0.3, 0.5, 0.7)
MU2S = (0.4, 0.6)
OMEGAS = np.geomspace(1.0, 1e4, 25)


def ones(p):
    return np.ones_like(np.asarray(p, dtype=float))


def zeros(p):
    return np.zeros_like(np.asarray(p, dtype=float))


@pytest.fixture(scope="session")
def linear_phase():
    return PhaseModel(0.0, 1.0, 1.0, 1.0,
                      psi=lambda p: np.asarray(p, dtype=float),
                      psi_prime=ones, psi_tilde=ones)


@pytest.fixture(scope="session")
def convex_phase():
    return PhaseModel(0.0, 1.0, 1.0, 1.0,
                      psi=lambda p: np.asarray(p, dtype=float)
                      * (1.0 + np.asarray(p, dtype=float)),
                      psi_prime=lambda p: 1.0 + 2.0 * np.asarray(p, dtype=float),
                      psi_tilde=lambda p: 1.0 + 2.0 * np.asarray(p, dtype=float))


@pytest.fixture(scope="session")
def bessel_amp():
    return SingularAmplitude(0.0, 1.0, 0.5, 0.5, ones, zeros, 1.0, 1.0)


@pytest.fixture(scope="session")
def fresnel_amp():
    return SingularAmplitude(0.0, 1.0, 0.5, 1.0, ones, zeros, 1.0, 1.0)


def intro_amp(mu):
    # u~ = 1 - p is entire and keeps a complex argument complex
    return SingularAmplitude(
        0.0, 1.0, mu, 1.0,
        u_tilde=lambda p: 1.0 - np.asarray(p),
        u_tilde_prime=lambda p: -ones(p),
        sup_norm_u=1.0, sobolev_norm_u=1.0, analytic=True)


def beta_amp(mu1, mu2):
    return SingularAmplitude(0.0, 1.0, mu1, mu2, ones, zeros, 1.0, 1.0)


def _qp(p0, amp, c=None):
    return QuadraticPhase(p0=p0, c=p0 * p0 if c is None else c,
                          p1=amp.p1, p2=amp.p2)


@pytest.fixture(scope="module")
def setup075():
    return SchrodingerSetup(amp=intro_amp(0.75), p1=0.0, p2=1.0, mu=0.75)


@pytest.fixture(scope="session")
def quadratic_left_phase():
    # psi = -(p - 0.5)^2 + 0.25 on [0, 0.5]: rho = (1, 2), psi~ = 2
    p0 = 0.5
    return PhaseModel(0.0, 0.5, 1.0, 2.0,
                      psi=lambda p: -(np.asarray(p, dtype=float) - p0) ** 2 + 0.25,
                      psi_prime=lambda p: 2.0 * (p0 - np.asarray(p, dtype=float)),
                      psi_tilde=lambda p: 2.0 * ones(p))


@pytest.fixture(scope="session")
def fractional_phase():
    # psi = (2/3) p^(3/2) on [0, 1]: rho = (3/2, 1), psi~ = 1
    return PhaseModel(0.0, 1.0, 1.5, 1.0,
                      psi=lambda p: (2.0 / 3.0) * np.asarray(p, dtype=float) ** 1.5,
                      psi_prime=lambda p: np.asarray(p, dtype=float) ** 0.5,
                      psi_tilde=ones)


@pytest.fixture(scope="session")
def kinked_phase():
    # psi~ = 1 + |p - 0.05| on [0, 1], rho = (1, 1): a kink inside the
    # near-endpoint layer [0, 0.1] of side 1, none within 0.1 of p2
    def tilde(p):
        return 1.0 + np.abs(np.asarray(p, dtype=float) - 0.05)

    def psi(p):
        d = np.asarray(p, dtype=float) - 0.05
        return d + 0.5 * d * np.abs(d)

    return PhaseModel(0.0, 1.0, 1.0, 1.0, psi=psi, psi_prime=tilde,
                      psi_tilde=tilde)


@pytest.fixture(scope="session")
def matrix(linear_phase, convex_phase):
    """(label, phase, amp) for the 12 bound-validity configurations."""
    out = []
    for mu1 in MU1S:
        for mu2 in MU2S:
            for pname, phase in (("p", linear_phase), ("p+p^2", convex_phase)):
                out.append((f"mu1={mu1},mu2={mu2},psi={pname}",
                            phase, beta_amp(mu1, mu2)))
    return out


@pytest.fixture(scope="session")
def matrix_oracle(matrix):
    """Panel-oracle values for every (configuration, omega)."""
    values = {}
    for label, phase, amp in matrix:
        for om in OMEGAS:
            ov = integrate_oscillatory(phase, amp, float(om), 1e-10)
            values[(label, float(om))] = ov.value
    return values
