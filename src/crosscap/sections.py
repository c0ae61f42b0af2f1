"""Lagrangian sections of line space and their support functions.

A graph section xi -> (xi, eta = F(xi, xibar)) is Lagrangian exactly when a
real support function r exists with

    dr/dxi = 2 conj(F) / (1 + xi xibar)^2,

r being determined up to an additive constant (parallel surfaces).  Both
directions of that correspondence are implemented exactly on polynomial
data, with a radial-quadrature reconstruction kept alongside as an
independent check.

The totally-real diagnostics work on the flat-chart second derivatives of r
with xi = x1 + i x2: the defect (r11 - r22)^2 + (r12 + r21)^2 and the winding
of (r11 - r22) + i (r12 + r21) around a loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPolynomialSupport, NotLagrangian
from .wirtinger import ONE_PLUS_S, MonomialField, RationalField, winding_of

# support_from_section's Lagrangian test: the defect on an N x N grid over
# [-1, 1]^2 must stay at or below LAGRANGIAN_DEFECT_TOL.
LAGRANGIAN_GRID_N = 25
LAGRANGIAN_DEFECT_TOL = 1e-8
GRADIENT_SYMMETRY_REL_TOL = 1e-10  # conjugate-symmetry residual of an integrated gradient
ROMBERG_TOL = 1e-10                # radial_support_value: relative stopping tolerance
ROMBERG_MAX_LEVELS = 24
TOTALLY_REAL_DEFECT_FLOOR = 1e-9   # least defect on a boundary_winding loop


@dataclass(frozen=True)
class SupportFunction:
    """A real-valued polynomial field on the chart.

    The coefficient map is symmetrized on construction so that
    ``c_nm == conj(c_mn)`` holds exactly.
    """

    r: MonomialField

    def __post_init__(self):
        if not self.r.is_real_symmetric(tol=1e-12):
            raise ValueError("support function coefficients are not conjugate-symmetric")
        sym = 0.5 * (self.r + self.r.conj())
        object.__setattr__(self, "r", sym)

    def eval(self, xi):
        out = self.r.eval(xi)
        return out.real if isinstance(out, complex) else np.real(out)


@dataclass(frozen=True)
class SectionGraph:
    """The fibre component eta = F(xi, xibar) of a graph section.

    The Lagrangian property is always checked, never assumed.
    """

    F: RationalField


def section_from_support(r):
    """Build the section F = (1/2) (1+xi xibar)^2 conj(dr/dxi).

    The result is polynomial whenever r is, and is independent of the
    additive constant in r.
    """
    F = 0.5 * (ONE_PLUS_S * ONE_PLUS_S * r.r.d_xi().conj())
    return SectionGraph(F=RationalField(F, 0))


def lagrangian_defect(F, xi):
    """|Im d/dxi (F / (1+xi xibar)^2)| at ``xi``; zero iff Lagrangian there."""
    h = RationalField(F.F.num, F.F.den_power + 2)
    vals = h.d_xi().eval(xi)
    if isinstance(vals, complex):
        return abs(vals.imag)
    return np.abs(np.imag(vals))


def _integrate_polynomial_gradient(G):
    """Real polynomial r with d_xi(r) = G and r(0) = 0, or NotLagrangian."""
    terms = G.terms()
    tol = GRADIENT_SYMMETRY_REL_TOL * (G.max_abs_coeff() or 1.0)
    coeffs = {}
    for (m, n), a in terms.items():
        coeffs[(m + 1, n)] = a / (m + 1)
    # reality pins the pure-xibar coefficients and constrains the rest
    out = dict(coeffs)
    for (m, n), c in coeffs.items():
        mirror = out.get((n, m))
        if mirror is None:
            if n == 0:
                out[(0, m)] = c.conjugate()
            else:
                raise NotLagrangian(
                    f"gradient term xi^{m-1} xibar^{n} has no conjugate partner"
                )
        elif abs(mirror - c.conjugate()) > tol:
            raise NotLagrangian(
                f"gradient fails conjugate symmetry at exponents ({m},{n})"
            )
    out.pop((0, 0), None)
    r = MonomialField(out)
    if not r.d_xi().allclose(G, tol=tol):
        raise NotLagrangian("termwise antiderivative does not reproduce the gradient")
    return r


def support_from_section(F):
    """Recover the support function of a Lagrangian section, normalized r(0) = 0.

    The integrability precondition is tested as a Lagrangian-defect sweep on a
    grid; failures raise ``NotLagrangian`` (the radial integral would be
    path-dependent).  Sections whose support is integrable but not polynomial
    raise ``NonPolynomialSupport``.
    """
    ax = np.linspace(-1.0, 1.0, LAGRANGIAN_GRID_N)
    zz = ax[None, :] + 1j * ax[:, None]
    if np.max(lagrangian_defect(F, zz)) > LAGRANGIAN_DEFECT_TOL:
        raise NotLagrangian("Lagrangian defect exceeds tolerance on the validation grid")
    # dr/dxi = 2 conj(F) / (1+s)^2 must reduce to a polynomial
    grad = RationalField(2.0 * F.F.num.conj(), F.F.den_power + 2).reduced()
    if grad.den_power != 0:
        raise NonPolynomialSupport(
            "the support gradient is not polynomial; only polynomial supports are represented"
        )
    r = _integrate_polynomial_gradient(grad.num)
    return SupportFunction(r=r)


def radial_support_value(F, xi):
    """Support value at ``xi`` by Richardson-extrapolated radial quadrature.

    Integrates d/dt r(t xi) = 4 Re[xi conj(F(t xi))] / (1 + t^2 |xi|^2)^2 over
    t in [0, 1] with the trapezoid rule and a Romberg table.  Serves as the
    independent reconstruction of the exact antiderivative.
    """
    z = complex(xi)
    if z == 0:
        return 0.0
    s = (z * z.conjugate()).real

    def integrand(t):
        st = t * t * s
        fv = F.F.eval(t * z)
        return 4.0 * np.real(z * np.conj(fv)) / (1.0 + st) ** 2

    rows = []
    n = 1
    a, b = 0.0, 1.0
    fa, fb = integrand(np.array([a]))[0], integrand(np.array([b]))[0]
    T = 0.5 * (b - a) * (fa + fb)
    rows.append([T])
    for level in range(1, ROMBERG_MAX_LEVELS):
        n *= 2
        mid = a + (b - a) * (np.arange(1, n, 2) / n)
        T = 0.5 * rows[-1][0] + (b - a) / n * integrand(mid).sum()
        row = [T]
        for k in range(1, level + 1):
            row.append(row[k - 1] + (row[k - 1] - rows[-1][k - 1]) / (4.0 ** k - 1.0))
        rows.append(row)
        best = rows[-1][-1]
        if level >= 3 and abs(best - rows[-2][-1]) < ROMBERG_TOL * (1.0 + abs(best)):
            return best
    return rows[-1][-1]


def totally_real_defect(r, xi):
    """(r11 - r22)^2 + (r12 + r21)^2, the squared modulus of ``hessian_combination``."""
    return np.abs(hessian_combination(r, xi)) ** 2


def hessian_combination(r, xi):
    """The complex jet combination (r11 - r22) + i (r12 + r21) at ``xi``.

    With d = d^2 r / dxi^2 the flat-chart combination is
    r11 - r22 = 4 Re d and r12 + r21 = -4 Im d, so it equals 4 conj(d).
    """
    d2 = r.r.d_xi().d_xi().eval(xi)
    return 4.0 * np.conj(d2)


def boundary_winding(r, loop):
    """Winding of (r11 - r22) + i (r12 + r21) around ``loop``.

    Requires the totally-real defect to stay at or above
    ``TOTALLY_REAL_DEFECT_FLOOR`` on the loop; this winding is a diagnostic
    that tracks the enclosed complex-point index of the corresponding section.
    A complex point can graze the loop with the defect still above the
    floor, so increments below pi are accepted at the sample cap.
    """
    d2 = r.r.d_xi().d_xi()   # built once, not at every sampling level
    return winding_of(
        lambda pts: 4.0 * np.conj(d2.eval(pts)), loop,
        min_mag=TOTALLY_REAL_DEFECT_FLOOR ** 0.5, cap_increment=np.pi,
    )
