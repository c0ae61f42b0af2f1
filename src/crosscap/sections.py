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
from functools import cached_property

import numpy as np

from .errors import NonPolynomialSupport, NotLagrangian
from .wirtinger import ONE_PLUS_S, MonomialField, RationalField, winding_of

# support_from_section's Lagrangian test: every coefficient of N - conj(N),
# N the numerator of d/dxi (F / (1+xi xibar)^2), is at most
# LAGRANGIAN_DEFECT_TOL * max(1, the largest coefficient modulus of N).
LAGRANGIAN_DEFECT_TOL = 1e-8
GRADIENT_SYMMETRY_REL_TOL = 1e-10  # conjugate-symmetry residual of an integrated gradient
ROMBERG_TOL = 1e-10                # radial_support_value: relative stopping tolerance
ROMBERG_MIN_LEVEL = 3              # first Romberg level the stopping rule may pass at
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

    @cached_property
    def lagrangian_derivative(self):
        """d/dxi (F / (1+xi xibar)^2), derived once per section.

        The section is Lagrangian exactly where this is real; its numerator
        equals its own conjugate exactly when that holds everywhere.
        """
        return RationalField(self.F.num, self.F.den_power + 2).d_xi()


def section_from_support(r):
    """Build the section F = (1/2) (1+xi xibar)^2 conj(dr/dxi).

    The result is polynomial whenever r is, and is independent of the
    additive constant in r.
    """
    F = 0.5 * (ONE_PLUS_S * ONE_PLUS_S * r.r.d_xi().conj())
    return SectionGraph(F=RationalField(F, 0))


def lagrangian_defect(F, xi):
    """|Im d/dxi (F / (1+xi xibar)^2)| at ``xi``; zero iff Lagrangian there."""
    vals = F.lagrangian_derivative.eval(xi)
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

    The integrability precondition is the exact identity N = conj(N) for the
    numerator N of ``F.lagrangian_derivative``: the denominator is a power of
    the real 1 + xi xibar, so the derivative is real on the whole chart
    exactly when N is.  It is tested coefficient by coefficient, to
    ``LAGRANGIAN_DEFECT_TOL`` times max(1, the largest coefficient modulus of
    N); failures raise ``NotLagrangian`` (the radial integral would be
    path-dependent).  Sections whose support is integrable but not polynomial
    raise ``NonPolynomialSupport``.
    """
    N = F.lagrangian_derivative.num
    if (N - N.conj()).max_abs_coeff() > LAGRANGIAN_DEFECT_TOL * max(1.0, N.max_abs_coeff()):
        raise NotLagrangian("d/dxi (F / (1+xi xibar)^2) is not a real field")
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

    The stopping rule cannot pass before level ``ROMBERG_MIN_LEVEL``, so the
    end points and the nodes of every level up to it are evaluated in one
    call, ordered by level; each later level is one call of its own.  Every
    value and every level sum is the one a call per level gives.
    """
    z = complex(xi)
    if z == 0:
        return 0.0
    s = (z * z.conjugate()).real

    def integrand(t):
        st = t * t * s
        fv = F.F.eval(t * z)
        return 4.0 * np.real(z * np.conj(fv)) / (1.0 + st) ** 2

    first = integrand(np.concatenate(
        [[0.0, 1.0]] + [np.arange(1, 2 ** k, 2) / 2 ** k for k in range(1, ROMBERG_MIN_LEVEL + 1)]
    ))
    rows = [[0.5 * (first[0] + first[1])]]
    for level in range(1, ROMBERG_MAX_LEVELS):
        n = 2 ** level
        if level <= ROMBERG_MIN_LEVEL:
            level_sum = first[n // 2 + 1:n + 1].sum()   # the n/2 nodes of this level
        else:
            level_sum = integrand(np.arange(1, n, 2) / n).sum()
        row = [0.5 * rows[-1][0] + 1.0 / n * level_sum]
        for k in range(1, level + 1):
            row.append(row[k - 1] + (row[k - 1] - rows[-1][k - 1]) / (4.0 ** k - 1.0))
        rows.append(row)
        best = row[-1]
        if level >= ROMBERG_MIN_LEVEL and abs(best - rows[-2][-1]) < ROMBERG_TOL * (1.0 + abs(best)):
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
