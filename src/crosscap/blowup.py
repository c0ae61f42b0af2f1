"""Totally real blow-up: cross-cap surfaces that remove a hyperbolic complex point.

The cross-cap is an annulus 1-eps <= |nu| <= 1 mapped into line space by
xi = (1 - nu nubar) nu, with eta a piecewise polynomial profile in
t = 1 - nu nubar times nubar^2.  The boundary |nu| = 1 collapses to xi = 0
with nu and -nu identified, which is exactly a cross-cap (a projective
plane minus a disc).

Two constructions are provided: a two-piece C1 surface whose outer profile
a + b t + c t^2 matches the inner profile t^2 in value and first radial
derivative at the seam, and a C2 surface whose inner profile is
(1 + t^2 (1-t))^2 t^2 with the outer constants solved from a 3x3 value /
first / second derivative match.

Total reality is certified through the defect W = d_eta dbar_xi - dbar_eta d_xi.
For profile surfaces W factors as

    W = -[ s (1-s) P'(s) + 2 (1-2s) P(s) ] nubar,        s = nu nubar,

and for the C1 outer piece the bracket is 2 g(s, R0^2) for an explicit
bivariate polynomial g whose critical behaviour at (1,1) controls the
absence of complex points.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cpoints import ParamPiece, ParamSurface
from .errors import BadParams, FactorizationFailed
from .wirtinger import MonomialField

ONE = MonomialField.constant(1.0)
S = MonomialField({(1, 1): 1.0})       # nu nubar
T = ONE - S                            # 1 - nu nubar
NU = MonomialField.monomial(1, 0)
NUBAR = MonomialField.monomial(0, 1)
NUBAR2 = MonomialField.monomial(0, 2)

INNER_RADIUS_FLOOR = 3.0 ** -0.5       # the factor 3s - 1 vanishes at s = 1/3

G_CRITICAL_TOL = 1e-10                 # g_critical_report's bound at (1, 1)
SEAM_ANGLES = 64                       # seam_report's sample angles per seam


@dataclass(frozen=True)
class C1CrossCapParams:
    """Parameters of the C1 cross-cap.

    Requires 1 - eps < R0 < 1 and (1 - eps)^2 > 1/3; total reality is only
    guaranteed for 1 < c < 9 (outside that range circles of complex points
    may appear, which certification will report).
    """

    c: float
    r0: float
    eps: float
    alpha: complex = 1.0 + 0j

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0 and 1.0 - self.eps < self.r0 < 1.0):
            raise BadParams("need 1 - eps < R0 < 1 with 0 < eps < 1")
        if (1.0 - self.eps) ** 2 <= 1.0 / 3.0:
            raise BadParams("inner radius must satisfy (1 - eps)^2 > 1/3")


def c1_matching_constants(c, r0):
    """The C1 seam constants a = (c-1)(1-R0^2)^2, b = 2(1-c)(1-R0^2)."""
    t0 = 1.0 - r0 * r0
    return (c - 1.0) * t0 * t0, 2.0 * (1.0 - c) * t0


def _profile_surface(pieces_spec):
    """Assemble a ParamSurface from (rho_in, rho_out, profile-in-t) triples."""
    xi_expr = T * NU
    pieces = []
    for rho_in, rho_out, profile in pieces_spec:
        pieces.append(
            ParamPiece(
                rho_in=rho_in,
                rho_out=rho_out,
                xi_expr=xi_expr,
                eta_expr=profile * NUBAR2,
            )
        )
    return ParamSurface(pieces)


def build_c1_crosscap(p):
    """Two-piece C1 cross-cap: inner profile t^2, outer a + b t + c t^2."""
    a, b = c1_matching_constants(p.c, p.r0)
    inner = p.alpha * (T * T)
    outer = p.alpha * (a * ONE + b * T + p.c * (T * T))
    return _profile_surface(
        [(1.0 - p.eps, p.r0, inner), (p.r0, 1.0, outer)]
    )


@dataclass(frozen=True)
class RealityPolynomial:
    """The bivariate factor g(x, y) of the outer defect, W = -2 g(s, R0^2) nubar,
    together with the inner-piece factorization W = 2 (1-x)^2 (3x-1) nubar."""

    g: MonomialField
    inner_profile: MonomialField
    c: float
    y0: float


def derive_reality_polynomial(p):
    """Expand the outer defect symbolically and factor out -2 nubar.

    Works at alpha = 1 (W scales linearly in alpha).  The bivariate g is
    produced from the profile algebra in (x, y) = (nu nubar, R0^2) and then
    verified coefficient-by-coefficient against the exact Wirtinger
    expansion of W for this parameter choice; any mismatch raises
    ``FactorizationFailed``.
    """
    if p.alpha != 1:
        raise BadParams("derivation is normalized to alpha = 1")
    x = MonomialField.monomial(1, 0)   # slot 1: x = nu nubar
    y = MonomialField.monomial(0, 1)   # slot 2: y = R0^2
    one = MonomialField.constant(1.0)
    c = p.c
    a_y = (c - 1.0) * (one - y) * (one - y)
    b_y = 2.0 * (1.0 - c) * (one - y)
    P = a_y + b_y * (one - x) + c * (one - x) * (one - x)
    Px = P.d_xi()
    g = 0.5 * (x * (one - x) * Px + 2.0 * (one - 2.0 * x) * P)

    # independent route: exact Wirtinger expansion of the built surface
    surface = build_c1_crosscap(p)
    w_outer = surface.pieces[1].defect_field()
    try:
        bracket = w_outer.shift_down(0, 1) * (-0.5)  # W / (-2 nubar)
    except ValueError as exc:
        raise FactorizationFailed("outer defect is not divisible by nubar") from exc
    y0 = p.r0 * p.r0
    expected = {}
    for (i, j), coeff in g.terms().items():
        expected[(i, i)] = expected.get((i, i), 0j) + coeff * y0 ** j
    if not bracket.allclose(MonomialField(expected), tol=1e-10 * max(1.0, abs(c))):
        raise FactorizationFailed("profile-algebra g disagrees with the Wirtinger expansion")

    w_inner = surface.pieces[0].defect_field()
    inner = 2.0 * (one - x) * (one - x) * (3.0 * x - one)
    expected_inner = MonomialField(
        {(i, i + 1): coeff for (i, _), coeff in inner.terms().items()}
    )
    if not w_inner.allclose(expected_inner, tol=1e-12):
        raise FactorizationFailed("inner defect does not factor as 2 (1-x)^2 (3x-1) nubar")
    return RealityPolynomial(g=g, inner_profile=inner, c=c, y0=y0)


@dataclass(frozen=True)
class GCriticalReport:
    """Critical behaviour of g at (x, y) = (1, 1)."""

    value: float
    grad: tuple
    gxx: float
    gyy: float
    gxy: float
    hessian_det: float
    expected_det_abs: float
    definiteness: str
    value_ok: bool
    grad_ok: bool
    det_ok: bool
    definite_in_range: bool


def g_critical_report(g, c):
    """Evaluate g and its derivatives at (1,1) and classify the Hessian."""
    tol = G_CRITICAL_TOL
    gx = g.d_xi()
    gy = g.d_xibar()
    val = complex(g.eval_pair(1.0, 1.0)).real
    grad = (
        complex(gx.eval_pair(1.0, 1.0)).real,
        complex(gy.eval_pair(1.0, 1.0)).real,
    )
    gxx = complex(gx.d_xi().eval_pair(1.0, 1.0)).real
    gyy = complex(gy.d_xibar().eval_pair(1.0, 1.0)).real
    gxy = complex(gx.d_xibar().eval_pair(1.0, 1.0)).real
    det = gxx * gyy - gxy * gxy
    expected = abs((9.0 - c) * (c - 1.0))
    if det > tol:
        definiteness = "negative-definite" if gxx < 0 else "positive-definite"
    elif det < -tol:
        definiteness = "indefinite"
    else:
        definiteness = "degenerate"
    return GCriticalReport(
        value=val,
        grad=grad,
        gxx=gxx,
        gyy=gyy,
        gxy=gxy,
        hessian_det=det,
        expected_det_abs=expected,
        definiteness=definiteness,
        value_ok=abs(val) <= tol,
        grad_ok=max(abs(grad[0]), abs(grad[1])) <= tol,
        det_ok=abs(abs(det) - expected) <= tol * max(1.0, expected),
        definite_in_range=(
            definiteness in ("negative-definite", "positive-definite")
        )
        == (1.0 < c < 9.0),
    )


@dataclass(frozen=True)
class PieceCertification:
    rho_in: float
    rho_out: float
    min_abs_w: float
    argmin_nu: complex


@dataclass(frozen=True)
class CertificationReport:
    pieces: tuple
    min_abs_w: float
    passed: bool
    min_mag: float


def certify_totally_real(S, radial_n=256, angular_n=256, min_mag=1e-6):
    """Sweep |W| over every piece on a (radius, angle) grid.

    Seams are approached one-sidedly: each piece is evaluated with its own
    polynomial up to and including its boundary radii.
    """
    if radial_n < 64 or angular_n < 64:
        raise BadParams("certification grids must be at least 64 x 64")
    theta = 2.0 * np.pi * np.arange(angular_n) / angular_n
    phases = np.exp(1j * theta)
    certs = []
    overall = np.inf
    for piece in S.pieces:
        w_field = piece.defect_field()
        radii = np.linspace(piece.rho_in, piece.rho_out, radial_n)
        grid = radii[:, None] * phases[None, :]
        vals = np.abs(w_field.eval(grid))
        k = int(np.argmin(vals))
        certs.append(
            PieceCertification(
                rho_in=piece.rho_in,
                rho_out=piece.rho_out,
                min_abs_w=float(vals.flat[k]),
                argmin_nu=complex(grid.flat[k]),
            )
        )
        overall = min(overall, float(vals.flat[k]))
    return CertificationReport(
        pieces=tuple(certs),
        min_abs_w=overall,
        passed=overall >= min_mag,
        min_mag=min_mag,
    )


def _c2_inner_profile():
    """Q(t) = (1 + t^2 (1-t))^2 t^2 as a univariate field in the t slot."""
    t = MonomialField.monomial(1, 0)
    one = MonomialField.constant(1.0)
    base = one + t * t * (one - t)
    return base * base * t * t


@dataclass(frozen=True)
class C2Constants:
    """Solver constants for the C2 seam plus the quoted closed forms and
    their residuals against the same match conditions."""

    a: float
    b: float
    c: float
    quoted: tuple
    quoted_value_residual: float
    quoted_d1_residual: float
    quoted_d2_residual: float


def _fma(x, y, z):
    """x * y + z with a single rounding, as a fused multiply-add."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


def c2_constants(r0):
    """Solve the C2 seam match and compare with the closed-form constants
    quoted for this construction.

    The outer profile a + b t + c t^2 must match Q(t) = (1 + t^2(1-t))^2 t^2
    in value, first and second derivative at t0 = 1 - R0^2; the solution of
    that triangular system is the ground truth.  The quoted polynomials in R0
    are evaluated alongside and their seam residuals reported.
    """
    if not (INNER_RADIUS_FLOOR < r0 < 1.0):
        raise BadParams("need 3^(-1/2) < R0 < 1")
    t0 = 1.0 - r0 * r0
    Q = _c2_inner_profile()
    q0 = complex(Q.eval_pair(t0, 0.0)).real
    q1 = complex(Q.d_xi().eval_pair(t0, 0.0)).real
    q2 = complex(Q.d_xi().d_xi().eval_pair(t0, 0.0)).real
    # the match matrix [[1, t0, t0^2], [0, 1, 2 t0], [0, 0, 2]] is upper
    # triangular with determinant 2: back-substitute, each step rounded once
    # (the bits of a LAPACK solve on hardware with fused multiply-add)
    c = q2 / 2.0
    b = _fma(-2.0 * t0, c, q1)
    a = _fma(-b, t0, _fma(-c, t0 * t0, q0))

    y = r0 * r0
    a_q = -((1.0 - y) ** 4) * (5.0 + 2.0 * y - 46.0 * y ** 2 + 54.0 * y ** 3 - 21.0 * y ** 4)
    b_q = -2.0 * (1.0 - y) ** 3 * (6.0 - 51.0 * y ** 2 + 61.0 * y ** 3 - 24.0 * y ** 4)
    c_q = (
        -6.0 + 18.0 * y + 42.0 * y ** 2 - 180.0 * y ** 3
        + 225.0 * y ** 4 - 126.0 * y ** 5 + 28.0 * y ** 6
    )
    return C2Constants(
        a=a,
        b=b,
        c=c,
        quoted=(a_q, b_q, c_q),
        quoted_value_residual=a_q + b_q * t0 + c_q * t0 * t0 - q0,
        quoted_d1_residual=b_q + 2.0 * c_q * t0 - q1,
        quoted_d2_residual=2.0 * c_q - q2,
    )


def build_c2_crosscap(r0, inner_radius=0.6):
    """Two-piece C2 cross-cap on [inner_radius, R0] and [R0, 1].

    The construction lives on the open range 3^(-1/2) < |nu| <= 1: the
    defect vanishes exactly at |nu| = 3^(-1/2), so a closed representative
    must start strictly inside (default Gauss radius 0.6, s = 0.36 > 1/3).
    The outer constants are the solver's; ``c2_constants`` also reports the
    quoted ones and their seam residuals.
    """
    consts = c2_constants(r0)
    if not (INNER_RADIUS_FLOOR < inner_radius < r0):
        raise BadParams("inner radius must satisfy 3^(-1/2) < inner_radius < R0")
    inner = _c2_inner_profile()
    # re-express Q(t) in the surface variables: t = 1 - nu nubar
    inner_field = MonomialField.zero()
    tk = ONE
    by_power = {}
    for (k, _), coeff in inner.terms().items():
        by_power[k] = coeff
    for k in range(max(by_power) + 1):
        if k in by_power:
            inner_field = inner_field + by_power[k] * tk
        tk = tk * T
    outer = consts.a * ONE + consts.b * T + consts.c * (T * T)
    return _profile_surface(
        [(inner_radius, r0, inner_field), (r0, 1.0, outer)]
    )


@dataclass(frozen=True)
class SeamReport:
    """Value and radial-derivative jumps across one seam radius."""

    seam_radius: float
    xi_jumps: tuple
    eta_jumps: tuple
    certified_order: int
    tol: float


def _radial_derivative_values(expr, order, points):
    """k-th radial derivative of expr along rays, evaluated at ``points``.

    d/dR pulls back to u d/dnu + conj(u) d/dnubar with u = nu/|nu| constant
    along each ray, so the k-th derivative is the binomial sum of mixed
    Wirtinger derivatives weighted by powers of u and conj(u).
    """
    u = points / np.abs(points)
    total = np.zeros_like(points, dtype=complex)
    for j in range(order + 1):
        fld = expr
        for _ in range(order - j):
            fld = fld.d_xi()
        for _ in range(j):
            fld = fld.d_xibar()
        total += math.comb(order, j) * u ** (order - j) * np.conj(u) ** j * fld.eval(points)
    return total


def seam_report(S, order=2, tol=1e-9):
    """Jumps of the chart components and their radial derivatives at each seam."""
    reports = []
    theta = 2.0 * np.pi * np.arange(SEAM_ANGLES) / SEAM_ANGLES
    for left, right in zip(S.pieces, S.pieces[1:]):
        seam = left.rho_out
        pts = seam * np.exp(1j * theta)
        xi_jumps = []
        eta_jumps = []
        for k in range(order + 1):
            dxi = _radial_derivative_values(left.xi_expr, k, pts) - _radial_derivative_values(
                right.xi_expr, k, pts
            )
            deta = _radial_derivative_values(left.eta_expr, k, pts) - _radial_derivative_values(
                right.eta_expr, k, pts
            )
            xi_jumps.append(float(np.max(np.abs(dxi))))
            eta_jumps.append(float(np.max(np.abs(deta))))
        certified = -1
        for k in range(order + 1):
            if xi_jumps[k] <= tol and eta_jumps[k] <= tol:
                certified = k
            else:
                break
        reports.append(
            SeamReport(
                seam_radius=seam,
                xi_jumps=tuple(xi_jumps),
                eta_jumps=tuple(eta_jumps),
                certified_order=certified,
                tol=tol,
            )
        )
    return reports


def simple_crosscap_surface(rho_in=INNER_RADIUS_FLOOR):
    """One-piece surface carrying the bare cross-cap embedding
    xi = (1 - nu nubar) nu, eta = nubar^2 on [rho_in, 1]."""
    return ParamSurface(
        [ParamPiece(rho_in=rho_in, rho_out=1.0, xi_expr=T * NU, eta_expr=NUBAR2)]
    )
