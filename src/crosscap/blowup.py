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
absence of complex points near the rim.  ``certify_totally_real`` counts the
roots of the bracket on each piece exactly, with a Sturm sequence.

No parameter changes the chart or the inner profiles, so they are module
constants, built once at import next to ``ONE``, ``S`` (nu nubar) and ``T``
(1 - nu nubar): ``XI_CHART`` (xi = T nu, the chart of every piece),
``T_SQ`` (T^2, the C1 inner profile and the outer t^2 term), ``C2_INNER``
(the C2 inner profile (1 + T^2 (1-T))^2 T^2) and ``C2_JET`` (Q, Q', Q'' of
that profile in the t slot, which ``c2_constants`` evaluates at the seam).
"""

import cmath
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
XI_CHART = T * NU                      # xi = (1 - nu nubar) nu
T_SQ = T * T
_C2_BASE = ONE + T_SQ * (ONE - T)
C2_INNER = _C2_BASE * _C2_BASE * T * T   # _c2_inner_profile's Q at t = T

INNER_RADIUS_FLOOR = 3.0 ** -0.5       # the factor 3s - 1 vanishes at s = 1/3

G_CRITICAL_TOL = 1e-10                 # g_critical_report's bound at (1, 1)


@dataclass(frozen=True)
class C1CrossCapParams:
    """Parameters of the C1 cross-cap.

    Requires 1 - eps < R0 < 1, (1 - eps)^2 > 1/3, a finite c and a finite
    nonzero alpha, the constant factor of eta.  For 1 < c < 9 the
    Hessian of g at (1, 1) is definite, which rules out complex points only
    for R0 close enough to 1: at R0 = 0.9, eps = 0.3 the outer piece carries
    two circles of complex points for every c above about 7.42.
    Certification reports them.
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
        if not (math.isfinite(self.c) and cmath.isfinite(self.alpha) and self.alpha != 0):
            raise BadParams("need a finite c and a finite nonzero alpha")


def c1_matching_constants(c, r0):
    """The C1 seam constants a = (c-1)(1-R0^2)^2, b = 2(1-c)(1-R0^2)."""
    t0 = 1.0 - r0 * r0
    return (c - 1.0) * t0 * t0, 2.0 * (1.0 - c) * t0


def _profile_surface(pieces_spec, eta_scale=1.0 + 0j):
    """Assemble a ParamSurface from (rho_in, rho_out, profile-in-t) triples."""
    pieces = []
    for rho_in, rho_out, profile in pieces_spec:
        pieces.append(
            ParamPiece(
                rho_in=rho_in,
                rho_out=rho_out,
                xi_expr=XI_CHART,
                eta_expr=profile * NUBAR2,
                eta_scale=eta_scale,
            )
        )
    return ParamSurface(pieces)


def build_c1_crosscap(p):
    """Two-piece C1 cross-cap: inner profile t^2, outer a + b t + c t^2, with
    eta scaled by alpha (kept as each piece's ``eta_scale``)."""
    a, b = c1_matching_constants(p.c, p.r0)
    outer = a * ONE + b * T + p.c * T_SQ
    return _profile_surface(
        [(1.0 - p.eps, p.r0, T_SQ), (p.r0, 1.0, outer)], eta_scale=p.alpha
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
    """The certificate of one piece.

    ``"sturm"``: the piece is a profile piece, W = nubar h(nu nubar) with
    h != 0, and ``root_count`` is the exact number of distinct common real
    roots of Re h and Im h on [rho_in^2, rho_out^2], ends included; each is a
    circle of complex points.  ``min_abs_w`` is the smallest
    |W| = r |h(r^2)| over ``radial_n`` radii and ``argmin_nu`` that radius.

    ``"grid"``: any other piece; |W| is swept on a (radius, angle) grid, the
    piece passes when no sample has |W| < min_mag (or NaN), and
    ``root_count`` is None: the grid counts no roots.
    """

    rho_in: float
    rho_out: float
    min_abs_w: float
    argmin_nu: complex
    certificate: str
    root_count: int | None
    passed: bool


@dataclass(frozen=True)
class CertificationReport:
    pieces: tuple
    min_abs_w: float
    passed: bool


def certify_totally_real(S, radial_n=256, angular_n=256, min_mag=1e-6):
    """Certify that no piece of ``S`` carries a complex point (W = 0).

    A profile piece gets the exact Sturm certificate; only a piece whose
    defect is not nubar times a polynomial in nu nubar falls back to the
    grid sweep, which alone uses ``angular_n`` and ``min_mag``.  The
    certificate reads ``eta_expr``, not the rounded ``eta``: a constant
    ``eta_scale`` changes no zero of W.  Seams are
    approached one-sidedly: each piece is certified with its own polynomial
    up to and including its boundary radii.
    """
    if radial_n < 64 or angular_n < 64:
        raise BadParams("certification grids must be at least 64 x 64")
    certs = []
    for piece in S.pieces:
        exact_h = _exact_profile_h(piece)
        if exact_h is None:
            certs.append(_grid_certificate(piece, radial_n, angular_n, min_mag))
        else:
            certs.append(_sturm_certificate(piece, exact_h, radial_n))
    return CertificationReport(
        pieces=tuple(certs),
        min_abs_w=min(c.min_abs_w for c in certs),
        passed=all(c.passed for c in certs),
    )


def _exact_profile_h(piece):
    """h as exact integer pairs ``(Re, Im)`` over a common denominator,
    ``(coefficients lowest degree first, denominator)``, when
    W = nubar h(nu nubar) with h != 0; None otherwise.

    W / eta_scale = d_eta dbar_xi - dbar_eta d_xi with eta = ``eta_expr`` is
    expanded exactly from the float coefficients of the chart maps, not from
    the rounded ``defect_field``:
    the monomials a nu^m1 nubar^n1 of eta and b nu^m2 nubar^n2 of xi
    contribute (m1 n2 - n1 m2) a b to the one monomial
    nu^(m1+m2-1) nubar^(n1+n2-1).
    """
    xi, xi_den = _integer_terms(piece.xi_expr)
    eta, eta_den = _integer_terms(piece.eta_expr)
    w = {}
    for (m1, n1), (a, b) in eta.items():
        for (m2, n2), (c, d) in xi.items():
            weight = m1 * n2 - n1 * m2
            if weight:
                key = (m1 + m2 - 1, n1 + n2 - 1)
                re, im = w.get(key, (0, 0))
                w[key] = (re + weight * (a * c - b * d), im + weight * (a * d + b * c))
    h = {}
    for (m, n), coeff in w.items():
        if coeff != (0, 0):
            if n != m + 1:
                return None
            h[m] = coeff
    if not h:
        return None
    return [h.get(k, (0, 0)) for k in range(max(h) + 1)], xi_den * eta_den


def _integer_terms(field):
    """The coefficients of ``field`` as integer pairs (re, im) over one common
    denominator, returned alongside.  Float denominators are powers of two,
    so the largest is a multiple of every other."""
    ratios = {
        k: (c.real.as_integer_ratio(), c.imag.as_integer_ratio())
        for k, c in field.terms().items()
    }
    den = max((d for pair in ratios.values() for _, d in pair), default=1)
    return {k: tuple(n * (den // d) for n, d in pair) for k, pair in ratios.items()}, den


def _sturm_certificate(piece, exact_h, radial_n):
    coeffs, den = exact_h
    lo, hi = Fraction(piece.rho_in), Fraction(piece.rho_out)
    roots = _common_root_count(
        [re for re, _ in coeffs], [im for _, im in coeffs], lo * lo, hi * hi
    )
    radii = np.linspace(piece.rho_in, piece.rho_out, radial_n)
    s = radii * radii
    acc = np.zeros(radial_n, dtype=complex)
    for re, im in reversed(coeffs):
        # integer true division rounds correctly, as float(Fraction(re, den)) does
        acc = complex(re / den, im / den) + acc * s
    vals = abs(piece.eta_scale) * radii * np.abs(acc)
    k = int(np.argmin(vals))
    return PieceCertification(
        rho_in=piece.rho_in,
        rho_out=piece.rho_out,
        min_abs_w=float(vals[k]),
        argmin_nu=complex(radii[k]),
        certificate="sturm",
        root_count=roots,
        passed=roots == 0,
    )


def _grid_certificate(piece, radial_n, angular_n, min_mag):
    theta = 2.0 * np.pi * np.arange(angular_n) / angular_n
    radii = np.linspace(piece.rho_in, piece.rho_out, radial_n)
    grid = radii[:, None] * np.exp(1j * theta)[None, :]
    vals = np.abs(piece.defect_field().eval(grid))
    k = int(np.argmin(vals))
    return PieceCertification(
        rho_in=piece.rho_in,
        rho_out=piece.rho_out,
        min_abs_w=float(vals.flat[k]),
        argmin_nu=complex(grid.flat[k]),
        certificate="grid",
        root_count=None,
        passed=bool(np.all(vals >= min_mag)),
    )


# -- exact root counting over the integers ----------------------------------
# Polynomials are lists of Python ints, lowest degree first, with no trailing
# zeros; scaling by a positive integer changes neither roots nor signs.


def _primitive(p):
    while p and p[-1] == 0:
        p = p[:-1]
    g = math.gcd(*p) if p else 1
    return [c // g for c in p] if g > 1 else p


def _negated_remainder(a, b):
    """A positive multiple of -(a mod b), made primitive.

    Pseudo-division multiplies a by lead(b) before each step, so the
    remainder it leaves is lead(b)^steps (a mod b); the sign of that factor
    is undone.
    """
    lead, steps = b[-1], 0
    while len(a) >= len(b):
        q, shift = a[-1], len(a) - len(b)
        a = [lead * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = a[:-1]
        while a and a[-1] == 0:
            a.pop()
        steps += 1
    flip = lead < 0 and steps % 2
    return _primitive(a if flip else [-c for c in a])


def _sturm_chain(p):
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while chain[-1]:
        chain.append(_negated_remainder(chain[-2], chain[-1]))
    chain.pop()
    return chain


def _exact_quotient(a, b):
    """a / b for integer polynomials where b is primitive and divides a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        q[shift] = a[shift + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= q[shift] * c
    return q


def _sign_at(p, x):
    """Sign of p at the rational x, from den^deg p(num/den) in integers."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sign_changes(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _common_root_count(re, im, lo, hi):
    """Distinct common real roots of two integer polynomials on [lo, hi].

    Their gcd carries exactly the common roots (gcd(p, 0) = p); Sturm's
    theorem counts the roots of its squarefree part in (lo, hi], and a root
    at lo is added.
    """
    a, b = _primitive(re), _primitive(im)
    while b:
        a, b = b, _negated_remainder(a, b)
    chain = _sturm_chain(a)
    if len(chain[-1]) > 1:          # repeated roots: gcd(a, a') has degree > 0
        chain = _sturm_chain(_primitive(_exact_quotient(a, chain[-1])))
    return _sign_changes(chain, lo) - _sign_changes(chain, hi) + (_sign_at(chain[0], lo) == 0)


def _c2_inner_profile():
    """Q(t) = (1 + t^2 (1-t))^2 t^2 as a univariate field in the t slot."""
    t = MonomialField.monomial(1, 0)
    one = MonomialField.constant(1.0)
    base = one + t * t * (one - t)
    return base * base * t * t


_C2_Q = _c2_inner_profile()
C2_JET = (_C2_Q, _C2_Q.d_xi(), _C2_Q.d_xi().d_xi())


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
    q0, q1, q2 = (complex(q.eval_pair(t0, 0.0)).real for q in C2_JET)
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
    outer = consts.a * ONE + consts.b * T + consts.c * T_SQ
    return _profile_surface([(inner_radius, r0, C2_INNER), (r0, 1.0, outer)])


@dataclass(frozen=True)
class SeamReport:
    """Value and radial-derivative jumps across one seam radius.

    Each jump is the exact sup over the seam circle when the jump field has
    one delta = m - n class (every profile piece), and an upper bound on it
    otherwise; ``seam_report`` says how.
    """

    seam_radius: float
    xi_jumps: tuple
    eta_jumps: tuple
    certified_order: int
    tol: float


def _radial_jets(field, rho, order):
    """delta -> [p_delta^(k)(rho) for k <= order]: on the ray nu = R u with
    |u| = 1, a term c nu^m nubar^n is c R^(m+n) u^delta with delta = m - n."""
    jets = {}
    for (m, n), c in field.terms().items():
        jet = jets.setdefault(m - n, [0j] * (order + 1))
        for k in range(min(m + n, order) + 1):
            jet[k] += c * math.perm(m + n, k) * rho ** (m + n - k)
    return jets


def seam_report(S, order=2, tol=1e-9):
    """Jumps of the chart components and their radial derivatives at each seam.

    On the seam circle |nu| = rho the k-th radial derivative of a field is
    sum_delta u^delta p_delta^(k)(rho), |u| = 1.  The k-th jump is
    sum_delta |p_delta^(k)| of left minus right: the exact sup of the jump
    over the circle when one delta occurs (xi = T nu and eta = P(T) nubar^2
    on every profile piece), and an upper bound on it otherwise.  A seam is
    certified to order k when every jump up to order k is at most ``tol``.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise BadParams(f"seam order must be a non-negative int, got {order!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise BadParams(f"seam tolerance must be finite and non-negative, got {tol!r}")
    none = [0j] * (order + 1)
    reports = []
    for left, right in zip(S.pieces, S.pieces[1:]):
        seam = left.rho_out
        jumps = []
        for fields in ((left.xi_expr, right.xi_expr), (left.eta, right.eta)):
            jl, jr = (_radial_jets(f, seam, order) for f in fields)
            deltas = jl.keys() | jr.keys()
            jumps.append(tuple(
                math.fsum(abs(jl.get(d, none)[k] - jr.get(d, none)[k]) for d in deltas)
                for k in range(order + 1)
            ))
        certified = -1
        while certified < order and all(j[certified + 1] <= tol for j in jumps):
            certified += 1
        reports.append(SeamReport(seam, *jumps, certified_order=certified, tol=tol))
    return reports


def simple_crosscap_surface(rho_in=INNER_RADIUS_FLOOR):
    """One-piece surface carrying the bare cross-cap embedding
    xi = (1 - nu nubar) nu, eta = nubar^2 on [rho_in, 1]."""
    return _profile_surface([(rho_in, 1.0, ONE)])
