"""Detection, classification and index computation for complex points.

A point of a parameterized surface nu -> (xi(nu, nubar), eta(nu, nubar)) is
complex exactly when

    W(nu) = d_eta dbar_xi - dbar_eta d_xi = 0,

and on a graph section eta = F(xi, xibar) the condition collapses to
dbar F = 0.  The integer index of an isolated complex point is the winding
of dbar F around a small loop; an index of +1 is called elliptic, -1
hyperbolic.  The umbilic index of the orthogonal surface in 3-space is half
the complex index.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadParams,
    DegenerateQuadratic,
    DegenerateZeroCurve,
    OnSeam,
    UnresolvedWinding,
    VanishingOnLoop,
)
from .wirtinger import Loop, MonomialField, require_radius, winding_of

SEAM_EPS = 1e-12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
MAX_SHRINKS = 8
MAX_GRID_N = 1024  # find_complex_points doubles its grid up to this size
QUADRATIC_BOUNDARY_REL_TOL = 1e-12  # quadratic_model_index's degenerate band, relative


@dataclass(frozen=True)
class ParamPiece:
    """One annular piece rho_in <= |nu| <= rho_out with polynomial chart data.

    The chart is xi = ``xi_expr`` and eta = ``eta_scale`` * ``eta_expr``.  W is
    linear in eta, so a constant factor kept outside the coefficients leaves
    the zero set of W exactly that of ``eta_expr``; multiplied in, it would be
    rounded into each real and imaginary part separately.
    """

    rho_in: float
    rho_out: float
    xi_expr: MonomialField
    eta_expr: MonomialField
    eta_scale: complex = 1.0 + 0j

    def __post_init__(self):
        if not (cmath.isfinite(self.eta_scale) and self.eta_scale != 0):
            raise BadParams(f"eta_scale must be finite and nonzero, got {self.eta_scale!r}")
        for field in (self.xi_expr, self.eta_expr):
            if not all(cmath.isfinite(c) for c in field.terms().values()):
                raise BadParams("chart coefficients must be finite")

    @property
    def eta(self):
        """eta as one field, with ``eta_scale`` multiplied into the coefficients."""
        return self.eta_expr if self.eta_scale == 1 else self.eta_scale * self.eta_expr

    def defect_field(self):
        """W = d_eta dbar_xi - dbar_eta d_xi as an exact polynomial field."""
        eta = self.eta
        return eta.d_xi() * self.xi_expr.d_xibar() - eta.d_xibar() * self.xi_expr.d_xi()


class ParamSurface:
    """An ordered stack of contiguous annular pieces sharing seam radii."""

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("a surface needs at least one piece")
        radii = []
        for p in pieces:
            if not p.rho_in < p.rho_out:
                raise ValueError("piece radii must be strictly increasing")
            radii.extend((p.rho_in, p.rho_out))
        for a, b in zip(pieces, pieces[1:]):
            if a.rho_out != b.rho_in:
                raise ValueError("pieces must be contiguous and non-overlapping")
        if sorted(radii) != radii:
            raise ValueError("piece radii must be globally increasing")
        self.pieces = pieces

    def seam_radii(self):
        """Interior radii shared by consecutive pieces."""
        return [p.rho_out for p in self.pieces[:-1]]

    def piece_index(self, radius):
        for i, p in enumerate(self.pieces):
            if p.rho_in <= radius <= p.rho_out:
                return i
        raise ValueError(f"radius {radius:g} is outside the surface annuli")


def surface_defect(S, nu):
    """Evaluate W at a point strictly inside one piece.

    Points within ``SEAM_EPS`` of a seam radius are ambiguous between two
    polynomial expressions and raise ``OnSeam``.
    """
    radius = abs(nu)
    for seam in S.seam_radii():
        if abs(radius - seam) <= SEAM_EPS:
            raise OnSeam(f"|nu| = {radius:g} sits on the seam at {seam:g}")
    piece = S.pieces[S.piece_index(radius)]
    return piece.defect_field().eval(nu)


def classify_index(index):
    return {1: "elliptic", -1: "hyperbolic"}.get(index, "degenerate")


@dataclass(frozen=True)
class ComplexPointReport:
    """An isolated complex point: location, classification, index and the
    loop radius that certified the index."""

    location: complex
    kind: str
    index: int
    loop_radius: float

    def __post_init__(self):
        if self.kind != classify_index(self.index):
            raise ValueError(f"kind {self.kind!r} inconsistent with index {self.index}")

    @property
    def umbilic_index(self):
        return Fraction(self.index, 2)


def section_complex_index(F, xi0, loop_radius):
    """Integer winding of dbar F around a loop centered at ``xi0``.

    The loop shrinks by halves (up to 8 times) when dbar F vanishes on it;
    the umbilic index of the orthogonal surfaces is half the returned value.
    """
    index, _ = _index_with_radius(F.F.d_xibar(), xi0, loop_radius)
    return index


def _index_with_radius(W, xi0, loop_radius):
    """Winding of dbar F (the field ``W``) and the loop radius that gave it."""
    radius = float(loop_radius)
    last = None
    for _ in range(MAX_SHRINKS + 1):
        loop = Loop(xi0, radius)
        try:
            return winding_of(lambda pts: W.eval(pts), loop), radius
        except VanishingOnLoop as exc:
            last = exc
            radius *= 0.5
    raise VanishingOnLoop(
        f"dbar F still vanishes on loops around {xi0} after {MAX_SHRINKS} shrinks"
    ) from last


def _sign_change_cells(values):
    sgn = np.sign(values)
    cmax = np.maximum.reduce([sgn[:-1, :-1], sgn[:-1, 1:], sgn[1:, :-1], sgn[1:, 1:]])
    cmin = np.minimum.reduce([sgn[:-1, :-1], sgn[:-1, 1:], sgn[1:, :-1], sgn[1:, 1:]])
    return (cmax >= 0) & (cmin <= 0)


def _disc_grid(center, radius, grid_n):
    """The square grid_n x grid_n lattice around the disc, and its step."""
    ax = np.linspace(-radius, radius, grid_n)
    return center + ax[None, :] + 1j * ax[:, None], float(ax[1] - ax[0])


def _isolated_zeros(W, center, radius, grid_n):
    """Isolated zeros of dbar F (the field ``W``) in a disc, each with a
    winding-loop radius: the complex points of a section, at which
    ``euclid.principal_analysis`` also locates umbilics.

    Cells of the ``_disc_grid`` lattice where both the real and the imaginary
    part of W change sign are seeded from their corner of least modulus, and
    one array Newton iteration with the exact Jacobian runs every seed.  A
    seed is dropped when its Jacobian is singular, when an iterate leaves the
    disc widened by one grid step, so that no evaluation leaves the chart, or
    when |W| is not below ``NEWTON_TOL`` after ``NEWTON_MAX_ITER`` steps.
    Roots closer than half a grid step merge into the one from the better
    seed.

    Returns ``(zero, loop_radius)`` for the zeros in the closed disc, nearest
    the center first.  The loop radius is half the distance to the nearest
    other zero or to the rim (at least a step away), and at least a quarter
    step.
    """
    grid, step = _disc_grid(center, radius, grid_n)
    values = W.eval(grid)
    mag = np.abs(values)
    i, j = np.nonzero(_sign_change_cells(values.real) & _sign_change_cells(values.imag))
    corner = np.argmin([mag[i, j], mag[i, j + 1], mag[i + 1, j], mag[i + 1, j + 1]], axis=0)
    is_seed = np.zeros(grid.shape, dtype=bool)
    is_seed[i + corner // 2, j + corner % 2] = True
    seeds = np.flatnonzero(is_seed)
    seeds = seeds[np.argsort(mag.flat[seeds], kind="stable")]
    z = grid.flat[seeds]
    bound = radius + step
    rank = np.flatnonzero(np.abs(z - center) <= bound)
    z = z[rank]

    Wxi, Wxibar = W.d_xi(), W.d_xibar()
    found = []
    for it in range(NEWTON_MAX_ITER + 1):
        w = W.eval(z)
        done = np.abs(w) < NEWTON_TOL
        found.extend(zip(rank[done], z[done]))
        z, w, rank = z[~done], w[~done], rank[~done]
        if it == NEWTON_MAX_ITER or not z.size:
            break
        dz, dzb = Wxi.eval(z), Wxibar.eval(z)
        dx, dy = dz + dzb, 1j * (dz - dzb)
        det = dx.real * dy.imag - dy.real * dx.imag
        # a singular Jacobian gives a non-finite iterate, which the disc test drops
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_x1 = (dy.imag * w.real - dy.real * w.imag) / det
            delta_x2 = (dx.real * w.imag - dx.imag * w.real) / det
        z = z - (delta_x1 + 1j * delta_x2)
        keep = np.abs(z - center) <= bound
        z, rank = z[keep], rank[keep]

    roots = []
    for _, root in sorted(found, key=lambda pair: pair[0]):
        if all(abs(root - other) >= 0.5 * step for other in roots):
            roots.append(complex(root))
    roots = sorted(
        (z for z in roots if abs(z - center) <= radius),
        key=lambda z: (abs(z - center), z.real, z.imag),
    )
    out = []
    for z in roots:
        gap = min((abs(z - other) for other in roots if other != z), default=float("inf"))
        to_rim = max(radius - abs(z - center), step)
        out.append((z, max(0.5 * min(gap, to_rim), 0.25 * step)))
    return out


def find_complex_points(F, center=0j, radius=1.0, grid_n=64):
    """Locate and classify the zeros of dbar F inside a disc.

    ``_isolated_zeros`` finds each zero, and the index comes from a winding
    loop of half the distance to the nearest other zero.  The indices must
    sum to the winding of dbar F on the rim ``Loop(center, radius)``; a zero
    the grid missed breaks that sum, and the search runs again on a grid of
    twice the size, up to ``MAX_GRID_N``.  Reports are returned unchecked
    when the rim winding itself cannot be computed (dbar F vanishes on the
    rim, or its increments stay unresolved there).  Raises
    ``DegenerateZeroCurve`` when the zeros are not isolated (a vanishing
    field, or winding loops that cannot avoid zeros) or when the sum still
    differs at the largest grid.
    """
    require_radius(radius, "disc radius")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    W = F.F.d_xibar()
    if not W.num:
        raise DegenerateZeroCurve("dbar F vanishes identically on the disc")
    rim = None
    while True:
        reports = _complex_point_reports(W, center, radius, grid_n)
        if rim is None:
            try:
                rim = winding_of(W.eval, Loop(center, radius))
            except (VanishingOnLoop, UnresolvedWinding):
                return reports
        total = sum(rep.index for rep in reports)
        if total == rim:
            return reports
        if grid_n >= MAX_GRID_N:
            raise DegenerateZeroCurve(
                f"indices of the zeros found sum to {total}, but dbar F winds {rim} times"
                f" around the rim, still at grid_n {grid_n}"
            )
        grid_n = min(2 * grid_n, MAX_GRID_N)


def _complex_point_reports(W, center, radius, grid_n):
    """One report per zero ``_isolated_zeros`` finds on a ``grid_n`` grid."""
    reports = []
    for z, loop_radius in _isolated_zeros(W, center, radius, grid_n):
        try:
            index, used = _index_with_radius(W, z, loop_radius)
        except (VanishingOnLoop, UnresolvedWinding) as exc:
            raise DegenerateZeroCurve(
                f"zero at {z} is not isolated: every winding loop meets more zeros"
            ) from exc
        reports.append(
            ComplexPointReport(
                location=z, kind=classify_index(index), index=index, loop_radius=used
            )
        )
    return reports


def quadratic_model_index(alpha, beta):
    """Index of the quadratic model eta = alpha xibar^2 + beta xi xibar at 0.

    dbar of the model on the unit loop is 2 alpha xibar + beta xi, whose
    winding is -1 when 2|alpha| > |beta| (hyperbolic) and +1 when
    2|alpha| < |beta| (elliptic).  The winding computation is the ground
    truth; the modulus comparison only guards the degenerate boundary.
    """
    a, b = complex(alpha), complex(beta)
    scale = 2.0 * abs(a) + abs(b)
    if scale == 0 or abs(2.0 * abs(a) - abs(b)) <= QUADRATIC_BOUNDARY_REL_TOL * scale:
        raise DegenerateQuadratic("2|alpha| = |beta|: the model winding is undefined")
    return winding_of(lambda pts: 2.0 * a * np.conj(pts) + b * pts, Loop(0j, 1.0))
