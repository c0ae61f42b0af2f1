"""Reconstruction of surfaces in Euclidean 3-space from line-space data.

The correspondence between a line (xi, eta), a signed distance r along it,
and the Euclidean point it passes through is

    x1 + i x2 = [ 2 (eta - etabar xi^2) + 2 xi (1 + xi xibar) r ] / (1 + xi xibar)^2
    x3        = [ -2 (eta xibar + etabar xi) + (1 - xi^2 xibar^2) r ] / (1 + xi xibar)^2.

The r-coefficient of this map is exactly the direction vector U(xi), so for
a support pair (F, r) the mesh x(xi) = point(xi, F(xi), r(xi) + C) satisfies
x . U = r + C and is orthogonal to its lines, and changing C translates every
vertex by (Delta C) U(xi) (parallel surfaces).

Umbilics are located at the zeros of dbar F, the complex points of the
section, found by the zero finder of ``cpoints``.  The shape operator, built
from the first and second fundamental forms with the sphere direction U as
the unit normal, confirms each one: its traceless part p + i q in an
orthonormal tangent frame must vanish there, and the winding of p + i q,
halved, is the index of the principal foliation.  The tangents of the
surface come by the chain rule from the jets of the section and the support
(F, dF/dxi, dF/dxibar, r and dr/dxi, exact fields of the size of F and r),
and U and its derivatives are closed forms in xi.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cpoints import _disc_grid, _isolated_zeros
from .errors import EmptyMesh, NotImmersed
from .linespace import direction_vector, line_to_vectors, vectors_to_line
from .wirtinger import Loop, _is_int, require_radius, winding_of

ORTHOGONALITY_STEP = 1e-3      # chart step of support_property_check's differences
# principal_analysis, relative to the shape-operator scale: a defect at or below
# FLAT_DEFECT_TOL everywhere means totally umbilic, and a zero whose defect
# exceeds UMBILIC_DEFECT_TOL is no umbilic.
FLAT_DEFECT_TOL = 1e-10
UMBILIC_DEFECT_TOL = 1e-8
MIN_MESH_GRID = (2, 3)         # the smallest (rows, cols) a mesh accepts


def point_from_line(xi, eta, r_value):
    """Euclidean point at signed distance ``r_value`` along the line (xi, eta).

    Broadcasts over ndarray inputs; the result has one trailing axis of
    length 3.
    """
    z = np.asarray(xi, dtype=complex)
    e = np.asarray(eta, dtype=complex)
    r = np.asarray(r_value, dtype=float)
    s = (z * np.conj(z)).real
    den = (1.0 + s) ** 2
    w = (2.0 * (e - np.conj(e) * z * z) + 2.0 * z * (1.0 + s) * r) / den
    x3 = (-2.0 * (e * np.conj(z) + np.conj(e) * z) + (1.0 - s * s) * r) / den
    return np.stack([w.real, w.imag, x3.real], axis=-1)


class MeshR3:
    """Structured grid of surface points over a (radius, angle) style lattice.

    ``points`` has shape (rows, cols, 3); ``xis`` carries the Gauss-map
    parameter per vertex; ``u_values`` / ``v_values`` are the lattice
    parameters along rows and columns.  Optional per-vertex scalar channels
    ride along in ``scalars``.
    """

    def __init__(self, points, xis, u_values, v_values, scalars=None):
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            raise EmptyMesh("mesh grid is empty")
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError("points must have shape (rows, cols, 3)")
        rows, cols = points.shape[:2]
        min_rows, min_cols = MIN_MESH_GRID
        if rows < min_rows or cols < min_cols:
            raise EmptyMesh(f"mesh grid {rows}x{cols} is below the {min_rows}x{min_cols} minimum")
        for axis in (0, 1):
            d = np.diff(points, axis=axis)
            if np.min(np.linalg.norm(d, axis=-1)) == 0.0:
                raise ValueError("mesh has duplicate consecutive vertices")
        self.points = points
        self.xis = np.asarray(xis, dtype=complex)
        self.u_values = np.asarray(u_values, dtype=float)
        self.v_values = np.asarray(v_values, dtype=float)
        self.scalars = dict(scalars or {})

    @property
    def shape(self):
        return self.points.shape[:2]


def _require_finite_constant(C):
    if not np.isfinite(C):
        raise ValueError(f"the constant C must be finite, got {C!r}")


def reconstruct_surface(F, r, C, disc_radius=0.9, grid=(24, 48), attach_defect=False):
    """Mesh of the surface with support r + C over a polar lattice in xi.

    ``grid = (n_radii, n_angles)``; radii start at disc_radius / n_radii to
    keep the innermost ring nondegenerate.  With ``attach_defect`` the
    umbilic defect (norm of the traceless shape operator) rides along as the
    per-vertex scalar channel ``"umbilic_defect"``.
    """
    require_radius(disc_radius, "disc radius")
    _require_finite_constant(C)
    n_rad, n_ang = grid
    min_rows, min_cols = MIN_MESH_GRID
    if not (_is_int(n_rad) and _is_int(n_ang) and n_rad >= min_rows and n_ang >= min_cols):
        raise EmptyMesh(
            f"mesh grid {n_rad!r}x{n_ang!r} must be integers of at least {min_rows}x{min_cols}"
        )
    radii = np.linspace(disc_radius / n_rad, disc_radius, n_rad)
    angles = np.linspace(0.0, 2.0 * np.pi, n_ang)
    zz = radii[:, None] * np.exp(1j * angles[None, :])
    eta = F.F.eval(zz)
    rv = np.real(r.r.eval(zz)) + C
    pts = point_from_line(zz, eta, rv)
    scalars = None
    if attach_defect:
        _, _, defect, _ = _ShapeOperatorField(F, r, C).evaluate(zz)
        scalars = {"umbilic_defect": defect}
    return MeshR3(points=pts, xis=zz, u_values=radii, v_values=angles, scalars=scalars)


@dataclass(frozen=True)
class SupportCheck:
    max_support_residual: float
    max_orthogonality_residual: float


def support_property_check(mesh, F, r, C):
    """Verify x . U = r + C on the mesh and tangency of the lines.

    The support residual is evaluated exactly at the vertices; the
    orthogonality residual differentiates the reconstruction map by
    fourth-order central differences in the two chart directions and dots
    the tangents with U.
    """
    zz = mesh.xis
    U = direction_vector(zz)
    rv = np.real(r.r.eval(zz)) + C
    support_res = np.abs(np.sum(mesh.points * U, axis=-1) - rv)

    def surface(z):
        return point_from_line(z, F.F.eval(z), np.real(r.r.eval(z)) + C)

    h = ORTHOGONALITY_STEP
    worst = 0.0
    for direction in (1.0, 1j):
        d = (
            -surface(zz + 2 * h * direction)
            + 8.0 * surface(zz + h * direction)
            - 8.0 * surface(zz - h * direction)
            + surface(zz - 2 * h * direction)
        ) / (12.0 * h)
        worst = max(worst, float(np.max(np.abs(np.sum(d * U, axis=-1)))))
    return SupportCheck(
        max_support_residual=float(np.max(support_res)),
        max_orthogonality_residual=worst,
    )


# ---------------------------------------------------------------------------
# principal curvature analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UmbilicReport:
    location: complex
    winding: int
    index: Fraction
    defect: float
    loop_radius: float


@dataclass(frozen=True)
class PrincipalReport:
    umbilics: tuple
    totally_umbilic: bool
    max_defect: float
    min_det_I: float


class _ShapeOperatorField:
    """Pointwise traceless shape-operator data for a support pair.

    With B = dU/dxi, the surface is X = eta B + conj(eta B) + R U for
    eta = F and R = r + C, and dB/dxi = -2 xibar B / S, dB/dxibar =
    -2 U / S^2 with S = 1 + xi xibar.  So its tangent is

        dX/dxi = (dF/dxi + R - 2 xibar eta / S) B + conj(dF/dxibar) conj(B)
                 + (dR/dxi - 2 conj(eta) / S^2) U,

    and five small fields (F, dF/dxi, dF/dxibar, r, dr/dxi) give every
    tangent and, with the unit normal U, every normal derivative.
    """

    def __init__(self, F, r, C):
        self._F = F.F
        self._F_xi = F.F.d_xi()
        self._F_xibar = F.F.d_xibar()
        self._r = r.r
        self._r_xi = r.r.d_xi()
        self._C = C

    def _forms(self, zz):
        """I11, I12, I22 and the symmetrised II11, II12, II22 at the points
        ``zz``, stacked along a new first axis."""
        zb = np.conj(zz)
        s = (zz * zb).real
        S = 1.0 + s
        S2 = S * S
        eta = self._F.eval(zz)
        R = np.real(self._r.eval(zz)) + self._C
        # dX/dxi = b_coeff B + bbar_coeff conj(B) + u_coeff U
        b_coeff = self._F_xi.eval(zz) + R - 2.0 * zb * eta / S
        bbar_coeff = np.conj(self._F_xibar.eval(zz))
        u_coeff = self._r_xi.eval(zz) - 2.0 * np.conj(eta) / S2
        # full-size temporaries go as soon as they are used: a large mesh
        # holds only a few at a time
        del eta, R
        B = ((1.0 - zb * zb) / S2, -1j * (1.0 + zb * zb) / S2, -2.0 * zb / S2)
        U = (2.0 * zz.real / S, 2.0 * zz.imag / S, (1.0 - s) / S)
        del zb, s, S, S2
        # chart tangents t_k = dX/dx_k and normal derivatives n_k = dU/dx_k,
        # summed into I_ij = t_i . t_j and II_ij = -t_i . n_j one component at a
        # time, in place in one block, so a large mesh allocates no sum arrays
        # per component
        forms = np.zeros((6,) + zz.shape)
        for Bc, Uc in zip(B, U):
            A = b_coeff * Bc
            A += bbar_coeff * np.conj(Bc)
            A += u_coeff * Uc
            t1, t2 = 2.0 * A.real, -2.0 * A.imag
            n1, n2 = 2.0 * Bc.real, -2.0 * Bc.imag
            forms[0] += t1 * t1
            forms[1] += t1 * t2
            forms[2] += t2 * t2
            forms[3] -= t1 * n1
            forms[4] -= 0.5 * (t1 * n2 + t2 * n1)
            forms[5] -= t2 * n2
        return forms

    def evaluate(self, zz):
        """Return (p, q, defect, det_I) arrays at the points ``zz``."""
        I11, I12, I22, II11, II12, II22 = self._forms(np.asarray(zz, dtype=complex))
        det_I = I11 * I22 - I12 * I12
        bad = (I11 <= 1e-12) | (det_I <= 1e-12)
        if np.any(bad):
            raise NotImmersed("first fundamental form degenerates on the grid")
        l11 = np.sqrt(I11)
        l21 = I12 / l11
        l22 = np.sqrt(I22 - l21 * l21)
        B11 = II11 / l11
        B12 = II12 / l11
        B21 = (II12 - l21 * B11) / l22
        B22 = (II22 - l21 * B12) / l22
        S11 = B11 / l11
        S12 = -B11 * l21 / (l11 * l22) + B12 / l22
        S21 = B21 / l11
        S22 = -B21 * l21 / (l11 * l22) + B22 / l22
        p = 0.5 * (S11 - S22)
        q = 0.5 * (S12 + S21)
        return p, q, np.hypot(p, q), det_I


def principal_analysis(F, r, C, disc_radius=0.6, grid_n=41):
    """Locate isolated umbilics of the reconstructed surface and their indices.

    Umbilics are located at the zeros of dbar F (``cpoints._isolated_zeros``)
    and confirmed and indexed on the traceless shape operator p + i q: a zero
    whose defect |p + i q| exceeds ``UMBILIC_DEFECT_TOL`` is no umbilic, and
    the half-integer index is the winding of p + i q halved.
    """
    require_radius(disc_radius, "disc radius")
    _require_finite_constant(C)
    if not (_is_int(grid_n) and grid_n >= 16):
        raise ValueError(f"grid_n must be an integer of at least 16, got {grid_n!r}")
    shape = _ShapeOperatorField(F, r, C)
    zz, _ = _disc_grid(0j, disc_radius, grid_n)
    mask = np.abs(zz) <= disc_radius
    p, q, defect, det_I = shape.evaluate(zz)
    scale = float(np.median(np.hypot(p, q) + defect) + np.max(defect))
    max_defect = float(np.max(defect[mask]))
    min_det_I = float(np.min(det_I[mask]))

    if max_defect <= FLAT_DEFECT_TOL * max(1.0, scale):
        return PrincipalReport(
            umbilics=(), totally_umbilic=True, max_defect=max_defect, min_det_I=min_det_I
        )

    def traceless(pts):
        pv, qv, _, _ = shape.evaluate(pts)
        return pv + 1j * qv

    zeros = _isolated_zeros(F.F.d_xibar(), 0j, disc_radius, grid_n)
    _, _, defects, _ = shape.evaluate(np.array([z for z, _ in zeros], dtype=complex))
    umbilics = []
    for (z, loop_radius), dv in zip(zeros, defects):
        if dv > UMBILIC_DEFECT_TOL * max(1.0, scale):
            continue
        w = winding_of(traceless, Loop(z, loop_radius), min_mag=1e-12 * max(1.0, scale))
        umbilics.append(
            UmbilicReport(
                location=z,
                winding=w,
                index=Fraction(w, 2),
                defect=float(dv),
                loop_radius=loop_radius,
            )
        )
    return PrincipalReport(
        umbilics=tuple(umbilics),
        totally_umbilic=False,
        max_defect=max_defect,
        min_det_I=min_det_I,
    )


# ---------------------------------------------------------------------------
# ruled surfaces and line utilities
# ---------------------------------------------------------------------------


def ruled_family(S, radii, t_values, angular_n=64):
    """One ruled surface per Gauss radius: the lines over |nu| = radius swept
    along their length parameter t."""
    t_values = np.asarray(t_values, dtype=float)
    meshes = []
    for radius in radii:
        piece = S.pieces[S.piece_index(radius)]
        theta = 2.0 * np.pi * np.arange(angular_n) / angular_n
        nus = radius * np.exp(1j * theta)
        xis = piece.xi_expr.eval(nus)
        etas = piece.eta.eval(nus)
        pts = point_from_line(
            np.broadcast_to(xis, (t_values.size, angular_n)),
            np.broadcast_to(etas, (t_values.size, angular_n)),
            np.broadcast_to(t_values[:, None], (t_values.size, angular_n)),
        )
        meshes.append(
            MeshR3(
                points=pts,
                xis=np.broadcast_to(xis, (t_values.size, angular_n)).copy(),
                u_values=t_values,
                v_values=theta,
            )
        )
    return meshes


def line_distance(line_a, line_b):
    """Closest-approach distance between two oriented lines."""
    va = line_to_vectors(line_a)
    vb = line_to_vectors(line_b)
    cross = np.cross(va.U, vb.U)
    delta = vb.V - va.V
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        perp = delta - np.dot(delta, va.U) * va.U
        return float(np.linalg.norm(perp))
    return float(abs(np.dot(delta, cross)) / norm)


def translate_line(line, w):
    """The oriented line carried to itself by the translation x -> x + w."""
    vecs = line_to_vectors(line)
    w = np.asarray(w, dtype=float)
    w_perp = w - np.dot(w, vecs.U) * vecs.U
    return vectors_to_line(vecs.U, vecs.V + w_perp)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def export_obj(mesh):
    """Wavefront OBJ bytes: ``v`` lines in ``%.9g`` then row-major quad faces, 1-based.

    Each block is one ``%``-format over the flat vertex floats or the face
    indices; ``%.9g`` formats a float exactly as ``format(x, ".9g")``.
    """
    rows, cols = mesh.shape
    if rows < 2 or cols < 2:
        raise EmptyMesh("cannot export a mesh without faces")
    idx = np.arange(1, rows * cols + 1).reshape(rows, cols)
    quads = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]], axis=-1)
    verts = ("v %.9g %.9g %.9g\n" * (rows * cols)) % tuple(mesh.points.ravel().tolist())
    faces = ("f %d %d %d %d\n" * ((rows - 1) * (cols - 1))) % tuple(quads.ravel().tolist())
    return (verts + faces).encode("ascii")


def export_csv(mesh):
    """CSV bytes with header ``u,v,x1,x2,x3`` in row-major vertex order.

    Every field is the shortest decimal (``repr``) that parses back to its
    float bit for bit.  A u label repeats along its row and a v label down
    its column, so each is formatted once; the line template they make takes
    the vertex coordinates in one ``%r`` format.
    """
    u_labels = [f"{u!r}," for u in mesh.u_values.tolist()]
    v_tails = [f"{v!r},%r,%r,%r\n" for v in mesh.v_values.tolist()]
    template = "u,v,x1,x2,x3\n" + "".join([u + tail for u in u_labels for tail in v_tails])
    return (template % tuple(mesh.points.ravel().tolist())).encode("ascii")
