"""The space of oriented lines as the tangent bundle of the unit sphere.

An oriented line in Euclidean 3-space is a pair (U, V) with |U| = 1 and
U.V = 0: direction and perpendicular moment.  In the complex chart xi
(stereographic projection from the south pole) the direction is

    U(xi) = (2 Re xi, 2 Im xi, 1 - |xi|^2) / (1 + |xi|^2),

and a fibre coordinate eta encodes V = eta dU/dxi + conj(eta) dU/dxibar.

This module also evaluates the canonical tensors on that 4-manifold: the
complex structure J (multiplication by i in both chart slots), the
symplectic form Omega and the neutral metric G of signature (2,2):

    Omega = 4 (1+xi xibar)^-2 Re( d eta ^ d xibar - 2 xibar eta / (1+xi xibar) d xi ^ d xibar )
    G     = 4 (1+xi xibar)^-2 Im( d etabar d xi  + 2 xibar eta / (1+xi xibar) d xi d xibar )

with the wedge convention  da^db(v,w) = da(v) db(w) - da(w) db(v)  and the
symmetrized product  da db = (da (x) db + db (x) da)/2.  Real tangent vectors
carry complex components (dxi, deta) meaning v = 2 Re(dxi d/dxi + deta d/deta),
so dxi(v) = v.dxi and J stays diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasePointMismatch

COMPATIBILITY_SAMPLES = 100        # random (line, v, w) triples of discover_epsilon
COMPATIBILITY_SPREAD_TOL = 1e-10   # largest spread allowed among their ratios


@dataclass(frozen=True)
class OrientedLine:
    """A point of line space in the north chart: direction coordinate xi,
    perpendicular-distance coordinate eta."""

    xi: complex
    eta: complex


@dataclass(frozen=True)
class LineVectors:
    """Direction/moment pair (U, V) with |U| = 1 and U.V = 0."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        if abs(np.dot(U, U) - 1.0) > 1e-12:
            raise ValueError("U must be a unit vector")
        if abs(np.dot(U, V)) > 1e-12:
            raise ValueError("V must be orthogonal to U")


@dataclass(frozen=True)
class TangentVec:
    """Real tangent vector v = 2 Re(dxi d/dxi + deta d/deta) at a base line."""

    at: OrientedLine
    dxi: complex
    deta: complex


def direction_vector(xi):
    """Unit direction vector of the line with chart coordinate ``xi``.

    Broadcasts over ndarray inputs; the result has one trailing axis of
    length 3.
    """
    z = np.asarray(xi, dtype=complex)
    s = (z * np.conj(z)).real
    return np.stack([2.0 * z.real, 2.0 * z.imag, 1.0 - s], axis=-1) / (1.0 + s)[..., None]


def du_dxi(xi):
    """Complex 3-vector dU/dxi; since U is real, dU/dxibar is its conjugate."""
    z = complex(xi)
    zb = z.conjugate()
    s = (z * zb).real
    d = (1.0 + s) ** 2
    return np.array([1.0 - zb * zb, -1j * (1.0 + zb * zb), -2.0 * zb]) / d


def line_to_vectors(line):
    """Convert chart coordinates to the (U, V) vector pair."""
    U = direction_vector(line.xi)
    V = 2.0 * np.real(complex(line.eta) * du_dxi(line.xi))
    return LineVectors(U=U, V=V)


def vectors_to_line(U, V):
    """Inverse conversion; V must be tangent to the sphere at U.

    xi comes from stereographic projection of U; eta solves the real-linear
    system V = 2 Re(eta dU/dxi) by least squares, with a residual guard.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U[2] <= -1.0 + 1e-12:
        raise ValueError("direction at the south pole is outside the north chart")
    xi = complex(U[0], U[1]) / (1.0 + U[2])
    uxi = du_dxi(xi)
    # V = 2 Re(eta dU/dxi): two real unknowns (Re eta, Im eta), three equations
    M = np.stack([2.0 * uxi.real, -2.0 * uxi.imag], axis=1)
    sol, *_ = np.linalg.lstsq(M, V, rcond=None)
    eta = complex(sol[0], sol[1])
    resid = np.linalg.norm(V - 2.0 * np.real(eta * uxi))
    if resid > 1e-9 * (1.0 + np.linalg.norm(V)):
        raise ValueError("V is not tangent to the sphere at U")
    return OrientedLine(xi=xi, eta=eta)


def _require_same_base(v, w):
    if v.at != w.at:
        raise BasePointMismatch(f"base points differ: {v.at} vs {w.at}")


def omega(v, w):
    """Symplectic form evaluated on two tangent vectors at the same line."""
    _require_same_base(v, w)
    xi = complex(v.at.xi)
    eta = complex(v.at.eta)
    s = (xi * xi.conjugate()).real
    c = 2.0 * xi.conjugate() * eta / (1.0 + s)
    wedge_eta_xibar = v.deta * w.dxi.conjugate() - w.deta * v.dxi.conjugate()
    wedge_xi_xibar = v.dxi * w.dxi.conjugate() - w.dxi * v.dxi.conjugate()
    return 4.0 / (1.0 + s) ** 2 * (wedge_eta_xibar - c * wedge_xi_xibar).real


def metric_g(v, w):
    """Neutral metric of signature (2,2) evaluated on two tangent vectors."""
    _require_same_base(v, w)
    xi = complex(v.at.xi)
    eta = complex(v.at.eta)
    s = (xi * xi.conjugate()).real
    c = 2.0 * xi.conjugate() * eta / (1.0 + s)
    sym_etabar_xi = 0.5 * (v.deta.conjugate() * w.dxi + v.dxi * w.deta.conjugate())
    sym_xi_xibar = 0.5 * (v.dxi * w.dxi.conjugate() + v.dxi.conjugate() * w.dxi)
    return 4.0 / (1.0 + s) ** 2 * (sym_etabar_xi + c * sym_xi_xibar).imag


def apply_j(v):
    """Complex structure: (dxi, deta) -> (i dxi, i deta)."""
    return TangentVec(at=v.at, dxi=1j * v.dxi, deta=1j * v.deta)


def _real_basis(line):
    return [
        TangentVec(line, 1.0 + 0j, 0j),
        TangentVec(line, 1j, 0j),
        TangentVec(line, 0j, 1.0 + 0j),
        TangentVec(line, 0j, 1j),
    ]


def omega_matrix(line):
    """4x4 matrix of Omega in the real basis (dxi=1, dxi=i, deta=1, deta=i)."""
    basis = _real_basis(line)
    return np.array([[omega(a, b) for b in basis] for a in basis])


def metric_matrix(line):
    """4x4 matrix of G in the same real basis."""
    basis = _real_basis(line)
    return np.array([[metric_g(a, b) for b in basis] for a in basis])


def metric_signature(line):
    """(positive, negative) eigenvalue counts of the metric matrix."""
    eigs = np.linalg.eigvalsh(metric_matrix(line))
    return int(np.sum(eigs > 0)), int(np.sum(eigs < 0))


def discover_epsilon(seed=0):
    """Estimate the constant ratio Omega(v, w) / G(Jv, w) by random sampling.

    The two tensors are proportional through J; the proportionality constant
    is discovered, not asserted.  Raises if the sampled ratio is not constant
    to ``COMPATIBILITY_SPREAD_TOL``.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    while len(ratios) < COMPATIBILITY_SAMPLES:
        line = OrientedLine(
            complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        )
        v = TangentVec(line, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        w = TangentVec(line, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        g = metric_g(apply_j(v), w)
        if abs(g) < 1e-6:
            continue
        ratios.append(omega(v, w) / g)
    ratios = np.asarray(ratios)
    spread = float(ratios.max() - ratios.min())
    if spread > COMPATIBILITY_SPREAD_TOL:
        raise AssertionError(f"compatibility ratio is not constant: spread {spread:g}")
    return float(ratios.mean())
