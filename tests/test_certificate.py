"""The exact total-reality certificate against the benchmark's independent
oracles (``bench/oracles.py``, which shares no code with the library)."""

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from crosscap.blowup import (
    C1CrossCapParams,
    build_c1_crosscap,
    build_c2_crosscap,
    certify_totally_real,
    simple_crosscap_surface,
)
from crosscap.cpoints import ParamPiece, ParamSurface
from crosscap.errors import BadParams, FactorizationFailed
from crosscap.wirtinger import MonomialField

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracles  # noqa: E402

C1_SHAPES = [(0.9, 0.3), (math.sqrt(0.95), 0.1), (0.8, 0.25), (0.97, 0.05)]
C_VALUES = [0.3, 0.5, 0.99, 1.01, 2.0, 5.0, 7.0, 8.0, 8.99, 9.01, 9.5, 12.0, 50.0]


def sweep_surfaces():
    for r0, eps in C1_SHAPES:
        for c in C_VALUES:
            yield f"c1 c={c} R0={r0:.4g} eps={eps}", build_c1_crosscap(
                C1CrossCapParams(c=c, r0=r0, eps=eps)
            )
    for r0_sq in (0.4, 0.8, 0.9, 0.95):
        yield f"c2 R0^2={r0_sq}", build_c2_crosscap(math.sqrt(r0_sq))
    yield "simple", simple_crosscap_surface()


@pytest.mark.parametrize("radial_n", [97, 256])
def test_every_piece_agrees_with_the_oracle(radial_n):
    verdicts = set()
    for name, surf in sweep_surfaces():
        cert = certify_totally_real(surf, radial_n=radial_n)
        roots = []
        for piece, got in zip(surf.pieces, cert.pieces):
            h = oracles.profile_defect_h(piece.xi_expr.terms(), piece.eta_expr.terms())
            want_min = oracles.profile_grid_min(h, piece.rho_in, piece.rho_out, radial_n)
            roots.append(oracles.profile_defect_roots(h, piece.rho_in, piece.rho_out))
            assert got.certificate == "sturm", name
            assert got.root_count == roots[-1], name
            assert got.min_abs_w == pytest.approx(want_min, rel=1e-12, abs=0.0), name
            assert got.argmin_nu.imag == 0.0 and piece.rho_in <= got.argmin_nu.real <= piece.rho_out
        assert cert.passed == (not any(roots)), name
        assert cert.min_abs_w == min(p.min_abs_w for p in cert.pieces)
        verdicts.add(cert.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("c, roots", [(0.5, 1), (5.0, 0), (8.0, 2), (9.5, 2), (12.0, 2), (50.0, 2)])
def test_c1_verdict_at_cli_defaults(c, roots):
    """R0 = 0.9, eps = 0.3.  The 256 x 256 grid used to pass c = 0.5, 9.5, 12
    and 50.  c = 8 lies inside (1, 9) and still fails: at this R0 the outer
    piece has two circles of complex points for every c above about 7.4198."""
    surf = build_c1_crosscap(C1CrossCapParams(c=c, r0=0.9, eps=0.3))
    cert = certify_totally_real(surf)
    assert cert.passed == (roots == 0)
    assert [p.root_count for p in cert.pieces] == [0, roots]


def test_c1_circles_inside_the_hessian_range_are_real():
    """For c = 8 the outer defect W / nubar changes sign twice along the real
    axis, so the two roots the certificate counts are circles of W = 0."""
    outer = build_c1_crosscap(C1CrossCapParams(c=8.0, r0=0.9, eps=0.3)).pieces[1]
    r = np.linspace(outer.rho_in, outer.rho_out, 2001)
    h = (outer.defect_field().eval(r.astype(complex)) / r).real
    assert np.count_nonzero(np.diff(np.sign(h))) == 2


COMPLEX_ALPHAS = [cmath.exp(1j * math.pi / 4), cmath.exp(1j * math.pi / 3), 0.7 - 1.3j, -1.0]


@pytest.mark.parametrize("alpha", COMPLEX_ALPHAS)
@pytest.mark.parametrize("c, roots", [(5.0, 0), (12.0, 2)])
def test_complex_alpha(alpha, c, roots):
    """W is linear in alpha, so alpha changes no complex point.  The roundings
    of alpha times each coefficient differ between the real and imaginary
    parts (e^{i pi/4} has Im 1 ulp below Re), so with alpha multiplied into
    the coefficients Re h and Im h lost their common roots and c = 12 passed."""
    surf = build_c1_crosscap(C1CrossCapParams(c=c, r0=0.9, eps=0.3, alpha=alpha))
    cert = certify_totally_real(surf)
    assert cert.passed == (roots == 0)
    assert [(p.certificate, p.root_count) for p in cert.pieces] == [("sturm", 0), ("sturm", roots)]
    base = certify_totally_real(build_c1_crosscap(C1CrossCapParams(c=c, r0=0.9, eps=0.3)))
    for got, want in zip(cert.pieces, base.pieces):
        assert got.min_abs_w == pytest.approx(abs(alpha) * want.min_abs_w, rel=1e-15)


def profile_piece(rho_in, rho_out, p):
    """xi = nu, eta = nubar^2 sum p_k s^k: W = -nubar sum (k + 2) p_k s^k."""
    eta = MonomialField({(k, k + 2): c for k, c in enumerate(p)})
    return ParamPiece(rho_in, rho_out, MonomialField.monomial(1, 0), eta)


@pytest.mark.parametrize(
    "p, rho_in, rho_out, roots",
    [
        # h = 3 (s - 1/2)^2: one double root, counted once
        ([-0.375, 1.0, -0.75], 0.5, 0.9, 1),
        ([-0.375, 1.0, -0.75], 0.75, 0.9, 0),
        # h = 480 (s - 1/4)^2 (s - 1/2): a double root at either end
        ([7.5, -50.0, 120.0, -96.0], 0.5, 0.9, 2),
        ([7.5, -50.0, 120.0, -96.0], 0.3, 0.5, 1),
        # h = 3 (s - 1/4)(s - 3/4): a root at either end of [rho_in^2, rho_out^2]
        ([-0.28125, 1.0, -0.75], 0.5, 0.8, 1),
        ([-0.28125, 1.0, -0.75], 0.3, 0.5, 1),
        ([-0.28125, 1.0, -0.75], 0.51, 0.8, 0),
        # Re h = 3 (s - 1/2)(s - 3/4), Im h = 3 (s - 1/2)(s - 1/4): one common root
        ([-0.5625 - 0.1875j, 1.25 + 0.75j, -0.75 - 0.75j], 0.3, 0.9, 1),
        ([-0.5625 - 0.1875j, 1.25 + 0.75j, -0.75 - 0.75j], 0.72, 0.9, 0),
    ],
)
def test_exact_root_count(p, rho_in, rho_out, roots):
    cert = certify_totally_real(ParamSurface([profile_piece(rho_in, rho_out, p)]))
    (piece,) = cert.pieces
    assert (piece.certificate, piece.root_count, cert.passed) == ("sturm", roots, roots == 0)


def test_non_profile_piece_is_rejected():
    """eta = (1 - s)^2 gives W = 2 (1 - s)^2 nu, which is not nubar h(s)."""
    t = MonomialField({(0, 0): 1.0, (1, 1): -1.0})
    xi = t * MonomialField.monomial(1, 0)
    surf = ParamSurface([ParamPiece(0.5, 1.0, xi, t * t)])
    with pytest.raises(FactorizationFailed, match="not nubar h"):
        certify_totally_real(surf, radial_n=64)


def test_zero_defect_piece_is_rejected():
    """eta = 0 gives W = 0, so h = 0 and there is nothing to certify."""
    surf = ParamSurface([ParamPiece(0.5, 1.0, MonomialField.monomial(1, 0), MonomialField.zero())])
    with pytest.raises(FactorizationFailed, match="vanishes identically"):
        certify_totally_real(surf)


@pytest.mark.parametrize(
    "eta, scale",
    [
        (MonomialField({(0, 2): math.inf}), 1.0),
        (MonomialField({(0, 2): complex(1.0, math.nan)}), 1.0),
        (MonomialField.monomial(0, 2), 0.0),
        (MonomialField.monomial(0, 2), complex(math.inf, 0.0)),
    ],
    ids=["inf-coefficient", "nan-coefficient", "zero-scale", "inf-scale"],
)
def test_piece_rejects_non_finite_chart_data(eta, scale):
    with pytest.raises(BadParams):
        ParamPiece(0.5, 1.0, MonomialField.monomial(1, 0), eta, eta_scale=scale)


@pytest.mark.parametrize(
    "c, alpha",
    [(1e308, 1.0), (math.inf, 1.0), (math.nan, 1.0), (5.0, complex(math.inf, 0.0)), (5.0, 0.0)],
    ids=["c-overflows-coefficients", "inf-c", "nan-c", "inf-alpha", "zero-alpha"],
)
def test_c1_rejects_non_finite_parameters(c, alpha):
    with pytest.raises(BadParams):
        build_c1_crosscap(C1CrossCapParams(c=c, r0=0.9, eps=0.3, alpha=alpha))
