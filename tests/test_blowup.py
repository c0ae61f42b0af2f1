import numpy as np
import pytest

from crosscap.blowup import (
    C1CrossCapParams,
    build_c1_crosscap,
    build_c2_crosscap,
    c1_matching_constants,
    c2_constants,
    certify_totally_real,
    derive_reality_polynomial,
    g_critical_report,
    seam_report,
    simple_crosscap_surface,
)
from crosscap.cpoints import surface_defect
from crosscap.errors import BadParams
from crosscap.wirtinger import MonomialField


def printed_bracket_coefficients(c):
    """The quoted bracket of the outer defect, as polynomials in y per power of x."""
    # 1 + (c-1) y^2
    const = MonomialField({(0, 0): 1.0, (0, 2): c - 1.0})
    # -(c (3 + 2y) y + (5 + 2y)(1 - y))
    x1 = MonomialField(
        {(0, 0): -5.0, (0, 1): 3.0 - 3.0 * c, (0, 2): 2.0 - 2.0 * c}
    )
    # 5 (1 - y) + c (2 + 5y)
    x2 = MonomialField({(0, 0): 5.0 + 2.0 * c, (0, 1): 5.0 * c - 5.0})
    return const, x1, x2


class TestMatchingConstants:
    def test_c_equal_one_collapses(self):
        assert c1_matching_constants(1.0, 0.9) == (0.0, 0.0)

    def test_plugin_values(self):
        a, b = c1_matching_constants(5.0, np.sqrt(0.8))
        assert a == pytest.approx(0.16, abs=1e-12)
        assert b == pytest.approx(-1.6, abs=1e-12)

    def test_seam_identities_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = float(rng.uniform(1.2, 8.8))
            r0 = float(rng.uniform(0.85, 0.99))
            a, b = c1_matching_constants(c, r0)
            s0 = 1.0 - r0 * r0
            assert a + b * s0 + c * s0 * s0 == pytest.approx(s0 * s0, abs=1e-12)
            assert b + 2 * c * s0 == pytest.approx(2 * s0, abs=1e-12)


class TestC1CrossCap:
    def test_param_validation(self):
        with pytest.raises(BadParams):
            C1CrossCapParams(c=5.0, r0=0.8, eps=0.1)  # 1-eps > r0
        with pytest.raises(BadParams):
            C1CrossCapParams(c=5.0, r0=0.9, eps=0.5)  # inner radius below 3^-1/2

    def test_boundary_collapses_and_identifies_antipodes(self):
        p = C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
        surf = build_c1_crosscap(p)
        outer = surf.pieces[-1]
        # points with exactly unit modulus map to xi = 0 exactly
        for nu in (1.0, -1.0, 1j, -1j):
            assert outer.xi_expr.eval(nu) == 0.0
        theta = np.linspace(0, 2 * np.pi, 17)
        boundary = np.exp(1j * theta)
        assert np.max(np.abs(outer.xi_expr.eval(boundary))) < 1e-15
        eta_plus = outer.eta_expr.eval(boundary)
        eta_minus = outer.eta_expr.eval(-boundary)
        assert np.max(np.abs(eta_plus - eta_minus)) == 0.0

    def test_seam_is_c1_but_not_c2(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = float(rng.uniform(1.2, 8.8))
            r0 = float(rng.uniform(0.85, 0.99))
            eps = min(1.5 * (1.0 - r0) + 1e-3, 1.0 - 3.0 ** -0.5 - 1e-6)
            p = C1CrossCapParams(c=c, r0=r0, eps=eps)
            rep = seam_report(build_c1_crosscap(p), order=2)[0]
            assert rep.xi_jumps[0] < 1e-12 and rep.eta_jumps[0] < 1e-12
            assert rep.xi_jumps[1] < 1e-12 and rep.eta_jumps[1] < 1e-12
            assert rep.certified_order >= 1
        # second radial derivative jumps by 8 R0^4 |1-c|
        p = C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
        rep = seam_report(build_c1_crosscap(p), order=2)[0]
        assert rep.eta_jumps[2] > 1e-3
        assert rep.eta_jumps[2] == pytest.approx(8 * 0.95**2 * 4.0, rel=1e-9)

    def test_defect_scales_linearly_in_alpha(self):
        alpha = 0.7 - 1.3j
        base = build_c1_crosscap(C1CrossCapParams(c=4.0, r0=np.sqrt(0.9), eps=0.12))
        scaled = build_c1_crosscap(
            C1CrossCapParams(c=4.0, r0=np.sqrt(0.9), eps=0.12, alpha=alpha)
        )
        rng = np.random.default_rng(7)
        for _ in range(20):
            radius = float(rng.uniform(0.89, 0.999))
            nu = radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert surface_defect(scaled, nu) == pytest.approx(
                alpha * surface_defect(base, nu), abs=1e-12
            )


class TestRealityPolynomial:
    def test_low_coefficients_match_quoted_bracket(self):
        for c in (1.5, 5.0, 8.5):
            rp = derive_reality_polynomial(
                C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1)
            )
            const, x1, x2 = printed_bracket_coefficients(c)
            by_x = {}
            for (i, j), coeff in rp.g.terms().items():
                by_x.setdefault(i, {})[(0, j)] = coeff
            assert MonomialField(by_x.get(0, {})) == const
            assert MonomialField(by_x.get(1, {})) == x1
            assert MonomialField(by_x.get(2, {})) == x2

    def test_x3_coefficient_is_minus_3c(self):
        # the quoted bracket shows +3c, which would break g(1,1) = 0
        c = 5.0
        rp = derive_reality_polynomial(C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1))
        assert rp.g.terms()[(3, 0)] == pytest.approx(-3.0 * c)
        g_with_plus = rp.g + MonomialField({(3, 0): 6.0 * c})
        assert complex(g_with_plus.eval_pair(1.0, 1.0)).real == pytest.approx(6.0 * c)

    def test_inner_factorization(self):
        rp = derive_reality_polynomial(C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1))
        xs = np.linspace(0.3, 1.0, 11)
        expected = 2.0 * (1 - xs) ** 2 * (3 * xs - 1)
        got = np.real(rp.inner_profile.eval_pair(xs.astype(complex), 0j))
        assert np.allclose(got, expected, atol=1e-12)

    def test_alpha_must_be_one(self):
        with pytest.raises(BadParams):
            derive_reality_polynomial(
                C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1, alpha=2.0)
            )


class TestGCritical:
    def test_critical_point_properties(self):
        for c in (1.5, 2.0, 5.0, 8.5):
            rp = derive_reality_polynomial(C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1))
            rep = g_critical_report(rp.g, c)
            assert rep.value_ok and rep.grad_ok and rep.det_ok
            assert rep.definiteness == "negative-definite"
            assert rep.definite_in_range

    def test_hessian_magnitude_at_c5(self):
        rp = derive_reality_polynomial(C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1))
        rep = g_critical_report(rp.g, 5.0)
        assert abs(rep.hessian_det) == pytest.approx(16.0, abs=1e-10)

    def test_outside_range_indefinite(self):
        # the derivation itself does not constrain c, only the certification does
        for c in (0.5, 9.5):
            rp = derive_reality_polynomial(
                C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1)
            )
            rep = g_critical_report(rp.g, c)
            assert rep.definiteness in ("indefinite", "degenerate")
            assert rep.definite_in_range


class TestCertification:
    def test_c1_certification_passes(self):
        p = C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
        surf = build_c1_crosscap(p)
        rp = derive_reality_polynomial(p)
        rep = certify_totally_real(surf, radial_n=512, angular_n=512, min_mag=1e-6)
        assert rep.passed and rep.min_abs_w > 1e-6
        # g(x, R0^2) has no zero on the outer annulus x in [(1 - eps)^2, 1]
        xs = np.linspace((1.0 - p.eps) ** 2, 1.0, 512).astype(complex)
        assert np.min(np.abs(rp.g.eval_pair(xs, 0.95 + 0j))) > 0

    def test_inner_piece_alone_passes(self):
        p = C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
        surf = build_c1_crosscap(p)
        rep = certify_totally_real(surf, radial_n=128, angular_n=64, min_mag=1e-6)
        inner = rep.pieces[0]
        assert inner.min_abs_w > 1e-3

    def test_c_outside_admissible_range_fails(self):
        # for c = 0.5 the reality polynomial changes sign across the outer
        # annulus: a circle of complex points
        p = C1CrossCapParams(c=0.5, r0=np.sqrt(0.95), eps=0.1)
        rp = derive_reality_polynomial(p)
        y0 = 0.95
        g_in = complex(rp.g.eval_pair(y0, y0)).real
        g_out = complex(rp.g.eval_pair(1.0, y0)).real
        assert g_in * g_out < 0
        surf = build_c1_crosscap(p)
        rep = certify_totally_real(surf, radial_n=1024, angular_n=64, min_mag=1e-4)
        assert not rep.passed

    def test_grid_floor(self):
        surf = build_c1_crosscap(C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1))
        with pytest.raises(BadParams):
            certify_totally_real(surf, radial_n=32, angular_n=64)


class TestC2Constants:
    def test_limit_towards_unit_radius(self):
        consts = c2_constants(np.sqrt(0.999))
        assert consts.a == pytest.approx(0.0, abs=1e-2)
        assert consts.b == pytest.approx(0.0, abs=1e-2)
        assert consts.c == pytest.approx(1.0, abs=1e-2)

    def test_quoted_c_polynomial_at_unit_radius(self):
        # -6 + 18 + 42 - 180 + 225 - 126 + 28 = 1
        y = 1.0
        c_q = -6 + 18 * y + 42 * y**2 - 180 * y**3 + 225 * y**4 - 126 * y**5 + 28 * y**6
        assert c_q == 1.0

    def test_quoted_constants_fail_value_match(self):
        consts = c2_constants(np.sqrt(0.8))
        # Q(0.2) = (1 + 0.04*0.8)^2 * 0.04
        assert (1 + 0.04 * 0.8) ** 2 * 0.04 == pytest.approx(0.04260096, abs=1e-12)
        assert consts.quoted_value_residual == pytest.approx(0.03352576, abs=1e-9)
        # the quoted a and c agree with the solver; only b differs (by a sign)
        assert consts.quoted[0] == pytest.approx(consts.a, abs=1e-12)
        assert consts.quoted[2] == pytest.approx(consts.c, abs=1e-12)
        assert consts.quoted[1] == pytest.approx(-consts.b, abs=1e-12)


class TestC2CrossCap:
    def test_param_validation(self):
        with pytest.raises(BadParams, match="R0"):
            build_c2_crosscap(0.5)

    @pytest.mark.parametrize("r0_sq", [0.8, 0.9, 0.95])
    def test_seam_certifies_order_two(self, r0_sq):
        surf = build_c2_crosscap(np.sqrt(r0_sq))
        rep = seam_report(surf, order=2, tol=1e-9)[0]
        assert rep.certified_order == 2
        assert max(rep.eta_jumps) < 1e-9

    def test_antipodal_identification(self):
        surf = build_c2_crosscap(np.sqrt(0.9))
        outer = surf.pieces[-1]
        boundary = np.exp(1j * np.linspace(0, 2 * np.pi, 13))
        assert np.max(np.abs(outer.xi_expr.eval(boundary))) < 1e-15
        assert np.max(np.abs(outer.eta_expr.eval(boundary) - outer.eta_expr.eval(-boundary))) == 0.0

    def test_totally_real_on_grid(self):
        surf = build_c2_crosscap(np.sqrt(0.9))
        rep = certify_totally_real(surf, radial_n=256, angular_n=64, min_mag=1e-9)
        assert rep.passed and rep.min_abs_w > 0


def simple_map(nu):
    """(xi, eta) of the simple cross-cap's one piece at ``nu``."""
    piece = simple_crosscap_surface().pieces[0]
    return piece.xi_expr.eval(nu), piece.eta_expr.eval(nu)


class TestSimpleCrossCap:
    def test_unit_boundary_point(self):
        assert simple_map(1.0) == (0.0, 1.0)

    def test_antipodal_points_coincide(self):
        assert simple_map(-1.0) == simple_map(1.0)

    def test_interior_value(self):
        xi, eta = simple_map(0.9)
        assert xi == pytest.approx((1 - 0.81) * 0.9, abs=1e-15)
        assert eta == pytest.approx(0.81, abs=1e-15)
