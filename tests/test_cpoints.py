import numpy as np
import pytest

from crosscap.cpoints import (
    ComplexPointReport,
    ParamPiece,
    ParamSurface,
    find_complex_points,
    quadratic_model_index,
    quadratic_model_report,
    section_complex_index,
    surface_defect,
)
from crosscap.errors import (
    DegenerateQuadratic,
    DegenerateZeroCurve,
    OnSeam,
    VanishingOnLoop,
)
from crosscap.sections import SectionGraph, SupportFunction, section_from_support
from crosscap.wirtinger import MonomialField, RationalField

ONE = MonomialField.constant(1.0)
S = MonomialField({(1, 1): 1.0})
XI = MonomialField.xi()
XIBAR = MonomialField.xibar()


def hyperbolic_example_section():
    # eta = (1 + xi xibar)^2 xibar^2
    return SectionGraph(RationalField((ONE + S) * (ONE + S) * XIBAR * XIBAR, 0), "raw")


def elliptic_example_section():
    # eta = (1/2) xi (1 + xi xibar)^2, the section of r = xi xibar
    return section_from_support(SupportFunction(S))


def graph_piece(eta_expr, rho_in=0.0, rho_out=1.0):
    return ParamSurface([ParamPiece(rho_in, rho_out, XI, eta_expr)])


def boundary_index_oracle(W, center, radius, n=16384):
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = W.eval(center + radius * np.exp(1j * theta))
    vals = np.append(vals, vals[0])
    args = np.unwrap(np.angle(vals))
    total = (args[-1] - args[0]) / (2.0 * np.pi)
    assert abs(total - round(total)) < 1e-9
    return round(total)


class TestSurfaceDefect:
    def test_section_piece_complex_point_at_origin(self):
        surf = graph_piece((ONE + S) * (ONE + S) * XIBAR * XIBAR)
        assert surface_defect(surf, 0.0) == 0.0

    def test_inner_crosscap_piece_value(self):
        # xi = (1-s) nu, eta = (1-s)^2 nubar^2 factors as 2 (1-x)^2 (3x-1) nubar
        T = ONE - S
        surf = ParamSurface(
            [ParamPiece(0.5, 1.0, T * XI, T * T * MonomialField.monomial(0, 2))]
        )
        nu = 0.9
        x = nu * nu
        expected = 2.0 * (1 - x) ** 2 * (3 * x - 1) * nu
        assert surface_defect(surf, nu) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.09293, abs=5e-5)

    def test_totally_real_points_have_nonzero_defect(self):
        surf = graph_piece((ONE + S) * (ONE + S) * XIBAR * XIBAR)
        assert abs(surface_defect(surf, 0.4 + 0.1j)) > 0.0

    def test_seam_guard(self):
        T = ONE - S
        surf = ParamSurface(
            [
                ParamPiece(0.0, 0.5, XI, T * T),
                ParamPiece(0.5, 1.0, XI, T),
            ]
        )
        with pytest.raises(OnSeam):
            surface_defect(surf, 0.5j)

    def test_surface_validation(self):
        with pytest.raises(ValueError):
            ParamSurface(
                [ParamPiece(0.0, 0.6, XI, ONE), ParamPiece(0.5, 1.0, XI, ONE)]
            )


class TestSectionIndex:
    def test_hyperbolic_example(self):
        sec = hyperbolic_example_section()
        for radius in (0.05, 0.1, 0.2):
            assert section_complex_index(sec, 0j, radius) == -1

    def test_elliptic_derived_example(self):
        sec = elliptic_example_section()
        # dbar F = xi^2 + xi^3 xibar
        dbar = sec.F.num.d_xibar()
        assert dbar == XI * XI + XI * XI * XI * XIBAR
        assert section_complex_index(sec, 0j, 0.1) == 2

    def test_holomorphic_section_totally_degenerate(self):
        sec = SectionGraph(RationalField(MonomialField.zero(), 0))
        with pytest.raises(VanishingOnLoop):
            section_complex_index(sec, 0j, 0.5)

    def test_radius_independence_over_a_decade(self):
        sec = hyperbolic_example_section()
        indices = {
            section_complex_index(sec, 0j, r) for r in np.linspace(0.03, 0.3, 7)
        }
        assert indices == {-1}


class TestFindComplexPoints:
    def test_hyperbolic_example_disc(self):
        reports = find_complex_points(hyperbolic_example_section(), 0j, 0.5)
        assert len(reports) == 1
        rep = reports[0]
        assert abs(rep.location) < 1e-10
        assert rep.kind == "hyperbolic" and rep.index == -1

    def test_zero_field_degenerate(self):
        sec = SectionGraph(RationalField(MonomialField.zero(), 0))
        with pytest.raises(DegenerateZeroCurve):
            find_complex_points(sec, 0j, 1.0)

    def test_circle_of_zeros_degenerate(self):
        # dbar F = xi^2 xibar - xi/4 vanishes on |xi| = 1/2 and at 0
        F = SectionGraph(
            RationalField(0.5 * XI * XI * XIBAR * XIBAR - 0.25 * XI * XIBAR, 0)
        )
        with pytest.raises(DegenerateZeroCurve):
            find_complex_points(F, 0j, 0.8, grid_n=96)

    def test_perturbed_cubic_support(self):
        # support (2/3)(xi^3 + xibar^3) + 0.05 xi xibar:
        # dbar F = (1+s)(0.05 xi^2 + 2 xibar (1+2s)) keeps a single zero
        r = SupportFunction(
            MonomialField({(3, 0): 2 / 3, (0, 3): 2 / 3, (1, 1): 0.05})
        )
        sec = section_from_support(r)
        reports = find_complex_points(sec, 0j, 0.8, grid_n=96)
        total = sum(rep.index for rep in reports)
        oracle_total = boundary_index_oracle(sec.F.num.d_xibar(), 0j, 0.8)
        assert total == oracle_total == -1
        assert len(reports) == 1
        # unperturbed total index is -1 as well
        base = find_complex_points(hyperbolic_example_section(), 0j, 0.8, grid_n=96)
        assert sum(rep.index for rep in base) == -1

    def test_index_additivity_two_zeros(self):
        # raw section with dbar F = xibar^2 - 0.09: zeros at xi = +-0.3
        F = SectionGraph(
            RationalField(MonomialField({(0, 3): 1.0 / 3.0, (0, 1): -0.09}), 0)
        )
        reports = find_complex_points(F, 0j, 0.8, grid_n=96)
        assert len(reports) == 2
        assert sorted(round(rep.location.real, 6) for rep in reports) == [-0.3, 0.3]
        assert all(rep.index == -1 for rep in reports)
        boundary = boundary_index_oracle(F.F.num.d_xibar(), 0j, 0.8)
        assert boundary == sum(rep.index for rep in reports) == -2

    def test_double_zero_is_one_point(self):
        # dbar F = xi^2 (1 + xi xibar): Newton creeps into the double zero from
        # several seeds, which must merge into one point of index 2
        reports = find_complex_points(elliptic_example_section(), 0j, 0.8)
        assert len(reports) == 1
        assert reports[0].index == 2 and abs(reports[0].location) < 1e-6

    def test_newton_iterates_stay_in_the_chart(self):
        # on this support a Newton iterate used to run past the chart bound
        terms = {
            (1, 0): -0.067 - 0.142j,
            (1, 1): -0.211,
            (2, 0): 0.15100000000000002 + 0.12j,
            (2, 1): -0.18500000000000003 - 0.15300000000000002j,
            (3, 0): -0.101 - 0.08100000000000002j,
        }
        terms.update({(n, m): c.conjugate() for (m, n), c in list(terms.items()) if m != n})
        sec = section_from_support(SupportFunction(MonomialField(terms)))
        reports = find_complex_points(sec, 0j, 0.8, grid_n=64)
        oracle = boundary_index_oracle(sec.F.num.d_xibar(), 0j, 0.8)
        assert sum(rep.index for rep in reports) == oracle == 0

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            find_complex_points(hyperbolic_example_section(), 0j, 0.5, grid_n=8)


class TestQuadraticModel:
    def test_pure_conjugate_square_is_hyperbolic(self):
        assert quadratic_model_index(1.0, 0.0) == -1

    def test_pure_mixed_term_is_elliptic(self):
        assert quadratic_model_index(0.0, 1.0) == 1

    def test_boundary_is_degenerate(self):
        with pytest.raises(DegenerateQuadratic):
            quadratic_model_index(1.0, 2.0)

    def test_winding_matches_modulus_rule(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            alpha = complex(*rng.normal(size=2))
            beta = complex(*rng.normal(size=2))
            if abs(2 * abs(alpha) - abs(beta)) < 1e-3:
                continue
            expected = -1 if 2 * abs(alpha) > abs(beta) else 1
            assert quadratic_model_index(alpha, beta) == expected

    def test_gap_zone_flagged(self):
        # hyperbolic by winding but not by the strict modulus condition
        rep = quadratic_model_report(1.0, 1.0)
        assert rep["index"] == -1 and rep["gap_zone"]
        rep2 = quadratic_model_report(5.0, 1.0)
        assert rep2["index"] == -1 and not rep2["gap_zone"]


class TestReports:
    def test_kind_index_consistency_enforced(self):
        with pytest.raises(ValueError):
            ComplexPointReport(0j, "elliptic", -1, 0.1)
        rep = ComplexPointReport(0j, "hyperbolic", -1, 0.1)
        assert rep.umbilic_index == -0.5
