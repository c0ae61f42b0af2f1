import numpy as np
import pytest

import crosscap.cpoints as cp
from crosscap.cpoints import (
    MAX_GRID_N,
    ComplexPointReport,
    ParamPiece,
    ParamSurface,
    find_complex_points,
    quadratic_model_index,
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
from crosscap.wirtinger import Loop, MonomialField, RationalField, winding_of

ONE = MonomialField.constant(1.0)
S = MonomialField({(1, 1): 1.0})
XI = MonomialField.xi()
XIBAR = MonomialField.xibar()


def hyperbolic_example_section():
    # eta = (1 + xi xibar)^2 xibar^2
    return SectionGraph(RationalField((ONE + S) * (ONE + S) * XIBAR * XIBAR, 0))


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


def mirrored_support(half):
    """The real support whose m >= n coefficients are ``half``."""
    terms = dict(half)
    terms.update({(n, m): c.conjugate() for (m, n), c in half.items() if m != n})
    return SupportFunction(MonomialField(terms))


def record_grids(monkeypatch, find=None):
    """Route ``find_complex_points``' zero search through ``find`` (the real
    one by default) and return the list of grid sizes it is asked for."""
    seen = []
    find = find or cp._isolated_zeros

    def logged(W, center, radius, grid_n):
        seen.append(grid_n)
        return find(W, center, radius, grid_n)

    monkeypatch.setattr(cp, "_isolated_zeros", logged)
    return seen


# Two sections benchmark supports on which a 64-grid misses a zero inside the
# disc of radius 0.8: near 0.0106+0.0911i, where |W_xi| and |W_xibar| are
# close and the Jacobian is near-singular, and near 0.6605+0.2706i.
MISSED_NEAR_ORIGIN = {
    (0, 0): (0.07977852119971408+0j),
    (1, 0): (-0.04799266246449157-0.10617497626688102j),
    (1, 1): (-0.03572174152883341+0j),
    (2, 0): (0.026830197937884766-0.0005916599376209449j),
    (2, 1): (0.038509236343262705-0.09856047749423363j),
    (2, 2): (-0.2209910120527456+0j),
    (3, 0): (-0.017802372740307472+0.03754434222445363j),
    (3, 1): (0.05950019726715033-0.04102163664884439j),
    (3, 2): (-0.19511835694512264-0.03251915101996327j),
    (4, 0): (0.0260398657637122-0.10206118958487582j),
    (4, 1): (-0.046819244891172083+0.1097562068332611j),
    (5, 0): (-0.07630123442383781-0.08279607959308662j),
}
MISSED_NEAR_RIM = {
    (0, 0): (-0.016371724791140713+0j),
    (1, 0): (0.06326962180391883+0.1329461910913095j),
    (1, 1): (-0.0025251476577520283+0j),
    (2, 0): (0.006299105072063583+0.06891682351987939j),
    (2, 1): (0.014632348880095805+0.04257356900512696j),
    (2, 2): (0.013529798441866437+0j),
    (3, 0): (0.09510449043114376-0.03361347952374101j),
    (3, 1): (0.03558430027382077-0.07919134580899115j),
    (3, 2): (-0.05638229415272984-0.06905911954966083j),
    (3, 3): (-0.14182274413104157+0j),
    (4, 0): (-0.044940001154734316+0.012803763780002681j),
    (4, 1): (0.087308248914166-0.021253635254957635j),
    (4, 2): (-0.053828824867094484+0.03642092325546034j),
    (5, 0): (-0.09108475054238649+0.07242462770454909j),
    (5, 1): (0.07197822451395429+0.055414935263069946j),
    (6, 0): (-0.0434779250187391-0.03783355401451558j),
}


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

    @pytest.mark.parametrize(
        "half, missed, rim",
        [(MISSED_NEAR_ORIGIN, 0.0106 + 0.0911j, -2), (MISSED_NEAR_RIM, 0.6605 + 0.2706j, -1)],
    )
    def test_rim_winding_refines_a_grid_that_misses_a_zero(self, half, missed, rim, monkeypatch):
        sec = section_from_support(mirrored_support(half))
        assert boundary_index_oracle(sec.F.num.d_xibar(), 0j, 0.8) == rim
        grids = record_grids(monkeypatch)
        reports = find_complex_points(sec, 0j, 0.8, grid_n=64)
        assert grids == [64, 128]
        assert sum(rep.index for rep in reports) == rim
        assert min(abs(rep.location - missed) for rep in reports) < 1e-4
        fine = find_complex_points(sec, 0j, 0.8, grid_n=128)
        assert [(r.location, r.index) for r in reports] == [(r.location, r.index) for r in fine]

    @pytest.mark.parametrize(
        "grid_n, grids", [(64, [64, 128, 256, 512, 1024]), (96, [96, 192, 384, 768, 1024])]
    )
    def test_rim_mismatch_past_the_grid_cap_is_degenerate(self, grid_n, grids, monkeypatch):
        # a finder that never sees the zero keeps the index sum at 0 against
        # a rim winding of -1
        seen = record_grids(monkeypatch, lambda *args: [])
        with pytest.raises(DegenerateZeroCurve):
            find_complex_points(hyperbolic_example_section(), 0j, 0.5, grid_n=grid_n)
        assert seen == grids and grids[-1] == MAX_GRID_N

    def test_unresolved_rim_returns_reports_unchecked(self, monkeypatch):
        # dbar F = xibar^2 - 0.09 vanishes at +-0.3, on the rim of this disc
        F = SectionGraph(RationalField(MonomialField({(0, 3): 1.0 / 3.0, (0, 1): -0.09}), 0))
        seen = record_grids(monkeypatch, lambda *args: [])
        assert find_complex_points(F, 0j, 0.3, grid_n=64) == []
        assert seen == [64]

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

    @pytest.mark.parametrize("alpha, beta, index", [(1e-10, 0.0, -1), (0.0, 1e-10, 1)])
    def test_index_does_not_depend_on_scale(self, alpha, beta, index):
        assert quadratic_model_index(alpha, beta) == index

    def test_winding_matches_modulus_rule(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            alpha = complex(*rng.normal(size=2))
            beta = complex(*rng.normal(size=2))
            if abs(2 * abs(alpha) - abs(beta)) < 1e-3:
                continue
            winding = winding_of(lambda z: 2 * alpha * np.conj(z) + beta * z, Loop(0j, 1.0))
            assert quadratic_model_index(alpha, beta) == winding


class TestReports:
    def test_kind_index_consistency_enforced(self):
        with pytest.raises(ValueError):
            ComplexPointReport(0j, "elliptic", -1, 0.1)
        rep = ComplexPointReport(0j, "hyperbolic", -1, 0.1)
        assert rep.umbilic_index == -0.5
