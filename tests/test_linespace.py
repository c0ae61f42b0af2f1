import numpy as np
import pytest

from crosscap.errors import BasePointMismatch
from crosscap.linespace import (
    OrientedLine,
    TangentVec,
    apply_j,
    direction_vector,
    discover_epsilon,
    du_dxi,
    line_to_vectors,
    metric_g,
    metric_matrix,
    metric_signature,
    omega,
    omega_matrix,
    vectors_to_line,
)
from crosscap.wirtinger import MonomialField


def section_tangent(xi, F):
    """Tangent vectors of the graph eta = F(xi, xibar) at xi, for dxi = 1, i."""
    fxi = F.d_xi().eval(xi)
    fxibar = F.d_xibar().eval(xi)
    line = OrientedLine(xi=xi, eta=F.eval(xi))
    out = []
    for z in (1.0 + 0j, 1j):
        out.append(TangentVec(line, z, z * fxi + z.conjugate() * fxibar))
    return out


class TestDirections:
    def test_north_pole(self):
        assert np.allclose(direction_vector(0), [0, 0, 1])

    def test_equator_points(self):
        for xi, expected in [(1.0, [1, 0, 0]), (1j, [0, 1, 0])]:
            U = direction_vector(xi)
            assert np.allclose(U, expected, atol=1e-12)
            assert abs(np.linalg.norm(U) - 1.0) < 1e-12

    def test_array_matches_scalar_formula(self):
        rng = np.random.default_rng(5)
        zz = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
        U = direction_vector(zz)
        assert U.shape == (6, 7, 3)
        reference = np.array(
            [
                [[2 * z.real, 2 * z.imag, 1 - abs(z) ** 2] for z in map(complex, row)]
                for row in zz
            ]
        ) / (1 + np.abs(zz) ** 2)[..., None]
        assert np.max(np.abs(U - reference)) < 1e-15
        assert np.max(np.abs(np.linalg.norm(U, axis=-1) - 1.0)) < 1e-15

    def test_du_dxi_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            xi = complex(*rng.normal(size=2))
            fd = (direction_vector(xi + h) - direction_vector(xi - h)) / (2 * h)
            fd = fd + 1j * (direction_vector(xi + 1j * h) - direction_vector(xi - 1j * h)) / (
                2 * h
            ) * (-1)
            # d/dxi = (d/dx - i d/dy)/2
            fdx = (direction_vector(xi + h) - direction_vector(xi - h)) / (2 * h)
            fdy = (direction_vector(xi + 1j * h) - direction_vector(xi - 1j * h)) / (2 * h)
            assert np.allclose(du_dxi(xi), 0.5 * (fdx - 1j * fdy), atol=1e-8)


class TestLineVectors:
    def test_axis_line(self):
        lv = line_to_vectors(OrientedLine(0, 0))
        assert np.allclose(lv.U, [0, 0, 1]) and np.allclose(lv.V, 0)

    def test_fibre_over_north_pole(self):
        eta0 = 0.7 - 0.4j
        lv = line_to_vectors(OrientedLine(0, eta0))
        assert np.allclose(lv.V, [2 * eta0.real, 2 * eta0.imag, 0], atol=1e-12)

    def test_moment_is_tangent(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            line = OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            lv = line_to_vectors(line)
            assert abs(np.dot(lv.U, lv.V)) < 1e-12

    def test_round_trip_through_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            line = OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            lv = line_to_vectors(line)
            back = vectors_to_line(lv.U, lv.V)
            assert abs(back.xi - line.xi) < 1e-9
            assert abs(back.eta - line.eta) < 1e-9

    def test_injective_on_sample(self):
        rng = np.random.default_rng(12)
        lines = [
            OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            for _ in range(100)
        ]
        images = [line_to_vectors(l) for l in lines]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                sep = np.linalg.norm(images[i].U - images[j].U) + np.linalg.norm(
                    images[i].V - images[j].V
                )
                assert sep > 1e-12


class TestTensors:
    def test_omega_antisymmetric_and_base_value(self):
        line = OrientedLine(0, 0)
        v = TangentVec(line, 1.0 + 0j, 0j)
        w = TangentVec(line, 0j, 1.0 + 0j)
        assert omega(v, v) == 0.0
        assert omega(v, w) == pytest.approx(-4.0)
        assert omega(w, v) == pytest.approx(4.0)

    def test_omega_vanishes_on_lagrangian_section(self):
        # eta = (1 + xi xibar)^2 xibar^2 over a sample of chart points
        one = MonomialField.constant(1.0)
        s = MonomialField({(1, 1): 1.0})
        F = (one + s) * (one + s) * MonomialField.monomial(0, 2)
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            xi = complex(*rng.normal(size=2)) * 0.7
            v, w = section_tangent(xi, F)
            worst = max(worst, abs(omega(v, w)))
        assert worst < 1e-10

    def test_metric_values_at_origin(self):
        line = OrientedLine(0, 0)
        v = TangentVec(line, 1.0 + 0j, 1j)
        assert metric_g(v, v) == pytest.approx(-4.0)
        w = TangentVec(line, 1.0 + 0j, -1j)
        assert metric_g(w, w) == pytest.approx(4.0)
        # oracle: 4 Im(conj(deta) dxi) at the origin
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = TangentVec(line, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            assert metric_g(u, u) == pytest.approx(4.0 * (u.deta.conjugate() * u.dxi).imag)

    def test_metric_signature(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            line = OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            assert metric_signature(line) == (2, 2)

    def test_symmetry_and_mismatch_guard(self):
        line = OrientedLine(0.3 + 0.1j, 0.2j)
        other = OrientedLine(0.3 + 0.1j, 0.25j)
        v = TangentVec(line, 1.0 + 0.5j, 0.2j)
        w = TangentVec(line, -0.7j, 1.0 + 0j)
        assert metric_g(v, w) == pytest.approx(metric_g(w, v))
        with pytest.raises(BasePointMismatch):
            omega(v, TangentVec(other, 1, 0))

    def test_j_action(self):
        line = OrientedLine(0, 0)
        v = TangentVec(line, 1.0 + 0j, 0j)
        jv = apply_j(v)
        assert jv.dxi == 1j and jv.deta == 0
        jjv = apply_j(jv)
        assert jjv.dxi == -v.dxi and jjv.deta == -v.deta

    def test_metric_j_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            line = OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            v = TangentVec(line, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            w = TangentVec(line, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            assert metric_g(apply_j(v), apply_j(w)) == pytest.approx(
                metric_g(v, w), abs=1e-10
            )

    def test_compatibility_ratio_is_constant(self):
        # Omega(v, w) = eps G(Jv, w): eps is discovered, and with the wedge
        # and symmetrized-product conventions above it comes out -2.
        eps = discover_epsilon(seed=0)
        assert eps == pytest.approx(-2.0, abs=1e-10)

    def test_matrices_are_consistent(self):
        line = OrientedLine(0.2 - 0.1j, 0.4 + 0.3j)
        M = omega_matrix(line)
        G = metric_matrix(line)
        assert np.allclose(M, -M.T, atol=1e-12)
        assert np.allclose(G, G.T, atol=1e-12)
