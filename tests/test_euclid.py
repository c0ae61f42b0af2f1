from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscap.blowup import simple_crosscap_surface
from crosscap.cpoints import _disc_grid, find_complex_points
from crosscap.errors import EmptyMesh
from crosscap.euclid import (
    MeshR3,
    _ShapeOperatorField,
    _tangent_fields,
    export_csv,
    export_obj,
    line_distance,
    point_from_line,
    principal_analysis,
    reconstruct_surface,
    ruled_family,
    support_property_check,
    translate_line,
)
from crosscap.linespace import OrientedLine, direction_vector
from crosscap.sections import SupportFunction, section_from_support
from crosscap.wirtinger import Loop, MonomialField, winding_of

CUBIC = SupportFunction(MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0}))
QUADRATIC = SupportFunction(MonomialField({(1, 1): 1.0}))
ZERO_SUPPORT = SupportFunction(MonomialField({}))


def random_real_support(rng, max_degree=4, scale=0.1):
    terms = {}
    for m in range(max_degree + 1):
        for n in range(m + 1):
            if m + n > max_degree:
                continue
            c = complex(rng.normal(), rng.normal()) * scale
            if m == n:
                c = complex(c.real, 0.0)
            terms[(m, n)] = terms.get((m, n), 0) + c
            if m != n:
                terms[(n, m)] = terms.get((n, m), 0) + c.conjugate()
    return SupportFunction(MonomialField(terms))


class TestPointFromLine:
    def test_axis_line_at_height(self):
        assert np.allclose(point_from_line(0j, 0j, 2.5), [0, 0, 2.5])

    def test_fibre_offset_at_north_pole(self):
        eta0 = 0.3 - 1.1j
        pt = point_from_line(0j, eta0, 0.0)
        assert np.allclose(pt, [2 * eta0.real, 2 * eta0.imag, 0], atol=1e-14)

    def test_printed_family_value_at_one(self):
        # correspondence at (xi=1, eta=4, r=4/3) gives x1 + i x2 = 4/3, and the
        # closed-form family 2(3 xibar^2 - xi^4 + 5 xi xibar^3 - 3 xi^5 xibar)/(3(1+s))
        # evaluates to the same number
        pt = point_from_line(1.0 + 0j, 4.0 + 0j, 4.0 / 3.0)
        assert pt[0] + 1j * pt[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
        xi = 1.0
        family = 2 * (3 * xi**2 - xi**4 + 5 * xi**4 - 3 * xi**6) / (3 * (1 + xi * xi))
        assert family == pytest.approx(4.0 / 3.0, abs=1e-15)


class TestReconstruction:
    def test_round_sphere(self):
        sec = section_from_support(ZERO_SUPPORT)
        mesh = reconstruct_surface(sec, ZERO_SUPPORT, 1.0, disc_radius=1.2, grid=(12, 24))
        norms = np.linalg.norm(mesh.points, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_cubic_example_support_property(self):
        sec = section_from_support(CUBIC)
        mesh = reconstruct_surface(sec, CUBIC, 3.0, disc_radius=0.9, grid=(40, 40))
        check = support_property_check(mesh, sec, CUBIC, 3.0)
        assert check.max_support_residual < 1e-10
        assert check.max_orthogonality_residual < 1e-8

    def test_random_supports_support_property(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            r = random_real_support(rng)
            sec = section_from_support(r)
            mesh = reconstruct_surface(sec, r, 3.0, disc_radius=0.8, grid=(20, 24))
            check = support_property_check(mesh, sec, r, 3.0)
            assert check.max_support_residual < 1e-10
            assert check.max_orthogonality_residual < 1e-8

    def test_defect_scalar_channel(self):
        sec = section_from_support(CUBIC)
        mesh = reconstruct_surface(
            sec, CUBIC, 3.0, disc_radius=0.4, grid=(8, 12), attach_defect=True
        )
        defect = mesh.scalars["umbilic_defect"]
        assert defect.shape == mesh.shape
        assert np.all(defect >= 0)
        # the defect shrinks towards the umbilic at the origin
        assert defect[0].max() < defect[-1].min()

    def test_parallel_translation_is_exact(self):
        sec = section_from_support(CUBIC)
        mesh1 = reconstruct_surface(sec, CUBIC, 1.0, disc_radius=0.9, grid=(10, 16))
        mesh2 = reconstruct_surface(sec, CUBIC, 2.5, disc_radius=0.9, grid=(10, 16))
        U = np.stack(
            [
                np.stack([direction_vector(z) for z in row])
                for row in mesh1.xis
            ]
        )
        delta = mesh2.points - mesh1.points
        assert np.max(np.abs(delta - 1.5 * U)) < 1e-12

    def test_gauss_map_consistency(self):
        # disc 0.5 keeps the C = 3 parallel surface fold-free
        sec = section_from_support(CUBIC)
        mesh = reconstruct_surface(sec, CUBIC, 3.0, disc_radius=0.5, grid=(12, 16))

        def surface(z):
            return point_from_line(
                z, sec.F.eval(z), np.real(CUBIC.r.eval(z)) + 3.0
            )

        # accurate tangents from the reconstruction map itself
        h = 1e-3
        zz = mesh.xis
        tangents = []
        for direction in (1.0, 1j):
            tangents.append(
                (
                    -surface(zz + 2 * h * direction)
                    + 8 * surface(zz + h * direction)
                    - 8 * surface(zz - h * direction)
                    + surface(zz - 2 * h * direction)
                )
                / (12 * h)
            )
        normal = np.cross(tangents[0], tangents[1])
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        U = np.stack([np.stack([direction_vector(z) for z in row]) for row in zz])
        align = np.abs(np.sum(normal * U, axis=-1))
        assert np.min(align) > 1.0 - 1e-6
        # mesh-difference normals agree as the grid refines
        fine = reconstruct_surface(sec, CUBIC, 3.0, disc_radius=0.5, grid=(48, 96))
        du = np.diff(fine.points, axis=0)[:, :-1]
        dv = np.diff(fine.points, axis=1)[:-1]
        coarse = np.cross(du, dv)
        coarse /= np.linalg.norm(coarse, axis=-1, keepdims=True)
        Uf = np.stack(
            [np.stack([direction_vector(z) for z in row]) for row in fine.xis]
        )
        coarse_align = np.abs(np.sum(coarse * Uf[:-1, :-1], axis=-1))
        assert np.min(coarse_align) > 0.995


class TestPrincipalAnalysis:
    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan"), float("inf")])
    def test_disc_radius_must_be_positive_and_finite(self, radius):
        sec = section_from_support(CUBIC)
        for analyse in (reconstruct_surface, principal_analysis):
            with pytest.raises(ValueError, match="disc radius"):
                analyse(sec, CUBIC, 3.0, disc_radius=radius)
        with pytest.raises(ValueError, match="disc radius"):
            find_complex_points(sec, 0j, radius)

    def test_cubic_example_umbilic(self):
        sec = section_from_support(CUBIC)
        rep = principal_analysis(sec, CUBIC, 3.0, disc_radius=0.5, grid_n=41)
        assert not rep.totally_umbilic
        assert len(rep.umbilics) == 1
        u = rep.umbilics[0]
        assert abs(u.location) < 1e-6
        assert u.index == Fraction(-1, 2)

    def test_elliptic_example_umbilic(self):
        sec = section_from_support(QUADRATIC)
        rep = principal_analysis(sec, QUADRATIC, 2.0, disc_radius=0.5, grid_n=41)
        assert len(rep.umbilics) == 1
        u = rep.umbilics[0]
        assert abs(u.location) < 1e-6
        assert u.index == Fraction(1, 1)
        assert u.winding == 2

    def test_umbilic_next_to_the_rim(self):
        # the cubic example moved to xi0 = 0.49, half a grid step inside the rim
        xi0 = 0.49
        a = MonomialField.xi() - xi0
        b = MonomialField.xibar() - xi0
        r = SupportFunction((2.0 / 3.0) * (a * a * a + b * b * b))
        sec = section_from_support(r)
        rep = principal_analysis(sec, r, 3.0, disc_radius=0.5, grid_n=41)
        assert len(rep.umbilics) == 1
        assert abs(rep.umbilics[0].location - xi0) < 1e-6
        assert rep.umbilics[0].index == Fraction(-1, 2)
        cps = find_complex_points(sec, 0j, 0.5, grid_n=64)
        assert [cp.index for cp in cps] == [-1]

    def test_round_sphere_totally_umbilic(self):
        sec = section_from_support(ZERO_SUPPORT)
        rep = principal_analysis(sec, ZERO_SUPPORT, 1.0, disc_radius=0.5, grid_n=21)
        assert rep.totally_umbilic and not rep.umbilics

    def test_matches_complex_points_on_random_supports(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(5):
            r = random_real_support(rng, scale=0.08)
            sec = section_from_support(r)
            cps = find_complex_points(sec, 0j, 0.45, grid_n=64)
            rep = principal_analysis(sec, r, 3.0, disc_radius=0.45, grid_n=41)
            for cp in cps:
                match = [
                    u
                    for u in rep.umbilics
                    if abs(u.location - cp.location) < 1e-6
                ]
                assert match, f"no umbilic at complex point {cp.location}"
                assert match[0].index == Fraction(cp.index, 2)
                checked += 1
        assert checked >= 3

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(3, 6),
        C=st.sampled_from([3.0, 8.0]),
    )
    def test_traceless_part_is_phi_times_dbar_F(self, seed, degree, C):
        # p + i q = Phi dbar F with Phi nowhere zero and of winding 0, so the
        # winding of p + i q about an umbilic is that of dbar F about the
        # complex point, and the umbilic index is half the complex index
        r = random_real_support(np.random.default_rng(seed), max_degree=degree, scale=0.1)
        sec = section_from_support(r)
        shape = _ShapeOperatorField(sec, r, C)
        dbar_F = sec.F.d_xibar()

        def phi(pts):
            p, q, _, _ = shape.evaluate(pts)
            return (p + 1j * q) / dbar_F.eval(pts)

        for radius in (0.1, 0.3, 0.45):
            assert winding_of(phi, Loop(0j, radius)) == 0
        zz, _ = _disc_grid(0j, 0.45, 41)
        # 400 such supports gave min |Phi| = 0.0128 on this grid
        assert np.min(np.abs(phi(zz[np.abs(zz) <= 0.45]))) > 0.005

    def test_collapsed_surface_not_immersed(self):
        # r = 0 with C = 0 sends every line to the origin
        from crosscap.errors import NotImmersed

        sec = section_from_support(ZERO_SUPPORT)
        with pytest.raises(NotImmersed):
            principal_analysis(sec, ZERO_SUPPORT, 0.0, disc_radius=0.4, grid_n=21)

    def test_parallel_surfaces_share_umbilics(self):
        sec = section_from_support(CUBIC)
        rep1 = principal_analysis(sec, CUBIC, 3.0, disc_radius=0.4, grid_n=31)
        rep2 = principal_analysis(sec, CUBIC, 4.0, disc_radius=0.4, grid_n=31)
        assert len(rep1.umbilics) == len(rep2.umbilics) == 1
        assert abs(rep1.umbilics[0].location - rep2.umbilics[0].location) < 1e-8
        assert rep1.umbilics[0].index == rep2.umbilics[0].index


def shifted_support(seed, shift=6.0):
    """A random degree-5 support plus a constant, immersed on the 0.5 disc even at C = 0."""
    r = random_real_support(np.random.default_rng(seed), max_degree=5)
    return SupportFunction(r.r + MonomialField.constant(shift))


class TestShapeOperatorMemo:
    ZZ, _ = _disc_grid(0j, 0.5, 21)

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _tangent_fields.cache_clear()
        yield
        _tangent_fields.cache_clear()

    def built_fresh(self, sec, r, C):
        """(p, q, defect, det_I) bytes from fields built with nothing memoised."""
        _tangent_fields.cache_clear()
        return self.evaluated(sec, r, C)

    def evaluated(self, sec, r, C):
        return [a.tobytes() for a in _ShapeOperatorField(sec, r, C).evaluate(self.ZZ)]

    def test_same_call_twice_hits(self):
        r = shifted_support(1)
        sec = section_from_support(r)
        first = self.evaluated(sec, r, 8.0)
        second = self.evaluated(sec, r, 8.0)
        assert _tangent_fields.cache_info().hits == 1
        assert first == second == self.built_fresh(sec, r, 8.0)

    @pytest.mark.parametrize("C_first, C_then", [(8.0, 3.0), (8, 8.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_constant_after_another(self, C_first, C_then):
        r = shifted_support(2)
        sec = section_from_support(r)
        self.evaluated(sec, r, C_first)
        assert self.evaluated(sec, r, C_then) == self.built_fresh(sec, r, C_then)

    def test_equal_constants_share_an_entry(self):
        r = shifted_support(3)
        sec = section_from_support(r)
        for C in (8, 8.0, np.float64(8.0), 0.0, -0.0):
            self.evaluated(sec, r, C)
        assert _tangent_fields.cache_info().hits == 3

    def test_other_support_with_the_same_section(self):
        r1, r2 = shifted_support(4), shifted_support(5)
        sec = section_from_support(r1)
        self.evaluated(sec, r1, 8.0)
        then = self.evaluated(sec, r2, 8.0)
        assert _tangent_fields.cache_info().hits == 0
        assert then == self.built_fresh(sec, r2, 8.0)

    def test_equal_support_in_another_term_order(self):
        r = shifted_support(6)
        reordered = SupportFunction(MonomialField(dict(reversed(list(r.r.terms().items())))))
        sec = section_from_support(r)
        self.evaluated(sec, r, 8.0)
        hit = self.evaluated(sec, reordered, 8.0)
        assert _tangent_fields.cache_info().hits == 1
        assert hit == self.built_fresh(sec, reordered, 8.0)

    def test_no_stale_entry_between_reconstruction_and_analysis(self):
        r = shifted_support(7)
        sec = section_from_support(r)
        mesh = reconstruct_surface(sec, r, 8, disc_radius=0.5, grid=(6, 12), attach_defect=True)
        report = principal_analysis(sec, r, 3, disc_radius=0.5, grid_n=21)
        _tangent_fields.cache_clear()
        assert repr(report) == repr(principal_analysis(sec, r, 3, disc_radius=0.5, grid_n=21))
        _tangent_fields.cache_clear()
        fresh = reconstruct_surface(sec, r, 8, disc_radius=0.5, grid=(6, 12), attach_defect=True)
        defect = mesh.scalars["umbilic_defect"]
        assert defect.tobytes() == fresh.scalars["umbilic_defect"].tobytes()


class TestRuledFamily:
    def test_boundary_ruling_doubly_covers(self):
        surf = simple_crosscap_surface()
        mesh = ruled_family(surf, [1.0], np.linspace(-1, 1, 5), angular_n=12)[0]
        lines = [
            OrientedLine(complex(mesh.xis[0, j]), simple_eta(mesh.v_values[j]))
            for j in range(12)
        ]
        distinct = _distinct_lines(lines)
        assert len(distinct) == 6

    def test_interior_ruling_all_distinct(self):
        surf = simple_crosscap_surface()
        r0 = 0.8
        theta = 2.0 * np.pi * np.arange(12) / 12
        lines = [
            OrientedLine(
                (1 - r0**2) * r0 * np.exp(1j * t), (r0 * np.exp(-1j * t)) ** 2
            )
            for t in theta
        ]
        assert len(_distinct_lines(lines)) == 12

    def test_mesh_shapes_and_params(self):
        surf = simple_crosscap_surface()
        meshes = ruled_family(surf, [0.8, 1.0], np.linspace(0, 2, 4), angular_n=16)
        assert len(meshes) == 2
        assert meshes[0].shape == (4, 16)
        assert np.allclose(meshes[0].u_values, np.linspace(0, 2, 4))

    def test_perturbed_boundary_ruling_meets_in_two_lines(self):
        # translate orthogonally to the cylinder axis: on the boundary circle
        # the lines all point north, so the translation shifts eta by the
        # constant (w1 + i w2)/2 = 1; coincidences sit where both unit
        # circles |eta| = 1 and |eta - 1| = 1 meet, which the 12-point
        # sampling hits exactly
        n = 12
        theta = 2.0 * np.pi * np.arange(n) / n
        base = [simple_boundary_line(t) for t in theta]
        shifted = [translate_line(l, np.array([2.0, 0.0, 0.0])) for l in base]
        coincident = set()
        for a in base:
            best = min(line_distance(a, b) for b in shifted)
            if best < 1e-6:
                coincident.add(_line_key(a))
        assert len(coincident) == 2


def simple_eta(theta):
    nu = np.exp(1j * theta)
    return complex(np.conj(nu) ** 2)


def simple_boundary_line(theta):
    return OrientedLine(0j, simple_eta(theta))


def _line_key(line):
    return (round(line.eta.real, 9), round(line.eta.imag, 9))


def _distinct_lines(lines, tol=1e-9):
    # oriented-line identity: same direction and same moment (closest-approach
    # distance alone cannot separate intersecting lines)
    from crosscap.linespace import line_to_vectors

    distinct = []
    for line in lines:
        lv = line_to_vectors(line)
        fresh = True
        for other in distinct:
            ov = line_to_vectors(other)
            if (
                np.linalg.norm(lv.U - ov.U) + np.linalg.norm(lv.V - ov.V)
                <= tol
            ):
                fresh = False
                break
        if fresh:
            distinct.append(line)
    return distinct


# -0.0, the smallest subnormal, +-1e300, integer-valued floats and 1e16
EXPORT_SPECIALS = (-0.0, 5e-324, 1e300, -1e300, 3.0, -12.0, 1e16, 0.1)


def loop_export_obj(mesh):
    """The OBJ exporter as one f-string per line, kept as the reference."""
    rows, cols = mesh.shape
    lines = []
    for i in range(rows):
        for j in range(cols):
            x, y, z = mesh.points[i, j]
            lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = i * cols + j + 1
            b = (i + 1) * cols + j + 1
            c = (i + 1) * cols + j + 2
            d = i * cols + j + 2
            lines.append(f"f {a} {b} {c} {d}")
    return ("\n".join(lines) + "\n").encode("ascii")


def loop_export_csv(mesh):
    """The CSV exporter as ``repr`` of every field of the full table, kept as
    the reference."""
    rows, cols = mesh.shape
    table = np.column_stack(
        [np.repeat(mesh.u_values, cols), np.tile(mesh.v_values, rows), mesh.points.reshape(-1, 3)]
    )
    lines = ["u,v,x1,x2,x3"] + [",".join(map(repr, row)) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


class TestExporters:
    def make_mesh(self, rows=2, cols=3):
        u = np.arange(rows, dtype=float)
        v = np.arange(cols, dtype=float)
        pts = np.zeros((rows, cols, 3))
        pts[..., 0] = u[:, None]
        pts[..., 1] = v[None, :]
        pts[..., 2] = 0.125 + u[:, None] * v[None, :]
        return MeshR3(pts, np.zeros((rows, cols), complex), u, v)

    def test_minimal_grid_counts(self):
        data = export_obj(self.make_mesh()).decode("ascii")
        lines = data.strip().split("\n")
        assert sum(1 for l in lines if l.startswith("v ")) == 6
        assert sum(1 for l in lines if l.startswith("f ")) == 2
        assert data.endswith("\n")

    def test_obj_round_trip(self):
        mesh = self.make_mesh(4, 5)
        mesh.points[...] = np.random.default_rng(71).normal(size=mesh.points.shape)
        # regenerate a valid mesh after randomizing
        mesh = MeshR3(mesh.points, mesh.xis, mesh.u_values, mesh.v_values)
        data = export_obj(mesh).decode("ascii")
        verts = [
            [float(tok) for tok in line.split()[1:]]
            for line in data.strip().split("\n")
            if line.startswith("v ")
        ]
        verts = np.array(verts).reshape(4, 5, 3)
        assert np.max(np.abs(verts - mesh.points)) < 1e-8

    def test_faces_are_one_based_quads(self):
        data = export_obj(self.make_mesh()).decode("ascii")
        faces = [l for l in data.strip().split("\n") if l.startswith("f ")]
        assert faces[0] == "f 1 4 5 2"

    def test_csv_header_and_rows(self):
        data = export_csv(self.make_mesh()).decode("ascii")
        lines = data.strip().split("\n")
        assert lines[0] == "u,v,x1,x2,x3"
        assert len(lines) == 1 + 6

    def test_empty_and_small_meshes_rejected(self):
        with pytest.raises(EmptyMesh):
            MeshR3(np.zeros((0, 0, 3)), np.zeros((0, 0)), [], [])
        with pytest.raises(EmptyMesh):
            MeshR3(np.zeros((1, 3, 3)), np.zeros((1, 3)), [0.0], [0.0, 1.0, 2.0])
        with pytest.raises(EmptyMesh):
            MeshR3(np.zeros((2, 2, 3)), np.zeros((2, 2)), [0.0, 1.0], [0.0, 1.0])
        # below 2x2 faces: export_obj keeps its own guard for anything shaped like a mesh
        with pytest.raises(EmptyMesh):
            export_obj(SimpleNamespace(shape=(1, 4), points=np.zeros((1, 4, 3))))

    def test_duplicate_consecutive_vertices_rejected(self):
        pts = np.zeros((2, 3, 3))
        with pytest.raises(ValueError):
            MeshR3(pts, np.zeros((2, 3)), [0, 1], [0, 1, 2])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(2, 7), cols=st.integers(3, 9))
    def test_exporters_match_the_loop_exporters_byte_for_byte(self, data, rows, cols):
        floats = st.one_of(st.sampled_from(EXPORT_SPECIALS), st.floats())
        coords = data.draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
        scale = data.draw(st.sampled_from([1.0, -1.0, 1e16, 1e300]))
        pts = np.empty((rows, cols, 3))
        # x1 is distinct per vertex, so no two consecutive vertices coincide
        pts[..., 0] = scale * np.arange(1, rows * cols + 1).reshape(rows, cols)
        pts[..., 1:] = np.array(coords).reshape(rows, cols, 2)
        u = data.draw(st.lists(floats, min_size=rows, max_size=rows))
        v = data.draw(st.lists(floats, min_size=cols, max_size=cols))
        with np.errstate(all="ignore"):  # the duplicate-vertex check overflows at 1e300
            mesh = MeshR3(pts, np.zeros((rows, cols), complex), u, v)
        assert export_obj(mesh) == loop_export_obj(mesh)
        assert export_csv(mesh) == loop_export_csv(mesh)

    @pytest.mark.parametrize("grid", [(2, 3), (24, 48), (17, 5)])
    def test_reconstructed_meshes_match_the_loop_exporters(self, grid):
        r = random_real_support(np.random.default_rng(grid[0]), max_degree=5)
        mesh = reconstruct_surface(section_from_support(r), r, 8.0, disc_radius=0.7, grid=grid)
        assert export_obj(mesh) == loop_export_obj(mesh)
        assert export_csv(mesh) == loop_export_csv(mesh)


class TestLineDistance:
    def test_parallel_lines(self):
        a = OrientedLine(0j, 0j)
        b = OrientedLine(0j, 0.5 + 0j)
        assert line_distance(a, b) == pytest.approx(1.0)  # V = (1, 0, 0)

    def test_skew_lines(self):
        a = OrientedLine(0j, 0j)           # the x3 axis
        b = OrientedLine(1.0 + 0j, 0j)     # through origin along x1
        assert line_distance(a, b) == pytest.approx(0.0, abs=1e-12)
        c = translate_line(b, np.array([0.0, 0.0, 2.0]))
        assert line_distance(a, c) == pytest.approx(0.0, abs=1e-12)  # both meet the axis
        d = translate_line(b, np.array([0.0, 1.0, 0.0]))
        assert line_distance(a, d) == pytest.approx(1.0, abs=1e-12)
