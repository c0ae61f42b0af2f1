import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap.errors import NonPolynomialSupport, NotLagrangian, VanishingOnLoop
from crosscap.linespace import OrientedLine, TangentVec, omega
from crosscap.sections import (
    ROMBERG_MAX_LEVELS,
    ROMBERG_MIN_LEVEL,
    ROMBERG_TOL,
    SectionGraph,
    SupportFunction,
    boundary_winding,
    hessian_combination,
    lagrangian_defect,
    radial_support_value,
    section_from_support,
    support_from_section,
    totally_real_defect,
)
from crosscap.wirtinger import MAX_SAMPLE_COUNT, Loop, MonomialField, RationalField

ONE = MonomialField.constant(1.0)
S = MonomialField({(1, 1): 1.0})
XI = MonomialField.xi()


def cubic_support():
    return SupportFunction(MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0}))


def random_real_support(rng, max_degree=4, scale=0.3):
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


def log_support_section():
    # F = (1/2) xi (1+s) is Lagrangian with support log(1 + xi xibar)
    return SectionGraph(RationalField(0.5 * XI * (ONE + S), 0))


def per_level_romberg(F, xi):
    """The radial quadrature with one eval call per Romberg level, as first
    written: the reference the batched routine keeps the bits of.  Returns
    the value and the number of levels the table reached."""
    z = complex(xi)
    if z == 0:
        return 0.0, 0
    s = (z * z.conjugate()).real

    def integrand(t):
        st = t * t * s
        fv = F.F.eval(t * z)
        return 4.0 * np.real(z * np.conj(fv)) / (1.0 + st) ** 2

    rows = []
    n = 1
    a, b = 0.0, 1.0
    fa, fb = integrand(np.array([a]))[0], integrand(np.array([b]))[0]
    T = 0.5 * (b - a) * (fa + fb)
    rows.append([T])
    for level in range(1, ROMBERG_MAX_LEVELS):
        n *= 2
        mid = a + (b - a) * (np.arange(1, n, 2) / n)
        T = 0.5 * rows[-1][0] + (b - a) / n * integrand(mid).sum()
        row = [T]
        for k in range(1, level + 1):
            row.append(row[k - 1] + (row[k - 1] - rows[-1][k - 1]) / (4.0 ** k - 1.0))
        rows.append(row)
        best = rows[-1][-1]
        if level >= 3 and abs(best - rows[-2][-1]) < ROMBERG_TOL * (1.0 + abs(best)):
            return best, level
    return rows[-1][-1], ROMBERG_MAX_LEVELS - 1


def same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def sections_of_degree_3_to_6(draw):
    """Lagrangian sections of random supports, or raw rational sections,
    whose radial integrands are not polynomial in t."""
    degree = draw(st.integers(3, 6))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return section_from_support(random_real_support(rng, max_degree=degree))
    keys = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    coeffs = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(st.sampled_from(keys), coeffs, min_size=1))
    return SectionGraph(RationalField(MonomialField(terms), draw(st.integers(0, 3))))


RADIAL_POINTS = st.one_of(
    st.just(0j), st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False)
)


class TestSectionFromSupport:
    def test_constant_gives_zero_section(self):
        sec = section_from_support(SupportFunction(MonomialField.constant(5.0)))
        assert sec.F.num == MonomialField.zero()

    def test_cubic_pair(self):
        sec = section_from_support(cubic_support())
        expected = (ONE + S) * (ONE + S) * MonomialField.monomial(0, 2)
        assert sec.F.num == expected

    def test_quadratic_support(self):
        sec = section_from_support(SupportFunction(S))
        expected = 0.5 * MonomialField.xi() * (ONE + S) * (ONE + S)
        assert sec.F.num == expected

    def test_parallel_family_independent_of_constant(self):
        r = cubic_support()
        shifted = SupportFunction(r.r + MonomialField.constant(7.5))
        assert section_from_support(r).F == section_from_support(shifted).F

    def test_support_identity_at_random_points(self):
        # dr/dxi == 2 conj(F) / (1+s)^2 pointwise
        r = cubic_support()
        F = section_from_support(r).F
        grad = r.r.d_xi()
        rng = np.random.default_rng(13)
        pts = rng.normal(size=100) + 1j * rng.normal(size=100)
        lhs = grad.eval(pts)
        s = (pts * np.conj(pts)).real
        rhs = 2.0 * np.conj(F.eval(pts)) / (1.0 + s) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestLagrangianDefect:
    def test_from_support_sections_have_zero_defect(self):
        sec = section_from_support(cubic_support())
        ax = np.linspace(-1, 1, 30)
        zz = ax[None, :] + 1j * ax[:, None]
        assert np.max(lagrangian_defect(sec, zz)) < 1e-12

    def test_zero_section(self):
        sec = SectionGraph(RationalField(MonomialField.zero(), 0))
        assert lagrangian_defect(sec, 0.3 + 0.2j) == 0.0

    def test_non_lagrangian_graph(self):
        # d/dxi (s / (1+s)^2) = xibar (1-s) / (1+s)^3: real on the real axis,
        # complex elsewhere
        sec = SectionGraph(RationalField(S, 0))  # eta = xi xibar
        assert lagrangian_defect(sec, 0.5) == pytest.approx(0.0, abs=1e-15)
        xi = 0.5 + 0.5j
        s = abs(xi) ** 2
        expected = abs(np.imag(np.conj(xi) * (1 - s) / (1 + s) ** 3))
        assert expected > 0.0
        assert lagrangian_defect(sec, xi) == pytest.approx(expected, abs=1e-12)

    def test_values_keep_the_bits_of_the_per_call_derivative(self):
        # the derivative is cached on the section; each value must be the one
        # deriving d/dxi (F / (1+s)^2) afresh on every call gave
        rng = np.random.default_rng(5)
        sections = [SectionGraph(RationalField(S, 0)), log_support_section()]
        sections += [section_from_support(random_real_support(rng, d)) for d in (3, 4, 5, 6)]
        pts = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
        for sec in sections:
            fresh = RationalField(sec.F.num, sec.F.den_power + 2).d_xi()
            assert same_bits(lagrangian_defect(sec, pts), np.abs(np.imag(fresh.eval(pts))))
            assert same_bits(lagrangian_defect(sec, 0.3 - 0.7j), abs(fresh.eval(0.3 - 0.7j).imag))
            assert sec.lagrangian_derivative is sec.lagrangian_derivative


class TestSupportFromSection:
    def test_zero_section(self):
        r = support_from_section(SectionGraph(RationalField(MonomialField.zero(), 0)))
        assert r.r == MonomialField.zero()

    def test_cubic_pair_inverse(self):
        F = SectionGraph(
            RationalField((ONE + S) * (ONE + S) * MonomialField.monomial(0, 2), 0)
        )
        r = support_from_section(F)
        assert r.r.allclose(cubic_support().r, tol=1e-12)

    def test_non_lagrangian_rejected(self):
        with pytest.raises(NotLagrangian):
            support_from_section(SectionGraph(RationalField(S, 0)))

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_scaled_lagrangian_section_accepted(self, scale):
        # the identity is tested relative to the coefficients, so rounding
        # residue that grows with them is no defect
        r = random_real_support(np.random.default_rng(43), max_degree=5)
        sec = SectionGraph(RationalField(scale * section_from_support(r).F.num, 0))
        back = support_from_section(sec)
        normalized = r.r - MonomialField.constant(r.r.eval(0))
        assert back.r.allclose(scale * normalized, tol=1e-10 * scale)

    def test_lagrangian_test_runs_before_the_polynomial_test(self):
        # the log-support section fails only the polynomial test; an xi xibar
        # term 1e-6 in size makes it non-Lagrangian too, and that is reported
        with pytest.raises(NonPolynomialSupport):
            support_from_section(log_support_section())
        F = SectionGraph(RationalField(log_support_section().F.num + 1e-6 * S, 0))
        with pytest.raises(NotLagrangian):
            support_from_section(F)

    def test_round_trip_random_supports(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            r = random_real_support(rng)
            normalized = r.r - MonomialField.constant(r.r.eval(0))
            back = support_from_section(section_from_support(r))
            assert back.r.allclose(normalized, tol=1e-8)

    def test_quadrature_reproduces_exact_support(self):
        # independent radial-quadrature route agrees with the polynomial one
        rng = np.random.default_rng(29)
        r = cubic_support()
        sec = section_from_support(r)
        for _ in range(6):
            xi = complex(*rng.normal(size=2)) * 0.8
            exact = float(np.real(r.r.eval(xi)) - np.real(r.r.eval(0)))
            quad = radial_support_value(sec, xi)
            assert quad == pytest.approx(exact, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(sec=sections_of_degree_3_to_6(), xi=RADIAL_POINTS)
    @example(sec=log_support_section(), xi=0j)
    @example(sec=log_support_section(), xi=10.0 - 3j)
    def test_batched_romberg_keeps_the_bits_of_the_per_level_routine(self, sec, xi):
        want, _ = per_level_romberg(sec, xi)
        assert same_bits(radial_support_value(sec, xi), want)

    def test_levels_past_the_batch_keep_their_bits(self):
        # a polynomial support's integrand is polynomial in t and passes at
        # ROMBERG_MIN_LEVEL; the log support's needs more levels
        for xi in (2.0, 5j, 10.0 - 3j):
            want, levels = per_level_romberg(log_support_section(), xi)
            assert levels > ROMBERG_MIN_LEVEL
            assert same_bits(radial_support_value(log_support_section(), xi), want)

    def test_quadrature_on_random_support(self):
        rng = np.random.default_rng(37)
        r = random_real_support(rng, max_degree=3)
        sec = section_from_support(r)
        xi = 0.4 - 0.55j
        exact = float(np.real(r.r.eval(xi)) - np.real(r.r.eval(0)))
        assert radial_support_value(sec, xi) == pytest.approx(exact, abs=1e-8)


class TestOmegaRestriction:
    def test_sections_are_lagrangian_for_omega(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            r = random_real_support(rng, max_degree=3)
            F = section_from_support(r).F
            for _ in range(20):
                xi = complex(*rng.normal(size=2)) * 0.7
                fxi = F.num.d_xi().eval(xi)
                fxibar = F.num.d_xibar().eval(xi)
                line = OrientedLine(xi, F.eval(xi))
                vecs = []
                for z in (1.0 + 0j, 1j):
                    vecs.append(TangentVec(line, z, z * fxi + z.conjugate() * fxibar))
                assert abs(omega(vecs[0], vecs[1])) < 1e-10


class TestTotallyRealDiagnostics:
    def test_constant_support_flat(self):
        r = SupportFunction(MonomialField.constant(2.0))
        assert totally_real_defect(r, 0.7 + 0.2j) == 0.0

    def test_cubic_defect_value_and_fd_oracle(self):
        r = cubic_support()
        # second Wirtinger derivative is 4 xi, so the defect is 16|4 xi|^2
        assert totally_real_defect(r, 1.0) == pytest.approx(256.0)
        h = 1e-4

        def r_val(x, y):
            return float(np.real(r.r.eval(complex(x, y))))

        for xi in (1.0 + 0j, 0.3 - 0.8j):
            x, y = xi.real, xi.imag
            r11 = (r_val(x + h, y) - 2 * r_val(x, y) + r_val(x - h, y)) / h**2
            r22 = (r_val(x, y + h) - 2 * r_val(x, y) + r_val(x, y - h)) / h**2
            r12 = (
                r_val(x + h, y + h)
                - r_val(x + h, y - h)
                - r_val(x - h, y + h)
                + r_val(x - h, y - h)
            ) / (4 * h**2)
            defect_fd = (r11 - r22) ** 2 + (2 * r12) ** 2
            assert totally_real_defect(r, xi) == pytest.approx(defect_fd, abs=1e-6, rel=1e-6)

    def test_boundary_winding_cubic(self):
        # the jet combination is 4 conj(d2 r) = 16 xibar: winding -1, which
        # matches the complex-point index of the associated section
        r = cubic_support()
        assert boundary_winding(r, Loop(0, 1.0)) == -1
        vals = hessian_combination(r, Loop(0, 1.0).samples())
        assert np.allclose(vals, 16.0 * np.conj(Loop(0, 1.0).samples()))

    @pytest.mark.parametrize("side, expected", [(-1, -1), (1, 0)])
    def test_boundary_winding_with_a_grazing_complex_point(self, side, expected):
        # d2 r = xi - a puts a zero of the combination 4 conj(xi - a) 1e-5
        # inside or outside the unit loop, between two samples even at the
        # sample cap, while the defect there stays above the floor
        a = (1 + side * 1e-5) * np.exp(1j * np.pi / MAX_SAMPLE_COUNT)
        terms = {(3, 0): 1 / 6, (0, 3): 1 / 6, (2, 0): -a / 2, (0, 2): -a.conjugate() / 2}
        r = SupportFunction(MonomialField(terms))
        assert boundary_winding(r, Loop(0, 1.0)) == expected

    def test_boundary_winding_keeps_the_bits_of_the_per_level_field(self, monkeypatch):
        # the d2 r field is built once per call; each sampling level must see
        # the bits the former per-level 4 conj(d2 r) gave, refined levels too
        import crosscap.sections as se

        real = se.winding_of

        def recording(log):
            def wrapped(func, loop, **kw):
                def sample(pts):
                    log.append(func(pts))
                    return log[-1]
                return real(sample, loop, **kw)
            return wrapped

        rng = np.random.default_rng(0)
        refined = 0
        for i in range(200):
            r = random_real_support(rng, max_degree=3 + i % 4, scale=0.1)
            loop = Loop(0j, 0.8)
            new, old = [], []
            monkeypatch.setattr(se, "winding_of", recording(new))
            got = boundary_winding(r, loop)
            want = recording(old)(
                lambda pts: hessian_combination(r, pts), loop,
                min_mag=se.TOTALLY_REAL_DEFECT_FLOOR ** 0.5, cap_increment=np.pi,
            )
            assert got == want
            assert [v.tobytes() for v in new] == [v.tobytes() for v in old]
            refined += len(new) > 1
        assert refined >= 5

    def test_boundary_winding_requires_nonvanishing_defect(self):
        r = cubic_support()
        with pytest.raises(VanishingOnLoop):
            boundary_winding(r, Loop(0.5, 0.5))  # loop passes through xi = 0


class TestNonPolynomialSupport:
    def test_log_support_section_rejected_exactly(self):
        # F = (1/2) xi (1+s) is Lagrangian with support log(1 + xi xibar),
        # which no polynomial represents
        F = log_support_section()
        ax = np.linspace(-1, 1, 15)
        zz = ax[None, :] + 1j * ax[:, None]
        assert np.max(lagrangian_defect(F, zz)) < 1e-14
        with pytest.raises(NonPolynomialSupport):
            support_from_section(F)

    def test_quadrature_still_integrates_it(self):
        # the radial quadrature does not need a polynomial antiderivative
        F = log_support_section()
        for xi in (1.0, 0.5 + 0.25j, 1.4j):
            expected = float(np.log1p(abs(complex(xi)) ** 2))
            assert radial_support_value(F, xi) == pytest.approx(expected, abs=1e-9)


class TestSupportValidation:
    def test_rejects_non_real_coefficients(self):
        with pytest.raises(ValueError):
            SupportFunction(MonomialField({(2, 0): 1.0}))

    def test_symmetrizes_exactly(self):
        r = SupportFunction(MonomialField({(1, 0): 1 + 2j, (0, 1): 1 - 2j, (1, 1): 3.0}))
        assert r.r.is_real_symmetric(tol=0.0)
