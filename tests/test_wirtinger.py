import json

import numpy as np
import pytest

from crosscap.errors import ChartDomainError, UnresolvedWinding, VanishingOnLoop
from crosscap.wirtinger import (
    Loop,
    MonomialField,
    RationalField,
    winding_number,
    winding_of,
)

XI = MonomialField.xi()
XIBAR = MonomialField.xibar()
ONE = MonomialField.constant(1.0)
S = XI * XIBAR


def cubic_support():
    # (2/3)(xi^3 + xibar^3)
    return MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0})


def winding_oracle(func, center, radius, n=4096):
    """Independent winding computation: unwrap sampled arguments."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = np.asarray(func(center + radius * np.exp(1j * theta)))
    vals = np.append(vals, vals[0])
    args = np.unwrap(np.angle(vals))
    total = (args[-1] - args[0]) / (2.0 * np.pi)
    assert abs(total - round(total)) < 1e-9
    return round(total)


class TestDerivatives:
    def test_power_rule(self):
        assert (XI * XI).d_xi() == MonomialField({(1, 0): 2.0})

    def test_cubic_support_gradient(self):
        # left side of the support relation for the cubic example
        assert cubic_support().d_xi() == MonomialField({(2, 0): 2.0})

    def test_product_derivative_matches_refactored_form(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        derivative = f.d_xibar()
        factored = 2.0 * XIBAR * (ONE + S) * (ONE + 2.0 * S)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = complex(*rng.normal(size=2))
            assert derivative.eval(z) == pytest.approx(factored.eval(z), abs=1e-12)
        assert derivative == factored

    def test_mixed_partials_commute_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = MonomialField(
                {
                    (int(rng.integers(0, 5)), int(rng.integers(0, 5))): complex(
                        *rng.normal(size=2)
                    )
                    for _ in range(6)
                }
            )
            assert f.d_xi().d_xibar() == f.d_xibar().d_xi()

    def test_conjugation_intertwines_derivatives(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = MonomialField(
                {
                    (int(rng.integers(0, 5)), int(rng.integers(0, 5))): complex(
                        *rng.normal(size=2)
                    )
                    for _ in range(6)
                }
            )
            assert f.d_xibar().conj() == f.conj().d_xi()


class TestEval:
    def test_s_at_one_plus_i(self):
        assert S.eval(1 + 1j) == pytest.approx(2.0)

    def test_section_value_at_one(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        assert f.eval(1.0) == pytest.approx(4.0)

    def test_cubic_support_at_one(self):
        assert cubic_support().eval(1.0) == pytest.approx(4.0 / 3.0)

    def test_real_flagged_field_evaluates_real(self):
        rng = np.random.default_rng(3)
        terms = {}
        for _ in range(5):
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            c = complex(*rng.normal(size=2))
            terms[(m, n)] = terms.get((m, n), 0) + c
            terms[(n, m)] = terms.get((n, m), 0) + c.conjugate()
        f = MonomialField(terms)
        assert f.is_real_symmetric()
        pts = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.max(np.abs(np.imag(f.eval(pts)))) < 1e-12

    def test_chart_bound_rejected(self):
        with pytest.raises(ChartDomainError):
            S.eval(2e3)

    def test_rational_field_eval(self):
        f = RationalField(2.0 * XI, 1)  # 2 xi / (1+s)
        assert f.eval(1.0) == pytest.approx(1.0)

    def test_rational_reduction(self):
        f = RationalField((ONE + S) * XI, 2).reduced()
        assert f.den_power == 1
        assert f.num == XI


class TestWinding:
    def test_conjugate_coordinate(self):
        loop = Loop(0, 1.0)
        assert winding_number(np.conj(loop.samples())) == -1

    def test_dominant_conjugate_factor(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        derivative = f.d_xibar()
        loop = Loop(0, 0.1)
        got = winding_of(lambda z: derivative.eval(z), loop)
        assert got == winding_oracle(lambda z: derivative.eval(z), 0, 0.1) == -1

    def test_dominant_square_factor(self):
        g = XI * XI * (ONE + S)
        loop = Loop(0, 0.5)
        got = winding_of(lambda z: g.eval(z), loop)
        assert got == winding_oracle(lambda z: g.eval(z), 0, 0.5) == 2

    def test_vanishing_on_loop(self):
        g = XI - 0.1 * ONE
        with pytest.raises(VanishingOnLoop):
            winding_of(lambda z: g.eval(z), Loop(0, 0.1))

    def test_stable_under_doubling(self):
        f = (ONE + S) * (ONE + S) * XIBAR * XIBAR
        derivative = f.d_xibar()
        results = {
            winding_of(lambda z: derivative.eval(z), Loop(0, 0.3, sample_count=n))
            for n in (64, 128, 256, 512)
        }
        assert results == {-1}

    def test_unresolved_without_refinement(self):
        # two samples of a nonvanishing function cannot pin the branch
        vals = np.array([1.0, -1.0, 1.0, -1.0] * 32)
        with pytest.raises(UnresolvedWinding):
            winding_number(vals)

    def test_loop_validation(self):
        with pytest.raises(ValueError):
            Loop(0, 1.0, sample_count=63)
        for radius in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                Loop(0, radius)


class TestWireFormat:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(9)
        f = MonomialField(
            {
                (int(rng.integers(0, 6)), int(rng.integers(0, 6))): complex(
                    rng.normal(), rng.normal()
                )
                for _ in range(8)
            }
        )
        payload = json.dumps(f.to_records())
        g = MonomialField.from_records(json.loads(payload))
        assert f == g  # exact coefficient equality, not approximate

    @pytest.mark.parametrize(
        "records",
        [
            {"m": 1, "n": 0, "re": 1.0},
            [[1, 0, 1.0]],
            [{"m": 1, "n": 0}],
            [{"m": 1.5, "n": 0, "re": 1.0}],
            [{"m": True, "n": 0, "re": 1.0}],
            [{"m": 1, "n": 0, "re": "1"}],
            [{"m": 1, "n": 0, "re": float("nan")}],
            [{"m": 1, "n": 0, "re": 1.0, "im": float("inf")}],
        ],
    )
    def test_malformed_records_rejected(self, records):
        with pytest.raises(ValueError):
            MonomialField.from_records(records)

    def test_canonical_form_drops_zeros(self):
        f = MonomialField({(1, 1): 1.0, (2, 0): 0.0})
        assert (1, 1) in f.terms() and (2, 0) not in f.terms()
        assert (f - f) == MonomialField.zero()
