"""Tests of the benchmark's own oracles.

    python3 -m pytest bench/oracle_tests.py

The file name keeps these tests out of the library's default test run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def _distinct_real_roots_in(coeffs, lo, hi):
    """Reference count from numpy.roots (coefficients lowest degree first)."""
    roots = np.roots(coeffs[::-1])
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-7 and lo <= r.real <= hi)
    distinct = [r for i, r in enumerate(real) if i == 0 or r - real[i - 1] > 1e-6]
    return len(distinct)


@pytest.mark.parametrize(
    "roots, lo, hi",
    [
        ((0.5, 2.0, -1.0), -3.0, 3.0),        # three simple roots
        ((0.5, 2.0, -1.0), 0.0, 1.0),         # one of them inside
        ((1.0, 1.0, -2.0), -3.0, 3.0),        # a double root counts once
        ((1.0, 1.0, 3.0, 0.25), 0.0, 2.0),    # double root inside, simple root outside
        ((0.3, 0.7), 0.3, 0.7),               # roots on both endpoints
        ((1.5,), 0.0, 1.0),                   # root outside the interval
    ],
)
def test_sturm_count_matches_numpy_roots(roots, lo, hi):
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    got = oracles.sturm_root_count(coeffs, lo, hi)
    assert got == _distinct_real_roots_in(coeffs, lo, hi)


def test_sturm_count_ignores_complex_roots():
    # (x^2 + 1)(x - 0.5) has one real root
    assert oracles.sturm_root_count([-0.5, 1.0, -0.5, 1.0], -10.0, 10.0) == 1


def test_sturm_count_rejects_zero_polynomial():
    with pytest.raises(oracles.OracleError):
        oracles.sturm_root_count([0.0, 0.0], 0.0, 1.0)


def test_profile_defect_roots_reads_nubar_times_h():
    # xi = nu - nu^2 nubar and eta = P(t) nubar^2 with P = t^2, t = 1 - nu nubar:
    # W = 2 (1 - s)^2 (3 s - 1) nubar, roots s = 1/3 and s = 1.
    xi = {(1, 0): 1.0, (2, 1): -1.0}
    eta = {(0, 2): 1.0, (1, 3): -2.0, (2, 4): 1.0}
    h = oracles.profile_defect_h(xi, eta)
    assert h == [-2, 10, -14, 6]
    assert oracles.profile_defect_roots(h, 0.7, 0.9) == 0
    assert oracles.profile_defect_roots(h, 0.5, 0.9) == 1
    assert oracles.profile_defect_roots(h, 0.5, 1.0) == 2


def test_profile_grid_min_matches_a_full_grid():
    xi = {(1, 0): 1.0, (2, 1): -1.0}
    eta = {(0, 2): 1.0, (1, 3): -2.0, (2, 4): 1.0}
    W = {(0, 1): -2.0, (1, 2): 10.0, (2, 3): -14.0, (3, 4): 6.0}
    radii = np.linspace(0.5, 0.9, 64)
    grid = radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)[None, :]
    want = np.min(np.abs(oracles.poly_eval(W, grid)))
    got = oracles.profile_grid_min(oracles.profile_defect_h(xi, eta), 0.5, 0.9, 64)
    assert got == pytest.approx(want, rel=1e-12)


def test_profile_defect_h_rejects_a_non_profile_piece():
    with pytest.raises(oracles.OracleError):
        oracles.profile_defect_h({(0, 1): 1.0}, {(1, 0): 1.0})  # W = 1


def test_winding_of_zbar_is_minus_one():
    assert oracles.winding({(0, 1): 1.0}, 0.8) == -1


def test_winding_of_z_squared_is_two():
    assert oracles.winding({(2, 0): 1.0}, 0.8) == 2


def test_winding_excludes_zeros_outside_the_circle():
    # (z - 0.5)(z - 2) winds once around |z| = 1
    assert oracles.winding({(2, 0): 1.0, (1, 0): -2.5, (0, 0): 1.0}, 1.0) == 1


def test_winding_rejects_a_zero_on_the_circle():
    with pytest.raises(oracles.OracleError):
        oracles.winding({(1, 0): 1.0, (0, 0): -1.0}, 1.0, start=1024)


def test_winding_near_answers_with_a_zero_on_the_circle():
    assert oracles.winding_near({(1, 0): 1.0, (0, 0): -1.0}, 1.0) == {0, 1}
    assert oracles.winding_near({(1, 0): 1.0}, 1.0) == {1}


def test_csv_check_rejects_numpy_scalar_text():
    text = "u,v\nnp.float64(0.5),0.25\n"
    ok, reason, wrapped_only = oracles.check_csv_text(text, "u,v", np.array([[0.5, 0.25]]))
    assert not ok
    assert wrapped_only
    assert "np.float64(" in reason


def test_csv_check_still_compares_numbers_inside_numpy_scalar_text():
    text = "u,v\nnp.float64(0.5),0.25\nnp.float64(7.0),np.float64(0.1000)\n"
    ok, reason, wrapped_only = oracles.check_csv_text(text, "u,v")
    assert (ok, wrapped_only) == (False, False)
    assert reason == "row 1: field is not the shortest float repr"
    values = np.array([[0.5, 0.25], [1.0, 0.1]])
    ok, _, wrapped_only = oracles.check_csv_text(text.replace("0.1000", "0.1"), "u,v", values)
    assert not ok
    assert not wrapped_only


def test_csv_check_accepts_exact_text_and_compares_bits():
    values = np.array([[0.1, 1e-300], [-0.0, 2.5]])
    text = "u,v\n" + "\n".join(",".join(repr(float(x)) for x in row) for row in values) + "\n"
    assert oracles.check_csv_text(text, "u,v", values)[0]
    nudged = values.copy()
    nudged[1, 1] = np.nextafter(2.5, 3.0)
    assert not oracles.check_csv_text(text, "u,v", nudged)[0]
    assert not oracles.check_csv_text(text.replace("-0.0", "0.0"), "u,v", values)[0]


def test_csv_check_rejects_non_shortest_text():
    assert not oracles.check_csv_text("u\n0.10000000000000001\n", "u")[0]


def test_obj_check_round_trip_and_precision():
    pts = np.array([[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], [[6.0, 7.0, 8.0], [9.0, 1.0 / 3.0, 2.0]]])
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in pts.reshape(-1, 3)]
    text = "\n".join(lines + ["f 1 3 4 2"]) + "\n"
    assert oracles.check_obj_text(text, pts, 2, 2) == (True, "")
    shifted = pts.copy()
    shifted[1, 1, 1] += 1e-7
    assert not oracles.check_obj_text(text, shifted, 2, 2)[0]
    assert not oracles.check_obj_text(text.replace("f 1 3 4 2", "f 1 3 4 9"), pts, 2, 2)[0]


def test_csv_check_reads_long_text_in_blocks():
    values = np.arange(3 * oracles.CSV_BLOCK_ROWS, dtype=float).reshape(-1, 1) / 7.0
    text = "u\n" + "\n".join(repr(float(x)) for x in values[:, 0]) + "\n"
    assert oracles.check_csv_text(text, "u", values) == (True, "", False)
    assert oracles.check_csv_text(text, "u")[0]
    assert not oracles.check_csv_text(text, "u", values[:-1])[0]
    assert not oracles.check_csv_text(text, "u", np.vstack([values, [[0.5]]]))[0]
    nudged = values.copy()
    nudged[-1, 0] = np.nextafter(nudged[-1, 0], 0.0)
    ok, reason, _ = oracles.check_csv_text(text, "u", nudged)
    assert not ok
    assert reason.startswith(f"row {len(values) - 1}:")
