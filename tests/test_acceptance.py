"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from crosscap import blowup, cpoints, euclid, ledger, linespace, sections
from crosscap.verify import report_to_json, run_verification
from crosscap.wirtinger import Loop, MonomialField, winding_of

CUBIC = sections.SupportFunction(
    MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0})
)
QUADRATIC = sections.SupportFunction(MonomialField({(1, 1): 1.0}))


def _report(number, name, passed):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {name}")
    assert passed, f"criterion {number} failed: {name}"


def random_support(rng, max_degree=4, scale=0.1):
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
    return sections.SupportFunction(MonomialField(terms))


def test_criterion_01_support_pair_identity():
    start = time.perf_counter()
    sec = sections.section_from_support(CUBIC)
    # exact polynomial identity: (1+s)^2 dr/dxi == 2 conj(F)
    one_plus_s = MonomialField({(0, 0): 1.0, (1, 1): 1.0})
    lhs = one_plus_s * one_plus_s * CUBIC.r.d_xi()
    rhs = 2.0 * sec.F.num.conj()
    exact = lhs == rhs
    rng = np.random.default_rng(1)
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    s = (pts * np.conj(pts)).real
    residual = np.max(
        np.abs(CUBIC.r.d_xi().eval(pts) - 2.0 * np.conj(sec.F.eval(pts)) / (1.0 + s) ** 2)
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"support-pair identity (exact={exact}, residual={residual:.2e}, {elapsed:.2f}s)",
        exact and residual < 1e-12 and elapsed < 1.0,
    )


def test_criterion_02_hyperbolic_example():
    sec = sections.section_from_support(CUBIC)
    indices = [cpoints.section_complex_index(sec, 0j, r) for r in (0.05, 0.1, 0.2)]
    principal = euclid.principal_analysis(sec, CUBIC, 3.0, disc_radius=0.5, grid_n=41)
    umb = principal.umbilics
    ok = (
        indices == [-1, -1, -1]
        and len(umb) == 1
        and umb[0].index == Fraction(-1, 2)
        and abs(umb[0].location) < 1e-6
    )
    _report(2, f"hyperbolic example I={indices}, umbilic={[str(u.index) for u in umb]}", ok)


def test_criterion_03_lagrangian_certification():
    sec = sections.section_from_support(CUBIC)
    ax = np.linspace(-0.9, 0.9, 30)
    worst = 0.0
    for re in ax:
        for im in ax:
            xi = complex(re, im)
            fxi = sec.F.num.d_xi().eval(xi)
            fxibar = sec.F.num.d_xibar().eval(xi)
            line = linespace.OrientedLine(xi, sec.F.eval(xi))
            v = linespace.TangentVec(line, 1.0 + 0j, fxi + fxibar)
            w = linespace.TangentVec(line, 1j, 1j * fxi - 1j * fxibar)
            worst = max(worst, abs(linespace.omega(v, w)))
    rng = np.random.default_rng(2)
    signatures = {
        linespace.metric_signature(
            linespace.OrientedLine(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        )
        for _ in range(20)
    }
    _report(
        3,
        f"Lagrangian certification (max|Omega|={worst:.2e}, signatures={signatures})",
        worst < 1e-10 and signatures == {(2, 2)},
    )


def test_criterion_04_c1_crosscap_seams():
    rng = np.random.default_rng(3)
    worst_val = worst_d1 = 0.0
    for _ in range(10):
        c = float(rng.uniform(1.2, 8.8))
        r0 = float(rng.uniform(0.85, 0.99))
        eps = min(1.5 * (1.0 - r0) + 1e-3, 1.0 - 3.0 ** -0.5 - 1e-6)
        surf = blowup.build_c1_crosscap(blowup.C1CrossCapParams(c=c, r0=r0, eps=eps))
        rep = blowup.seam_report(surf, order=1)[0]
        worst_val = max(worst_val, rep.xi_jumps[0], rep.eta_jumps[0])
        worst_d1 = max(worst_d1, rep.xi_jumps[1], rep.eta_jumps[1])
    surf5 = blowup.build_c1_crosscap(
        blowup.C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
    )
    jump2 = blowup.seam_report(surf5, order=2)[0].eta_jumps[2]
    _report(
        4,
        f"C1 seams (value={worst_val:.2e}, d1={worst_d1:.2e}, d2 jump={jump2:.2e})",
        worst_val < 1e-12 and worst_d1 < 1e-12 and jump2 > 1e-3,
    )


def test_criterion_05_reality_polynomial():
    start = time.perf_counter()
    coeff_ok = True
    crit_ok = True
    for c in (1.5, 5.0, 8.5):
        rp = blowup.derive_reality_polynomial(
            blowup.C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1)
        )
        terms = rp.g.terms()
        quoted = {
            (0, 0): 1.0,
            (0, 2): c - 1.0,
            (1, 0): -5.0,
            (1, 1): 3.0 - 3.0 * c,
            (1, 2): 2.0 - 2.0 * c,
            (2, 0): 5.0 + 2.0 * c,
            (2, 1): 5.0 * c - 5.0,
        }
        coeff_ok = coeff_ok and all(
            terms.get(k, 0j) == v for k, v in quoted.items()
        )
        coeff_ok = coeff_ok and terms.get((3, 0), 0j) == -3.0 * c
        rep = blowup.g_critical_report(rp.g, c)
        crit_ok = crit_ok and rep.value_ok and rep.grad_ok and rep.det_ok
    p = blowup.C1CrossCapParams(c=5.0, r0=np.sqrt(0.95), eps=0.1)
    rp5 = blowup.derive_reality_polynomial(p)
    cert = blowup.certify_totally_real(
        blowup.build_c1_crosscap(p), radial_n=512, angular_n=512, min_mag=1e-6
    )
    # g(x, R0^2) on the outer annulus x in [(1 - eps)^2, 1]
    xs = np.linspace((1.0 - p.eps) ** 2, 1.0, 512).astype(complex)
    g_min = float(np.min(np.abs(rp5.g.eval_pair(xs, 0.95 + 0j))))
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"reality polynomial (coeffs={coeff_ok}, critical={crit_ok}, "
        f"min|W|={cert.min_abs_w:.2e}, min|g|={g_min:.2e}, {elapsed:.1f}s)",
        coeff_ok and crit_ok and cert.passed and g_min > 0 and elapsed < 30.0,
    )


def test_criterion_06_c2_crosscap():
    worst = 0.0
    for r0_sq in (0.8, 0.9, 0.95):
        surf = blowup.build_c2_crosscap(np.sqrt(r0_sq))
        rep = blowup.seam_report(surf, order=2, tol=1e-9)[0]
        worst = max(worst, max(rep.xi_jumps), max(rep.eta_jumps))
    consts = blowup.c2_constants(np.sqrt(0.8))
    resid = consts.quoted_value_residual
    lim = blowup.c2_constants(np.sqrt(0.999))
    limit_ok = abs(lim.a) < 1e-2 and abs(lim.b) < 1e-2 and abs(lim.c - 1.0) < 1e-2
    _report(
        6,
        f"C2 cross-cap (seam={worst:.2e}, quoted residual={resid:.4e}, "
        f"limit=({lim.a:.3f},{lim.b:.3f},{lim.c:.3f}))",
        worst < 1e-9 and abs(resid - 0.034) < 1e-3 and limit_ok,
    )


def test_criterion_07_reconstruction():
    sec = sections.section_from_support(CUBIC)
    mesh = euclid.reconstruct_surface(sec, CUBIC, 3.0, disc_radius=0.9, grid=(40, 40))
    worst = euclid.support_property_check(mesh, sec, CUBIC, 3.0).max_support_residual
    rng = np.random.default_rng(7)
    for _ in range(5):
        r = random_support(rng)
        s = sections.section_from_support(r)
        m = euclid.reconstruct_surface(s, r, 3.0, disc_radius=0.8, grid=(40, 40))
        worst = max(worst, euclid.support_property_check(m, s, r, 3.0).max_support_residual)
    mesh1 = euclid.reconstruct_surface(sec, CUBIC, 1.0, disc_radius=0.9, grid=(10, 16))
    mesh2 = euclid.reconstruct_surface(sec, CUBIC, 2.5, disc_radius=0.9, grid=(10, 16))
    U = np.stack(
        [np.stack([linespace.direction_vector(z) for z in row]) for row in mesh1.xis]
    )
    parallel = float(np.max(np.abs(mesh2.points - mesh1.points - 1.5 * U)))
    pt = euclid.point_from_line(1.0 + 0j, 4.0 + 0j, 4.0 / 3.0)
    family_value = pt[0] + 1j * pt[1]
    _report(
        7,
        f"reconstruction (support residual={worst:.2e}, parallel={parallel:.2e}, "
        f"family value={family_value:.6f})",
        worst < 1e-10 and parallel < 1e-12 and abs(family_value - 4.0 / 3.0) < 1e-12,
    )


def test_criterion_08_index_correspondence():
    sec_cubic = sections.section_from_support(CUBIC)
    sec_quad = sections.section_from_support(QUADRATIC)
    I_cubic = cpoints.section_complex_index(sec_cubic, 0j, 0.1)
    I_quad = cpoints.section_complex_index(sec_quad, 0j, 0.1)
    umb_cubic = euclid.principal_analysis(sec_cubic, CUBIC, 3.0, disc_radius=0.5, grid_n=41)
    umb_quad = euclid.principal_analysis(sec_quad, QUADRATIC, 2.0, disc_radius=0.5, grid_n=41)
    doubling = (
        I_cubic == -1
        and 2 * umb_cubic.umbilics[0].index == I_cubic
        and I_quad == 2
        and 2 * umb_quad.umbilics[0].index == I_quad
    )
    r_pert = sections.SupportFunction(
        MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0, (1, 1): 0.05})
    )
    sec_pert = sections.section_from_support(r_pert)
    reports = cpoints.find_complex_points(sec_pert, 0j, 0.8, grid_n=96)
    boundary = winding_of(sec_pert.F.num.d_xibar().eval, Loop(0j, 0.8))
    additivity = boundary == sum(rep.index for rep in reports)
    _report(
        8,
        f"index correspondence (I_cubic={I_cubic}, I_quad={I_quad}, "
        f"boundary={boundary} vs sum={sum(r.index for r in reports)})",
        doubling and additivity,
    )


def test_criterion_09_ledger():
    scenario_ok = all(
        ledger.reformulation_scenario(k).identities_hold for k in range(21)
    )
    rng = np.random.default_rng(9)
    consum_ok = True
    for _ in range(100):
        n_points = int(rng.integers(0, 6))
        inventory = [(f"x{i}", int(rng.integers(-3, 5))) for i in range(n_points)]
        k = int(rng.integers(0, 4))
        inventory += [(f"h{i}", -1) for i in range(k)]
        total = sum(i for _, i in inventory)
        chi_t = int(rng.integers(-3, 4))
        led = ledger.TopLedger(chi_t=chi_t, chi_n=total - chi_t, inventory=tuple(inventory))
        out = ledger.connect_sum_rp2(led, k, [f"h{i}" for i in range(k)])
        new_total, consistent = ledger.lai_sum(out)
        consum_ok = consum_ok and consistent and new_total == total + k
    _report(9, f"ledger (scenarios={scenario_ok}, connect-sum={consum_ok})", scenario_ok and consum_ok)


def test_criterion_10_verify_paper():
    start = time.perf_counter()
    rep1 = run_verification()
    rep2 = run_verification()
    elapsed = time.perf_counter() - start
    deterministic = report_to_json(rep1) == report_to_json(rep2)
    flagged = {c.id for c in rep1.checks if c.status == "discrepancy"}
    ok = (
        rep1.n_fail == 0
        and rep1.n_discrepancy == 2
        and flagged == {"reality-polynomial-x3-sign", "c2-quoted-constants"}
        and rep1.exit_code == 2
        and deterministic
        and elapsed < 120.0
    )
    _report(
        10,
        f"verify-paper (fail={rep1.n_fail}, discrepancy={rep1.n_discrepancy}, "
        f"deterministic={deterministic}, {elapsed:.1f}s for two runs)",
        ok,
    )
