"""The claims regression suite: every reference identity and constant the
library implements is recomputed and compared against its source value.

Each check is one function returning ``(ok, measured)``, declared with a
stable id, a ``paper_anchor`` slug naming the claim it re-derives, the
expected value and the tolerance; checks run in declaration order.  A check
ends with one status:

* ``pass``        the claim holds at the stated tolerance,
* ``discrepancy`` the source text disagrees with the derivation in a known,
                  reproducible way (the ids in ``KNOWN_DISCREPANCY_IDS``),
* ``fail``        anything else.

All randomized sweeps draw from one seeded generator, in check order, so the
emitted report is byte-identical across runs of the same build.
"""

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import blowup, cpoints, euclid, ledger, linespace, sections
from .wirtinger import Loop, MonomialField, RationalField, winding_number

DEFAULT_SEED = 20120724

KNOWN_DISCREPANCY_IDS = ("reality-polynomial-x3-sign", "c2-quoted-constants")

RANDOM_SUPPORT_DEGREE = 4    # total degree of the reconstruction check's random supports
RANDOM_SUPPORT_SCALE = 0.1   # and the scale of their coefficients

# what the certification checks require; they report the smallest |W| on the radii
NO_ROOT_OF_H = "no root of h on any [rho_in^2, rho_out^2] (exact Sturm count)"


@dataclass(frozen=True)
class Check:
    id: str
    paper_anchor: str
    status: str
    measured: object
    expected: object
    tolerance: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    def _count(self, status):
        return sum(1 for c in self.checks if c.status == status)

    @property
    def n_pass(self):
        return self._count("pass")

    @property
    def n_fail(self):
        return self._count("fail")

    @property
    def n_discrepancy(self):
        return self._count("discrepancy")

    @property
    def exit_code(self):
        if self.n_fail:
            return 1
        if self.n_discrepancy:
            return 2
        return 0


def _c1_params(c):
    """The C1 cross-cap the reality-bracket checks use: R0^2 = 0.95, eps = 0.1."""
    return blowup.C1CrossCapParams(c=c, r0=np.sqrt(0.95), eps=0.1)


def _random_support(rng):
    terms = {}
    for m in range(RANDOM_SUPPORT_DEGREE + 1):
        for n in range(m + 1):
            if m + n > RANDOM_SUPPORT_DEGREE:
                continue
            c = complex(rng.normal(), rng.normal()) * RANDOM_SUPPORT_SCALE
            if m == n:
                c = complex(c.real, 0.0)
            terms[(m, n)] = terms.get((m, n), 0) + c
            if m != n:
                terms[(n, m)] = terms.get((n, m), 0) + c.conjugate()
    return sections.SupportFunction(MonomialField(terms))


class _Inputs:
    """The seeded generator and the inputs several checks share, each built
    on first use."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @cached_property
    def r_cubic(self):
        return sections.SupportFunction(
            MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0})
        )

    @cached_property
    def sec_cubic(self):
        return sections.section_from_support(self.r_cubic)

    @cached_property
    def r_quad(self):
        return sections.SupportFunction(MonomialField({(1, 1): 1.0}))

    @cached_property
    def sec_quad(self):
        return sections.section_from_support(self.r_quad)

    @cached_property
    def cubic_indices(self):
        return [
            cpoints.section_complex_index(self.sec_cubic, 0j, radius)
            for radius in (0.05, 0.1, 0.2)
        ]

    @cached_property
    def cubic_umbilics(self):
        return euclid.principal_analysis(
            self.sec_cubic, self.r_cubic, 3.0, disc_radius=0.5, grid_n=41
        ).umbilics

    @cached_property
    def elliptic_index(self):
        return cpoints.section_complex_index(self.sec_quad, 0j, 0.1)

    @cached_property
    def quad_umbilics(self):
        return euclid.principal_analysis(
            self.sec_quad, self.r_quad, 2.0, disc_radius=0.5, grid_n=41
        ).umbilics

    @cached_property
    def rp5(self):
        return blowup.derive_reality_polynomial(_c1_params(5.0))

    @cached_property
    def surf_c5(self):
        return blowup.build_c1_crosscap(_c1_params(5.0))


_CHECKS = []


def _check(check_id, anchor, expected, tolerance):
    """Declare the decorated function as the next check of the report."""

    def register(fn):
        _CHECKS.append((check_id, anchor, expected, tolerance, fn))
        return fn

    return register


@_check("support-pair-identity", "support-relation:cubic-example", 0.0, 1e-12)
def _support_pair_identity(inp):
    rng = inp.rng
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    s = (pts * np.conj(pts)).real
    residual = np.max(
        np.abs(
            inp.r_cubic.r.d_xi().eval(pts)
            - 2.0 * np.conj(inp.sec_cubic.F.eval(pts)) / (1.0 + s) ** 2
        )
    )
    return residual < 1e-12, float(residual)


@_check("hyperbolic-example-index", "hyperbolic-example:complex-index", [-1, -1, -1], 0.0)
def _hyperbolic_example_index(inp):
    return inp.cubic_indices == [-1, -1, -1], inp.cubic_indices


@_check("hyperbolic-example-umbilic", "hyperbolic-example:umbilic-index", ["-1/2"], 1e-6)
def _hyperbolic_example_umbilic(inp):
    umb = inp.cubic_umbilics
    ok = (
        len(umb) == 1
        and abs(umb[0].location) < 1e-6
        and umb[0].index.numerator == -1
        and umb[0].index.denominator == 2
    )
    return ok, [str(u.index) for u in umb]


@_check("lagrangian-omega-restriction", "hyperbolic-example:lagrangian-check", 0.0, 1e-10)
def _lagrangian_omega_restriction(inp):
    F = inp.sec_cubic.F
    F_xi, F_xibar = F.num.d_xi(), F.num.d_xibar()
    ax = np.linspace(-0.9, 0.9, 30)
    worst_omega = 0.0
    for re in ax:
        for im in ax:
            xi = complex(re, im)
            fxi = F_xi.eval(xi)
            fxibar = F_xibar.eval(xi)
            line = linespace.OrientedLine(xi, F.eval(xi))
            v = linespace.TangentVec(line, 1.0 + 0j, fxi + fxibar)
            w = linespace.TangentVec(line, 1j, 1j * fxi - 1j * fxibar)
            worst_omega = max(worst_omega, abs(linespace.omega(v, w)))
    return worst_omega < 1e-10, float(worst_omega)


@_check("metric-signature", "neutral-metric:signature", [[2, 2]], 0.0)
def _metric_signature(inp):
    signatures = set()
    for _ in range(20):
        line = linespace.OrientedLine(
            complex(*inp.rng.normal(size=2)), complex(*inp.rng.normal(size=2))
        )
        signatures.add(linespace.metric_signature(line))
    return signatures == {(2, 2)}, sorted(map(list, signatures))


@_check("compatibility-constant", "neutral-structure:compatibility", -2.0, 1e-10)
def _compatibility_constant(inp):
    eps = linespace.discover_epsilon(seed=inp.seed)
    return abs(eps + 2.0) < 1e-10, float(eps)


@_check("support-reconstruction", "support-relation:integration", [0.0, 0.0], 1e-8)
def _support_reconstruction(inp):
    exact = inp.r_cubic.r.terms()
    recovered = sections.support_from_section(inp.sec_cubic).r.terms()
    rt_residual = 0.0
    for key in set(recovered) | set(exact):
        rt_residual = max(rt_residual, abs(recovered.get(key, 0) - exact.get(key, 0)))
    quad_residual = 0.0
    for _ in range(5):
        xi = complex(*inp.rng.normal(size=2)) * 0.7
        value = float(np.real(inp.r_cubic.r.eval(xi)))
        quad_residual = max(
            quad_residual, abs(sections.radial_support_value(inp.sec_cubic, xi) - value)
        )
    ok = rt_residual < 1e-12 and quad_residual < 1e-8
    return ok, [float(rt_residual), float(quad_residual)]


@_check(
    "reconstruction-support-property",
    "correspondence-relation:support-and-orthogonality",
    [0.0, 0.0],
    1e-10,
)
def _reconstruction_support_property(inp):
    mesh = euclid.reconstruct_surface(
        inp.sec_cubic, inp.r_cubic, 3.0, disc_radius=0.9, grid=(40, 40)
    )
    res = euclid.support_property_check(mesh, inp.sec_cubic, inp.r_cubic, 3.0)
    worst_support = res.max_support_residual
    worst_orth = res.max_orthogonality_residual
    for _ in range(5):
        r_rand = _random_support(inp.rng)
        sec_rand = sections.section_from_support(r_rand)
        mesh_rand = euclid.reconstruct_surface(
            sec_rand, r_rand, 3.0, disc_radius=0.8, grid=(20, 24)
        )
        res = euclid.support_property_check(mesh_rand, sec_rand, r_rand, 3.0)
        worst_support = max(worst_support, res.max_support_residual)
        worst_orth = max(worst_orth, res.max_orthogonality_residual)
    ok = worst_support < 1e-10 and worst_orth < 1e-8
    return ok, [float(worst_support), float(worst_orth)]


@_check("parallel-surfaces", "support-relation:parallel-family", 0.0, 1e-12)
def _parallel_surfaces(inp):
    mesh1, mesh2 = (
        euclid.reconstruct_surface(inp.sec_cubic, inp.r_cubic, C, disc_radius=0.9, grid=(10, 16))
        for C in (1.0, 2.5)
    )
    U = linespace.direction_vector(mesh1.xis)
    residual = float(np.max(np.abs(mesh2.points - mesh1.points - 1.5 * U)))
    return residual < 1e-12, residual


@_check("printed-family-value", "hyperbolic-example:explicit-family", [4.0 / 3.0, 0.0], 1e-12)
def _printed_family_value(inp):
    pt = euclid.point_from_line(1.0 + 0j, 4.0 + 0j, 4.0 / 3.0)
    family = 2.0 * (3.0 - 1.0 + 5.0 - 3.0) / 6.0
    value = pt[0] + 1j * pt[1]
    ok = abs(value - 4.0 / 3.0) < 1e-12 and abs(family - 4.0 / 3.0) < 1e-15
    return ok, [float(value.real), float(value.imag)]


@_check("elliptic-example-index", "index-doubling:elliptic-example", [2, ["1"]], 0.0)
def _elliptic_example_index(inp):
    umb = inp.quad_umbilics
    ok = (
        inp.elliptic_index == 2
        and len(umb) == 1
        and umb[0].index.numerator == 1
        and umb[0].index.denominator == 1
    )
    return ok, [inp.elliptic_index, [str(u.index) for u in umb]]


@_check(
    "index-doubling",
    "index-doubling:normal-congruence",
    {"cubic": [-1, "-1/2"], "quadratic": [2, "1"]},
    0.0,
)
def _index_doubling(inp):
    cubic, umb = inp.cubic_indices[0], inp.cubic_umbilics
    elliptic, quad_umb = inp.elliptic_index, inp.quad_umbilics
    ok = (
        cubic == -1
        and len(umb) == 1
        and 2 * umb[0].index == -1
        and elliptic == 2
        and len(quad_umb) == 1
        and 2 * quad_umb[0].index == 2
    )
    measured = {
        "cubic": [cubic, str(umb[0].index) if umb else None],
        "quadratic": [elliptic, str(quad_umb[0].index) if quad_umb else None],
    }
    return ok, measured


@_check("index-additivity", "index-sum:argument-principle", [-1, -1, -2], 0.0)
def _index_additivity(inp):
    r_pert = sections.SupportFunction(
        MonomialField({(3, 0): 2.0 / 3.0, (0, 3): 2.0 / 3.0, (1, 1): 0.05})
    )
    sec_pert = sections.section_from_support(r_pert)
    reports = cpoints.find_complex_points(sec_pert, 0j, 0.8, grid_n=96)
    loop = Loop(0j, 0.8, sample_count=8192)
    boundary = winding_number(sec_pert.F.num.d_xibar().eval(loop.samples()))
    local_sum = sum(rep.index for rep in reports)
    two_zero = cpoints.find_complex_points(
        sections.SectionGraph(
            RationalField(MonomialField({(0, 3): 1.0 / 3.0, (0, 1): -0.09}), 0)
        ),
        0j,
        0.8,
        grid_n=96,
    )
    two_zero_sum = sum(rep.index for rep in two_zero)
    ok = boundary == local_sum == -1 and two_zero_sum == -2 and len(two_zero) == 2
    return ok, [boundary, local_sum, two_zero_sum]


@_check("c1-matching-constants", "c1-crosscap:matching-constants", 0.0, 1e-12)
def _c1_matching_constants(inp):
    worst = 0.0
    for _ in range(10):
        c = float(inp.rng.uniform(1.2, 8.8))
        r0 = float(inp.rng.uniform(0.85, 0.99))
        a, b = blowup.c1_matching_constants(c, r0)
        s0 = 1.0 - r0 * r0
        worst = max(
            worst,
            abs(a + b * s0 + c * s0 * s0 - s0 * s0),
            abs(b + 2 * c * s0 - 2 * s0),
        )
    return worst < 1e-12, float(worst)


@_check("c1-seam-smoothness", "c1-crosscap:seam-order-one", 0.0, 1e-12)
def _c1_seam_smoothness(inp):
    worst = 0.0
    for _ in range(10):
        c = float(inp.rng.uniform(1.2, 8.8))
        r0 = float(inp.rng.uniform(0.85, 0.99))
        eps = min(1.5 * (1.0 - r0) + 1e-3, 1.0 - 3.0 ** -0.5 - 1e-6)
        surf = blowup.build_c1_crosscap(blowup.C1CrossCapParams(c=c, r0=r0, eps=eps))
        rep = blowup.seam_report(surf, order=1)[0]
        worst = max(worst, max(rep.xi_jumps), max(rep.eta_jumps))
    return worst < 1e-12, float(worst)


@_check("c1-not-c2", "c1-crosscap:second-derivative-jump", 8.0 * 0.95 ** 2 * 4.0, 1e-3)
def _c1_not_c2(inp):
    jump2 = blowup.seam_report(inp.surf_c5, order=2)[0].eta_jumps[2]
    return jump2 > 1e-3, float(jump2)


@_check("reality-polynomial-low-coefficients", "reality-bracket:constant-x-x2-terms", True, 0.0)
def _reality_polynomial_low_coefficients(inp):
    low_ok = True
    for c in (1.5, 5.0, 8.5):
        terms = blowup.derive_reality_polynomial(_c1_params(c)).g.terms()
        quoted = {
            (0, 0): 1.0,
            (0, 2): c - 1.0,
            (1, 0): -5.0,
            (1, 1): 3.0 - 3.0 * c,
            (1, 2): 2.0 - 2.0 * c,
            (2, 0): 5.0 + 2.0 * c,
            (2, 1): 5.0 * c - 5.0,
        }
        low_ok = low_ok and all(terms.get(key, 0j) == val for key, val in quoted.items())
    return low_ok, bool(low_ok)


# the quoted bracket shows +3c at c = 5
@_check("reality-polynomial-x3-sign", "reality-bracket:cubic-term-sign", 15.0, 1e-12)
def _reality_polynomial_x3_sign(inp):
    x3 = complex(inp.rp5.g.terms().get((3, 0), 0j)).real
    return abs(x3 + 15.0) < 1e-12, x3


@_check("g-critical-point", "reality-bracket:critical-point", True, 1e-10)
def _g_critical_point(inp):
    crit_ok = True
    for c in (1.5, 5.0, 8.5):
        rp = blowup.derive_reality_polynomial(_c1_params(c))
        rep = blowup.g_critical_report(rp.g, c)
        crit_ok = crit_ok and rep.value_ok and rep.grad_ok and rep.det_ok and rep.definite_in_range
    return crit_ok, bool(crit_ok)


@_check("c1-certification", "c1-crosscap:totally-real", NO_ROOT_OF_H, 0.0)
def _c1_certification(inp):
    cert = blowup.certify_totally_real(inp.surf_c5, radial_n=512)
    return cert.passed, float(cert.min_abs_w)


@_check("c2-solver-seams", "c2-crosscap:seam-order-two", 0.0, 1e-9)
def _c2_solver_seams(inp):
    worst = 0.0
    for r0_sq in (0.8, 0.9, 0.95):
        surf = blowup.build_c2_crosscap(np.sqrt(r0_sq))
        rep = blowup.seam_report(surf, order=2, tol=1e-9)[0]
        worst = max(worst, max(rep.xi_jumps), max(rep.eta_jumps))
    return worst < 1e-9, float(worst)


@_check("c2-quoted-constants", "c2-crosscap:quoted-constants", 0.0, 1e-6)
def _c2_quoted_constants(inp):
    resid = blowup.c2_constants(np.sqrt(0.8)).quoted_value_residual
    return abs(resid - 0.03352576) < 1e-6, float(resid)


@_check("c2-limit", "c2-crosscap:unit-radius-limit", [0.0, 0.0, 1.0], 1e-2)
def _c2_limit(inp):
    lim = blowup.c2_constants(np.sqrt(0.999))
    ok = abs(lim.a) < 1e-2 and abs(lim.b) < 1e-2 and abs(lim.c - 1.0) < 1e-2
    return ok, [float(lim.a), float(lim.b), float(lim.c)]


@_check("c2-certification", "c2-crosscap:totally-real", NO_ROOT_OF_H, 0.0)
def _c2_certification(inp):
    cert = blowup.certify_totally_real(blowup.build_c2_crosscap(np.sqrt(0.9)), radial_n=256)
    return cert.passed, float(cert.min_abs_w)


@_check("crosscap-boundary", "crosscap:antipodal-identification", [0.0, 0.0], 1e-15)
def _crosscap_boundary(inp):
    outer = inp.surf_c5.pieces[-1]
    boundary_pts = np.exp(1j * 2.0 * np.pi * np.arange(64) / 64)
    xi_max = float(np.max(np.abs(outer.xi_expr.eval(boundary_pts))))
    eta_diff = float(
        np.max(np.abs(outer.eta.eval(boundary_pts) - outer.eta.eval(-boundary_pts)))
    )
    return xi_max < 1e-15 and eta_diff == 0.0, [xi_max, eta_diff]


@_check("ledger-reformulation", "index-ledger:reformulation-arithmetic", True, 0.0)
def _ledger_reformulation(inp):
    ok = all(ledger.reformulation_scenario(k).identities_hold for k in range(21))
    return ok, bool(ok)


@_check("ledger-connect-sum", "index-ledger:crosscap-connect-sum", True, 0.0)
def _ledger_connect_sum(inp):
    rng = inp.rng
    ok = True
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
        ok = ok and consistent and new_total == total + k
    return ok, bool(ok)


def run_verification(seed=DEFAULT_SEED):
    """Run every check in order and assemble the report."""
    inputs = _Inputs(seed)
    checks = []
    for check_id, anchor, expected, tolerance, fn in _CHECKS:
        ok, measured = fn(inputs)
        if not ok:
            status = "fail"
        elif check_id in KNOWN_DISCREPANCY_IDS:
            status = "discrepancy"
        else:
            status = "pass"
        checks.append(Check(check_id, anchor, status, measured, expected, tolerance))
    return VerifyReport(checks=tuple(checks))


def report_to_json(report):
    """Stable ASCII JSON: sorted keys, ordered check list."""
    payload = {
        "checks": [asdict(c) for c in report.checks],
        "summary": {
            "pass": report.n_pass,
            "fail": report.n_fail,
            "discrepancy": report.n_discrepancy,
            "exit_code": report.exit_code,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True)
