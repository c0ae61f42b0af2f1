"""Command-line front end.

Subcommands
-----------
section       support function in, section + complex-point report out
cpoints       graph section in, complex-point reports out
blowup        cross-cap parameters in, seam + total-reality certification out
reconstruct   support pair + constant in, OBJ/CSV mesh out
ruled         cross-cap parameters + radii in, one OBJ ruled surface each
ledger        index bookkeeping for the k-th scenario
tensor-probe  symplectic/metric matrices at a point
verify-paper  the claims regression suite (exit 0 = all pass, 2 = known
              discrepancies only, 1 = failures)

Inputs are JSON files; a polynomial field is a list of ``{m, n, re, im}``
records (optionally wrapped as ``{"terms": [...], "real": true}``) and round
trips bit-exactly.  All outputs are ASCII with stable key order.
"""

import argparse
import json
import sys

import numpy as np

from . import blowup as bl
from . import cpoints as cp
from . import euclid as eu
from . import ledger as lg
from . import linespace as ls
from . import sections as se
from .errors import CrosscapError
from .verify import report_to_json, run_verification
from .wirtinger import MonomialField, RationalField


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bytes(data, out_path):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field_from_payload(payload):
    if isinstance(payload, dict) and "terms" in payload:
        field = MonomialField.from_records(payload["terms"])
        if payload.get("real") and not field.is_real_symmetric():
            raise ValueError("field is flagged real but is not conjugate-symmetric")
        return field
    return MonomialField.from_records(payload)


def _support_from_file(path):
    return se.SupportFunction(_field_from_payload(_load_json(path)))


def _section_from_file(path):
    payload = _load_json(path)
    if isinstance(payload, dict) and "support" in payload:
        return se.section_from_support(
            se.SupportFunction(_field_from_payload(payload["support"]))
        )
    if isinstance(payload, dict) and "num" in payload:
        return se.SectionGraph(
            RationalField(
                _field_from_payload(payload["num"]), payload.get("den_power", 0)
            )
        )
    return se.SectionGraph(RationalField(_field_from_payload(payload), 0))


def _parse_grid(text, default):
    if not text:
        return default
    rows, _, cols = text.partition("x")
    return int(rows), int(cols)


def _complex_point_payload(rep):
    return {
        "location_re": rep.location.real,
        "location_im": rep.location.imag,
        "kind": rep.kind,
        "index": rep.index,
        "umbilic_index": str(rep.umbilic_index),
        "loop_radius": rep.loop_radius,
    }


def _crosscap_from_params(params):
    """The cross-cap surface, with the C1 parameters or the C2 seam constants
    (None for the simple cap)."""
    kind = params.get("kind", "c1")
    r0 = params.get("r0")
    if r0 is None and "r0_sq" in params:
        r0 = float(np.sqrt(params["r0_sq"]))
    if kind == "c1":
        alpha = complex(params.get("alpha_re", 1.0), params.get("alpha_im", 0.0))
        p = bl.C1CrossCapParams(
            c=float(params["c"]), r0=float(r0), eps=float(params["eps"]), alpha=alpha
        )
        return bl.build_c1_crosscap(p), p
    if kind == "c2":
        r0 = float(r0)
        consts = bl.c2_constants(r0)
        inner = float(params.get("inner_radius", 0.6))
        return bl.build_c2_crosscap(r0, inner_radius=inner), consts
    if kind == "simple":
        return bl.simple_crosscap_surface(float(params.get("inner_radius", 3 ** -0.5))), None
    raise ValueError(f"unknown cross-cap kind {kind!r}")


def cmd_section(args):
    support = _support_from_file(args.input)
    sec = se.section_from_support(support)
    reports = cp.find_complex_points(sec, 0j, args.disc, grid_n=args.grid_n)
    ax = np.linspace(-args.disc, args.disc, 41)
    zz = ax[None, :] + 1j * ax[:, None]
    defects = se.lagrangian_defect(sec, zz)
    tr = se.totally_real_defect(support, zz)
    payload = {
        "support": support.r.to_records(),
        "F": {"num": sec.F.num.to_records(), "den_power": sec.F.den_power},
        "complex_points": [_complex_point_payload(r) for r in reports],
        "index_sum": sum(r.index for r in reports),
        "lagrangian_defect_max": float(np.max(defects)),
        "totally_real_defect": {"min": float(np.min(tr)), "max": float(np.max(tr))},
    }
    _emit(_dumps(payload), args.out)
    return 0


def cmd_cpoints(args):
    sec = _section_from_file(args.input)
    reports = cp.find_complex_points(sec, 0j, args.disc, grid_n=args.grid_n)
    payload = [_complex_point_payload(r) for r in reports]
    _emit(_dumps(payload), args.out)
    return 0


def cmd_blowup(args):
    params = _load_json(args.input)
    surf, p = _crosscap_from_params(params)
    seams = bl.seam_report(surf, order=2, tol=args.tol)
    cert = bl.certify_totally_real(
        surf, radial_n=args.grid_n, angular_n=args.grid_n, min_mag=args.min_mag
    )
    payload = {
        "pieces": [
            {"rho_in": piece.rho_in, "rho_out": piece.rho_out}
            for piece in surf.pieces
        ],
        "seams": [
            {
                "seam_radius": s.seam_radius,
                "xi_jumps": list(s.xi_jumps),
                "eta_jumps": list(s.eta_jumps),
                "certified_order": s.certified_order,
            }
            for s in seams
        ],
        "certification": {
            "min_abs_w": cert.min_abs_w,
            "passed": cert.passed,
            "pieces": [
                {
                    "rho_in": c.rho_in,
                    "rho_out": c.rho_out,
                    "min_abs_w": c.min_abs_w,
                    "argmin_re": c.argmin_nu.real,
                    "argmin_im": c.argmin_nu.imag,
                }
                for c in cert.pieces
            ],
        },
    }
    kind = params.get("kind", "c1")
    if kind == "c1":
        a, b = bl.c1_matching_constants(p.c, p.r0)
        payload["constants"] = {"a": a, "b": b, "c": p.c}
        if p.alpha == 1:
            rp = bl.derive_reality_polynomial(p)
            crit = bl.g_critical_report(rp.g, p.c)
            payload["g_critical"] = {
                "value": crit.value,
                "grad": list(crit.grad),
                "hessian_det": crit.hessian_det,
                "expected_det_abs": crit.expected_det_abs,
                "definiteness": crit.definiteness,
            }
    elif kind == "c2":
        payload["constants"] = {
            "a": p.a,
            "b": p.b,
            "c": p.c,
            "quoted": list(p.quoted),
            "quoted_value_residual": p.quoted_value_residual,
        }
    if args.samples_out:
        blocks = []
        for piece in surf.pieces:
            radii = np.linspace(piece.rho_in, piece.rho_out, 16)
            theta = 2.0 * np.pi * np.arange(32) / 32
            nus = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
            xis = piece.xi_expr.eval(nus)
            etas = piece.eta_expr.eval(nus)
            ws = piece.defect_field().eval(nus)
            blocks.append(
                np.column_stack([nus.real, nus.imag, xis.real, xis.imag,
                                 etas.real, etas.imag, ws.real, ws.imag])
            )
        with open(args.samples_out, "w", encoding="ascii") as fh:
            fh.write(
                eu.csv_text("nu_re,nu_im,xi_re,xi_im,eta_re,eta_im,w_re,w_im", np.vstack(blocks))
            )
    _emit(_dumps(payload), args.out)
    return 0


def cmd_reconstruct(args):
    support = _support_from_file(args.input)
    sec = se.section_from_support(support)
    grid = _parse_grid(args.grid, (24, 48))
    mesh = eu.reconstruct_surface(sec, support, args.constant, disc_radius=args.disc, grid=grid)
    data = eu.export_obj(mesh) if args.format == "obj" else eu.export_csv(mesh)
    _emit_bytes(data, args.out)
    return 0


def cmd_ruled(args):
    params = _load_json(args.input)
    surf, _ = _crosscap_from_params(params)
    radii = params["radii"]
    t_values = np.linspace(
        params.get("t_min", -2.0), params.get("t_max", 2.0), params.get("t_n", 9)
    )
    meshes = eu.ruled_family(surf, radii, t_values, angular_n=params.get("angular_n", 64))
    exporter = eu.export_obj if args.format == "obj" else eu.export_csv
    suffix = "obj" if args.format == "obj" else "csv"
    if not args.out:
        raise ValueError("ruled requires --out PREFIX for its output files")
    written = []
    for radius, mesh in zip(radii, meshes):
        path = f"{args.out}_r{radius:g}.{suffix}"
        with open(path, "wb") as fh:
            fh.write(exporter(mesh))
        written.append(path)
    sys.stdout.write(_dumps({"written": written}))
    return 0


def cmd_ledger(args):
    rep = lg.reformulation_scenario(args.k)
    payload = {
        "k": rep.k,
        "umbilic_index_doubled": rep.umbilic_index_doubled,
        "complex_index": rep.complex_index,
        "annulus_index_sum": rep.annulus_index_sum,
        "hyperbolic_points_after_cancellation": rep.hyperbolic_points_after_cancellation,
        "final_chi_t": rep.final_chi_t,
        "final_chi_n": rep.final_chi_n,
        "final_index_sum": rep.final_index_sum,
        "lai_total": rep.final_chi_t + rep.final_chi_n,
        "identities_hold": rep.identities_hold,
    }
    _emit(_dumps(payload), args.out)
    return 0 if rep.identities_hold else 1


def cmd_tensor_probe(args):
    line = ls.OrientedLine(complex(args.xi), complex(args.eta))
    omega = ls.omega_matrix(line)
    metric = ls.metric_matrix(line)
    payload = {
        "xi": [line.xi.real, line.xi.imag],
        "eta": [line.eta.real, line.eta.imag],
        "basis": ["dxi=1", "dxi=i", "deta=1", "deta=i"],
        "omega": [[float(v) for v in row] for row in omega],
        "metric": [[float(v) for v in row] for row in metric],
        "metric_eigenvalues": [float(v) for v in np.linalg.eigvalsh(metric)],
        "signature": list(ls.metric_signature(line)),
    }
    _emit(_dumps(payload), args.out)
    return 0


def cmd_verify_paper(args):
    report = run_verification(seed=args.seed)
    _emit(report_to_json(report) + "\n", args.out)
    return report.exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="Oriented-line geometry: Lagrangian sections, complex points, cross-caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("section", help="analyze the section of a support function")
    p.add_argument("input", help="JSON support function (monomial records)")
    p.add_argument("--out", default=None)
    p.add_argument("--disc", type=float, default=0.8)
    p.add_argument("--grid-n", type=int, default=64)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("cpoints", help="complex points of a graph section")
    p.add_argument("input", help="JSON section ({'support': ...} or {'num': ..., 'den_power': n})")
    p.add_argument("--out", default=None)
    p.add_argument("--disc", type=float, default=0.8)
    p.add_argument("--grid-n", type=int, default=64)
    p.set_defaults(func=cmd_cpoints)

    p = sub.add_parser("blowup", help="build and certify a cross-cap")
    p.add_argument("input", help="JSON parameters ({'kind': 'c1'|'c2'|'simple', ...})")
    p.add_argument("--out", default=None)
    p.add_argument("--samples-out", default=None, help="optional CSV of surface samples")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--min-mag", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("reconstruct", help="mesh the surfaces orthogonal to a section")
    p.add_argument("input", help="JSON support function")
    p.add_argument("--constant", "-C", type=float, default=3.0)
    p.add_argument("--disc", type=float, default=0.9)
    p.add_argument("--grid", default=None, help="NxM lattice (default 24x48)")
    p.add_argument("--format", choices=("obj", "csv"), default="obj")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("ruled", help="ruled surfaces over circles of constant Gauss radius")
    p.add_argument("input", help="JSON cross-cap parameters with 'radii'")
    p.add_argument("--format", choices=("obj", "csv"), default="obj")
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=cmd_ruled)

    p = sub.add_parser("ledger", help="index bookkeeping for the k-th scenario")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("tensor-probe", help="symplectic/metric matrices at a point")
    p.add_argument("--xi", default="0")
    p.add_argument("--eta", default="0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tensor_probe)

    p = sub.add_parser("verify-paper", help="run the claims regression suite")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=20120724)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrosscapError, ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
