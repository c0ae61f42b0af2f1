"""Per-layer metrics of a traced run, named by module.

The names and units are those of ``per_layer`` in ``BENCHMARK.json``.
Times and counts are per traced job (``s/job``, ``count/job``) unless the
unit says otherwise; ratios are over the whole traced run.  A ratio whose
base is empty on a workload (the layer is not exercised there) reads 0 and
its name is returned in the ``not_exercised`` list.
"""

import numpy as np

from spans import LAYERS

EVAL = ("MonomialField.eval", "MonomialField.eval_pair", "RationalField.eval")
ALGEBRA = tuple(
    f"{cls}.{meth}"
    for cls in ("MonomialField", "RationalField")
    for meth in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__pow__", "conj", "d_xi", "d_xibar", "shift_down", "divide_by_one_plus_s",
        "reduced", "as_polynomial",
    )
) + ("d_xi", "d_xibar")
WINDING = ("winding_of", "winding_number")
CLI_COMMANDS = (
    "section", "cpoints", "blowup", "reconstruct", "ruled", "ledger", "tensor_probe", "verify_paper",
)


def _ratio(num, den, name, missing):
    if den == 0:
        missing.append(name)
        return 0.0
    return float(num) / float(den)


def _check_ratio(checks, names, metric, missing):
    hits = [c for c in checks if c.name in names]
    return _ratio(sum(c.ok for c in hits), len(hits), metric, missing)


def layer_metrics(sp, n_jobs, job_wall, overhead, checks, counters, startup_s, jobs_failed_frac):
    """All per-layer metrics of one traced run.

    ``sp`` holds the spans, ``job_wall`` the summed wall time of the traced
    jobs, ``checks`` every oracle check of the traced jobs and ``counters``
    the summed job counters.  Returns (metrics, not_exercised).
    """
    missing = []
    per = 1.0 / max(n_jobs, 1)
    m = {}

    ev = sp.is_name(*EVAL)
    ev_outer = sp.outermost(ev)
    small = sp.size <= 16
    alg = sp.is_name(*ALGEBRA)
    wind = sp.is_name(*WINDING)
    wind_of = sp.is_name("winding_of")
    samples = sp.is_name("Loop.samples")
    in_wind_of = sp.ancestor_in(wind_of)
    samples_in = samples & (in_wind_of >= 0)

    m["wirtinger.eval_calls"] = ev_outer.sum() * per
    m["wirtinger.eval_points"] = sp.size[ev_outer].sum() * per
    eval_self = sp.self_time[ev].sum()
    m["wirtinger.eval_self_s"] = eval_self * per
    m["wirtinger.eval_points_per_s"] = _ratio(
        sp.size[ev_outer].sum(), eval_self, "wirtinger.eval_points_per_s", missing
    )
    m["wirtinger.small_eval_frac"] = _ratio(
        (ev_outer & small).sum(), ev_outer.sum(), "wirtinger.small_eval_frac", missing
    )
    m["wirtinger.small_eval_self_s"] = sp.self_time[ev & small].sum() * per
    m["wirtinger.algebra_calls"] = sp.outermost(alg).sum() * per
    m["wirtinger.algebra_self_s"] = sp.self_time[alg].sum() * per
    m["wirtinger.winding_calls"] = sp.outermost(wind).sum() * per
    wn = sp.is_name("winding_number")
    m["wirtinger.winding_samples"] = (sp.size[samples_in].sum() + sp.size[wn].sum()) * per
    per_loop = np.bincount(in_wind_of[samples_in], minlength=len(sp.dur))[wind_of]
    m["wirtinger.winding_refinements"] = np.clip(per_loop - 1, 0, None).sum() * per
    m["wirtinger.winding_self_s"] = sp.self_time[wind | samples_in].sum() * per

    def incl(*names):
        return sp.total(sp.is_name(*names)) * per

    def calls(*names):
        return sp.outermost(sp.is_name(*names)).sum() * per

    def inside(name):
        return sp.ancestor_in(sp.is_name(name)) >= 0

    m["sections.from_support_s"] = incl("section_from_support")
    m["sections.to_support_s"] = incl("support_from_section")
    m["sections.radial_calls"] = calls("radial_support_value")
    m["sections.radial_s"] = incl("radial_support_value")
    radial_points = sp.size[ev_outer & inside("radial_support_value")].sum()
    m["sections.radial_points_per_call"] = _ratio(
        radial_points, sp.is_name("radial_support_value").sum(),
        "sections.radial_points_per_call", missing,
    )
    m["sections.defect_s"] = incl("lagrangian_defect", "totally_real_defect")
    m["sections.roundtrip_ok_ratio"] = _check_ratio(
        checks, ("support-roundtrip",), "sections.roundtrip_ok_ratio", missing
    )
    m["sections.quadrature_ok_ratio"] = _check_ratio(
        checks, ("radial-quadrature",), "sections.quadrature_ok_ratio", missing
    )

    find = sp.is_name("find_complex_points")
    in_find = inside("find_complex_points")
    found = sp.size[find].sum()
    m["cpoints.find_calls"] = calls("find_complex_points")
    m["cpoints.find_s"] = incl("find_complex_points")
    m["cpoints.find_self_s"] = sp.self_time[find].sum() * per
    m["cpoints.points_found"] = found * per
    m["cpoints.scalar_evals_per_point"] = _ratio(
        (ev_outer & in_find & (sp.size <= 1)).sum(), found, "cpoints.scalar_evals_per_point", missing
    )
    m["cpoints.loops_per_index"] = _ratio(
        (wind_of & in_find).sum(), found, "cpoints.loops_per_index", missing
    )
    m["cpoints.index_ok_ratio"] = _check_ratio(
        checks, ("winding-index-sum",), "cpoints.index_ok_ratio", missing
    )

    certify = sp.is_name("certify_totally_real")
    certify_points = sp.size[ev_outer & inside("certify_totally_real")].sum()
    certify_s = sp.total(certify)
    m["blowup.build_s"] = incl("build_c1_crosscap", "build_c2_crosscap")
    m["blowup.c2_constants_s"] = incl("c2_constants")
    m["blowup.reality_poly_s"] = incl("derive_reality_polynomial")
    m["blowup.seam_s"] = incl("seam_report")
    m["blowup.certify_calls"] = calls("certify_totally_real")
    m["blowup.certify_s"] = certify_s * per
    m["blowup.certify_points"] = certify_points * per
    m["blowup.certify_points_per_s"] = _ratio(
        certify_points, certify_s, "blowup.certify_points_per_s", missing
    )
    m["blowup.verdict_agree_ratio"] = _check_ratio(
        checks, ("certificate-verdict",), "blowup.verdict_agree_ratio", missing
    )

    recon = sp.is_name("reconstruct_surface")
    recon_s = sp.total(recon)
    vertices = sp.size[sp.outermost(recon)].sum()
    export = sp.is_name("export_obj", "export_csv")
    export_s = sp.total(export)
    export_bytes = sp.size[sp.outermost(export)].sum()
    m["euclid.reconstruct_s"] = recon_s * per
    m["euclid.vertices"] = vertices * per
    m["euclid.vertices_per_s"] = _ratio(vertices, recon_s, "euclid.vertices_per_s", missing)
    m["euclid.support_check_s"] = incl("support_property_check")
    m["euclid.principal_s"] = incl("principal_analysis")
    m["euclid.principal_eval_calls"] = (
        sp.is_name("_ShapeOperatorField.evaluate") & inside("principal_analysis")
    ).sum() * per
    m["euclid.umbilics_found"] = sp.size[sp.is_name("principal_analysis")].sum() * per
    m["euclid.export_obj_s"] = incl("export_obj")
    m["euclid.export_csv_s"] = incl("export_csv")
    m["euclid.export_bytes"] = export_bytes * per
    m["euclid.export_mb_per_s"] = _ratio(
        export_bytes / 1e6, export_s, "euclid.export_mb_per_s", missing
    )
    m["euclid.umbilic_index_ok_ratio"] = _check_ratio(
        checks, ("umbilic-index-sum",), "euclid.umbilic_index_ok_ratio", missing
    )
    m["euclid.parse_back_ok_ratio"] = _check_ratio(
        [c for c in checks if c.layer == "euclid"],
        ("obj-parse-back", "csv-parse-back"), "euclid.parse_back_ok_ratio", missing,
    )
    m["euclid.ruled_s"] = incl("ruled_family")

    for layer in ("ledger", "linespace"):
        m[f"{layer}.s"] = sp.total(sp.is_layer(layer)) * per
    m["verify.run_s"] = incl("run_verification")
    m["verify.checks"] = sp.size[sp.is_name("run_verification")].sum() * per
    m["verify.status_match"] = _check_ratio(
        checks, ("verify-statuses",), "verify.status_match", missing
    )

    m["cli.startup_s"] = startup_s
    for cmd in CLI_COMMANDS:
        mask = sp.is_name(f"cmd_{cmd}")
        m[f"cli.{cmd}_s"] = _ratio(sp.dur[mask].sum(), mask.sum(), f"cli.{cmd}_s", missing)
    m["cli.json_bytes"] = counters.get("json_bytes", 0) * per

    m["trace.overhead_frac"] = overhead
    m["trace.coverage"] = _ratio(sp.top_level_time(), job_wall, "trace.coverage", missing)
    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(
            sp.self_time[sp.is_layer(layer)].sum(), job_wall, f"share.{layer}", missing
        )
    m["jobs_failed_frac"] = jobs_failed_frac
    m["checks_failed_frac"] = _ratio(
        sum(not c.ok for c in checks), len(checks), "checks_failed_frac", missing
    )
    return {k: float(v) for k, v in m.items()}, missing
