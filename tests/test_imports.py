"""Import footprint: ``import crosscap`` loads no submodule, and each CLI
subcommand loads only the modules it runs.  The footprints are taken in fresh
interpreters, so a top-level import added anywhere in the package shows up
here."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscap

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package re-exports, by the submodule that defines it
EXPORTED = {
    "wirtinger": "Loop MonomialField RationalField winding_of",
    "linespace": "LineVectors OrientedLine TangentVec apply_j direction_vector line_to_vectors "
    "metric_g omega vectors_to_line",
    "sections": "SectionGraph SupportFunction boundary_winding lagrangian_defect "
    "radial_support_value section_from_support support_from_section totally_real_defect",
    "cpoints": "ComplexPointReport ParamPiece ParamSurface find_complex_points "
    "quadratic_model_index section_complex_index surface_defect",
    "blowup": "C1CrossCapParams build_c1_crosscap build_c2_crosscap c1_matching_constants "
    "c2_constants certify_totally_real derive_reality_polynomial g_critical_report seam_report "
    "simple_crosscap_surface",
    "euclid": "MeshR3 export_csv export_obj line_distance point_from_line principal_analysis "
    "reconstruct_surface ruled_family support_property_check translate_line",
    "ledger": "TopLedger connect_sum_rp2 lai_sum reformulation_scenario",
}

# runs the CLI the way ``python -m crosscap.cli`` does, then records the exit
# code and the modules loaded
RUN_CLI = """
import json, runpy, sys
record = sys.argv[1]
sys.argv = ["crosscap", *sys.argv[2:]]
try:
    runpy.run_module("crosscap.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(record, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

CUBIC = [
    {"m": 3, "n": 0, "re": 2 / 3, "im": 0.0},
    {"m": 0, "n": 3, "re": 2 / 3, "im": 0.0},
]
BASE = {"crosscap", "crosscap.errors"}
PROBE = BASE | {"numpy", "crosscap.wirtinger", "crosscap.linespace"}
SECTIONS = BASE | {"numpy", "crosscap.wirtinger", "crosscap.sections", "crosscap.cpoints"}
BLOWUP = BASE | {"numpy", "crosscap.wirtinger", "crosscap.cpoints", "crosscap.blowup"}
EUCLID = {"crosscap.wirtinger", "crosscap.cpoints", "crosscap.linespace", "crosscap.euclid"}
EVERYTHING = BASE | {"numpy", "crosscap.verify"} | {f"crosscap.{name}" for name in EXPORTED}


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "cubic.json").write_text(json.dumps(CUBIC))
    (tmp_path / "section.json").write_text(json.dumps({"support": CUBIC}))
    (tmp_path / "c2.json").write_text(json.dumps({"kind": "c2", "r0": 0.9}))
    (tmp_path / "ruled.json").write_text(
        json.dumps({"kind": "simple", "radii": [0.8], "t_n": 3, "angular_n": 8})
    )
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["--help"], 0, BASE),
        (["ledger", "--k", "2", "--out", "out.json"], 0, BASE | {"crosscap.ledger"}),
        (["tensor-probe", "--xi", "0.2+0.1j", "--out", "out.json"], 0, PROBE),
        (["section", "cubic.json", "--out", "out.json"], 0, SECTIONS),
        (["cpoints", "section.json", "--out", "out.json"], 0, SECTIONS),
        (["blowup", "c2.json", "--samples-out", "s.csv", "--out", "out.json"], 0, BLOWUP),
        (
            ["reconstruct", "cubic.json", "--grid", "4x6", "--out", "out.obj"],
            0,
            SECTIONS | EUCLID,
        ),
        (["ruled", "ruled.json", "--out", "ruled"], 0, BLOWUP | EUCLID),
        (["verify-paper", "--out", "out.json"], 2, EVERYTHING),
    ],
    ids=["help", "ledger", "tensor-probe", "section", "cpoints", "blowup", "reconstruct",
         "ruled", "verify-paper"],
)
def test_subcommand_loads_only_what_it_runs(argv, code, modules, inputs):
    proc = _python(["-c", RUN_CLI, "record.json", *argv], inputs)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((inputs / "record.json").read_text())
    assert record["code"] == code
    assert {m for m in record["modules"] if m.startswith("crosscap") or m == "numpy"} == modules


def test_console_script_ledger_loads_no_numpy(tmp_path):
    # the installed entry point imports crosscap.cli as a module and calls main
    script = (
        "import sys\n"
        "from crosscap.cli import main\n"
        "code = main(['ledger', '--k', '2', '--out', 'out.json'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith(('crosscap', 'numpy'))))\n"
    )
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 ['crosscap', 'crosscap.cli', 'crosscap.errors', 'crosscap.ledger']\n"


def test_import_crosscap_loads_no_submodule(tmp_path):
    script = (
        "import sys\n"
        "import crosscap\n"
        "print(sorted(m for m in sys.modules if m.startswith(('crosscap', 'numpy'))))\n"
        "print(crosscap.ledger.__name__, crosscap.TopLedger.__module__)\n"
    )
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['crosscap']", "crosscap.ledger crosscap.ledger"]


def test_every_export_is_its_submodule_attribute():
    assert sorted(crosscap.__all__) == sorted(
        name for names in EXPORTED.values() for name in names.split()
    )
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"crosscap.{module}")
        for name in names.split():
            assert getattr(crosscap, name) is getattr(source, name), name


def test_dir_lists_exports_and_submodules():
    listed = dir(crosscap)
    assert set(crosscap.__all__) <= set(listed)
    assert set(EXPORTED) | {"verify", "errors", "__version__"} <= set(listed)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        crosscap.nope
