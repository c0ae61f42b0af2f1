import cmath
import json
import math

import numpy as np
import pytest

from crosscap.blowup import C1CrossCapParams, build_c1_crosscap
from crosscap.cli import main
from crosscap.euclid import reconstruct_surface
from crosscap.sections import SupportFunction, section_from_support
from crosscap.wirtinger import MonomialField


CUBIC_RECORDS = [
    {"m": 3, "n": 0, "re": 2.0 / 3.0, "im": 0.0},
    {"m": 0, "n": 3, "re": 2.0 / 3.0, "im": 0.0},
]

C1_AT_DEFAULTS = '{"kind": "c1", %s, "r0": 0.9, "eps": 0.3}'


def read_csv(path, header):
    """The CSV's fields as floats, requiring the header and plain numbers."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return np.array([[float(field) for field in line.split(",")] for line in lines[1:]])


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_RECORDS))
    return path


class TestSection:
    def test_cubic_support_report(self, cubic_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["section", str(cubic_file), "--out", str(out), "--disc", "0.5"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["index_sum"] == -1
        assert len(payload["complex_points"]) == 1
        point = payload["complex_points"][0]
        assert point["kind"] == "hyperbolic"
        assert point["index"] == -1
        assert point["umbilic_index"] == "-1/2"
        assert payload["lagrangian_defect_max"] < 1e-12

    def test_double_zero_counted_once(self, tmp_path):
        # r = xi xibar: dbar F has a double zero of index 2 at the origin
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps([{"m": 1, "n": 1, "re": 1.0, "im": 0.0}]))
        out = tmp_path / "report.json"
        assert main(["section", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["index_sum"] == 2
        assert [p["index"] for p in payload["complex_points"]] == [2]

    def test_round_trip_field_encoding(self, cubic_file, tmp_path):
        out = tmp_path / "report.json"
        main(["section", str(cubic_file), "--out", str(out), "--disc", "0.5"])
        payload = json.loads(out.read_text())
        assert payload["support"] == sorted(
            CUBIC_RECORDS, key=lambda r: (r["m"], r["n"])
        )


class TestCpoints:
    def test_raw_section(self, tmp_path):
        section = {"num": CUBIC_RECORDS, "den_power": 0}
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section))
        out = tmp_path / "points.json"
        rc = main(["cpoints", str(path), "--out", str(out), "--disc", "0.5"])
        assert rc == 0
        payload = json.loads(out.read_text())
        # dbar of the cubic polynomial itself is 2 xibar^2: degenerate double
        # zero at the origin, reported with index -2
        assert isinstance(payload, list)

    def test_support_wrapped_section(self, cubic_file, tmp_path):
        section = {"support": CUBIC_RECORDS}
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section))
        out = tmp_path / "points.json"
        rc = main(["cpoints", str(path), "--out", str(out), "--disc", "0.5"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [p["index"] for p in payload] == [-1]


class TestBlowup:
    def test_c1_report(self, tmp_path):
        params = {"kind": "c1", "c": 5.0, "r0_sq": 0.95, "eps": 0.1}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "blowup.json"
        samples = tmp_path / "samples.csv"
        rc = main(
            [
                "blowup",
                str(path),
                "--out",
                str(out),
                "--samples-out",
                str(samples),
                "--grid-n",
                "64",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["seams"][0]["certified_order"] >= 1
        assert payload["certification"]["passed"]
        assert payload["g_critical"]["definiteness"] == "negative-definite"
        got = read_csv(samples, "nu_re,nu_im,xi_re,xi_im,eta_re,eta_im,w_re,w_im")
        surf = build_c1_crosscap(C1CrossCapParams(c=5.0, r0=float(np.sqrt(0.95)), eps=0.1))
        want = []
        for piece in surf.pieces:
            radii = np.linspace(piece.rho_in, piece.rho_out, 16)
            theta = 2.0 * np.pi * np.arange(32) / 32
            nus = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
            values = [nus, piece.xi_expr.eval(nus), piece.eta.eval(nus),
                      piece.defect_field().eval(nus)]
            want.append(np.column_stack([part for v in values for part in (v.real, v.imag)]))
        assert np.array_equal(got, np.vstack(want))

    def test_c2_report(self, tmp_path):
        params = {"kind": "c2", "r0_sq": 0.9}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "blowup.json"
        rc = main(["blowup", str(path), "--out", str(out), "--grid-n", "64"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["seams"][0]["certified_order"] == 2
        assert abs(payload["constants"]["quoted_value_residual"]) > 1e-4
        assert payload["certification"]["passed"]
        for piece in payload["certification"]["pieces"]:
            assert (piece["certificate"], piece["root_count"], piece["argmin_im"]) == ("sturm", 0, 0.0)

    # at the defaults R0 = 0.9, eps = 0.3, 256 radii: c = 0.5, 9.5, 12 and 50
    # put two circles of complex points on the outer piece (one for c = 0.5);
    # alpha = e^{i angle} scales eta and moves none of them
    @pytest.mark.parametrize(
        "c, angle, roots",
        [(0.5, 0.0, 1), (5.0, 0.0, 0), (9.5, 0.0, 2), (12.0, 0.0, 2), (50.0, 0.0, 2),
         (5.0, math.pi / 4, 0), (12.0, math.pi / 4, 2), (5.0, math.pi / 3, 0), (12.0, math.pi / 3, 2)],
    )
    def test_c1_verdict_at_defaults(self, c, angle, roots, tmp_path):
        alpha = cmath.exp(1j * angle)
        params = {"kind": "c1", "c": c, "r0": 0.9, "eps": 0.3,
                  "alpha_re": alpha.real, "alpha_im": alpha.imag}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "blowup.json"
        assert main(["blowup", str(path), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certification"]
        assert cert["passed"] == (roots == 0)
        assert [p["root_count"] for p in cert["pieces"]] == [0, roots]


class TestReconstruct:
    def test_obj_output(self, cubic_file, tmp_path):
        out = tmp_path / "surface.obj"
        rc = main(
            [
                "reconstruct",
                str(cubic_file),
                "--constant",
                "3.0",
                "--grid",
                "6x8",
                "--disc",
                "0.5",
                "--format",
                "obj",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 48
        assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 35

    def test_csv_output(self, cubic_file, tmp_path):
        out = tmp_path / "surface.csv"
        rc = main(
            [
                "reconstruct",
                str(cubic_file),
                "--grid",
                "4x6",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        got = read_csv(out, "u,v,x1,x2,x3")
        support = SupportFunction(MonomialField.from_records(CUBIC_RECORDS))
        mesh = reconstruct_surface(section_from_support(support), support, 3.0, grid=(4, 6))
        assert got.shape == (24, 5)
        assert np.array_equal(got[:, 0], np.repeat(mesh.u_values, 6))
        assert np.array_equal(got[:, 1], np.tile(mesh.v_values, 4))
        assert np.array_equal(got[:, 2:], mesh.points.reshape(-1, 3))


class TestRuled:
    def test_writes_one_file_per_radius(self, tmp_path, capsys):
        params = {"kind": "simple", "radii": [0.8, 1.0], "t_n": 4, "angular_n": 16}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        prefix = tmp_path / "ruled"
        rc = main(["ruled", str(path), "--out", str(prefix)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["written"]) == 2
        for name in payload["written"]:
            data = open(name).read()
            assert data.startswith("v ")


class TestLedger:
    def test_k_zero(self, capsys):
        rc = main(["ledger", "--k", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lai_total"] == 4
        assert payload["identities_hold"]

    def test_k_three(self, capsys):
        rc = main(["ledger", "--k", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["final_chi_t"] == -1
        assert payload["final_chi_n"] == 8
        assert payload["complex_index"] == 7


class TestTensorProbe:
    def test_origin_matrices(self, capsys):
        rc = main(["tensor-probe", "--xi", "0", "--eta", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        omega = np.array(payload["omega"])
        assert omega[0, 2] == pytest.approx(-4.0)
        assert payload["signature"] == [2, 2]


    @pytest.mark.parametrize(
        "extra", [["--xi", "nan"], ["--eta", "inf"], ["--xi", "1+nanj"]], ids=["xi", "eta", "imag"]
    )
    def test_non_finite_tensor_probe_point(self, extra, capsys):
        assert main(["tensor-probe", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err


class TestVerifyPaper:
    def test_exit_code_and_discrepancies(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify-paper", "--out", str(out)])
        assert rc == 2
        payload = json.loads(out.read_text())
        statuses = [c["status"] for c in payload["checks"]]
        assert statuses.count("fail") == 0
        assert statuses.count("discrepancy") == 2
        flagged = {c["id"] for c in payload["checks"] if c["status"] == "discrepancy"}
        assert flagged == {"reality-polynomial-x3-sign", "c2-quoted-constants"}
        assert all(c["paper_anchor"] for c in payload["checks"])
        ids = [c["id"] for c in payload["checks"]]
        assert len(ids) == len(set(ids))

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify-paper", "--out", str(out1)]) == 2
        assert main(["verify-paper", "--out", str(out2)]) == 2
        assert out1.read_bytes() == out2.read_bytes()


class TestErrors:
    def test_missing_file(self, capsys):
        rc = main(["section", "/nonexistent/path.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, extra, message",
        [
            ("section", '[{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]', [], "vanishes identically"),
            ("cpoints", '[{"m": 0, "n": 0, "re": 1.0, "im": 0.0}]', [], "vanishes identically"),
            ("section", "[1, 2]", [], "not an {m, n, re, im} record"),
            (
                "section",
                '[{"m": 3, "n": 0, "re": NaN}, {"m": 0, "n": 3, "re": 0.5}]',
                [],
                "must be finite",
            ),
            ("section", json.dumps(CUBIC_RECORDS), ["--disc", "-1"], "disc radius"),
            ("reconstruct", json.dumps(CUBIC_RECORDS), ["--constant", "nan"], "must be finite"),
            # numpy refuses the 7.28 TiB axis at once
            ("section", json.dumps(CUBIC_RECORDS), ["--grid-n", "1000000000000"], "allocate"),
            ("blowup", '{"kind": "c2", "r0": 0.5}', [], "need 3^(-1/2) < R0 < 1"),
            ("blowup", '{"kind": "c2"}', [], "need r0 or r0_sq"),
            ("blowup", '{"kind": "c1", "c": 5.0, "eps": 0.3}', [], "need r0 or r0_sq"),
            ("blowup", '{"kind": "c2", "r0": 0.9}', ["--tol", "nan"], "seam tolerance"),
            # c * (1 - nu nubar)^2 has the coefficient -2e308 = -inf
            ("blowup", C1_AT_DEFAULTS % '"c": 1e308', [], "chart coefficients must be finite"),
            ("blowup", C1_AT_DEFAULTS % '"c": Infinity', [], "finite c"),
            (
                "blowup",
                C1_AT_DEFAULTS % '"c": 5.0, "alpha_re": Infinity',
                [],
                "finite nonzero alpha",
            ),
            ("blowup", C1_AT_DEFAULTS % '"c": [1]', [], "'c' must be a number"),
            ("reconstruct", json.dumps(CUBIC_RECORDS), ["--grid", "0x5"], "below the 2x3"),
            (
                "blowup",
                '{"kind": "c2", "r0": 0.9, "inner_radius": 0.95}',
                [],
                "inner radius must satisfy",
            ),
            ("ruled", '{"kind": "simple", "radii": [0.8], "t_min": NaN}', [], "must be finite"),
            ("ruled", '{"kind": "simple", "radii": [0.8], "t_n": 2.5}', [], "must be an integer"),
            ("ruled", '{"kind": "simple", "radii": ["a"]}', [], "must be a number"),
            (
                "ruled",
                '{"kind": "simple", "radii": [0.8], "angular_n": true}',
                [],
                "must be an integer",
            ),
            (
                "ruled",
                '{"kind": "simple", "radii": [0.8, 0.8000001]}',
                [],
                "radii 0.8 and 0.8000001 both name the file _r0.8",
            ),
        ],
        ids=[
            "constant-section",
            "constant-cpoints",
            "not-records",
            "nan",
            "negative-disc",
            "nan-constant",
            "oversized-grid",
            "c2-r0",
            "c2-missing-r0",
            "c1-missing-r0",
            "nan-tol",
            "overflowing-c",
            "inf-c",
            "inf-alpha",
            "list-c",
            "zero-grid-rows",
            "c2-inner-radius",
            "ruled-nan-t-min",
            "ruled-fractional-t-n",
            "ruled-string-radius",
            "ruled-bool-angular-n",
            "ruled-colliding-radii",
        ],
    )
    def test_invalid_input_is_one_line_exit_one(
        self, command, text, extra, message, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        assert main([command, str(path), "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("xi", ["1e200", "-1000.5", "700+800j"])
    def test_tensor_probe_beyond_chart_bound(self, xi, capsys):
        # every field evaluation rejects these points; at 1e200 the line-space
        # forms would underflow to all zeros with signature [0, 0]
        assert main(["tensor-probe", "--xi", xi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "chart bound" in err
