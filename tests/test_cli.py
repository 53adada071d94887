"""Command line contract: exit codes, schemas, determinism."""

import hashlib
import json
import math
import struct

import pytest

from shearlab import chains, cli, cusped, report
from shearlab.constants import Signature, collar_width
from shearlab.geom import RELATION_TOL, GeometryError
from shearlab.surface import FNCoordinates, holonomy_from_fn, sample_fn
from report_oracle import nan_max
from test_report import handle_nothing


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


SURFACE_03 = {
    "signature": {"g": 0, "n": 3},
    "pants": [{"slots": [{"cusp": 0}, {"cusp": 1}, {"cusp": 2}]}],
    "fn": [],
}

SURFACE_11 = {
    "signature": {"g": 1, "n": 1},
    "pants": [{"slots": [{"curve": 0}, {"curve": 0}, {"cusp": 0}]}],
    "fn": [{"curve": 0, "length": 1.0, "twist": 0.3}],
}

SURFACE_04 = {
    "signature": {"g": 0, "n": 4},
    "pants": [{"slots": [{"cusp": 0}, {"cusp": 1}, {"curve": 0}]},
              {"slots": [{"curve": 0}, {"cusp": 2}, {"cusp": 3}]}],
    "fn": [{"curve": 0, "length": 2.0, "twist": 0.7}],
}


def write_surface(tmp_path, data, name="surface.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConstantsCommand:
    def test_includes_delta1(self, capsys):
        code, out = run(["constants", "--g", "0", "--n", "3"], capsys)
        data = json.loads(out)
        assert abs(data["records"][0]["delta1"] - 0.2768065) <= 1e-6
        assert data["schema"] == "shearlab-report/1"

    def test_audit_failure_exit_code(self, capsys):
        # the audit honestly reports the two collar-gap bounds as failed,
        # so the documented audit-failure code is returned
        code, out = run(["constants", "--g", "2", "--n", "0"], capsys)
        data = json.loads(out)
        assert abs(data["records"][0]["main_bound"] - 148.354) < 1e-2
        assert code == 2 and not data["records"][0]["audit"]["ok"]

    def test_invalid_signature(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["constants", "--g", "0", "--n", "2"])
        assert err.value.code == 1

    @pytest.mark.parametrize("rho_prime", ["0", "-0.1", "0.2", "-5e-1",
                                           "-inf"])
    def test_rho_prime_out_of_range(self, capsys, rho_prime):
        # 0 is a value, not "use the default"; both are rejected by name
        code = cli.main(["constants", "--g", "1", "--n", "1",
                         "--rho-prime", rho_prime])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "rho_prime" in captured.err
        assert captured.err.count("\n") == 1


    def test_rho_prime_below_tanh_rho_names_the_range(self, capsys):
        # below tanh(rho) the truncated collar is undefined at 2 tanh(rho);
        # every rejected rho', below tanh(rho) or outside (0, rho), names
        # the one accepted range
        rho = repr(math.log(3.0) / 4.0)
        for rho_prime in ("0.2", "0.1", "0.3", "-1", "nan", "inf", rho):
            code = cli.main(["constants", "--g", "1", "--n", "1",
                             "--rho-prime", rho_prime])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "", rho_prime
            assert captured.err == (
                "error: rho_prime must lie in [tanh(rho), rho) = "
                f"[{math.tanh(math.log(3.0) / 4.0)}, {rho})\n"), rho_prime
        tanh_rho = repr(math.tanh(math.log(3.0) / 4.0))
        code, _ = run(["constants", "--g", "1", "--n", "1",
                       "--rho-prime", tanh_rho], capsys)
        assert code == 2


#: --rho-prime values of the constants digests: the default, tanh(rho),
#: two inside [tanh(rho), rho), and 0.26, which is rejected below tanh(rho)
CONSTANTS_RHO_PRIMES = (None, "0.26794919243112275", "0.27", "0.2746",
                        "0.26")

#: (g, n) -> (exit code, sha256 of stdout) of ``constants --g G --n N``
#: at each of CONSTANTS_RHO_PRIMES: the six signatures of the theorem
#: sweep, (5,5) and (100,0)
CONSTANTS_DIGESTS = {
    (1, 1): (
        (2, "2295126498286d0378812fab4b764201131309ce8342685bceeefbbd9861ba04"),
        (2, "b26b1a1f45e262594107046bc110bc2811b314811850585e5773908750626d62"),
        (2, "660947f9bb06acbf28d8b43e907fef46f0d0aa4a3cb40292d8a984ec1c6cf32d"),
        (2, "1701e3959e11756749b4f6e74a9ab93bebbdb7741006cbc886fb56dfdccfbea1"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (1, 2): (
        (2, "ef2425e6f8d2f7da1f62e9beefff4297a40f095c7afd3b3e63f2819a3bc79632"),
        (2, "f45a6b9417372da31e2866c166223101c6e1ea018f311085e908c8193250c471"),
        (2, "3d634829c223ed57414ecec87c14b4266fd29165d159acd3aeaa2b5f20e0fe59"),
        (2, "bd825ea76f753b93a694599d0b5fc4de49eec8f42c357ad5cf9c78beb4a771a8"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (2, 0): (
        (2, "6aa230c4fbb38912a722050679b92620f69e363e3db0618ae4497a16e959d504"),
        (2, "9b9fb55926714d3c35dfb334852b6719efc3c4c79aaee15b1716db03f0409182"),
        (2, "c0766a3cea6488a37e193049038e52f1c47a7f75e6f21a2f0ce1baddab8bf075"),
        (2, "93a7ac85273433184b51335829bdbfff413c22857f1f36c2f36e97b4c33371a8"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (2, 1): (
        (2, "54e9190e0b3f247e3d8ba8dea082d0103f75b6feb645044d7e8e5b92b54352e7"),
        (2, "04b0f88de8627a2f051d978b5e92dec718b7d0e41e991c0fd0e2015eafa8b33e"),
        (2, "3f30442801dbd1ef36967038321e31ecb613788e5507e5904da8bcf56d5719c9"),
        (2, "f215738050ead1381ce8b31d4c7f8b1a058362f082606d45c36aeec13ee4e2ca"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (0, 4): (
        (2, "5d6aedbb2f5d16cf69788032ca81b356e55b0f3387ec16c8b9f90c8c40e42b5d"),
        (2, "26d8dab49e05b21d98640b41e1b31e87d29ee69e67ae2221c5f50f85500d8935"),
        (2, "feec5dac58fb3f5c458950da7d213e37143135b57cb60b10bed7710586f13e8c"),
        (2, "8fdcf176e7ecb3e93b2afc1ea950a7d94f92036928ed6368aa619b1058cb89aa"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (0, 5): (
        (2, "98fcb789acf8d1371545b9df740d01e6da8620a56bafd74eeb16e0103bda7d3e"),
        (2, "9a00aecfa45086977b61b623a1a849a1c9477f5baa00dbc5bf1696967a933d74"),
        (2, "772a29f1fe21187bac25304ba5ab54f66cab735d1e6043ab925cf828a2f4edf0"),
        (2, "da41728d02329517cfcf188f5810c9fc428842a6541824afc37cdceac8431cb0"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (5, 5): (
        (2, "ced78f79c3f0924fdde9f583a94ae5bfdb64fad78f4b726e82fca94dd2e640a3"),
        (2, "1b51442fb06b9ca230aa5c5e714ad3e1596f8c2855b8bd3019f28ab0f5606bf0"),
        (2, "28ac883fc9c9a9b94b3871d5e96ff319ffa98780cc8ffa3353930888be27c285"),
        (2, "cdacfe1c9a891cb7a7767f0e7738390586f62bc1d876f96eea7f86a630951222"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    (100, 0): (
        (2, "df2165e46e6f1bc9ce7e86eb62e910327bf8de6c9fb9f8b22f2eaa104c7f9dea"),
        (2, "6b20845790cb3d1886392007ac7c5ccd25d13c6d487e6416d247ac397117c073"),
        (2, "1fde7b42d58b7df2df90287644d7ff7dc220a2cf9b9e1de808b8e8cbc6c3e062"),
        (2, "42c7dc87d06a69c0fa3867592d63430dfce78e5602eb9e10a40897ad8a710275"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
}


class TestConstantsBytes:
    """constants writes the same bytes for fixed signatures and rho'."""

    @pytest.mark.parametrize("sig", CONSTANTS_DIGESTS,
                             ids=lambda sig: "%d,%d" % sig)
    def test_digests(self, capsys, sig):
        g, n = sig
        for rho_prime, want in zip(CONSTANTS_RHO_PRIMES,
                                   CONSTANTS_DIGESTS[sig]):
            flags = [] if rho_prime is None else ["--rho-prime", rho_prime]
            code, out = run(["constants", "--g", str(g), "--n", str(n),
                             *flags], capsys)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, (
                rho_prime)


class TestComputeCommand:
    def test_three_cusped_sphere(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_03)
        code, out = run(["compute", path], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert all(abs(v) <= 1e-9 for v in rec["shears"].values())
        assert rec["certified"] and rec["bound_satisfied"]

    def test_once_punctured_torus_relations(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_11)
        code, out = run(["compute", path], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["cusp_residual"] < 1e-6
        assert rec["spiral_residual"] < 1e-6

    def test_uncertified_still_reported(self, tmp_path, capsys):
        sig = Signature(1, 1)
        from shearlab.constants import area
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"][0]["length"] = 3 * math.log(4 * area(sig))
        path = write_surface(tmp_path, bad)
        code, out = run(["compute", path], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert not rec["certified"]
        assert rec["shears"]

    def test_degenerate_trace_is_reported_not_clamped(self, tmp_path, capsys):
        # tanh(l/4) saturates in double precision around l ~ 30 and the
        # cusp trace can no longer be certified; the pipeline refuses
        sig = Signature(1, 1)
        from shearlab.constants import area
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"][0]["length"] = 10 * math.log(4 * area(sig))
        path = write_surface(tmp_path, bad)
        assert cli.main(["compute", path]) == 3

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["compute", str(path)]) == 1

    def test_geometry_error(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"][0]["length"] = -1.0
        path = write_surface(tmp_path, bad)
        assert cli.main(["compute", path]) == 3


    def test_parabolic_mirrored_holonomy_names_the_edge(self, tmp_path,
                                                        capsys):
        # the (2,0) theta graph: both pants have the lengths of curves 0, 1
        # and 2 in slot order, a triple on which the kernel's back corner
        # of slot 0 sees a parabolic mirrored holonomy
        lengths = (0.020754155195293427, 27.905176019206184,
                   33.420381573877656)
        theta = {
            "signature": {"g": 2, "n": 0},
            "pants": [{"slots": [{"curve": c} for c in range(3)]}] * 2,
            "fn": [{"curve": c, "length": length, "twist": 0.0}
                   for c, length in enumerate(lengths)],
        }
        one_line_error(
            capsys, ["compute", write_surface(tmp_path, theta)], 3,
            "error: geometry invariant failure: edge (0, 0): slot 0 "
            "holonomy mirrored across the seam is parabolic")


def one_line_error(capsys, argv, code, needle):
    """The command exits with code and one stderr line naming needle."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert needle in captured.err
    assert captured.err.count("\n") == 1


class TestMalformedSurface:
    """Gluing data that no surface is built from fails with one line."""

    def test_curve_without_fn_row(self, tmp_path, capsys):
        bad = dict(SURFACE_04, fn=[])
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 1, "curve 0 has no fn row")

    def test_curve_on_one_slot(self, tmp_path, capsys):
        bad = dict(SURFACE_04, pants=[
            {"slots": [{"cusp": 0}, {"cusp": 1}, {"curve": 0}]},
            {"slots": [{"curve": 1}, {"cusp": 2}, {"cusp": 3}]}],
            fn=SURFACE_04["fn"] + [{"curve": 1, "length": 1.0}])
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 1,
                       "curve 0 glues 1 slots, expected 2")

    def test_curve_on_three_slots(self, tmp_path, capsys):
        bad = dict(SURFACE_04, pants=[
            {"slots": [{"curve": 0}, {"cusp": 1}, {"curve": 0}]},
            {"slots": [{"curve": 0}, {"cusp": 2}, {"cusp": 3}]}])
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 1,
                       "curve 0 glues 3 slots, expected 2")

    def test_duplicate_cusp_id(self, tmp_path, capsys):
        bad = dict(SURFACE_04, pants=[
            {"slots": [{"cusp": 0}, {"cusp": 1}, {"curve": 0}]},
            {"slots": [{"curve": 0}, {"cusp": 0}, {"cusp": 3}]}])
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 1, "cusp id 0 used twice")

    def test_pants_with_two_slots(self, tmp_path, capsys):
        bad = dict(SURFACE_04, pants=[
            {"slots": [{"cusp": 0}, {"cusp": 1}, {"curve": 0}]},
            {"slots": [{"curve": 0}, {"cusp": 2}]}])
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 1,
                       "each pants needs exactly three slots")

    def test_non_finite_length(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"][0]["length"] = math.inf
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 3,
                       "curve 0 needs a positive finite length")

    @pytest.mark.parametrize("command, code", [("compute", 3),
                                               ("optimize", 4)])
    @pytest.mark.parametrize("twist", [math.inf, math.nan])
    def test_non_finite_twist(self, tmp_path, capsys, command, code, twist):
        # json writes these as the non-JSON tokens Infinity and NaN, which
        # json.load reads back
        bad = json.loads(json.dumps(SURFACE_04))
        bad["fn"][0]["twist"] = twist
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], code,
                       "curve 0 needs a finite twist")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    def test_signature_mismatch(self, tmp_path, capsys, command):
        # one three-cusped pants declared as (5,5) would otherwise be
        # certified against the (5,5) bound
        bad = dict(SURFACE_03, signature={"g": 5, "n": 5})
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], 1,
                       "expected 13 pants for signature, found 1")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    def test_fn_row_of_no_curve(self, tmp_path, capsys, command):
        # the row would otherwise be written into the record's fn
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"].append({"curve": 7, "length": 99.0})
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], 1,
                       "fn row of curve 7, which no slot glues")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    @pytest.mark.parametrize("kind", ["curve", "cusp"])
    def test_ids_that_cannot_be_ordered(self, tmp_path, capsys, command,
                                        kind):
        # the record keys and the curve checks follow the order of the ids
        bad = json.loads(json.dumps(SURFACE_04))
        slot = bad["pants"][0]["slots"][2 if kind == "curve" else 1]
        slot[kind] = "b"
        if kind == "curve":
            bad["pants"].insert(1, {"slots": [{"curve": "b"}, {"cusp": 4},
                                              {"curve": 0}]})
            bad["signature"]["n"] = 5
            bad["fn"].append({"curve": "b", "length": 1.0})
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], 1,
                       f"{kind} ids cannot be ordered together")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    def test_two_fn_rows_of_one_curve(self, tmp_path, capsys, command):
        # the second row would otherwise replace the first, twist included
        bad = json.loads(json.dumps(SURFACE_04))
        bad["fn"].append({"curve": 0, "length": 3.0})
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], 1,
                       "curve 0 has two fn rows")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    @pytest.mark.parametrize("key, value", [("g", 1.9), ("g", True),
                                            ("n", 1.0), ("n", "1")])
    def test_signature_not_an_integer(self, tmp_path, capsys, command, key,
                                      value):
        # int() would read 1.9 and true as 1 and run the surface as (1,1)
        bad = json.loads(json.dumps(SURFACE_11))
        bad["signature"][key] = value
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, [command, path], 1,
                       f"signature {key} must be an integer, got {value!r}")

    @pytest.mark.parametrize("command", ["compute", "optimize"])
    @pytest.mark.parametrize("key, value", [
        ("length", "2.0"), ("length", True), ("twist", "0.3"),
        ("twist", True),
        pytest.param("length", 10 ** 400, id="length-10**400"),
        pytest.param("twist", -10 ** 400, id="twist--10**400")])
    def test_fn_value_not_a_number(self, tmp_path, capsys, command, key,
                                   value):
        # float() would read "2.0" and true as 2.0 and 1.0 and run them,
        # and raises OverflowError for an integer beyond the float range
        bad = json.loads(json.dumps(SURFACE_11))
        bad["fn"][0][key] = value
        path = write_surface(tmp_path, bad)
        needle = (f"{key} of curve 0 is too large for a float"
                  if type(value) is int else
                  f"{key} of curve 0 must be a number, got {value!r}")
        one_line_error(capsys, [command, path], 1, needle)

    @pytest.mark.parametrize("twist", [1420.0, -1500.0, 1419.0])
    def test_twist_too_large_for_float64(self, tmp_path, capsys, twist):
        # the gluing map overflows, divides by a zero translation or
        # holds inf * 0; each names the curve and its twist.  optimize
        # first reduces the twist into [-l/2, l/2) (TestTwistReduction),
        # so only a gluing at the twist as given meets the error
        with pytest.raises(GeometryError) as err:
            holonomy_from_fn(*surface_04_at_twist(twist))
        assert str(err.value) == (f"gluing map of curve 0 at twist {twist} "
                                  f"is not finite in float64")
        bad = json.loads(json.dumps(SURFACE_04))
        bad["fn"][0]["twist"] = twist
        code, _ = run(["optimize", write_surface(tmp_path, bad)], capsys)
        assert code == 0

    def test_disconnected_gluing_graph(self, tmp_path, capsys):
        bad = {"signature": {"g": 0, "n": 4},
               "pants": [{"slots": [{"curve": 0}, {"curve": 0},
                                    {"cusp": 0}]},
                         {"slots": [{"cusp": 1}, {"cusp": 2},
                                    {"cusp": 3}]}],
               "fn": [{"curve": 0, "length": 1.0, "twist": 0.0}]}
        path = write_surface(tmp_path, bad)
        one_line_error(capsys, ["compute", path], 3,
                       "gluing graph is not connected")


class TestSampleCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        cli.main(["sample", "--g", "1", "--n", "1", "--count", "6",
                  "--seed", "42", "--out", str(a)])
        cli.main(["sample", "--g", "1", "--n", "1", "--count", "6",
                  "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_header_contract(self, capsys):
        code, out = run(["sample", "--g", "0", "--n", "4", "--count", "2",
                         "--seed", "1", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("sample,gn,seed,certified,max_shear,bound,ratio,"
                          "cusp_residual,spiral_residual,min_margin")

    def test_summary_ratio_below_one(self, capsys):
        code, out = run(["sample", "--g", "1", "--n", "2", "--count", "8",
                         "--seed", "3"], capsys)
        data = json.loads(out)
        assert data["summary"]["max_ratio_certified"] < 1.0
        assert data["summary"]["bound_violations_certified"] == 0
        assert code == 0

    def test_negative_count(self, capsys):
        one_line_error(capsys, ["sample", "--g", "1", "--n", "1",
                                "--count", "-3"], 1, "--count")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, capsys, seed):
        one_line_error(capsys, ["sample", "--g", "1", "--n", "1",
                                "--count", "2", "--seed", str(seed)], 1,
                       "--seed")

    def test_largest_seed(self, capsys):
        code, out = run(["sample", "--g", "1", "--n", "1", "--count", "1",
                         "--seed", str(2 ** 64 - 1)], capsys)
        assert code == 0 and json.loads(out)["summary"]["samples"] == 1

    @pytest.mark.parametrize("flags, needle", [
        (["--length-min", "nan"], "--length-min must be finite"),
        (["--length-max", "inf"], "--length-max must be finite"),
        (["--twist-max", "nan"], "--twist-max must be finite"),
        (["--length-min", "0"], "--length-min must be positive"),
        (["--length-min", "-1"], "--length-min must be positive"),
        (["--length-min", "3", "--length-max", "2"],
         "length maximum 2.0 is below length minimum 3.0"),
        # against the default minimum 0.05
        (["--length-max", "0.01"],
         "length maximum 0.01 is below length minimum 0.05"),
        # against the default maximum 2 log(4 area), about 6.45 at (1,1)
        (["--length-min", "20"], "is below length minimum 20.0"),
        (["--twist-max", "-1"], "--twist-max must be non-negative"),
        # argparse reads only plain decimals after an option as negative
        # numbers; these reach the named checks too
        (["--twist-max", "-1e-3"], "--twist-max must be non-negative"),
        (["--twist-max", "-inf"], "--twist-max must be finite"),
        (["--length-min", "-1e308"], "--length-min must be positive"),
        (["--length-max", "-1e3"],
         "length maximum -1000.0 is below length minimum 0.05"),
        (["--length-min", "-1E-3", "--length-max", "-2e0"],
         "--length-min must be positive"),
    ])
    def test_empty_or_invalid_ranges(self, capsys, flags, needle):
        one_line_error(capsys, ["sample", "--g", "1", "--n", "1",
                                "--count", "2", *flags], 1, needle)

    @pytest.mark.parametrize("flags, want", [
        ([], None),
        (["--length-min", "1.5"], [1.5, 2.0 * math.log(8.0 * math.pi)]),
        (["--length-max", "3.5"], [0.05, 3.5]),
    ])
    def test_config_length_range(self, capsys, flags, want):
        # a flag left out takes its default; with neither flag the config
        # records no range
        code, out = run(["sample", "--g", "1", "--n", "1", "--count", "2",
                         *flags], capsys)
        assert code == 0
        assert json.loads(out)["config"]["length_range"] == want

    def test_degenerate_ranges_sample(self, capsys):
        code, out = run(["sample", "--g", "1", "--n", "1", "--count", "2",
                         "--length-min", "1", "--length-max", "1",
                         "--twist-max", "0"], capsys)
        data = json.loads(out)
        assert code == 0 and data["summary"]["failures"] == 0
        for rec in data["records"]:
            assert rec["fn"] == {"lengths": {"0": 1.0}, "twists": {"0": 0.0}}

    def test_zero_count(self, capsys):
        code, out = run(["sample", "--g", "1", "--n", "1", "--count", "0"],
                        capsys)
        data = json.loads(out)
        assert code == 0
        assert data["records"] == [] and data["summary"]["samples"] == 0

    def test_config_hash_present(self, capsys):
        _, out = run(["sample", "--g", "1", "--n", "1", "--count", "2",
                      "--seed", "9"], capsys)
        data = json.loads(out)
        assert len(data["config"]["hash"]) == 16


#: flags of ``sample`` -> (exit code, sha256 of stdout) in JSON and in
#: CSV: error records at (5,5); no curve, so empty fn dicts, at (0,3);
#: curve ids from 10 on, which JSON sorts before "2", at (10,0); three
#: blocks at the largest seed; every sample failing at very short
#: lengths, and every construction failing at huge ones; no sample
SAMPLE_DIGESTS = {
    ("--g", "5", "--n", "5", "--seed", "3", "--count", "300"): (
        (0, "688bcfde53e27c23d3b3ba09d02d8fcad28752337a94d459a0924b2d41a86409"),
        (0, "9559a32c8a02b520610f9bbe1c8a523b7656c349950a1e043589a34be20273d6")),
    ("--g", "0", "--n", "3", "--seed", "1", "--count", "5"): (
        (0, "7d4dc0eb1eee4c4b2c1440afdd522309c259c193d9ca4df8cb2e5e15843fc265"),
        (0, "817ec127dfb1fe2e289f709ab9daf7234629892788c8ce2021e8ffb83ee8ed69")),
    ("--g", "10", "--n", "0", "--seed", "42", "--count", "40"): (
        (0, "ee089709bf15657c1edeea93e08d82b112deece1f3fcf8bb05c977892a8d6cff"),
        (0, "c4d914edf8414271b2a671b1a89dd06c3b23849f99a341f9f3695623f248b8c6")),
    ("--g", "1", "--n", "1", "--seed", str(2 ** 64 - 1), "--count", "600"): (
        (0, "6706b15befbb8187d135dafcc1e8434add1774496ace02b2d9b6a99e1b875e65"),
        (0, "733031a9466da22812c4ea04c0a5abdb60fee4314e7fcf5bfbc08dd6688ebfe0")),
    ("--g", "2", "--n", "0", "--seed", "1", "--count", "20",
     "--length-min", "0.001", "--length-max", "0.01"): (
        (0, "e17c6ca10e023c8c029d9247bb392ef86325fc8e56042b4ba8cc8ad399f30fe2"),
        (0, "51a06aa740b8a47ba81bb7979241532623a763ed83f579d21b8b4b6460e071da")),
    ("--g", "1", "--n", "1", "--seed", "1", "--count", "3",
     "--length-min", "1e-300", "--length-max", "1e308"): (
        (0, "52811896f8887027c7c595581223334a3e6c799a686e4da385f61a94d61bf3f5"),
        (0, "9ca8d504f5e5b659e0a1479af175e632d8d7eeca5de3b929f359ef6e9a33e6c9")),
    ("--g", "1", "--n", "1", "--seed", "0", "--count", "0"): (
        (0, "c523272e383038e2eb3b2dacbc03da9f84a84332bf432ad370de1a93f33ce5a9"),
        (0, "549a4943f516740596f4956b764f8fcf5f80a0ad520afa4d9c10ad4dde62a34f")),
}


class TestSampleBytes:
    """sample writes the same bytes for fixed flags and seeds."""

    @pytest.mark.parametrize("flags", SAMPLE_DIGESTS,
                             ids=lambda flags: " ".join(flags[1:8:2]))
    def test_digests(self, capsys, flags):
        for fmt, want in zip(("json", "csv"), SAMPLE_DIGESTS[flags]):
            code, out = run(["sample", *flags, "--format", fmt], capsys)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, (
                fmt)


class TestOptimizeCommand:
    def test_three_cusped_sphere_trivial(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_03)
        code, out = run(["optimize", path, "--budget", "10"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["best_max_shear"] == 0.0
        assert rec["flips"] == []

    def test_budget_zero_echoes(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_04)
        code, out = run(["optimize", path, "--budget", "0"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["best_max_shear"] == rec["start_max_shear"]
        assert rec["flips"] == []

    def test_negative_budget(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_04)
        one_line_error(capsys, ["optimize", path, "--budget", "-5"], 1,
                       "--budget")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        path = write_surface(tmp_path, SURFACE_04)
        one_line_error(capsys, ["optimize", path, "--seed", str(seed)], 1,
                       "--seed")

    def test_largest_seed(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_04)
        code, out = run(["optimize", path, "--budget", "5",
                         "--seed", str(2 ** 64 - 1)], capsys)
        assert code == 0 and len(json.loads(out)["records"][0]["flips"]) == 5

    def test_descent_contract(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_04)
        code, out = run(["optimize", path, "--budget", "60", "--seed", "5"],
                        capsys)
        rec = json.loads(out)["records"][0]
        assert rec["best_max_shear"] <= rec["start_max_shear"]
        from shearlab.constants import main_bound
        assert rec["best_max_shear"] < main_bound(Signature(0, 4))

    def test_unsupported_surface(self, tmp_path, capsys):
        path = write_surface(tmp_path, SURFACE_11)
        assert cli.main(["optimize", path]) == 4


#: (n, sample_fn seed, budget, search seed) -> (exit code, sha256 of the
#: stdout of ``optimize surface.json``), for (0,n) surfaces from sample_fn
OPTIMIZE_DIGESTS = {
    (4, 0, 100, 0): (
        0, "1c56d4818bd1d8e340707d08ebf5e051f30ad78b50a5a8da7b59d3686be82184"),
    (4, 0, 37, 1): (
        0, "b8ec181d7c9adef27c2e3daef5735f9e64a635b271a7477ad35e1633a3d557b5"),
    (4, 1, 100, 1): (
        0, "af7438d6de6fbf4c011973ed893ad2b238c268c8c29648ca70a0fd76465fa7a8"),
    (4, 1, 37, 4): (
        0, "45f71cc9ec55a5302a79918ea365ae53f33b72856806ff3f639d97c00c328c97"),
    (4, 2, 100, 2): (
        0, "dd598d46bb88ea9445900ab9330717ba3c6180e8fbf8653ae80fb7f41219389e"),
    (4, 2, 37, 7): (
        0, "ffc1fefde7d395d36fbb300c38e048d3783600fb871b5dca2c89af457b421a11"),
    (4, 3, 100, 3): (
        0, "d0cf256e18d5f557193d7439faca485d75b254409ee49d02fa789b2c40f5a8e0"),
    (4, 3, 37, 10): (
        0, "4a97a92dcde0a116473bd449f02d9f2d95632b977146fb9a05401da9e3c92544"),
    (4, 4, 100, 4): (
        0, "fdc8f7ed337435d8cd1811fd4485eb7c83db722e0f4f96ef043542a4335d2d51"),
    (4, 4, 37, 13): (
        0, "d2e722de4f256f339eddf64ce04041baa04842bf5297dd432676e50759c0b338"),
    (4, 5, 100, 5): (
        0, "0de131d3c87b3245a2cb6b73cb95c0de988771867a6e0b13f0343cc0f9a820e3"),
    (4, 5, 37, 16): (
        0, "09c75aab7aafd77b33302c8571a662179e4383812e91594fa641703daeb7131f"),
    (4, 6, 100, 6): (
        0, "5bf6a87d1bd6ac9426e760b55ca799da24fa5b9439348a155c3952eea20ddaea"),
    (4, 6, 37, 19): (
        0, "f557e674533a31f9848101d49e4dcc2817fb7bf4b979e4c8b936fa34aa57489f"),
    (4, 7, 100, 7): (
        0, "5ade7486a0095ed87aa4dbff188dac9303d61a8417fca7ebe695e39be931bcf0"),
    (4, 7, 37, 22): (
        0, "1b52e6096de351bea16abdbf6436aa9836896afb9408deecb62a09210209654f"),
    (4, 8, 100, 8): (
        0, "e001ad51dbfad2050872f028ca566d212c763be37877c7d24289696e70228a88"),
    (4, 8, 37, 25): (
        0, "0905bd0d3b8788994bfa405ded2306a74f61e3c6c38b13372f4d43096a55b641"),
    (4, 9, 100, 9): (
        0, "17ff9249349fe23716cf0e6b7494dcb22cda792da8b856ec96eacd7e296bce1c"),
    (4, 9, 37, 28): (
        0, "40b6b8b8b7f6ed2be219b5f35780203181a534b74b6cfaf71d77d36c1ff78861"),
    (5, 0, 100, 0): (
        0, "b6261522705d80e44ba6ada414a6f7a7399f28aea00cbdef3653b15300cf089a"),
    (5, 0, 37, 1): (
        0, "d7c0972523ee080591f3c5563243a4681c287272ce4e2c766129a84885d4df70"),
    (5, 1, 100, 1): (
        0, "7e35c0258f8a228b59aee252f9b6e33f033c807845af1fa7fa5e36ed602fae55"),
    (5, 1, 37, 4): (
        0, "f22957a14842f949bf7f3c842359c62b463d4c446ffb226cd91c667ec9295d4d"),
    (5, 2, 100, 2): (
        0, "78a723f1418c91ef29b7460d82a0d765823b945d08cea622663467e4e1c7881d"),
    (5, 2, 37, 7): (
        0, "36b90b57cbc2890252ceef3fdb1a5b47ced865e56749e17ca22521922defc0ac"),
    (5, 3, 100, 3): (
        0, "54b8b18fb0eff2a3cfdce61d79fc10bfee324b8a79ebc4b7dd31d349ca30e645"),
    (5, 3, 37, 10): (
        0, "6e5bcff1590bda3df1a0d98e94bb9f13d9433fa0fe3c91b8e34ff5c820aa45e2"),
    (5, 4, 100, 4): (
        0, "15646cc8c93391a9b1798a397811cbd50cc0471fa29185c146ebd36f86d1a3d0"),
    (5, 4, 37, 13): (
        0, "8a31ce40f154bc8079ccc0bed434618f5757676c7f08910fb5f4282618cbe168"),
    (5, 5, 100, 5): (
        0, "17893b114e69763902ac3ffc20220e6c185eb18b88385b190281d51571ecc86e"),
    (5, 5, 37, 16): (
        0, "465cb774577c3afcdfc0d20df6290b442be5a2e81d876fea6ee8618350379723"),
    (5, 6, 100, 6): (
        0, "60782b7f9375ac812899cf709fd4e82691064ecff2c0e4f15b038b8e0c623eb8"),
    (5, 6, 37, 19): (
        0, "63bed4a7e67cb79e002765140a09099f29f46a87b2f9ddc7bad9dc42d3497987"),
    (5, 7, 100, 7): (
        0, "9edd056148cd58fceb4926f4c6b20a04d6168a9183f730bb8de4097cc3463ad4"),
    (5, 7, 37, 22): (
        0, "a7c174ac92eeeb5a8aa4809e3fa4674fa6559d1d03322ccf7e04d1bd54d26194"),
    (5, 8, 100, 8): (
        0, "808da32eba34d67886d033ed1b69cbb78c33ff7370b857c3f5b1395c1efdaf62"),
    (5, 8, 37, 25): (
        0, "926b5202b3e00531f69c41f89c513a52e4a7a449f3469cd4e1794da676cacd37"),
    (5, 9, 100, 9): (
        0, "8f9727760f74f3727fcfbc3aad06b250db41b534a25b1fd3d8108b69595774d8"),
    (5, 9, 37, 28): (
        0, "4a029d9d0d590b4a1aac548ed8d1b52e379b4b26201905d3ea25a056138138bb"),
    # two (0,5) surfaces with long curves (lengths 7.33 and 6.70, and
    # 4.29 and 7.93) and twists beyond l/2; reduced, they close their fan
    # with the first chaining of the right boundary arcs, as the seeds
    # above do
    (5, 77, 100, 77): (
        0, "0ea437f58cda46d2469b6326b8b32115aba68f5d1181d7cf86c03812ca36cefe"),
    (5, 88, 100, 88): (
        0, "6f62a481507c3458c968f4c37b43f2ad433d4ed74b89a71d19d54d2af22fd8cd"),
}

#: the same for sample_fn's (0,5) surfaces at lengths in (6, 12), whose
#: fans take the second chaining of the right boundary arcs
LONG_CURVE_DIGESTS = {
    (5, 7, 100, 7): (
        0, "f184ab236f6646a96cd7eb8efce9cc3d8192dd7715d245bc1f68903bac097acb"),
    (5, 8, 100, 8): (
        0, "81dbda1580dfe6d082a1b0f3ba545474ada283867ec561037de9259110ac3153"),
}
LONG_CURVES = (6.0, 12.0)


def sample_surface(n, seed, length_range=None):
    """The surface file data of sample_fn's (0,n) surface at seed."""
    pg, fn = sample_fn(Signature(0, n), seed, length_range=length_range)
    return {"signature": {"g": 0, "n": n},
            "pants": [{"slots": [{kind: ident} for kind, ident in slots]}
                      for slots in pg.pants],
            "fn": [{"curve": cid, "length": fn.lengths[cid],
                    "twist": fn.twists[cid]} for cid in pg.curve_ids()]}


def surface_04_at_twist(twist):
    """Pants graph and fn coordinates of SURFACE_04 with another twist."""
    _, pg, fn = report.parse_surface(dict(
        SURFACE_04, fn=[{"curve": 0, "length": 2.0, "twist": twist}]))
    return pg, fn


@pytest.mark.parametrize("twist", [17.0, -18.0])
def test_tree_gluing_below_the_defect(twist):
    holonomy_from_fn(*surface_04_at_twist(twist))


# Open defect (ROADMAP item 1): the gluing map carries e^(t/2), and from
# twist 18 (and -19) on the conjugated slot holonomy of SURFACE_04 misses
# the 1e-8 relative check of the tree gluing, so optimize exits 4.
@pytest.mark.xfail(strict=True, raises=GeometryError,
                   reason="tree-gluing check at moderate twists")
def test_tree_gluing_at_twist_18():
    try:
        holonomy_from_fn(*surface_04_at_twist(18.0))
    except GeometryError as err:
        assert "tree gluing along curve 0 is inconsistent" in str(err)
        raise


class TestOptimizeBytes:
    """optimize writes the same bytes for fixed surfaces and seeds."""

    def test_digests(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for lengths, digests in ((None, OPTIMIZE_DIGESTS),
                                 (LONG_CURVES, LONG_CURVE_DIGESTS)):
            for (n, seed, budget, search_seed), want in digests.items():
                write_surface(tmp_path, sample_surface(n, seed, lengths))
                code, out = run(["optimize", "surface.json", "--budget",
                                 str(budget), "--seed", str(search_seed)],
                                capsys)
                got = (code, hashlib.sha256(out.encode()).hexdigest())
                assert got == want, (lengths, n, seed, budget, search_seed)


class TestChainCurveIds:
    """optimize reads a chain's curves by position, not by id: curve a
    glues slot 2 of pants a to slot 0 of pants a + 1 whatever its id, so
    a chain relabelled with other curve ids writes the same bytes."""

    @staticmethod
    def relabelled(data, ids):
        """The surface file data with curve a (ids 0, 1, ... by position,
        as sample_fn and SURFACE_04 number them) renamed ids[a]."""
        return dict(
            data,
            pants=[{"slots": [{"curve": ids[slot["curve"]]} if "curve" in slot
                              else slot for slot in entry["slots"]]}
                   for entry in data["pants"]],
            fn=[dict(row, curve=ids[row["curve"]]) for row in data["fn"]])

    def optimize(self, tmp_path, capsys, data):
        # the same file name, so that the configs (and hashes) agree too
        write_surface(tmp_path, data)
        return run(["optimize", "surface.json", "--budget", "100",
                    "--seed", "3"], capsys)

    def check(self, tmp_path, capsys, monkeypatch, data, ids):
        monkeypatch.chdir(tmp_path)
        want = self.optimize(tmp_path, capsys, data)
        got = self.optimize(tmp_path, capsys, self.relabelled(data, ids))
        assert want[0] == 0 and json.loads(want[1])["records"][0]["flips"]
        assert got == want

    def test_four_punctured_chain_with_curve_5(self, tmp_path, capsys,
                                               monkeypatch):
        self.check(tmp_path, capsys, monkeypatch, SURFACE_04, {0: 5})

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_five_punctured_chain_with_curves_9_and_4(
            self, tmp_path, capsys, monkeypatch, seed):
        self.check(tmp_path, capsys, monkeypatch, sample_surface(5, seed),
                   {0: 9, 1: 4})

    def test_chain_graph_is_read_by_position(self):
        # curve 4 glues pants 0 to 1, curve 9 pants 1 to 2
        data = self.relabelled(sample_surface(5, 3), {0: 4, 1: 9})
        hol = holonomy_from_fn(*report.parse_surface(data)[1:])
        assert chains.is_chain(hol)
        assert set(chains.build_cusped_chain(hol)[2]) == {4}


class TestCollarLaw:
    """On (0,4) with one short curve, the best max |shear| that
    ``optimize --budget 300 --seed 0`` finds is twice the curve's collar
    width, 2 asinh(1/sinh(l/2)), to within 0.02 (measured: best - 2w(l)
    lies in [-0.0025, 0]).  This is a measured property of the chain
    builder and the seeded flip search, not a theorem."""

    @pytest.mark.parametrize("length", [0.02, 0.05, 0.1, 0.2])
    def test_best_is_twice_the_collar_width(self, tmp_path, capsys, length):
        for u in (-0.4, 0.0, 0.1, 0.3):
            path = write_surface(tmp_path, dict(
                SURFACE_04,
                fn=[{"curve": 0, "length": length, "twist": u * length}]))
            code, out = run(["optimize", path, "--budget", "300",
                             "--seed", "0"], capsys)
            best = json.loads(out)["records"][0]["best_max_shear"]
            assert code == 0
            assert abs(best - 2 * collar_width(length)) <= 0.02, u

class TestTwistReduction:
    """optimize first reduces each twist outside [-l/2, l/2) into it by
    whole Dehn twists, which change a twist by l but not the surface."""

    SURFACES = {"04": SURFACE_04, "05": sample_surface(5, 2)}

    @staticmethod
    def optimize(tmp_path, capsys, data):
        path = write_surface(tmp_path, data)
        code, out = run(["optimize", path, "--budget", "100"], capsys)
        assert code == 0
        return json.loads(out)["records"][0]

    @pytest.mark.parametrize("name", ["04", "05"])
    @pytest.mark.parametrize("k", [9, 100, 700, -1])
    def test_whole_dehn_twists(self, tmp_path, capsys, name, k):
        # at k = 9 SURFACE_04's twist is 18.7, whose gluing fails the
        # tree-gluing check unreduced (test_tree_gluing_at_twist_18)
        data = self.SURFACES[name]
        want = self.optimize(tmp_path, capsys, data)
        shifted = json.loads(json.dumps(data))
        for row in shifted["fn"]:
            row["twist"] += k * row["length"]
        got = self.optimize(tmp_path, capsys, shifted)
        for key in ("start_max_shear", "best_max_shear"):
            assert abs(got[key] - want[key]) <= 1e-9, key

    def test_reduced_twist_bits(self):
        # a twist inside [-l/2, l/2) keeps its bits, -0.0 and -l/2
        # included; l/2 goes to -l/2, and a NaN is left to check_surface
        given = [0.7, -0.0, -1e-17, -1.0, 1.0, 2.0, 5.0, math.nan]
        lengths = dict.fromkeys(range(len(given)), 2.0)
        fn = chains.reduced_twists(FNCoordinates(lengths,
                                                 dict(enumerate(given))))
        assert [struct.pack("<d", t) for t in fn.twists.values()] == [
            struct.pack("<d", t) for t in (0.7, -0.0, -1e-17, -1.0, -1.0,
                                           0.0, -1.0, math.nan)]
        assert fn.lengths == lengths

    def test_unmoved_twists_keep_the_coordinates(self):
        fn = FNCoordinates({0: 2.0, 1: 3.0}, {0: 0.9, 1: -1.5})
        assert chains.reduced_twists(fn) is fn


class TestCuspSums:
    """optimize checks the cusp sums of its start and best states."""

    @staticmethod
    def planted(sigma):
        """sigma with one shear 1e-5 off, so a cusp sum misses
        RELATION_TOL."""
        key = min(sigma)
        return {**sigma, key: sigma[key] + 1e-5}

    def test_start_state(self, tmp_path, capsys, monkeypatch):
        real = chains.build_cusped_chain

        def build(hol):
            cx, sigma, walks = real(hol)
            return cx, self.planted(sigma), walks

        monkeypatch.setattr(chains, "build_cusped_chain", build)
        one_line_error(capsys, ["optimize", write_surface(
            tmp_path, SURFACE_04)], 4, "incomplete structure: cusp sums reach")

    def test_best_state(self, tmp_path, capsys, monkeypatch):
        real = cusped.minimax_flip_search

        def search(*args):
            cx, sigma, best, trail = real(*args)
            return cx, self.planted(sigma), best, trail

        monkeypatch.setattr(cusped, "minimax_flip_search", search)
        one_line_error(capsys, ["optimize", write_surface(
            tmp_path, SURFACE_04)], 4, "incomplete structure: cusp sums reach")


class TestOneParser:
    """main builds its parser once per process, and no flag or default of
    one call leaks into the next."""

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys,
                                                    monkeypatch):
        surface = write_surface(tmp_path, SURFACE_11)
        chain = write_surface(tmp_path, SURFACE_04, "chain.json")
        sig = ["--g", "1", "--n", "1"]
        sequence = [
            ["sample", *sig, "--count", "3", "--length-min", "0.1",
             "--format", "csv"],
            ["sample", *sig, "--count", "3"],
            ["constants", *sig, "--rho-prime", "0.27"],
            ["constants", *sig],
            ["compute", surface],
            ["optimize", chain, "--budget", "5"],
        ]
        built = []
        real = cli.build_parser

        def build():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", build)
        monkeypatch.setattr(cli, "_parser", None)
        together = [run(argv, capsys) for argv in sequence]
        assert len(built) == 1
        alone = []
        for argv in sequence:
            monkeypatch.setattr(cli, "_parser", None)
            alone.append(run(argv, capsys))
        assert together == alone
        # every call wrote its report (constants exits 2 while the audit
        # finds the claimed constants false)
        assert all(out for _, out in together)
        # the calls differ where their flags do
        assert together[0] != together[1] and together[2] != together[3]


class TestLongBoundary:
    """Lengths whose tanh^2(l/4) rounds to 1 in float64 fail by name."""

    SURFACE = dict(SURFACE_04,
                   fn=[{"curve": 0, "length": 100.0, "twist": 0.0}])

    @pytest.mark.parametrize("command, code", [("compute", 3),
                                               ("optimize", 4)])
    def test_one_line_error(self, tmp_path, capsys, command, code):
        path = write_surface(tmp_path, self.SURFACE)
        assert cli.main([command, path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "too long for float64" in captured.err
        assert captured.err.count("\n") == 1


class TestCoincidingEnds:
    """A pants whose seam ends meet in float64 fails by name: pants 1 is
    (cusp, 2.26, 76.09), so build_pants finds no seam distance."""

    SURFACE = {
        "signature": {"g": 0, "n": 5},
        "pants": [{"slots": [{"cusp": 0}, {"cusp": 1}, {"curve": 0}]},
                  {"slots": [{"cusp": 2}, {"curve": 0}, {"curve": 1}]},
                  {"slots": [{"curve": 1}, {"cusp": 3}, {"cusp": 4}]}],
        "fn": [{"curve": 0, "length": 2.264521290549835, "twist": 0.0},
               {"curve": 1, "length": 76.08615952010994, "twist": 0.0}],
    }

    @pytest.mark.parametrize("command, code", [("compute", 3),
                                               ("optimize", 4)])
    def test_one_line_error(self, tmp_path, capsys, command, code):
        one_line_error(capsys, [command, write_surface(tmp_path, self.SURFACE)],
                       code, "geodesic endpoints coincide in float64")


class TestUnwritableOut:
    """An --out file that cannot be written fails with one line."""

    @pytest.mark.parametrize("command", ["constants", "compute", "sample",
                                         "optimize"])
    def test_one_line_error(self, tmp_path, capsys, command):
        path = write_surface(tmp_path, SURFACE_04)
        argv = {"constants": ["constants", "--g", "1", "--n", "1"],
                "compute": ["compute", path],
                "sample": ["sample", "--g", "1", "--n", "1", "--count", "2"],
                "optimize": ["optimize", path, "--budget", "5"]}[command]
        out = tmp_path / "missing" / "report.json"
        one_line_error(capsys, argv + ["--out", str(out)], 1,
                       "cannot write --out file")
        assert not out.parent.exists()


class TestRelationCheck:
    """relations_ok follows RELATION_TOL at cusp slots and at curve slots.

    On the (1,1) surface slots 0 and 1 of the one pants are the two sides
    of curve 0 and slot 2 is the cusp.
    """

    @staticmethod
    def patch_kernel(monkeypatch, field, index, value, call=0):
        """Set kernel field[index] to value in the call-th kernel run.

        The batch (decomposition.pants_batch) is patched to handle
        nothing, so that every pants takes the scalar route through the
        kernel.
        Returns the (pants, kernel) of every kernel run.
        """
        from shearlab import spiralling
        monkeypatch.undo()
        handle_nothing(monkeypatch)
        kernel = spiralling.pants_kernel
        runs = []

        def patched(sp):
            kern = kernel(sp)
            if len(runs) == call:
                getattr(kern, field)[index] = value
            runs.append((sp, kern))
            return kern

        monkeypatch.setattr(spiralling, "pants_kernel", patched)
        return runs

    @staticmethod
    def check_reductions(rec, runs):
        """The record's numpy maxima and checks are those nan_max gives
        on the kernels' values, NaN included."""
        def same(got, want):
            return got == want or math.isnan(got) and math.isnan(want)

        res = [(r, cusp) for sp, kern in runs
               for r, cusp in zip(kern.residuals, sp.slot_is_cusp)]
        cusp = nan_max((r for r, at_cusp in res if at_cusp), 0.0)
        side = nan_max((r for r, at_cusp in res if not at_cusp), 0.0)
        top = nan_max((abs(v) for _, kern in runs for v in kern.shears), 0.0)
        assert same(rec["cusp_residual"], cusp)
        assert same(rec["spiral_residual"], side)
        assert same(rec["max_shear"], top)
        assert rec["relations_ok"] == (cusp <= RELATION_TOL
                                       and side <= RELATION_TOL)
        assert rec["bound_satisfied"] == (top < rec["bound"])

    def run_with(self, monkeypatch, field, index, value):
        from shearlab.surface import FNCoordinates, canonical_pants_graph
        runs = self.patch_kernel(monkeypatch, field, index, value)
        sig = Signature(1, 1)
        pg = canonical_pants_graph(sig)
        rec = report.run_surface(sig, pg, FNCoordinates({0: 1.0}, {0: 0.2}))
        self.check_reductions(rec, runs)
        return rec

    def run_with_residual(self, monkeypatch, slot, value):
        from shearlab.surface import canonical_pants_graph
        pg = canonical_pants_graph(Signature(1, 1))
        assert pg.pants[0][slot][0] == ("cusp" if slot == 2 else "curve")
        return self.run_with(monkeypatch, "residuals", slot, value)

    def test_relations_ok_follows_relation_tol(self, monkeypatch):
        rec = self.run_with_residual(monkeypatch, 2, 2 * RELATION_TOL)
        assert not rec["relations_ok"]
        assert rec["cusp_residual"] == 2 * RELATION_TOL
        rec = self.run_with_residual(monkeypatch, 0, 2 * RELATION_TOL)
        assert not rec["relations_ok"]
        assert rec["spiral_residual"] == 2 * RELATION_TOL
        for slot in (0, 2):
            rec = self.run_with_residual(monkeypatch, slot, RELATION_TOL)
            assert rec["relations_ok"]
            key = "cusp_residual" if slot == 2 else "spiral_residual"
            assert rec[key] == RELATION_TOL

    def test_nan_side_residual_fails(self, monkeypatch):
        # max(cusp, side) <= RELATION_TOL would pass a NaN side residual
        rec = self.run_with_residual(monkeypatch, 0, math.nan)
        assert rec["cusp_residual"] <= RELATION_TOL
        assert not rec["relations_ok"]

    def test_nan_residual_after_the_first_fails(self, monkeypatch):
        # max() drops a NaN unless it comes first; slot 1 is the second
        # curve slot
        rec = self.run_with_residual(monkeypatch, 1, math.nan)
        assert math.isnan(rec["spiral_residual"])
        assert not rec["relations_ok"]

    def test_nan_shear_after_the_first_is_kept(self, monkeypatch):
        rec = self.run_with(monkeypatch, "shears", 1, math.nan)
        assert math.isnan(rec["max_shear"]) and math.isnan(rec["ratio"])
        assert not rec["bound_satisfied"]

    def test_nan_reaches_the_campaign_maxima(self, monkeypatch):
        # a NaN in the second of three samples, one pants each; the first
        # sample falls in the same maximum, so the NaN does not come first
        runs = self.patch_kernel(monkeypatch, "residuals", 1, math.nan,
                                 call=1)
        records, summary = report.run_sample_campaign(Signature(1, 1), 5, 3)
        assert math.isnan(summary["worst_spiral_residual"])
        assert summary["worst_cusp_residual"] <= RELATION_TOL
        # one pants per sample: the kernel's run i is record i's
        for rec, run in zip(records, runs, strict=True):
            self.check_reductions(rec, [run])
        runs = self.patch_kernel(monkeypatch, "shears", 1, math.nan, call=1)
        records, summary = report.run_sample_campaign(Signature(1, 1), 5, 3)
        for rec, run in zip(records, runs, strict=True):
            self.check_reductions(rec, [run])
        assert records[0]["certified"] == records[1]["certified"]
        kind = "certified" if records[1]["certified"] else "uncertified"
        assert math.isnan(summary[f"max_ratio_{kind}"])


class TestAuditFailure:
    def test_compute_exits_three_naming_the_edge(self, tmp_path, capsys,
                                                  monkeypatch):
        # an AuditError is a geometry-invariant failure like any develop
        # check: one stderr line naming the edge, exit 3
        import dataclasses
        from shearlab import decomposition, spiralling
        strict = dataclasses.replace(spiralling.SHEAR_FREE, delta2=1e9)
        monkeypatch.setattr(decomposition, "SHEAR_FREE", strict)
        monkeypatch.setattr(spiralling, "SHEAR_FREE", strict)
        path = write_surface(tmp_path, SURFACE_03)
        assert cli.main(["compute", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: geometry invariant failure: edge (0, 0): shear point "
            "inside a shear-point-free part: horocycle length ")
        assert captured.err.count("\n") == 1

    def test_nan_margin_fails_the_audit(self, monkeypatch):
        # margin <= 0 is false for a NaN; the audit must still fail it.
        # The pants takes the scalar route (the batch handles nothing).
        from shearlab import spiralling
        from shearlab.surface import FNCoordinates, canonical_pants_graph
        real = spiralling.truncated_collar_width
        calls = []

        def patched(length, params):
            calls.append(length)
            return math.nan if len(calls) == 2 else real(length, params)

        monkeypatch.setattr(spiralling, "truncated_collar_width", patched)
        handle_nothing(monkeypatch)
        sig = Signature(1, 1)
        pg = canonical_pants_graph(sig)
        with pytest.raises(spiralling.AuditError,
                           match="truncated width nan"):
            report.run_surface(sig, pg, FNCoordinates({0: 0.3}, {0: 0.0}))
        assert len(calls) == 2
