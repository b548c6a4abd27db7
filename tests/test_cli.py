import hashlib
import json

import pytest

from entryloci.cli import main
from entryloci.varfile import read_variety
from entryloci.catalog import build_catalog_variety
from entryloci.kernel import QQ, PrimeField, ideals
from helpers import write_variety


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_catalog_lists_keys(capsys):
    rc, out = run_cli(capsys, "catalog")
    assert rc == 0
    rows = json.loads(out)
    keys = {r["key"] for r in rows}
    assert {"scroll12", "delpezzo4", "rnc3"} <= keys


def test_entry_locus_scroll(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    rc, out = run_cli(
        capsys,
        "entry-locus", "--variety", "scroll12", "--seed", "7",
        "--field", "fp:auto", "--out", str(out_file),
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["reduced_degree"] == 2
    assert data["component_count"] == 1
    assert data["type_irreducibility"] == "I"
    assert data["type_ab"] == "A"


def test_secant_dims_command(capsys):
    rc, out = run_cli(capsys, "secant-dims", "--variety", "veronese5", "--max-s", "2", "--seed", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["dims"][1]["dim"] == 4
    assert data["dims"][1]["defective"] is True


def test_decomp_command(capsys):
    rc, out = run_cli(capsys, "decomp", "--variety", "rnc3", "--seed", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["positive_dimensional"] is False


def test_segre_command(capsys):
    rc, out = run_cli(capsys, "segre", "--curve", "elliptic4", "--seed", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 4


def test_gb_command_on_variety_file(capsys, tmp_path):
    var = build_catalog_variety("rnc3", 1, PrimeField(2147483659))
    path = tmp_path / "rnc3.var"
    path.write_text(write_variety(var))
    rc, out = run_cli(capsys, "gb", "--input", str(path), "--order", "grevlex")
    assert rc == 0
    data = json.loads(out)
    assert len(data["basis"]) == 3
    # block:nvars, the largest valid size, orders like grevlex
    rc, out = run_cli(capsys, "gb", "--input", str(path), "--order", "block:4")
    assert rc == 0 and json.loads(out)["basis"] == data["basis"]


@pytest.mark.parametrize("order", ["foo", "block:abc", "block:-1", "block:5"])
def test_bad_gb_order_is_usage_error(capsys, tmp_path, order):
    # rnc3 lives in P^3: 4 variables, so block:0 to block:4 are the valid sizes
    var = build_catalog_variety("rnc3", 1, PrimeField(2147483659))
    path = tmp_path / "rnc3.var"
    path.write_text(write_variety(var))
    rc = main(["gb", "--input", str(path), "--order", order])
    assert rc == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_entry_locus_accepts_variety_file(capsys, tmp_path):
    var = build_catalog_variety("scroll12", 1, PrimeField(2147483659))
    path = tmp_path / "scroll.var"
    path.write_text(write_variety(var))
    rc, out = run_cli(capsys, "entry-locus", "--variety", str(path), "--seed", "1", "--field", "fp:2147483659")
    assert rc == 0
    data = json.loads(out)
    assert data["reduced_degree"] == 2


# A variety file's field is the run's field.  The argument lists name the
# file as {path}; "pair-segre" pairs it with a catalog curve.
FILE_COMMANDS = [
    ["entry-locus", "--variety", "{path}"],
    ["secant-dims", "--variety", "{path}"],
    ["decomp", "--variety", "{path}"],
    ["segre", "--curve", "{path}"],
    ["pair-segre", "--y", "{path}", "--t", "rnc3"],
]


def _rnc3_file(tmp_path, field_text, name="rnc3.var"):
    # integer coefficients, written over Q, read over the field under test
    text = write_variety(build_catalog_variety("rnc3", 1, QQ))
    path = tmp_path / name
    path.write_text(text.replace("over Q", f"over {field_text}"))
    return str(path)


def _usage_error(capsys, argv):
    rc = main(argv)
    return rc == 2 and capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=[a[0] for a in FILE_COMMANDS])
def test_file_prime_below_the_bound_is_usage_error(capsys, tmp_path, argv):
    path = _rnc3_file(tmp_path, "Fp:7")
    assert _usage_error(capsys, [a.format(path=path) for a in argv])
    # the Groebner basis makes no seeded choice: it runs over F_7
    rc, out = run_cli(capsys, "gb", "--input", path)
    assert rc == 0 and json.loads(out)["field"] == "Fp:7"


@pytest.mark.parametrize("field_text", ["Fp:8", "Fp:abc", "GF7"])
def test_bad_file_field_is_usage_error(capsys, tmp_path, field_text):
    path = _rnc3_file(tmp_path, field_text)
    assert _usage_error(capsys, ["gb", "--input", path])
    for argv in FILE_COMMANDS:
        assert _usage_error(capsys, [a.format(path=path) for a in argv])


@pytest.mark.parametrize("flag", ["Q", "fp:auto", "fp:2147483693"])
def test_field_flag_disagreeing_with_the_file_is_usage_error(capsys, tmp_path, flag):
    path = _rnc3_file(tmp_path, "Fp:2147483659")
    for argv in FILE_COMMANDS:
        assert _usage_error(capsys, [a.format(path=path) for a in argv] + ["--field", flag])


def test_variety_files_over_two_fields_are_usage_error(capsys, tmp_path):
    y = _rnc3_file(tmp_path, "Fp:2147483659", "y.var")
    t = _rnc3_file(tmp_path, "Q", "t.var")
    assert _usage_error(capsys, ["pair-segre", "--y", y, "--t", t])


@pytest.mark.parametrize("field_text,flag", [("Fp:2147483659", None), ("Q", None), ("Q", "Q")])
def test_reports_name_the_file_field(capsys, tmp_path, field_text, flag):
    path = _rnc3_file(tmp_path, field_text)
    argv = ["decomp", "--variety", path] + (["--field", flag] if flag else [])
    rc, out = run_cli(capsys, *argv)
    data = json.loads(out)
    assert rc == 0 and data["field"] == field_text and data["count"] == 1
    # the point is drawn over the file's field: the catalog curve over the
    # same field gets the same one
    rc, out = run_cli(capsys, "decomp", "--variety", "rnc3", "--field", field_text)
    assert rc == 0 and json.loads(out)["q"] == data["q"]
    rc, out = run_cli(capsys, "secant-dims", "--variety", path)
    assert rc == 0 and json.loads(out)["field"] == field_text


def test_usage_error_exit_code(capsys):
    rc = main(["entry-locus"])  # missing required --variety
    assert rc == 2


def test_unknown_key_is_usage_error(capsys):
    rc, _ = run_cli(capsys, "entry-locus", "--variety", "nonsense_key", "--seed", "1")
    assert rc == 2


@pytest.mark.parametrize("key", ["rnc7", "rnc2", "foo"])
def test_key_outside_the_catalog_is_named(capsys, key):
    # an rnc<d> key is a catalog key only for the degrees the catalog lists
    rc = main(["entry-locus", "--variety", key, "--seed", "1"])
    assert rc == 2
    assert f"unknown catalog key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["fp:abc", "fp:4", "GF7", "fp:3", "fp:5"])
def test_bad_field_is_usage_error(capsys, field):
    rc = main(["entry-locus", "--variety", "scroll12", "--field", field])
    assert rc == 2
    assert capsys.readouterr().err.startswith("usage error:")


# sha256 of each report with its timings removed: refactors must keep these
# bytes.  The commands cover the affine chart, the slice-and-count helper, Q
# and an implicit type-B surface.
GOLDEN = [
    (["entry-locus", "--variety", "scroll12", "--seed", "1"],
     "8b32d9d84cd3a8b3294e779a95650cf3b636e93f535019b8cc4fa34b3cd1d3fa"),
    (["decomp", "--variety", "rational_quartic3", "--seed", "1"],
     "4c57397cad5bdce380888e871dd03e7139ac84ee0866581af46a1dc5d72e80ce"),
    (["entry-locus", "--variety", "cone_twisted_cubic", "--seed", "1", "--field", "Q"],
     "07c82e1a794ea658b67df006b04c4a57b0d738bce124a3a94cde200af479ba2d"),
    (["entry-locus", "--variety", "delpezzo4", "--seed", "1"],
     "907d3ea2d0f90d7759e6433b5f659b0081b6b7ea2ec48b7bfb8f639224b9b0c6"),
    (["pair-segre", "--y", "rnc3", "--t", "rational_quartic3", "--seed", "1"],
     "1488c418299d1ef7ddf269c503e13b35bc1c6f40237f01b96508fa569c183701"),
    (["pair-segre", "--y", "rnc3", "--t", "rational_quartic3", "--seed", "1", "--field", "Q"],
     "42a122c70b17b156ab73e45306bf40b306165380ca0e8a5ce864b83e5e7e8f37"),
    (["entry-locus", "--variety", "veronese_proj4", "--seed", "1"],
     "ca671d522487d58d17c6cd933c8823cad970f44589e114d3570aafa85bb7bf35"),
    # seed 35 is the first whose prime splits the pencil quartic, so the
    # report holds the four vertex coordinates
    (["segre", "--curve", "elliptic4", "--seed", "35"],
     "3113556f2ea57e7554ec1cc7be1194b5aa5921bd24c60b2ce438da5e1daa4a26"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a[0] + ":" + a[2] for a, _ in GOLDEN])
def test_golden_report_digest(capsys, argv, digest):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    report = json.loads(out)
    report.pop("timings", None)
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_budget_exhaustion_exit_code(capsys):
    rc = main(["entry-locus", "--variety", "veronese_proj4", "--seed", "1", "--max-pairs", "5"])
    assert rc == 3


def test_budget_exit_does_not_depend_on_earlier_commands(capsys, monkeypatch):
    # bases cached by a default-limit run are no hits under a smaller limit
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    argv = ["entry-locus", "--variety", "scroll12", "--seed", "1"]
    assert main(argv + ["--max-pairs", "1"]) == 3
    assert main(argv) == 0
    assert main(argv + ["--max-pairs", "1"]) == 3


def test_deterministic_reports(capsys):
    rc1, out1 = run_cli(capsys, "decomp", "--variety", "rnc3", "--seed", "5")
    rc2, out2 = run_cli(capsys, "decomp", "--variety", "rnc3", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_variety_file_roundtrip():
    var = build_catalog_variety("rnc4", 2, PrimeField(2147483659))
    text = write_variety(var)
    back = read_variety(text)
    assert back.ambient == var.ambient
    assert len(back.ideal.gens) == len(var.ideal.gens)
    assert back.param is not None
    assert [f.to_string() for f in back.param.forms] == [
        f.to_string() for f in var.param.forms
    ]
    assert back.meta["d"] == 4
