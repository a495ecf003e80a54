import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modunits
from modunits import classical, cusps, thetag, units, verify
from modunits.cli import (
    MAX_CUSP_LEVEL,
    MAX_INDEX_LEVEL,
    MAX_RANK_LEVEL,
    MAX_SAMPLES,
    MAX_THETA_GENUS,
    MAX_TRUNC,
    MAX_UNIT_LEVEL,
    build_parser,
    main,
)
from modunits.qseries import PuiseuxSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_j_terms(self, capsys):
        code, out, _ = run(capsys, "expand", "j", "--trunc", "4")
        assert code == 0
        series = PuiseuxSeries.from_json(out)
        assert series.coefficient(-1) == 1
        assert series.coefficient(0) == 744
        assert series.coefficient(1) == 196884

    def test_eta_text(self, capsys):
        code, out, _ = run(capsys, "expand", "eta", "--trunc", "2", "--format", "text")
        assert code == 0
        assert "q^    1/24" in out

    def test_siegel_leading_exponent(self, capsys):
        code, out, _ = run(capsys, "expand", "siegel", "1/2", "1/2", "--trunc", "1")
        assert code == 0
        series = PuiseuxSeries.from_json(out)
        assert str(series.ord()) == "-1/24"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "expand", "klein", "--trunc", "5")
        assert code == 0
        series = PuiseuxSeries.from_json(out)
        assert PuiseuxSeries.from_json(series.to_json()).same_series(series)

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "nonsense", "--trunc", "4")
        assert code == 2
        assert "unknown" in err

    def test_malformed_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "expand", "siegel", "1/2", "--trunc", "4")
        assert code == 2
        code, _, _ = run(capsys, "expand", "siegel", "x", "y", "--trunc", "4")
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize("trunc, checked", [("-3", "4"), ("4", "4"), ("7", "7")])
    def test_j_coeffs_reports_the_truncation_it_checked(self, capsys, trunc, checked):
        code, out, _ = run(capsys, "verify", "j-coeffs", f"--trunc={trunc}")
        assert code == 0
        assert out.startswith(f"j-coeffs [trunc={checked}]: pass")

    def test_jacobi_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "40")
        assert code == 0
        assert "pass" in out

    def test_g14_eta_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "g14-eta", "--trunc", "20")
        assert code == 0

    def test_g14_eta_at_the_trunc_cap(self, capsys):
        # One comparison with the eta quotient; a second, through product_family, took 14 s here.
        code, out, _ = run(capsys, "verify", "g14-eta", "--trunc", str(MAX_TRUNC), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["wall_ms"] < 2000

    def test_rank_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "rank", "--N", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_rational_trunc(self, capsys):
        code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "11/2")
        assert code == 0
        assert out.startswith("jacobi [trunc=11/2]: pass")

    def test_integer_trunc_prints_as_an_integer(self, capsys):
        code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "200")
        assert code == 0
        assert out.startswith("jacobi [trunc=200]: pass")

    def test_malformed_trunc_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "jacobi", "--trunc", "abc")
        assert code == 2
        assert "abc" in err

    def test_unknown_identity_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "not-an-identity")
        assert code == 2

    def test_bernoulli_nonzero_is_unknown(self, capsys):
        # B2 has irrational roots, so a check that it never vanishes could not fail: no such identity.
        code, out, err = run(capsys, "verify", "bernoulli-nonzero")
        assert code == 2
        assert out == ""
        assert "unknown identity" in err

    def test_seeded_report_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "theta-diag", "--samples", "5", "--seed", "3", "--format", "json")
        code2, out2, _ = run(capsys, "verify", "theta-diag", "--samples", "5", "--seed", "3", "--format", "json")
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["witness"] == r2["witness"]


class TestCuspsDivisorRank:
    def test_cusps_2(self, capsys):
        code, out, _ = run(capsys, "cusps", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert len(data["cusps"]) == 3

    def test_divisor_sums_to_zero(self, capsys):
        code, out, _ = run(capsys, "divisor", "1/2", "0", "2")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == "0"

    def test_rank_4(self, capsys):
        code, out, _ = run(capsys, "rank", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["rank"] == 5

    def test_malformed_divisor_exit_2(self, capsys):
        code, _, _ = run(capsys, "divisor", "1/3", "0", "2")
        assert code == 2

    @pytest.mark.parametrize("cap", ["cusp", "rank"])
    @pytest.mark.parametrize("value", ["0", "1", "cap+1", str(10**6)])
    def test_level_outside_cap_exit_2(self, capsys, monkeypatch, cap, value):
        def no_work(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(cusps, "_level", no_work)
        limit = MAX_CUSP_LEVEL if cap == "cusp" else MAX_RANK_LEVEL
        N = str(limit + 1) if value == "cap+1" else value
        commands = {
            "cusp": [["cusps", N], ["divisor", "1/2", "0", N]],
            "rank": [["rank", N], ["verify", "rank", f"--N={N}"]],
        }[cap]
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "usage:" in err and f"..{limit}" in err

    def test_level_caps_are_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["cusps", str(MAX_CUSP_LEVEL)]).N == MAX_CUSP_LEVEL == 500
        assert parser.parse_args(["divisor", "1/2", "0", str(MAX_CUSP_LEVEL)]).N == MAX_CUSP_LEVEL
        assert parser.parse_args(["rank", str(MAX_RANK_LEVEL)]).N == MAX_RANK_LEVEL == 18
        assert parser.parse_args(["verify", "rank", "--N", str(MAX_RANK_LEVEL)]).N == MAX_RANK_LEVEL
        assert parser.parse_args(["rank", "2"]).N == 2


class TestNegativeRationalParameters:
    """A negative rational a/b is a parameter of divisor and of expand siegel, wp and wunit."""

    def test_divisor_takes_a_negative_index(self, capsys):
        code, out, _ = run(capsys, "divisor", "-1/2", "1/2", "4")
        assert code == 0
        data = json.loads(out)
        assert data["index"] == ["-1/2", "1/2"]
        _, same, _ = run(capsys, "divisor", "1/2", "1/2", "4")  # -1/2 = 1/2 mod Z
        assert data["entries"] == json.loads(same)["entries"]

    def test_siegel_takes_a_negative_second_coordinate(self, capsys):
        code, out, _ = run(capsys, "expand", "siegel", "1/2", "-1/3", "--trunc", "2")
        assert code == 0
        assert PuiseuxSeries.from_json(out) == units.siegel_function(units.FracVector("1/2", "-1/3"), 2)

    def test_siegel_refuses_a_negative_first_coordinate_by_its_domain(self, capsys):
        code, out, err = run(capsys, "expand", "siegel", "-1/2", "1/2")
        assert code == 2
        assert out == ""
        assert "0 <= r < 1" in err and "unrecognized" not in err

    @pytest.mark.parametrize(
        "argv",
        [["expand", "siegel", "--", "1/2", "-1/3", "--trunc", "2"], ["expand", "--trunc", "2", "siegel", "1/2", "-1/3"]],
        ids=["double-dash", "options-first"],
    )
    def test_same_series_whatever_the_token_order(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert PuiseuxSeries.from_json(out).trunc == 2
        assert out == run(capsys, "expand", "siegel", "1/2", "-1/3", "--trunc", "2")[1]

    def test_wp_and_wunit_take_negative_parameters(self, capsys):
        code, out, _ = run(capsys, "expand", "wp", "-1/3", "0", "--trunc", "3")
        assert code == 0
        assert PuiseuxSeries.from_json(out) == units.wp_expansion(units.FracVector("-1/3", 0), 3)
        wunit = ["-1/5", "2/5", "4/5", "-1/5", "2/5", "1/5", "2/5", "2/5"]
        code, out, _ = run(capsys, "expand", "wunit", *wunit, "--trunc", "2")
        assert code == 0
        vs = [units.FracVector(*wunit[i : i + 2]) for i in range(0, 8, 2)]
        assert PuiseuxSeries.from_json(out) == units.weierstrass_unit(*vs, 2)

    @pytest.mark.parametrize(
        "argv, quoted",
        [
            (["expand", "siegel", "1/2", "1/3", "--trunc", "-2001/2"], "got '-2001/2'"),
            (["expand", "wp", "-1/0", "1/3"], "malformed value '-1/0'"),
            (["divisor", "-1/0", "1/2", "4"], "malformed rational '-1/0'"),
        ],
    )
    def test_refusals_quote_the_token_as_given(self, capsys, argv, quoted):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert quoted in err

    def test_other_commands_still_read_them_as_options(self, capsys):
        code, out, err = run(capsys, "expand", "j", "-1/2")
        assert code == 2
        assert "unrecognized arguments: -1/2" in err


class TestTheta:
    def test_diag_product(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--g", "2", "--char", "0,0:0,0", "--point", "i,2i"
        )
        assert code == 0
        data = json.loads(out)
        from modunits.classical import theta_classical

        expected = theta_classical(3, 40).evaluate(1j) * theta_classical(3, 40).evaluate(2j)
        assert abs(complex(data["value_re"], data["value_im"]) - expected) < 1e-10
        assert data["residuals"]["two_radius"] < 1e-10

    def test_malformed_char_exit_2(self, capsys):
        code, _, _ = run(capsys, "theta", "--g", "2", "--char", "0,0", "--point", "i,2i")
        assert code == 2

    def test_bad_point_exit_2(self, capsys):
        code, _, _ = run(capsys, "theta", "--g", "1", "--char", "0:0", "--point", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "g, point",
        [
            ("1", "nan+1i"),
            ("1", "0+nani"),
            ("1", "0+infi"),
            ("2", "1i,nan+1i"),
            ("2", "1i,0.1+nani,0.1+0.2i,2i"),
            ("3", "1i,1i,inf+1i"),
        ],
    )
    def test_non_finite_point_exit_2(self, capsys, g, point):
        char = ",".join(["0"] * int(g)) + ":" + ",".join(["0"] * int(g))
        code, out, err = run(capsys, "theta", "--g", g, "--char", char, f"--point={point}")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("char", ["1e300:0", "0:1e20"])
    def test_integral_shift_of_the_characteristic(self, capsys, char):
        # (1e300, 0) and (0, 1e20) differ from (0, 0) by an integer vector, so theta is theta[0;0](i).
        code, out, _ = run(capsys, "theta", "--g", "1", "--char", char, "--point", "1i")
        assert code == 0
        data = json.loads(out)
        assert abs(complex(data["value_re"], data["value_im"]) - 1.0864348112133082) < 1e-15

    @pytest.mark.parametrize(
        "g, point, reduced",
        [("1", "1e16+1i", "1i"), ("1", "1e308+1i", "1i"), ("2", "1e16+1i,2i", "1i,2i")],
    )
    def test_even_real_part_is_reduced_exactly(self, capsys, g, point, reduced):
        # 1e16 and 1e308 are even integers, so theta[0;0] takes its value at the reduced point.
        char = ",".join(["0"] * int(g)) + ":" + ",".join(["0"] * int(g))
        values = []
        for z in (point, reduced):
            code, out, _ = run(capsys, "theta", "--g", g, "--char", char, "--point", z)
            assert code == 0
            data = json.loads(out)
            values.append(complex(data["value_re"], data["value_im"]))
        assert abs(values[0] - values[1]) < 1e-15
        if g == "1":
            assert abs(values[0] - 1.0864348112133082) < 1e-15

    def test_overflowing_sum_exit_2(self, capsys, monkeypatch):
        # Re Z is reduced before the sum, so no finite point overflows it; an infinite sum stands in.
        monkeypatch.setattr(thetag, "_theta_small", lambda *args: complex("inf"))
        code, out, err = run(capsys, "theta", "--g", "1", "--char", "0:0", "--point", "1i")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_nearly_singular_point_exit_2(self, capsys):
        code, out, err = run(capsys, "theta", "--g", "1", "--char", "0:0", "--point", "1e-320i")
        assert code == 2
        assert out == ""
        assert "lattice points" in err

    @pytest.mark.parametrize(
        "g, point",
        [("2", "1i,0,0,1e-310i"), ("3", "1i,0,0,0,1i,0,0,0,1e-300i")],
    )
    def test_point_too_singular_for_the_tail_bound_exit_2(self, capsys, g, point):
        char = ",".join(["0"] * int(g)) + ":" + ",".join(["0"] * int(g))
        code, out, err = run(capsys, "theta", "--g", g, "--char", char, "--point", point)
        assert code == 2
        assert out == ""
        assert "lambda_min" in err

    def test_correlated_point(self, capsys):
        code, out, _ = run(capsys, "theta", "--g", "2", "--char", "0,0:0,0", "--point", "1i,0.98i,0.98i,1i")
        assert code == 0
        data = json.loads(out)
        point = thetag.SiegelPoint([[1j, 0.98j], [0.98j, 1j]])
        expected = thetag._theta_numpy(point._rows, point._U, [0.0, 0.0], [0.0, 0.0], data["radius"])
        assert abs(complex(data["value_re"], data["value_im"]) - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize(
        "option, value, rest",
        [("--point", "-0.3+1i", ["--char", "0:0"]), ("--char", "-1/2:0", ["--point", "1i"])],
    )
    def test_negative_value_after_space(self, capsys, option, value, rest):
        code, out, _ = run(capsys, "theta", "--g", "1", *rest, option, value)
        assert code == 0
        code_eq, out_eq, _ = run(capsys, "theta", "--g", "1", *rest, f"{option}={value}")
        assert code_eq == 0
        assert out == out_eq

    @pytest.mark.parametrize("g", ["0", "9", "1000", "-1"])
    def test_genus_outside_cap_exit_2(self, capsys, monkeypatch, g):
        def no_sum(*args, **kwargs):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(thetag, "theta_constant", no_sum)
        code, out, err = run(capsys, "theta", f"--g={g}", "--char", "0:0", "--point", "1i")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--g" in err

    def test_genus_cap_is_accepted(self):
        args = build_parser().parse_args(["theta", "--g", str(MAX_THETA_GENUS), "--char", "0:0", "--point", "1i"])
        assert args.g == MAX_THETA_GENUS == 8


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-10"])
@pytest.mark.parametrize(
    "argv",
    [["theta", "--g", "1", "--char", "0:0", "--point", "1i"], ["verify", "theta-diag"]],
    ids=["theta", "verify"],
)
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    code, out, err = run(capsys, *argv, f"--tol={tol}")  # "=" so argparse reads "-1e-10" as a value
    assert code == 2
    assert out == ""
    assert "usage:" in err and "--tol" in err


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2


def _python(code: str) -> str:
    src = str(Path(modunits.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def test_exact_commands_do_not_import_numpy():
    out = _python(
        "import sys, modunits\n"
        "print('numpy' in sys.modules)\n"
        "from modunits.cli import main\n"
        "main(['expand', 'eta', '--trunc', '3'])\n"
        "print('numpy' in sys.modules)\n"
        "from modunits import SiegelPoint, theta_constant\n"
        "print('numpy' in sys.modules, SiegelPoint.__module__, theta_constant.__module__)\n"
    )
    lines = out.splitlines()
    assert lines[0] == "False"
    assert lines[-2] == "False"
    # thetag itself imports no numpy: only degrees above SMALL_G need it.
    assert lines[-1] == "False modunits.thetag modunits.thetag"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["theta", "--g", "1", "--char", "1/4:1/3", "--point", "0.2+1i"], False),
        (["theta", "--g", "2", "--char", "1/4,0:1/2,1/3", "--point", "1i,0.2+0.1i,0.2+0.1i,1.5i"], False),
        (["verify", "phi-siegel", "--samples", "3"], False),
        (["theta", "--g", "3", "--char", "0,0,0:0,0,0", "--point", "i,i,i"], True),
    ],
    ids=["theta-g1", "theta-g2", "phi-siegel", "theta-g3"],
)
def test_numpy_is_imported_only_above_small_g(argv, loads_numpy):
    out = _python(
        "import sys\n"
        "from modunits.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == f"0 {loads_numpy}"


SUBMODULES = ("cycloq", "qseries", "classical", "units", "cusps", "thetag", "verify", "cli")


def test_importing_the_package_loads_no_submodule():
    out = _python("import sys, modunits\nprint(sorted(m for m in sys.modules if m.startswith('modunits.')))\n")
    assert out.splitlines()[-1] == "[]"


def test_expand_theta_loads_only_its_layers():
    out = _python(
        "import sys\n"
        "from modunits.cli import main\n"
        "main(['expand', 'theta3', '--trunc', '3'])\n"
        "print(sorted(m for m in ('modunits.units', 'modunits.cusps', 'modunits.verify', 'modunits.thetag',"
        " 'numpy', 'modunits.classical') if m in sys.modules))\n"
    )
    assert out.splitlines()[-1] == "['modunits.classical']"


@pytest.mark.parametrize(
    "argv", [["cusps", "12"], ["divisor", "1/3", "-1/4", "12"], ["rank", "6"]], ids=["cusps", "divisor", "rank"]
)
def test_cusp_commands_load_no_series_engine(argv):
    out = _python(
        "import sys\n"
        "from modunits.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, [m for m in ('modunits.qseries', 'modunits.classical', 'modunits.units') if m in sys.modules])\n"
    )
    assert out.splitlines()[-1] == "0 []"


def test_no_submodule_imports_dataclasses_or_inspect():
    out = _python(
        "import sys\n"
        f"for name in {SUBMODULES!r}:\n"
        "    __import__('modunits.' + name)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False False"


def test_every_public_name_resolves_to_its_home_module():
    out = _python(
        "import sys, modunits\n"
        "for name in modunits.__all__:\n"
        "    obj = getattr(modunits, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    assert home.__name__.startswith('modunits.') and getattr(home, name) is obj, name\n"
        "print(len(modunits.__all__), len(set(modunits.__all__)))\n"
        "from modunits import *\n"
        "print(Cusp.__module__, theta_constant.__module__, product_family.__module__, e_of.__module__)\n"
    )
    assert out.splitlines() == ["33 33", "modunits.cusps modunits.thetag modunits.qseries modunits.cycloq"]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        modunits.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rank", "--trunc", "7"],
        ["verify", "jacobi", "--N", "5"],
        ["verify", "cusp-count", "--seed", "1"],
        ["verify", "theta-diag", "--trunc", "10"],
        ["verify", "wp-oracle", "--trunc", "30"],
    ],
)
def test_option_the_identity_does_not_take_exit_2(capsys, monkeypatch, argv):
    for name, (check, takes) in list(verify.IDENTITY_RUNNERS.items()):
        monkeypatch.setitem(verify.IDENTITY_RUNNERS, name, (_no_work, takes))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--{argv[2].lstrip('-')}" in err


def _no_work(*args, **kwargs):
    raise AssertionError("a check was run")


def test_every_identity_takes_the_options_its_check_has():
    for name, (check, takes) in verify.IDENTITY_RUNNERS.items():
        params = inspect.signature(check).parameters
        assert set(takes) <= set(params), name
        assert all(params[k].default is not inspect.Parameter.empty for k in params), name


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theta-diag", "--samples", "0"],
        ["verify", "theta-diag", "--samples=-1"],
        ["verify", "phi-siegel", "--samples", "cap+1"],
        ["verify", "jacobi", "--trunc", "cap+1/2"],
        ["expand", "eta", "--trunc", "cap+1"],
        ["expand", "j", "--trunc", str(10**9)],
    ],
)
def test_samples_and_trunc_outside_caps_exit_2(capsys, monkeypatch, argv):
    for name, (check, takes) in list(verify.IDENTITY_RUNNERS.items()):
        monkeypatch.setitem(verify.IDENTITY_RUNNERS, name, (_no_work, takes))
    monkeypatch.setattr(classical, "eta", _no_work)
    monkeypatch.setattr(classical, "j_function", _no_work)
    caps = {"--samples": MAX_SAMPLES, "--trunc": MAX_TRUNC}
    value = argv[-1]
    if value.startswith("cap"):
        argv = argv[:-1] + [str(caps[argv[-2]] + Fraction(value[3:]))]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage:" in err


@pytest.mark.parametrize("name", ["h1N", "hN"])
@pytest.mark.parametrize("N", ["0", "1", "cap+1", str(10**6)])
def test_unit_level_outside_cap_exit_2(capsys, monkeypatch, name, N):
    monkeypatch.setattr(units, "weierstrass_unit", _no_work)
    N = str(MAX_UNIT_LEVEL + 1) if N == "cap+1" else N
    code, out, err = run(capsys, "expand", name, N, "--trunc", "3")
    assert code == 2
    assert out == ""
    assert f"2..{MAX_UNIT_LEVEL}" in err


def test_caps_are_accepted():
    parser = build_parser()
    assert parser.parse_args(["expand", "eta", "--trunc", str(MAX_TRUNC)]).trunc == MAX_TRUNC
    assert parser.parse_args(["verify", "jacobi", "--trunc", str(MAX_TRUNC)]).trunc == MAX_TRUNC
    assert parser.parse_args(["verify", "theta-diag", "--samples", str(MAX_SAMPLES)]).samples == MAX_SAMPLES
    assert parser.parse_args(["verify", "theta-diag", "--samples", "1"]).samples == 1
    assert parser.parse_args(["expand", "j"]).trunc == 50


@pytest.mark.parametrize(
    "argv",
    [
        ["siegel", "1/3", "1/4001"],
        ["siegel", "1/24", "5/24"],
        ["siegel", "1/2", "1/5"],
        ["siegel", "1/12", "5/12"],
        ["wp", f"1/{MAX_INDEX_LEVEL + 1}", "0"],
        ["wunit", "0", "1/3", "0", "1/2", "1/4", "0", "0", "1/4"],
    ],
)
def test_index_level_above_cap_exit_2(capsys, monkeypatch, argv):
    for name in ("siegel_function", "wp_expansion", "weierstrass_unit"):
        monkeypatch.setattr(units, name, _no_work)
    code, out, err = run(capsys, "expand", *argv, "--trunc", "2")
    assert code == 2
    assert out == ""
    assert "usage:" in err and f"1..{MAX_INDEX_LEVEL}" in err


def test_index_level_cap_is_accepted():
    parser = build_parser()
    assert MAX_INDEX_LEVEL == 6
    args = parser.parse_args(["expand", "siegel", "1/2", f"5/{MAX_INDEX_LEVEL}"])
    assert args.params == [Fraction(1, 2), Fraction(5, 6)]
    wunit = ["expand", "wunit", "1/2", "0", "0", "1/3", "1/6", "1/2", "0", "1/3"]
    assert parser.parse_args(wunit).params[-1] == Fraction(1, 3)
    assert parser.parse_args(["expand", "wp", "1/5", "2/5"]).params == [Fraction(1, 5), Fraction(2, 5)]
    assert parser.parse_args(["expand", "h1N", str(MAX_UNIT_LEVEL)]).params == [MAX_UNIT_LEVEL]


class TestBuilds:
    """The builders and text output the other tests reach only through the library."""

    @pytest.mark.parametrize(
        "argv, series",
        [
            (["h1N", "5"], lambda: units.h1N(5, 3)),
            (["hN", "7"], lambda: units.hN(7, 3)),
            (
                ["wunit", "0", "1/3", "0", "1/2", "1/6", "0", "0", "1/2"],
                lambda: units.weierstrass_unit(
                    units.FracVector(0, Fraction(1, 3)), units.FracVector(0, Fraction(1, 2)),
                    units.FracVector(Fraction(1, 6), 0), units.FracVector(0, Fraction(1, 2)), 3,
                ),
            ),
        ],
    )
    def test_unit_builds(self, capsys, argv, series):
        code, out, _ = run(capsys, "expand", *argv, "--trunc", "3")
        assert code == 0
        assert out == series().to_json() + "\n"

    def test_cyclotomic_coefficient_text(self, capsys):
        code, out, _ = run(capsys, "expand", "siegel", "1/2", "1/3", "--trunc", "1/2", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "(2 pi i)^0 * (  # truncated at q^1/2",
            "  q^   -1/24  [order 12] (-1)*z^1 + (1)*z^3",
            "  q^   11/24  [order 12] (-1)*z^1 + (1)*z^3",
            ")",
        ]

    def test_cusps_text(self, capsys):
        code, out, _ = run(capsys, "cusps", "3")
        assert code == 0
        assert out.splitlines() == ["X(3) has 4 cusps:", "  (0:1)", "  oo", "  (1:1)", "  (1:2)"]

    def test_divisor_text(self, capsys):
        code, out, _ = run(capsys, "divisor", "1/2", "0", "2", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "divisor of g_[1/2;0]^(12*2) on X(2):",
            "       (0:1)  2",
            "          oo  -1",
            "       (1:1)  -1",
            "  degree: 0",
        ]


@pytest.mark.parametrize(
    "argv", [["jacobi", "--trunc", "0"], ["jacobi", "--trunc=-5"], ["theta-eta", "--trunc", "0"]]
)
def test_identity_with_nothing_to_compare_exit_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "no coefficient below trunc=" in err


@pytest.mark.parametrize(
    "check, trunc",
    [(verify.verify_jacobi, 0), (verify.verify_jacobi, -5), (verify.verify_theta_eta, 0),
     (verify.verify_theta_eta, Fraction(-1, 2))],
)
def test_identity_with_nothing_to_compare_raises(check, trunc):
    with pytest.raises(ValueError, match="no coefficient below trunc="):
        check(trunc)


def test_identity_at_trunc_1_still_passes(capsys):
    code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "1")
    assert code == 0
    assert out.startswith("jacobi [trunc=1]: pass")
    assert verify.verify_theta_eta(1).passed


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("modunits ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err
