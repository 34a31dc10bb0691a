import contextlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import vdwshock
from vdwshock import cli
from vdwshock.config import MAX_COUNT, RunConfig, parse_config
from vdwshock.errors import DomainError, InternalInconsistencyError
from vdwshock.reports import json_text
from vdwshock.shock_relations import ENDPOINT_SLACK, beta_upper
from vdwshock.table_fixture import FIXTURE_BETA, FIXTURE_BTILDE, fixture_is_blank

COMMANDS = ("criterion", "table", "field", "front", "inner", "check")


def _criterion_keys():
    # the benchmark rejects a criterion report whose keys differ from this set
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CRITERION_KEYS


CRITERION_KEYS = _criterion_keys()


def run_cli(*args):
    # the child imports the same package as this test, wherever it came from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "vdwshock.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path},
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.gamma == 1.4
        assert cfg.btilde == 0.0
        assert cfg.alpha_deg == 45.0
        assert cfg.epsilon == 0.1
        assert cfg.resolved_beta_i() == pytest.approx(1.1)
        assert cfg.rho0 == 1.0 and cfg.p0 == 1.0 and cfg.theta0 == 0.0
        # the gate renders RunConfig() without validating it: the boundary must accept it as is
        assert parse_config() == RunConfig()

    def test_file_plus_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma": 1.3, "btilde": 0.2}))
        cfg = parse_config(str(path), {"btilde": 0.4})
        assert cfg.gamma == 1.3
        assert cfg.btilde == 0.4

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"btilde": 1.2}, "btilde"),
            ({"alpha_deg": 90.0}, "alpha_deg"),
            ({"gamma": 1.0}, "gamma"),
            ({"xi_count": 1}, "xi_count"),
            ({"no_such_key": 1.0}, "no_such_key"),
            ({"gamma": "abc"}, "gamma must be a number"),
            ({"xi_count": 2.5}, "xi_count must be an integer"),
            ({"btilde_grid": []}, "btilde_grid must be a non-empty array of numbers"),
            ({"beta_i": -1.0}, "beta_i must be positive"),
            ({"beta_grid": [math.inf]}, "beta_grid entries must be finite"),
            ({"btilde_grid": [1.5]}, r"btilde_grid entries must lie in \[0, 1\)"),
        ],
    )
    def test_invalid_values_rejected(self, overrides, fragment):
        with pytest.raises(DomainError, match=fragment):
            parse_config(None, overrides)

    @pytest.mark.parametrize("kind, fragment", [
        ("missing", "cannot read config file"),
        ("directory", "cannot read config file"),
        ("invalid", "is not valid JSON"),
        ("array", "config file must hold a JSON object"),
        ("utf8", "cannot read config file"),  # these two escaped as tracebacks (exit 1)
        ("nested", "cannot read config file"),
    ])
    def test_unusable_config_file_rejected(self, tmp_path, kind, fragment):
        path = tmp_path / "run.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "invalid":
            path.write_text("{gamma: 1.4")
        elif kind == "utf8":
            path.write_bytes(b'{"gamma": 1.4\xff}')
        elif kind == "nested":
            path.write_text('{"beta_grid": ' + "[" * 100_000)
        elif kind == "array":
            path.write_text(json.dumps([{"gamma": 1.4}]))
        with pytest.raises(DomainError, match=fragment):
            parse_config(str(path))

    @pytest.mark.parametrize("argv, fragment", [
        (["criterion", "gamma", "1.4"], "expected --key value pairs, got 'gamma'"),
        (["criterion", "--gamma"], "missing value for option '--gamma'"),
        # json's RecursionError escaped as a traceback (exit 1)
        (["table", "--beta_grid", "[" * 100_000], "cannot read the value of --beta_grid"),
        (["table", "--beta-grid=" + "[" * 100_000], "cannot read the value of --beta-grid:"),
    ])
    def test_malformed_overrides_exit_two(self, capsys, argv, fragment):
        assert cli.main(argv) == 2
        assert_validation_error(capsys, fragment)

    def test_null_beta_i_is_the_default(self, capsys):
        assert cli.main(["criterion"]) == 0
        default = capsys.readouterr().out
        assert cli.main(["criterion", "--beta_i", "null"]) == 0
        assert capsys.readouterr().out == default

    # one second valid value per RunConfig field; a key that moves no output is dead
    SECOND_VALUES = {
        "gamma": "1.5", "btilde": "0.1", "alpha_deg": "30", "epsilon": "0.2", "beta_i": "1.3",
        "rho0": "2", "p0": "2", "theta0": "0.5", "eta": "-2", "beta_deg": "80", "r": "2",
        "beta_grid": "[1.2, 1.5]", "btilde_grid": "[0.0, 0.1]", "xi_min": "0.01",
        "xi_count": "5", "theta_count": "5", "rprime_min": "-2", "rprime_max": "5",
        "rprime_count": "5", "thetaprime_min": "-2", "thetaprime_max": "2",
        "thetaprime_count": "5", "btilde_sweep_max": "0.5", "btilde_sweep_count": "5",
    }

    def test_every_key_changes_some_output(self, capsys):
        assert sorted(self.SECOND_VALUES) == sorted(RunConfig._fields)
        data_commands = ("criterion", "front", "inner", "field", "table")

        def stdout(argv):
            assert cli.main(argv) == 0, argv
            return capsys.readouterr().out

        defaults = {command: stdout([command]) for command in data_commands}
        dead = [key for key, value in self.SECOND_VALUES.items()
                if all(stdout([command, f"--{key}", value]) == defaults[command]
                       for command in data_commands)]
        assert dead == []

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_t_is_an_unknown_key(self, capsys, tmp_path, source):
        # the front sweep prints the locus per unit time: t cancelled in it
        argv = ["front", "--t", "1"]
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"t": 1.0}))
            argv = ["front", "--config", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == "unknown configuration key 't'"


class TestNonFiniteInput:
    # each of these was accepted before: printed NaN as JSON, emitted inf
    # cells, blamed an unrelated region gap, or blanked the S_D column
    @pytest.mark.parametrize(
        "command, key, raw",
        [
            ("criterion", "beta_i", "NaN"),
            ("criterion", "epsilon", "NaN"),
            ("front", "epsilon", "Infinity"),
            ("field", "rho0", "NaN"),
            ("inner", "eta", "NaN"),
        ],
    )
    def test_rejected_naming_the_key(self, capsys, command, key, raw):
        assert cli.main([command, f"--{key}", raw]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert error["message"].startswith(f"{key} must be finite")

    @pytest.mark.parametrize("key", ["gamma", "alpha_deg", "beta_deg", "xi_count", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_scalar_key_rejects_non_finite(self, key, value):
        with pytest.raises(DomainError, match=key):
            parse_config(None, {key: value})

    @pytest.mark.parametrize("grid", [["a"], [1.2, True], [None]])
    def test_grid_entries_must_be_numbers(self, capsys, grid):
        # a non-numeric entry used to escape as a ValueError traceback (exit 1)
        assert cli.main(["table", "--beta_grid", json.dumps(grid)]) == 2
        assert "beta_grid must be a non-empty array of numbers" in capsys.readouterr().err

    def test_json_output_is_strict(self):
        with pytest.raises(InternalInconsistencyError, match="non-finite"):
            json_text({"J": math.nan})

    @pytest.mark.parametrize("payload, value", [({"J": math.nan}, "nan"),
                                                ({"J": 1.0, "x": -math.inf}, "-inf"),
                                                ([{"J": math.inf}], "inf")])
    def test_json_error_names_the_value(self, payload, value):
        # the flat objects' C encoder leaves the value out of its message; the text keeps it
        with pytest.raises(InternalInconsistencyError) as info:
            json_text(payload)
        assert str(info.value) == ("non-finite value in JSON output: "
                                   f"Out of range float values are not JSON compliant: {value}")


FLAT_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormal and zero, signed
    st.text(max_size=8),  # non-ASCII and control characters included
)
FLAT_OBJECTS = st.dictionaries(st.text(max_size=6), FLAT_VALUES, min_size=1, max_size=6)


class TestHugeIntegers:
    # each of these escaped as a traceback (exit 1): float() of an int beyond the float
    # range raises OverflowError, and json refuses an int of more than 4,300 digits with a
    # ValueError; a count key already read a 400-digit int and rejected it as too large
    @pytest.mark.parametrize("digits", [400, 5_000])
    @pytest.mark.parametrize("command, key, template", [
        ("criterion", "gamma", "{}"),
        ("table", "beta_grid", "[1.2, {}]"),
        ("field", "xi_count", "{}"),
    ], ids=["scalar", "grid-entry", "count"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_exits_two_with_nothing_printed(self, capsys, tmp_path, source, command, key,
                                            template, digits):
        raw = template.format("1" + "0" * (digits - 1))
        argv = [command, f"--{key}", raw]
        if source == "file":
            path = tmp_path / "run.json"
            path.write_text(f'{{"{key}": {raw}}}')
            argv = [command, "--config", str(path)]
        assert cli.main(argv) == 2
        # json names no key, so an unreadable file is named instead
        assert_validation_error(
            capsys, key if source == "flag" or digits == 400 else "cannot read config file")


class TestJsonText:
    # a non-empty flat object is written by json's C encoder, every other
    # payload by its indent=2 Python encoder; the bytes must not tell which.
    # 100 examples of 30 objects each take half the time of 3,000 examples
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(FLAT_OBJECTS, min_size=30, max_size=30))
    @example([{"\u00e9\U0001f600": 5e-324, "b": -(10 ** 300), "c": "\u2028\x00\"\\\ud800",
               "d": None, "e": True, "f": -0.0, "g": 1.7976931348623157e308}] * 30)
    def test_flat_object_bytes_match_indent_2(self, payloads):
        want = [json.dumps(p, sort_keys=True, indent=2, allow_nan=False) + "\n" for p in payloads]
        with mock.patch("json.encoder._make_iterencode", side_effect=AssertionError("Python")):
            assert [json_text(p) for p in payloads] == want

    @pytest.mark.parametrize("payload", [{}, {"a": [1.5]}, {"a": {"b": None}}, [{"a": 1}], 2.5])
    def test_other_payloads_keep_the_indent_2_encoder(self, payload):
        want = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        with mock.patch("json.encoder._make_iterencode", side_effect=AssertionError("Python")):
            with pytest.raises(AssertionError, match="Python"):
                json_text(payload)
        assert json_text(payload) == want

    def test_criterion_report_is_flat(self, capsys):
        with mock.patch("json.encoder._make_iterencode", side_effect=AssertionError("Python")):
            assert cli.main(["criterion"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == CRITERION_KEYS


class TestCountBound:
    # a count of 1e300 used to pass validation and then grow memory in the
    # grid until the process was killed; parse_config alone shows the bound
    # without starting that allocation
    @pytest.mark.parametrize(
        "command, key",
        [
            ("field", "xi_count"),
            ("field", "theta_count"),
            ("inner", "rprime_count"),
            ("inner", "thetaprime_count"),
            ("front", "btilde_sweep_count"),
        ],
    )
    def test_huge_count_rejected_naming_the_key(self, command, key):
        with pytest.raises(DomainError, match=f"{key} must be at most {MAX_COUNT}"):
            parse_config(None, {key: 1e300})
        with pytest.raises(DomainError, match=key):
            parse_config(None, {key: MAX_COUNT + 1})
        assert getattr(parse_config(None, {key: MAX_COUNT}), key) == MAX_COUNT

    @pytest.mark.parametrize("key", ["beta_grid", "btilde_grid"])
    def test_long_grid_rejected_naming_the_key(self, key):
        # two 100,001-entry grids used to pass: a 1e10-cell table
        with pytest.raises(DomainError, match=f"{key} must have at most {MAX_COUNT} entries"):
            parse_config(None, {key: [0.5] * (MAX_COUNT + 1)})
        assert len(getattr(parse_config(None, {key: [0.5] * MAX_COUNT}), key)) == MAX_COUNT


class TestAlphaUnderflow:
    def test_zero_radians_exits_two(self, capsys):
        # math.radians(5e-324) is 0.0; the field used to end in a
        # ZeroDivisionError traceback (exit 1)
        assert cli.main(["field", "--alpha_deg", "5e-324"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert error["message"].startswith("alpha_deg is too small")

    def test_tiny_nonzero_radians_still_run(self, capsys):
        assert cli.main(["field", "--alpha_deg", "1e-310", "--xi_count", "3",
                         "--theta_count", "3"]) == 0
        assert capsys.readouterr().out.startswith("xi_over_kappa0,")


class TestWeakShockRoot:
    # x* is about 7.3e6 here, where an absolute 1e-10 is a tenth of an ulp:
    # the two root methods agree to a few ulps but used to exit 3
    WEAK = ["--gamma", "2", "--btilde", "0.9999999999999"]

    def test_criterion_exits_zero(self, capsys):
        assert cli.main(["criterion", *self.WEAK, "--beta_i", "1.0000000000001"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admissible"] is True
        assert report["x_star"] == pytest.approx(7295401.0, rel=1e-12)

    def test_table_exits_zero(self, capsys):
        argv = ["table", "--gamma", "2", "--btilde_grid", "[0.9999999999999]",
                "--beta_grid", "[1.0000000000001]"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.split("\n")[1].startswith("1,1,true,7295400,")


class TestFrontOverflow:
    def test_overflowing_epsilon_exits_two(self, capsys):
        # used to exit 0 with inf in the locus and strength columns
        assert cli.main(["front", "--epsilon", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert "epsilon=1e+308" in error["message"]


def assert_validation_error(capsys, *fragments):
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "validation"
    for fragment in fragments:
        assert fragment in error["message"]


class TestReferenceOverflow:
    # kappa0 = (1 - btilde)**(-(gamma+1)/2) overflowed in reference_constants
    # and ended in an OverflowError traceback (exit 1)
    @pytest.mark.parametrize("argv", [
        ["front", "--gamma", "1e16"],
        ["inner", "--gamma", "1e16", "--btilde", "0.5"],
        ["field", "--gamma", "1e16", "--btilde", "0.5"],
    ])
    def test_kappa0_exits_two_naming_gamma_and_btilde(self, capsys, argv):
        assert cli.main(argv) == 2
        assert_validation_error(capsys, "gamma=1e+16", "btilde=")

    # a0 = sqrt(gamma*p0/(rho0*(1-btilde))) itself exceeds the float range
    @pytest.mark.parametrize("argv", [
        ["field", "--rho0", "5e-324", "--p0", "1e300"],
        ["front", "--rho0", "5e-324", "--p0", "1.7976931348623157e308"],
        ["field", "--rho0", "1e-300", "--p0", "1e300", "--gamma", "1e300"],
    ])
    def test_sound_speed_exits_two_naming_rho0_and_p0(self, capsys, argv):
        assert cli.main(argv) == 2
        assert_validation_error(capsys, f"rho0={float(argv[2])}", f"p0={float(argv[4])}")

    # a0 fits a float although the quotient under its root does not (or
    # rho0*(1-btilde) underflows); these printed a locus coefficient of 0 or
    # were rejected as out of range.  In the last front row c0 = a0/kappa0
    # underflows although a0 does not: the locus used to be c0*kappa0*t.
    @pytest.mark.parametrize("argv", [
        ["front", "--rho0", "1e300", "--p0", "1e-300"],
        ["field", "--rho0", "1e300", "--p0", "1e-300"],
        ["front", "--rho0", "5e-324", "--p0", "1e-310"],
        ["field", "--rho0", "1", "--p0", "1e300", "--gamma", "1e300"],
        ["front", "--rho0", "1e300", "--p0", "1e-300", "--gamma", "50",
         "--btilde_sweep_max", "0.9"],
    ])
    def test_representable_sound_speed_kept(self, capsys, argv):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv[0] == "field":  # a0 scales the coordinates, not the field
            assert cli.main(["field"]) == 0
            assert out == capsys.readouterr().out
            return
        lines = out.split("\n")
        assert lines[-1] == "" and len(lines) > 2
        # the locus coefficient scales with a0 and stays nonzero
        assert all(0.0 < float(line.split(",")[2]) < math.inf for line in lines[1:-1])

    def test_subnormal_c0_exits_two(self, capsys):
        # a0 ~ 2e-316 is kept, but the field's coordinates would lose their
        # digits dividing by a subnormal c0
        assert cli.main(["field", "--rho0", "1.7976931348623157e308", "--p0", "5e-324"]) == 2
        assert_validation_error(capsys, "c0 must be a finite normal float", "rho0=1.79")

    def test_zero_c0_exits_two(self, capsys):
        # a0 ~ 2e-299 is kept, but c0 = a0/kappa0 underflows to 0: dividing by
        # it in the field's coordinates raised ZeroDivisionError (exit 1)
        argv = ["field", "--rho0", "1e300", "--p0", "1e-300", "--gamma", "50", "--btilde", "0.9"]
        assert cli.main(argv) == 2
        assert_validation_error(capsys, "c0 must be a finite normal float", "rho0=1e+300")

    def test_huge_gamma_power_in_front_exits_two(self, capsys):
        # (gamma + 1)**2 in shock_locus raised OverflowError (exit 1)
        argv = ["front", "--gamma", "1e200", "--r", "1.7976931348623157e+308"]
        assert cli.main(argv) == 2
        assert_validation_error(capsys, "front quantities overflow", "gamma=1e+200")


class TestInnerGridOverflow:
    # the first three exited 0 with inf or nan in the CSV, the fourth exited 1
    # with a ZeroDivisionError (theta'^2 underflows to 0 while theta' != 0)
    @pytest.mark.parametrize("extra, fragments", [
        (["--thetaprime_min", "1e300"], ["thetaprime_min=1e+300"]),
        (["--thetaprime_max", "1e200"], ["thetaprime_max=1e+200"]),
        (["--rprime_min", "-1e308", "--rprime_max", "1e308"],
         ["rprime_min=-1e+308", "rprime_max=1e+308"]),
        (["--thetaprime_min", "1e-310"], ["thetaprime_min=1e-310"]),
        (["--theta0", "1e300"], ["theta0=1e+300"]),
        (["--gamma", "100", "--btilde", "0.999999"], ["gamma=100.0", "btilde=0.999999"]),
    ])
    def test_exits_two_naming_the_key(self, capsys, extra, fragments):
        assert cli.main(["inner", *extra]) == 2
        assert_validation_error(capsys, *fragments)

    def test_largest_finite_loci_still_run(self, capsys):
        # S_R + sonic_R overflows here although each is finite
        assert cli.main(["inner", "--gamma", "1.7976931348623157e+308"]) == 0
        line = capsys.readouterr().out.split("\n")[1]
        assert line.split(",")[2:6] == [
            "1.34826985115e+308", "1.01120238836e+308", "8.98846567431e+307",
            "1.79769313486e+308"]


class TestExtremeFrontInner:
    # every value is finite (the config rejects the rest), so a run either
    # prints finite CSV or is a validation error with nothing printed
    KEYS = {
        "front": ("gamma", "btilde_sweep_max", "alpha_deg", "beta_deg", "epsilon", "r", "rho0",
                  "p0"),
        "inner": ("gamma", "btilde", "rho0", "p0", "theta0", "eta", "rprime_min",
                  "rprime_max", "thetaprime_min", "thetaprime_max"),
    }
    EXTREMES = (0.0, 5e-324, 1e-310, 1e-200, 1e-12, 1.0 - 1e-16, 1.0, 1.0 + 2.3e-16,
                1e10, 1e16, 1e200, 1e300, 1.7976931348623157e308)

    def value(self, rng):
        if rng.random() < 0.5:
            return rng.uniform(-5.0, 90.0)
        return rng.choice((1.0, -1.0)) * rng.choice(self.EXTREMES)

    def test_exit_zero_with_finite_csv_or_two_with_nothing(self, capsys):
        rng = random.Random(53)
        codes = set()
        for i in range(1200):
            command = ("front", "inner")[i % 2]
            argv = [command]
            for key in rng.sample(self.KEYS[command], rng.randint(1, 3)):
                argv += [f"--{key}", repr(self.value(rng))]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2), (argv, err)
            codes.add(code)
            if code == 2:
                assert out == "", argv
                continue
            lines = out.split("\n")
            assert lines[-1] == "" and len(lines) > 2, argv
            for line in lines[1:-1]:
                for cell in line.split(","):
                    assert cell == "" or math.isfinite(float(cell)), (argv, line)
        assert codes == {0, 2}


def _edge_floats(valid, *edges):
    """Half from ``valid``, half NaN, +-Inf, +-1e308, subnormals or an edge +- k ulps."""
    specials = st.sampled_from(
        (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 1e-310, 0.0, -0.0))
    near = st.tuples(st.sampled_from(edges), st.sampled_from((-4, -2, -1, 0, 1, 2, 4))).map(
        lambda ek: ek[0] + ek[1] * math.ulp(ek[0]))
    return st.one_of(valid, st.one_of(specials, near))


class TestFieldFuzz:
    # the row kernel and the reference constants driven through the CLI;
    # rho0 and p0 span the float range, where a0 needs its scaled form
    SCALE = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
    KEYS = {
        "alpha_deg": _edge_floats(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
                                  0.0, 1.0, 45.0, 90.0),
        "btilde": _edge_floats(st.floats(0.0, 1.0, exclude_max=True), 0.0, 1.0),
        "gamma": _edge_floats(st.floats(1.0, 10.0, exclude_min=True), 1.0),
        "xi_min": _edge_floats(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), 0.0, 1.0),
        "rho0": _edge_floats(SCALE, 0.0, 1.0),
        "p0": _edge_floats(SCALE, 0.0, 1.0),
    }

    @given(over=st.fixed_dictionaries({}, optional=KEYS),
           xi_count=st.integers(2, 4), theta_count=st.integers(2, 4))
    # a0 in its scaled form, and near-front ring rows
    @example(over={"rho0": 1e300, "p0": 1e-300}, xi_count=3, theta_count=3)
    # c0 = a0/kappa0 underflows to 0 although a0 does not
    @example(over={"rho0": 1e300, "p0": 1e-300, "gamma": 50.0, "btilde": 0.9}, xi_count=2,
             theta_count=2)
    @example(over={"xi_min": 1.0 - 4 * math.ulp(1.0), "alpha_deg": 30.0}, xi_count=4,
             theta_count=4)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_zero_with_finite_rows_or_two_with_nothing(self, over, xi_count, theta_count):
        argv = ["field", "--xi_count", str(xi_count), "--theta_count", str(theta_count)]
        for key, value in over.items():
            argv += [f"--{key}", json.dumps(value)]  # NaN and Infinity as JSON spells them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out = out.getvalue()
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out == "", argv
            return
        lines = out.split("\n")
        assert lines[0] == "xi_over_kappa0,theta,region,rho1,formula_tag"
        assert lines[-1] == "" and len(lines) == 2 + xi_count * theta_count, argv
        for line in lines[1:-1]:
            xi, theta, _region, rho1, tag = line.split(",")
            assert all(math.isfinite(float(cell)) for cell in (xi, theta, rho1)), (argv, line)
            assert tag in ("51", "52"), (argv, line)


class TestFrontFuzz:
    # the covolume sweep of the front quantities driven through the CLI;
    # rho0 and p0 span the float range, where c0 = a0/kappa0 can underflow
    KEYS = {
        "gamma": _edge_floats(st.floats(1.0, 60.0, exclude_min=True), 1.0),
        "btilde_sweep_max": _edge_floats(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), 0.0, 1.0),
        "alpha_deg": _edge_floats(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
                                  0.0, 1.0, 45.0, 90.0),
        "beta_deg": _edge_floats(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
                                 0.0, 45.0, 67.5, 90.0, 180.0),
        "epsilon": _edge_floats(st.floats(0.0, 10.0), 0.0, 1.0),
        "rho0": _edge_floats(TestFieldFuzz.SCALE, 0.0, 1.0),
        "p0": _edge_floats(TestFieldFuzz.SCALE, 0.0, 1.0),
    }

    @given(over=st.fixed_dictionaries({}, optional=KEYS),
           count=st.one_of(st.none(), st.integers(2, 15)))
    # the last row's c0 underflows: its locus coefficient printed 0
    @example(over={"rho0": 1e300, "p0": 1e-300, "gamma": 50.0, "btilde_sweep_max": 0.9},
             count=None)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_zero_with_positive_loci_or_two_with_nothing(self, over, count):
        argv = ["front"] if count is None else ["front", "--btilde_sweep_count", str(count)]
        for key, value in over.items():
            argv += [f"--{key}", json.dumps(value)]  # NaN and Infinity as JSON spells them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out = out.getvalue()
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out == "", argv
            return
        rows = RunConfig().btilde_sweep_count if count is None else count
        lines = out.split("\n")
        assert lines[0] == "btilde,gradient_jump,shock_locus_coeff,shock_strength"
        assert lines[-1] == "" and len(lines) == 2 + rows, argv
        for line in lines[1:-1]:
            cells = [float(cell) for cell in line.split(",")]
            assert len(cells) == 4 and all(map(math.isfinite, cells)), (argv, line)
            assert cells[2] > 0.0, (argv, line)


class TestInnerFuzz:
    # the hoisted inner grid driven through the CLI; the loci, the sonic
    # lines and the stretched grid itself can leave the float range
    ANGLE = st.floats(-10.0, 10.0)
    KEYS = {
        "gamma": _edge_floats(st.floats(1.0, 60.0, exclude_min=True), 1.0),
        "btilde": _edge_floats(st.floats(0.0, 1.0, exclude_max=True), 0.0, 1.0),
        "rho0": _edge_floats(TestFieldFuzz.SCALE, 0.0, 1.0),
        "p0": _edge_floats(TestFieldFuzz.SCALE, 0.0, 1.0),
        "theta0": _edge_floats(ANGLE, 0.0),
        "eta": _edge_floats(ANGLE, 0.0, -1.0),
        "rprime_min": _edge_floats(ANGLE, 0.0, -3.0),
        "rprime_max": _edge_floats(ANGLE, 0.0, 6.0),
        "thetaprime_min": _edge_floats(ANGLE, 0.0, -3.0),
        "thetaprime_max": _edge_floats(ANGLE, 0.0, 3.0),
    }

    @given(over=st.fixed_dictionaries({}, optional=KEYS),
           rprime_count=st.integers(2, 4), thetaprime_count=st.integers(2, 4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_zero_with_finite_rows_or_two_with_nothing(self, over, rprime_count,
                                                            thetaprime_count):
        argv = ["inner", "--rprime_count", str(rprime_count),
                "--thetaprime_count", str(thetaprime_count)]
        for key, value in over.items():
            argv += [f"--{key}", json.dumps(value)]  # NaN and Infinity as JSON spells them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out = out.getvalue()
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out == "", argv
            return
        lines = out.split("\n")
        assert lines[0] == ("theta_prime,r_prime,S_R,S_D,sonic_S,sonic_R,"
                            "U_reflected,U_diffracted")
        assert lines[-1] == "" and len(lines) == 2 + rprime_count * thetaprime_count, argv
        for line in lines[1:-1]:
            *numbers, u_ref, u_dif = line.split(",")
            # S_D is blank when the configured eta labels no diffracted shock
            assert all(cell == "" or math.isfinite(float(cell)) for cell in numbers), (argv, line)
            assert u_ref in ("1", "2"), (argv, line)
            assert u_dif == "" or 1.0 <= float(u_dif) <= 1.5, (argv, line)


class TestThresholdOverflow:
    # the cubic's coefficients (2*b2**3) or its closed-form root (m**3)
    # overflow a float at huge gamma; both used to end in a traceback
    HUGE = ["--gamma", "2.6168464956334917e+41"]

    def assert_validation_error(self, capsys):
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert "gamma=2.6168464956334917e+41" in error["message"]
        assert "beta_i=0.999999999999" in error["message"]

    def test_criterion_exits_two(self, capsys):
        assert cli.main(["criterion", *self.HUGE, "--beta_i", "0.999999999999"]) == 2
        self.assert_validation_error(capsys)

    def test_table_exits_two(self, capsys):
        assert cli.main(["table", *self.HUGE, "--beta_grid", "[0.999999999999]"]) == 2
        self.assert_validation_error(capsys)

    # btilde*beta_i rounds to 1, so the cubic's leading coefficient h3 is 0
    FULL = ["--gamma", "1.0000000000098845", "--btilde", "0.999999999999"]

    def assert_full_covolume_error(self, capsys):
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert error["message"] == (
            "covolume fraction btilde*beta_i of state 1 reaches 1 at "
            "gamma=1.0000000000098845, btilde=0.999999999999, beta_i=1.000000000001"
        )

    def test_full_covolume_criterion_exits_two(self, capsys):
        assert cli.main(["criterion", *self.FULL, "--beta_i", "1.000000000001"]) == 2
        self.assert_full_covolume_error(capsys)

    def test_full_covolume_table_exits_two(self, capsys):
        argv = ["table", "--gamma", "1.0000000000098845", "--btilde_grid", "[0.999999999999]",
                "--beta_grid", "[1.000000000001]"]
        assert cli.main(argv) == 2
        self.assert_full_covolume_error(capsys)

    def test_infinite_coefficients_exit_two(self, capsys):
        # _coeffs returns h2 = m = n = -inf; this used to exit 3
        assert cli.main(["criterion", "--gamma", "1.8e289", "--beta_i", "1.000000000001"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error == {
            "kind": "validation",
            "message": "threshold cubic overflows a float at gamma=1.8e+289, beta_i=1.000000000001",
        }

    def test_huge_gamma_never_escapes(self, capsys):
        rng = random.Random(41)
        codes = set()
        for _ in range(2000):
            gamma = 10.0 ** rng.uniform(-9.0, 308.0) + 1.0
            btilde = rng.choice([0.0, rng.uniform(0.0, 0.999)])
            upper = (gamma + 1.0) / (gamma - 1.0 + 2.0 * btilde)
            beta = rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12, upper, rng.uniform(1.0, upper)])
            argv = ["criterion", "--gamma", repr(gamma), "--btilde", repr(btilde),
                    "--beta_i", repr(beta)]
            code = cli.main(argv)
            out, _err = capsys.readouterr()
            assert code in (0, 2, 3), argv
            if code == 0:
                json.loads(out, parse_constant=_reject_constant)
            else:
                assert out == "", argv
            codes.add(code)
        assert codes == {0, 2, 3}



@st.composite
def _band_edge_case(draw, count):
    """gamma, btilde and ``count`` density ratios at or next to the band's edges."""
    gamma = 1.0 + 10.0 ** draw(st.floats(-12.0, 308.0))
    btilde = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    top = beta_upper(gamma, btilde) * (1.0 + ENDPOINT_SLACK)
    near = st.tuples(st.sampled_from((1.0 - ENDPOINT_SLACK, top, 1.0)),
                     st.integers(-4, 4)).map(lambda ek: ek[0] + ek[1] * math.ulp(ek[0]))
    decade = st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(1, 15)).map(
        lambda sk: 1.0 + sk[0] * 10.0 ** -sk[1])
    betas = draw(st.lists(st.one_of(near, decade), min_size=count, max_size=count))
    return gamma, btilde, betas


class TestThresholdFuzz:
    # criterion and table through the CLI at the edges of the admissible band.
    # Exit 3 is a known defect of the threshold root, "cubic root methods
    # disagree", confined to two corners: a weak shock, |beta_i - 1| <= 2e-12,
    # at gamma >= 1e13; and a ratio within 2e-12 (relative) of the band's top
    # at gamma - 1 <= 1e-10
    WEAK_AT_HUGE_GAMMA = (5.364343657287806e+28, 0.24608679063336764, 1.000000000001)
    TOP_AT_GAMMA_NEAR_ONE = (1.0000000000193363, 0.8294858999305427, 1.205566001884719)

    @staticmethod
    def in_envelope(gamma, btilde, beta):
        return ((abs(beta - 1.0) <= 2e-12 and gamma >= 1e13)
                or (abs(beta / beta_upper(gamma, btilde) - 1.0) <= 2e-12
                    and gamma - 1.0 <= 1e-10))

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3), (argv, err)
        if code != 0:
            assert out == "", argv
        if code == 3:
            error = json.loads(err)["error"]
            assert error["kind"] == "internal-inconsistency", argv
            assert "cubic root methods disagree" in error["message"], (argv, err)
        return code, out

    @given(case=_band_edge_case(1))
    @example(case=(WEAK_AT_HUGE_GAMMA[0], WEAK_AT_HUGE_GAMMA[1], [WEAK_AT_HUGE_GAMMA[2]]))
    @example(case=(TOP_AT_GAMMA_NEAR_ONE[0], TOP_AT_GAMMA_NEAR_ONE[1],
                   [TOP_AT_GAMMA_NEAR_ONE[2]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_criterion_exit_zero_with_strict_json_or_two_with_nothing(self, case):
        gamma, btilde, (beta,) = case
        argv = ["criterion", "--gamma", repr(gamma), "--btilde", repr(btilde),
                "--beta_i", repr(beta)]
        code, out = self.run(argv)
        if code == 3:
            assert self.in_envelope(gamma, btilde, beta), argv
        elif code == 0:
            assert set(json.loads(out, parse_constant=_reject_constant)) == CRITERION_KEYS

    @given(case=_band_edge_case(3), btildes=st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=0, max_size=1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_table_exit_zero_with_every_row_or_two_with_nothing(self, case, btildes):
        gamma, btilde, betas = case
        bt_grid = [btilde, *btildes]
        argv = ["table", "--gamma", repr(gamma), "--btilde_grid", json.dumps(bt_grid),
                "--beta_grid", json.dumps(betas)]
        code, out = self.run(argv)
        if code == 3:
            assert any(self.in_envelope(gamma, bt, b) for b in betas for bt in bt_grid), argv
        elif code == 0:
            lines = out.split("\n")
            assert lines[-1] == "" and len(lines) == 2 + len(betas) * len(bt_grid), argv
            for line in lines[1:-1]:
                cells = line.split(",")
                assert len(cells) == 7 and cells[2] in ("true", "false"), (argv, line)
                for cell in cells[:2] + cells[3:]:
                    assert cell == "" or math.isfinite(float(cell)), (argv, line)

    @pytest.mark.xfail(strict=True, reason="exit 3: the closed-form and bisection roots of "
                       "the threshold cubic disagree by more than 16 ulps")
    @pytest.mark.parametrize("case", [WEAK_AT_HUGE_GAMMA, TOP_AT_GAMMA_NEAR_ONE],
                             ids=["weak-shock-huge-gamma", "band-top-gamma-near-one"])
    def test_envelope_corner_exits_zero_or_two(self, case):
        gamma, btilde, beta = case
        argv = ["criterion", "--gamma", repr(gamma), "--btilde", repr(btilde),
                "--beta_i", repr(beta)]
        assert self.run(argv)[0] in (0, 2)

class TestParserAndImports:
    def test_import_does_not_run_the_gate(self):
        # cli registers vdwshock.checks (the benchmark's tracer looks it up in
        # sys.modules) but its body runs only when the check command needs it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys, vdwshock.cli as cli\n"
            "print('dataclasses' in sys.modules)\n"
            "m = sys.modules['vdwshock.checks']\n"
            "print('run_all_checks' in object.__getattribute__(m, '__dict__'))\n"
            "print(cli.checks.FAIL, 'run_all_checks' in vars(m), m is cli.checks)\n"
            "import vdwshock.checks\n"
            "print(vdwshock.checks is m)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["False", "False", "fail True True", "True", ""]

    def test_every_record_is_a_named_tuple(self):
        records = [obj for obj in (getattr(vdwshock, name) for name in vdwshock.__all__)
                   if isinstance(obj, type) and not issubclass(obj, Exception)]
        records += [RunConfig, cli.checks.CheckResult]
        assert len(records) == 19
        assert all(issubclass(r, tuple) and r._fields for r in records), records
        assert not hasattr(vdwshock, "WedgeConfig")

    def test_no_command_line_imports_argparse(self):
        # cli._read reads every command line: a plain one, the help and a malformed one
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import io, sys, contextlib, vdwshock.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in (['front'], ['--help'], ['front', '--'])]\n"
            "print(codes, 'argparse' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 2] False\n"

    RUNS = {  # the modules whose body each command runs, beside cli, config, errors,
              # geometry, reports, table_fixture and thermo
        "criterion": "regular_reflection shock_relations",
        "table": "regular_reflection shock_relations",
        "field": "linear_acoustics",
        "front": "linear_acoustics nonlinear_front",
        "inner": "inner_singular linear_acoustics",
        "check": "checks inner_singular linear_acoustics nonlinear_front regular_reflection "
                 "shock_relations",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_runs_only_its_modules(self, command):
        # every module a command may run is registered on import; a registered module
        # whose body has not run has no __builtins__ yet
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import io, sys, contextlib, vdwshock.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main([{command!r}])\n"
            "print(' '.join(sorted(name.removeprefix('vdwshock.')\n"
            "                      for name, m in sys.modules.items()\n"
            "                      if name.startswith('vdwshock.') and\n"
            "                      '__builtins__' in object.__getattribute__(m, '__dict__'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        always = "cli config errors geometry reports table_fixture thermo".split()
        assert proc.stdout.split() == sorted(always + self.RUNS[command].split())

    def test_parser_reused_after_errors(self, capsys):
        # a rejected command line leaves cli.main usable for the next call
        for bad in ("plot", "render_inner"):
            assert cli.main([bad]) == 2
            assert_validation_error(capsys, f"got {bad!r}")
        assert cli.main(["criterion", "--beta_i", "1.2"]) == 0
        assert json.loads(capsys.readouterr().out)["beta_i"] == 1.2


def _main_outcome(argv):
    """Exit code (or what was raised), stdout and stderr of cli.main in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except (Exception, SystemExit) as exc:
                    code = exc
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


_WALK_KEYS = [f"--{field}" for field in RunConfig._fields] + ["--config", "--output"]
_ODD_KEYS = ["--conf", "--o", "--h", "--help", "-h", "--", "--config=a", "--xi-count"]
_VALUES = ["1", "-1", "-.5", "-1e3", "-x", "-", "--", "", "a b", "[1, 2]", "null", "-h"]
_JUNK = ["plot", "gamma", "render_front"]


def _argvs(commands):
    """Argvs in or near the plain grammar.

    Half are ``<command> (--key value)*`` with exact keys; the other half are
    such an argv with one token replaced, or one inserted, by a junk word,
    an odd key, a value or a command.
    """
    pairs = st.lists(st.tuples(st.sampled_from(_WALK_KEYS), st.sampled_from(_VALUES)),
                     max_size=3)
    plain = st.tuples(st.sampled_from(commands), pairs).map(
        lambda t: [t[0], *(tok for pair in t[1] for tok in pair)])
    odd = st.sampled_from(_JUNK + _ODD_KEYS + _VALUES + commands)

    def edit(t):
        argv, at, token, insert = t
        at = min(at, len(argv) - (not insert))
        return argv[:at] + [token] + argv[at + (not insert):]

    return st.one_of(plain, st.tuples(plain, st.integers(0, 6), odd, st.booleans()).map(edit))


_USAGE = "Usage: vdwshock <command> [--config FILE] [--output PATH] [--key value ...]\n"
_NOT_A_COMMAND = "expected a command (criterion, table, field, front, inner, check), got "
_CRITERION_AT_1_2 = '{\n  "J": 0.6420686534161867,\n'


class TestGrammar:
    """The one command-line grammar, ``<command> (--key value)*``."""

    @pytest.mark.parametrize("argv, code, expected", [
        # exit 0: the start of stdout
        (["criterion", "--beta_i", "1.2"], 0, _CRITERION_AT_1_2),
        (["criterion", "--beta-i", "1.2"], 0, _CRITERION_AT_1_2),
        (["criterion", "--beta_i=1.2"], 0, _CRITERION_AT_1_2),
        (["criterion", "--beta-i=1.2", "--beta_i", "1.2"], 0, _CRITERION_AT_1_2),
        (["-h"], 0, _USAGE),
        (["--help"], 0, _USAGE),
        (["table", "--help"], 0, _USAGE),
        (["table", "--gamma", "1.3", "-h"], 0, _USAGE),
        # exit 2: the message of the one JSON error object
        (["criterion", "--gamma"], 2, "missing value for option '--gamma'"),
        (["front", "--gamma", "1.3", "--xi-count"], 2, "missing value for option '--xi-count'"),
        (["criterion", "gamma", "1.4"], 2, "expected --key value pairs, got 'gamma'"),
        (["criterion", "--gamma=1.3", "1.4"], 2, "expected --key value pairs, got '1.4'"),
        (["criterion", "-x", "1"], 2, "expected --key value pairs, got '-x'"),
        (["criterion", "--", "--gamma", "1.4"], 2, "expected --key value pairs, got '--'"),
        (["criterion", "--=1.4"], 2, "expected --key value pairs, got '--=1.4'"),
        (["plot"], 2, _NOT_A_COMMAND + "'plot'"),
        ([], 2, _NOT_A_COMMAND + "nothing"),
        (["--gamma", "1.4", "criterion"], 2, _NOT_A_COMMAND + "'--gamma'"),
        (["table", "--conf", "x.json"], 2, "unknown configuration key 'conf'"),
        (["table", "--eta", "-h"], 2, "eta must be a number, got '-h'"),
    ])
    def test_command_line(self, capsys, argv, code, expected):
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out.startswith(expected) and err == ""
        else:
            assert out == ""
            assert json.loads(err) == {"error": {"kind": "validation", "message": expected}}

    # check runs the whole gate, so it is left out
    @given(_argvs([c for c in COMMANDS if c != "check"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_main_never_raises(self, argv):
        code, out, err = _main_outcome(argv)
        assert code in (0, 2, 3), code
        if code == 2:
            assert out == ""
            assert list(json.loads(err)) == ["error"]


class TestExitCodes:
    def test_validation_failure_exits_two(self):
        proc = run_cli("criterion", "--btilde", "1.2")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["kind"] == "validation"

    def test_bad_angle_exits_two(self):
        proc = run_cli("field", "--alpha_deg", "90")
        assert proc.returncode == 2

    def test_unknown_command_exits_two(self):
        proc = run_cli("plot")
        assert proc.returncode == 2

    def test_check_exit_reflects_fail_entries(self):
        proc = run_cli("check")
        payload = json.loads(proc.stdout)
        fails = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
        assert proc.returncode == (3 if fails else 0)


class TestDeterminism:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_byte_identical_reruns(self, command):
        first = run_cli(command)
        second = run_cli(command)
        assert first.stdout == second.stdout
        assert first.stdout != ""

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "table.csv"
        streamed = run_cli("table")
        written = run_cli("table", "--output", str(out))
        assert written.returncode == 0
        assert out.read_text() == streamed.stdout

    @pytest.mark.parametrize("command", ["criterion", "check"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_exits_two(self, tmp_path, command, target):
        # check runs the gate before it writes
        out = tmp_path / "no" / "x.json" if target == "missing_dir" else tmp_path
        proc = run_cli(command, "--output", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == "validation"
        assert error["message"].startswith(f"cannot write output file {out}: ")

    def test_output_key_in_config_file_is_unknown(self, tmp_path):
        # the output path is the --output flag only
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"output": str(tmp_path / "x.csv")}))
        proc = run_cli("table", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["message"] == "unknown configuration key 'output'"
        assert not (tmp_path / "x.csv").exists()


class TestCriterionCommand:
    def test_json_shape(self):
        proc = run_cli("criterion", "--beta_i", "1.2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["beta_i"] == 1.2
        assert payload["admissible"] is True
        assert payload["J"] == pytest.approx(0.6420686534161867, rel=1e-12)
        assert payload["phi_star_deg"] == pytest.approx(
            math.degrees(math.atan(math.sqrt(payload["J"]))), rel=1e-12
        )
        assert list(payload) == sorted(payload)

    def test_inadmissible_reported_not_failed(self):
        proc = run_cli("criterion", "--beta_i", "3.0", "--btilde", "0.5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["admissible"] is False
        assert payload["J"] is None
        assert all(payload[key] is None for key in ("h0", "h1", "h2", "h3", "m", "n"))
        assert set(payload) == CRITERION_KEYS


class TestTableCommand:
    def test_header_and_blank_pattern(self):
        proc = run_cli("table")
        lines = proc.stdout.splitlines()
        assert lines[0] == "beta_i,btilde,admissible,J,phi_star_deg,fixture_J,abs_diff"
        assert len(lines) == 1 + len(FIXTURE_BETA) * len(FIXTURE_BTILDE)
        for line in lines[1:]:
            beta_s, bt_s, admissible, j, _, fixture, _ = line.split(",")
            blank = fixture_is_blank(float(beta_s), float(bt_s))
            assert (j == "") == blank
            assert (fixture == "") == blank
            assert admissible == ("false" if blank else "true")

    def test_gamma_sweep_accepted(self):
        proc = run_cli("table", "--gamma", "1.3", "--beta_grid", "[1.2,2.4]")
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 1 + 2 * len(FIXTURE_BTILDE)


class TestFieldCommand:
    def test_header_and_center_value(self):
        proc = run_cli("field", "--xi_count", "3", "--theta_count", "5")
        lines = proc.stdout.splitlines()
        assert lines[0] == "xi_over_kappa0,theta,region,rho1,formula_tag"
        rows = [line.split(",") for line in lines[1:]]
        center = [r for r in rows if float(r[0]) == 1e-6]
        assert center
        for r in center:
            assert float(r[3]) == pytest.approx(4.0 / 3.0, abs=1e-4)
            assert r[2] == "OmegaTilde"
            assert r[4] == "51"

    def test_arc_rows_tagged(self):
        proc = run_cli("field", "--xi_count", "2", "--theta_count", "3")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        arc = [r for r in rows if float(r[0]) == 1.0]
        assert arc
        assert {float(r[3]) for r in arc} <= {1.0, 2.0}


class TestFrontCommand:
    def test_header_and_trends(self):
        proc = run_cli("front")
        lines = proc.stdout.splitlines()
        assert lines[0] == "btilde,gradient_jump,shock_locus_coeff,shock_strength"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 15
        jumps = [r[1] for r in rows]
        loci = [r[2] for r in rows]
        strengths = [r[3] for r in rows]
        assert all(b < a for a, b in zip(jumps, jumps[1:]))
        assert all(b > a for a, b in zip(loci, loci[1:]))
        assert all(b > a for a, b in zip(strengths, strengths[1:]))

    def test_rarefaction_side_rejected(self):
        proc = run_cli("front", "--beta_deg", "20")
        assert proc.returncode == 2


class TestInnerCommand:
    def test_header_and_piecewise_values(self):
        proc = run_cli("inner")
        lines = proc.stdout.splitlines()
        assert lines[0] == (
            "theta_prime,r_prime,S_R,S_D,sonic_S,sonic_R,U_reflected,U_diffracted"
        )
        rows = [line.split(",") for line in lines[1:]]
        for r in rows:
            assert r[4] == "1.2" and r[5] == "2.4"
            assert float(r[6]) in (1.0, 2.0)
            if r[7] != "":
                assert 1.0 <= float(r[7]) <= 1.5


class TestCheckCommand:
    def test_report_shape(self):
        proc = run_cli("check")
        payload = json.loads(proc.stdout)
        names = [c["name"] for c in payload["checks"]]
        expected = [
            "cubic_self_consistency",
            "table_trends",
            "branch_limits",
            "reflection_solve",
            "geometry_incidence",
            "linear_field",
            "front_corrections",
            "inner_region",
            "cli_determinism",
            "table_fixture_comparison",
        ]
        assert names == expected
        assert len(names) == len(set(names))
        statuses = {c["name"]: c["status"] for c in payload["checks"]}
        assert statuses["table_fixture_comparison"] == "discrepancy-documented"
        for entry in payload["checks"]:
            assert set(entry) == {"name", "status", "residual", "tolerance", "note"}
        counts = payload["counts"]
        assert counts["pass"] + counts["fail"] + counts["discrepancy-documented"] == len(names)
