"""The batch CLI: its configuration, its one outcome contract, and each command's output.

Every in-process run goes through one runner, ``_main_outcome``, and is judged
by one checker, ``assert_outcome``.  A subprocess runs only where the process
is the subject: byte identity across interpreters, the ``python -m
vdwshock.cli`` entry point (``run_cli``) and the cold-interpreter import
tests (``_cold``).
"""

import contextlib
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

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import vdwshock
from vdwshock import cli
from vdwshock.config import MAX_COUNT, RunConfig, parse_config
from vdwshock.errors import DomainError, InternalInconsistencyError
from vdwshock.reports import DATA_COMMANDS, json_text
from vdwshock.shock_relations import ENDPOINT_SLACK, beta_upper
from vdwshock.table_fixture import fixture_value

from conftest import perfbench
from test_package import PUBLIC
from test_threshold_clamps import is_the_largest_root_within_ulps

COMMANDS = ("criterion", "table", "field", "front", "inner", "check")
SRC = str(Path(cli.__file__).resolve().parents[1])  # the package this test imports


workloads = perfbench("workloads")  # the benchmark's output checks: what a correct run prints


def run_cli(*args):
    # the child imports the same package as this test, wherever it came from
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "vdwshock.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path},
    )


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


DIGITS_400, DIGITS_5000 = "1" + "0" * 399, "1" + "0" * 4999
_TOO_LARGE = "must be finite, got an integer too large for a float"
USAGE = cli.__doc__.split("\n\n")[1] + "\n"  # "-h or --help prints this paragraph"

#: CSV rows a data command prints for a valid config (criterion and check print JSON)
ROWS = {
    "criterion": lambda cfg: None,
    "table": lambda cfg: len(cfg.beta_grid) * len(cfg.btilde_grid),
    "field": lambda cfg: cfg.xi_count * cfg.theta_count,
    "front": lambda cfg: cfg.btilde_sweep_count,
    "inner": lambda cfg: cfg.rprime_count * cfg.thetaprime_count,
    "check": lambda cfg: None,
}


def assert_outcome(argv, code, out, err, want=(0, 2, 3), expected=None):
    """Check one run of ``cli.main(argv)`` against the CLI's outcome contract.

    The contract is the one stated in README's *Command-line interface*
    section.  Exit 0: nothing on stderr; on stdout the usage paragraph for
    help, nothing when ``--output`` names the file, else the command's output
    in the form the benchmark's ``check_output`` requires (strict JSON, CSV
    with its header, row count and finite cells).  Exit 2: nothing on stdout
    and one line ``{"error": {"kind": "validation", "message": ...}}`` on
    stderr.  Exit 3: for ``check``, its report, which has failing entries;
    for a data command, nothing on stdout and one ``internal-inconsistency``
    error line on stderr.

    ``want`` is the exit code, or the codes, the run may end with.
    ``expected`` is, for an error, its exact message (a str) or fragments of
    it (a tuple); for a report or output, the start of stdout.  Returns the
    error message, or stdout.
    """
    assert code in ((want,) if isinstance(want, int) else want), (argv, code, err)
    if code == 2 or (code == 3 and argv[0] != "check"):
        kind = "validation" if code == 2 else "internal-inconsistency"
        assert out == "", argv
        message = json.loads(err)["error"]["message"]
        one_line = json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True)
        assert err == one_line + "\n", (argv, err)
        if isinstance(expected, str):
            assert message == expected, argv
        else:
            assert [f for f in expected or () if f not in message] == [], (argv, message)
        return message
    assert err == "", (argv, err)
    parsed = cli._read(list(argv))
    if parsed is None:
        assert (code, out) == (0, USAGE), argv
    elif parsed[2] is not None:  # the --output file holds what stdout would
        assert out == "", argv
    else:
        command, config, _, overrides = parsed
        rows = ROWS[command](parse_config(config, overrides))
        workloads.check_output(workloads.Invocation(list(argv), rows, code), code, out, err)
        if command in ("criterion", "check"):  # sorted keys, an indent of 2
            report = json.loads(out)
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", argv
        if command == "check":
            assert code == (3 if any(c["status"] == "fail" for c in report["checks"]) else 0)
    assert out.startswith(expected or ""), (argv, out[:200])
    return out


def _stdout(argv, **kwargs):
    """stdout of a run of argv that must exit 0."""
    return assert_outcome(argv, *_main_outcome(argv), want=0, **kwargs)


def _cold(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports this package."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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

    # the file counterparts of rows of TestGrammar's table; TMP is the test's directory
    @pytest.mark.parametrize("command, text, expected", [
        # the front sweep prints the locus per unit time: t cancelled in it
        ("front", '{"t": 1.0}', "unknown configuration key 't'"),
        # the output path is the --output flag only
        ("table", '{"output": "TMP/x.csv"}', "unknown configuration key 'output'"),
        # json refuses an int of more than 4,300 digits and names no key: the file is named
        ("criterion", f'{{"gamma": {DIGITS_400}}}', f"gamma {_TOO_LARGE}"),
        ("criterion", f'{{"gamma": {DIGITS_5000}}}', ("cannot read config file ",)),
        ("table", f'{{"beta_grid": [1.2, {DIGITS_400}]}}', f"beta_grid entries {_TOO_LARGE}"),
        ("table", f'{{"beta_grid": [1.2, {DIGITS_5000}]}}', ("cannot read config file ",)),
        ("field", f'{{"xi_count": {DIGITS_400}}}', "xi_count must be at most 100000"),
        ("field", f'{{"xi_count": {DIGITS_5000}}}', ("cannot read config file ",)),
    ], ids=["t", "output", "scalar-400", "scalar-5000", "grid-entry-400", "grid-entry-5000",
            "count-400", "count-5000"])
    def test_config_file_rejected(self, tmp_path, command, text, expected):
        path = tmp_path / "run.json"
        path.write_text(text.replace("TMP", tmp_path.as_posix()))
        argv = [command, "--config", str(path)]
        assert_outcome(argv, *_main_outcome(argv), want=2, expected=expected)
        assert list(tmp_path.iterdir()) == [path]  # nothing written

    def test_null_beta_i_is_the_default(self):
        assert _stdout(["criterion", "--beta_i", "null"]) == _stdout(["criterion"])

    # one second valid value per RunConfig field; a key that moves no output is dead
    SECOND_VALUES = {
        "gamma": "1.5", "btilde": "0.1", "alpha_deg": "30", "epsilon": "0.2", "beta_i": "1.3",
        "rho0": "2", "p0": "2", "theta0": "0.5", "eta": "-2", "beta_deg": "80", "r": "2",
        "beta_grid": "[1.2, 1.5]", "btilde_grid": "[0.0, 0.1]", "xi_min": "0.01",
        "xi_count": "5", "theta_count": "5", "rprime_min": "-2", "rprime_max": "5",
        "rprime_count": "5", "thetaprime_min": "-2", "thetaprime_max": "2",
        "thetaprime_count": "5", "btilde_sweep_max": "0.5", "btilde_sweep_count": "5",
    }

    def test_every_key_changes_some_output(self):
        assert sorted(self.SECOND_VALUES) == sorted(RunConfig._fields)
        data_commands = ("criterion", "front", "inner", "field", "table")
        defaults = {command: _stdout([command]) for command in data_commands}
        dead = [key for key, value in self.SECOND_VALUES.items()
                if all(_stdout([command, f"--{key}", value]) == defaults[command]
                       for command in data_commands)]
        assert dead == []


class TestNonFiniteInput:
    @pytest.mark.parametrize("key", ["gamma", "alpha_deg", "beta_deg", "xi_count", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_scalar_key_rejects_non_finite(self, key, value):
        with pytest.raises(DomainError, match=key):
            parse_config(None, {key: value})

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


#: the strategy of each kind of value a flat object holds
FLAT_VALUES = (
    st.none(), st.booleans(),
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormal and zero, signed
    st.text(max_size=8),  # non-ASCII and control characters included
)
FLAT_KEYS, FLAT_SIZES = st.text(max_size=6), st.integers(1, 6)
FLAT_KINDS = st.sampled_from(FLAT_VALUES)


@st.composite
def flat_objects(draw):
    """30 objects of 1 to 6 entries, keys of at most 6 characters, values of FLAT_VALUES.

    Each object draws its size, then a key, a kind and a value per entry (a repeated
    key keeps its last value).  These flat draws take less than half the time of
    st.lists(st.dictionaries(keys, st.one_of(*FLAT_VALUES), ...)) over the same objects.
    """
    return [{draw(FLAT_KEYS): draw(draw(FLAT_KINDS)) for _ in range(draw(FLAT_SIZES))}
            for _ in range(30)]


class TestJsonText:
    # a non-empty flat object is written by json's C encoder, every other
    # payload by its indent=2 Python encoder; the bytes must not tell which.
    # 100 examples of 30 objects each take half the time of 3,000 examples
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(flat_objects())
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

    def test_criterion_report_is_flat(self):
        # the checker reads the report's keys
        with mock.patch("json.encoder._make_iterencode", side_effect=AssertionError("Python")):
            outcome = _main_outcome(["criterion"])
        assert_outcome(["criterion"], *outcome, want=0)


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


class TestWeakShockRoot:
    # x* is about 7.3e6 here, where an absolute 1e-10 is a tenth of an ulp:
    # the two root methods agree to a few ulps but used to exit 3
    WEAK = ["--gamma", "2", "--btilde", "0.9999999999999"]

    def test_criterion_exits_zero(self):
        report = json.loads(_stdout(["criterion", *self.WEAK, "--beta_i", "1.0000000000001"]))
        assert report["admissible"] is True
        assert report["x_star"] == pytest.approx(7295401.0, rel=1e-12)

    def test_table_exits_zero(self):
        argv = ["table", "--gamma", "2", "--btilde_grid", "[0.9999999999999]",
                "--beta_grid", "[1.0000000000001]"]
        assert _stdout(argv).split("\n")[1].startswith("1,1,true,7295400,")


class TestReferenceOverflow:
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
    def test_representable_sound_speed_kept(self, argv):
        out = _stdout(argv)
        if argv[0] == "field":  # a0 scales the coordinates, not the field
            assert out == _stdout(["field"])
            return
        # the locus coefficient scales with a0 and stays nonzero
        assert all(float(line.split(",")[2]) > 0.0 for line in out.splitlines()[1:])


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

    def test_exit_zero_with_finite_csv_or_two_with_nothing(self):
        rng = random.Random(53)
        codes = set()
        for i in range(1200):
            command = ("front", "inner")[i % 2]
            argv = [command]
            for key in rng.sample(self.KEYS[command], rng.randint(1, 3)):
                argv += [f"--{key}", repr(self.value(rng))]
            code, out, err = _main_outcome(argv)
            assert_outcome(argv, code, out, err, want=(0, 2))
            codes.add(code)
        assert codes == {0, 2}


def _edge_floats(valid, *edges):
    """Half from ``valid``, half NaN, +-Inf, +-1e308, subnormals or an edge +- k ulps."""
    specials = st.sampled_from(
        (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 1e-310, 0.0, -0.0))
    near = st.tuples(st.sampled_from(edges), st.sampled_from((-4, -2, -1, 0, 1, 2, 4))).map(
        lambda ek: ek[0] + ek[1] * math.ulp(ek[0]))
    return st.one_of(valid, st.one_of(specials, near))


def _with_overrides(argv, over):
    """argv followed by one --key value pair per entry of ``over``."""
    for key, value in over.items():
        argv += [f"--{key}", json.dumps(value)]  # NaN and Infinity as JSON spells them
    return argv


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
        argv = _with_overrides(
            ["field", "--xi_count", str(xi_count), "--theta_count", str(theta_count)], over)
        out = assert_outcome(argv, *_main_outcome(argv), want=(0, 2))
        # the closed form or the near-front asymptote (nothing is read from an exit 2)
        tags = {line.rsplit(",", 1)[-1] for line in out.splitlines()[1:]}
        assert tags <= {"51", "52"}, argv


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
        argv = _with_overrides(
            ["front"] if count is None else ["front", "--btilde_sweep_count", str(count)], over)
        out = assert_outcome(argv, *_main_outcome(argv), want=(0, 2))
        assert all(float(line.split(",")[2]) > 0.0 for line in out.splitlines()[1:]), argv


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
        argv = _with_overrides(["inner", "--rprime_count", str(rprime_count),
                                "--thetaprime_count", str(thetaprime_count)], over)
        out = assert_outcome(argv, *_main_outcome(argv), want=(0, 2))
        for line in out.splitlines()[1:]:
            # S_D and U_diffracted are blank where the labels define no diffracted shock
            *_, u_ref, u_dif = line.split(",")
            assert u_ref in ("1", "2"), (argv, line)
            assert u_dif == "" or 1.0 <= float(u_dif) <= 1.5, (argv, line)


class TestThresholdOverflow:
    def test_huge_gamma_never_escapes(self):
        rng = random.Random(41)
        codes = set()
        for _ in range(2000):
            gamma = 10.0 ** rng.uniform(-9.0, 308.0) + 1.0
            btilde = rng.choice([0.0, rng.uniform(0.0, 0.999)])
            upper = (gamma + 1.0) / (gamma - 1.0 + 2.0 * btilde)
            beta = rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12, upper, rng.uniform(1.0, upper)])
            argv = ["criterion", "--gamma", repr(gamma), "--btilde", repr(btilde),
                    "--beta_i", repr(beta)]
            code, out, err = _main_outcome(argv)
            assert_outcome(argv, code, out, err)
            codes.add(code)
        assert codes == {0, 2}


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


@st.composite
def _log_spread_case(draw):
    """gamma, one or two btildes and one to three ratios, each spread over its decades."""
    gamma = 1.0 + 10.0 ** draw(st.floats(-15.0, 300.0))
    btilde = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                       st.floats(1.0, 15.0).map(lambda k: 1.0 - 10.0 ** -k))
    btildes = draw(st.lists(btilde, min_size=1, max_size=2))
    top = beta_upper(gamma, btildes[0])
    # from just above 1 (a weak shock) to just below the first column's band top
    beta = st.floats(0.0, 16.0).flatmap(lambda k: st.sampled_from(
        (1.0 + (top - 1.0) * 10.0 ** -k, top - (top - 1.0) * 10.0 ** -k)))
    return gamma, btildes, draw(st.lists(beta, min_size=1, max_size=3))


def _criterion_argv(gamma, btilde, beta):
    return ["criterion", "--gamma", repr(gamma), "--btilde", repr(btilde), "--beta_i", repr(beta)]


#: ids of the three threshold corners below: a weak shock at gamma near 1 and at a huge
#: gamma, and the band's top at gamma near 1 in a nearly filled covolume
THRESHOLD_CORNERS = ["weak-shock-gamma-near-one", "weak-shock-huge-gamma",
                     "band-top-gamma-near-one"]


def radicand_coefficients(gamma, btilde, beta):
    """[k3, k2, k1, k0] of the radicand F(beta_i, t) as a cubic in t, at mpmath's precision.

    F(beta_i, t) = t*(1 + b^2 t)^2*(1 - bt*b)^2 - (b - 1)*(1 + b*t)*a*(gc*b*t + g + 1)
    with a = (g + 1 - 2*bt)*b - (g - 1) and gc = g - 1 + 2*bt*b; it vanishes at
    criterion's threshold J.  The float inputs are exact in mpmath.
    """
    g, bt, b = map(mpmath.mpf, (gamma, btilde, beta))
    c = (1 - bt * b) ** 2
    gc = g - 1 + 2 * bt * b
    e = (b - 1) * ((g + 1 - 2 * bt) * b - (g - 1))
    return [c * b ** 4, 2 * c * b ** 2 - e * gc * b ** 2, c - e * b * (gc + g + 1), -e * (g + 1)]


def radicand_root(gamma, btilde, beta):
    """The positive zero t of the radicand F(beta_i, t), from 50-digit polynomial roots."""
    with mpmath.workdps(50):
        coefficients = radicand_coefficients(gamma, btilde, beta)
        roots = mpmath.polyroots(coefficients, maxsteps=200, extraprec=400)
        positive = [r.real for r in roots if r.real > 0 and abs(r.imag) <= 1e-40 * abs(r)]
        assert len(positive) == 1, roots
        return float(positive[0])


class TestThresholdFuzz:
    # criterion and table through the CLI at the edges of the admissible band and
    # across it; a validated argv exits 0 or 2, never 3.  Two corners used to exit
    # 3, when a cell the root certificate refused went through a second root
    # method only to compare the two: a weak shock, |beta_i - 1| <= 2e-12, at
    # gamma >= 1e13; and a ratio within 2e-12 (relative) of the band's top at
    # gamma - 1 <= 1e-10
    WEAK_AT_HUGE_GAMMA = (5.364343657287806e+28, 0.24608679063336764, 1.000000000001)
    TOP_AT_GAMMA_NEAR_ONE = (1.0000000000193363, 0.8294858999305427, 1.205566001884719)
    WEAK_AT_GAMMA_NEAR_ONE = (1.000000000017722, 0.015021567104003642, 1.0000000000000016)

    @staticmethod
    def run(argv):
        """Exit code of argv, which must be 0 or 2."""
        code, out, err = _main_outcome(argv)
        assert_outcome(argv, code, out, err, want=(0, 2))
        return code

    @staticmethod
    def criterion(case):
        """The criterion command's report of one (gamma, btilde, beta_i) case."""
        argv = _criterion_argv(*case)
        code, out, err = _main_outcome(argv)
        return json.loads(assert_outcome(argv, code, out, err, want=0))

    @given(case=_band_edge_case(1))
    @example(case=(WEAK_AT_HUGE_GAMMA[0], WEAK_AT_HUGE_GAMMA[1], [WEAK_AT_HUGE_GAMMA[2]]))
    @example(case=(TOP_AT_GAMMA_NEAR_ONE[0], TOP_AT_GAMMA_NEAR_ONE[1],
                   [TOP_AT_GAMMA_NEAR_ONE[2]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_criterion_exit_zero_with_strict_json_or_two_with_nothing(self, case):
        gamma, btilde, (beta,) = case
        self.run(_criterion_argv(gamma, btilde, beta))

    @given(case=_band_edge_case(3), btildes=st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=0, max_size=1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_table_exit_zero_with_every_row_or_two_with_nothing(self, case, btildes):
        gamma, btilde, betas = case
        self.run(["table", "--gamma", repr(gamma), "--btilde_grid", json.dumps([btilde, *btildes]),
                  "--beta_grid", json.dumps(betas)])

    @given(command=st.sampled_from(["criterion", "table"]), case=_log_spread_case())
    @example(command="table", case=(WEAK_AT_HUGE_GAMMA[0], [0.5, WEAK_AT_HUGE_GAMMA[1]],
                                    [1.5, WEAK_AT_HUGE_GAMMA[2]]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_no_validated_argv_exits_3(self, command, case):
        gamma, btildes, betas = case
        if command == "criterion":
            argv = _criterion_argv(gamma, btildes[0], betas[0])
        else:
            argv = ["table", "--gamma", repr(gamma), "--btilde_grid", json.dumps(btildes),
                    "--beta_grid", json.dumps(betas)]
        self.run(argv)

    @pytest.mark.parametrize("case", [WEAK_AT_HUGE_GAMMA, TOP_AT_GAMMA_NEAR_ONE],
                             ids=["weak-shock-huge-gamma", "band-top-gamma-near-one"])
    def test_envelope_corner_exits_zero_or_two(self, case):
        assert self.run(_criterion_argv(*case)) in (0, 2)

    @pytest.mark.parametrize("case", [WEAK_AT_GAMMA_NEAR_ONE, WEAK_AT_HUGE_GAMMA,
                                      TOP_AT_GAMMA_NEAR_ONE], ids=THRESHOLD_CORNERS)
    def test_printed_root_is_the_largest_exact_root(self, case):
        report = self.criterion(case)
        cubic = [report[f] for f in ("h0", "h1", "h2", "h3")]
        assert is_the_largest_root_within_ulps(cubic, report["x_star"], 4), report

    @pytest.mark.parametrize("case", [
        pytest.param(WEAK_AT_GAMMA_NEAR_ONE, marks=pytest.mark.xfail(strict=True, reason=(
            "J = (x* - 1)/beta_i cancels at x* = 1 + 6e-15: the root's rounding is 5% of J"))),
        pytest.param(WEAK_AT_HUGE_GAMMA, marks=pytest.mark.xfail(strict=True, reason=(
            "a_coef = (g + 1 - 2*btilde)*beta_i - (g - 1) cancels at gamma 5e28: J is "
            "1.6e-5 off"))),
        pytest.param(TOP_AT_GAMMA_NEAR_ONE, marks=pytest.mark.xfail(strict=True, reason=(
            "1 - btilde*beta_i cancels at a covolume fraction 1 - 1e-12, and the product "
            "btilde*beta_i is rounded: J is 9.7e-5 off"))),
    ], ids=THRESHOLD_CORNERS)
    def test_threshold_is_within_1e_9_of_the_50_digit_root(self, case):
        j = self.criterion(case)["J"]
        assert abs(j - radicand_root(*case)) <= 1e-9 * j

    @staticmethod
    def ulps_from_the_50_digit_root(case, j):
        """|J - t|/ulp(J), t the zero of F(beta_i, .) that Newton reaches from J at 50 digits."""
        with mpmath.workdps(50):
            k3, k2, k1, k0 = radicand_coefficients(*case)
            t = mpmath.mpf(j)
            for _ in range(4):  # from J, a few ulps off, two steps reach 50 digits
                step = (((k3 * t + k2) * t + k1) * t + k0) / ((3 * k3 * t + 2 * k2) * t + k1)
                t -= step
            assert abs(step) <= mpmath.mpf(10) ** -40 * t, case
            return float(abs(t - j) / math.ulp(j))

    def test_printed_threshold_is_within_ulps_of_the_50_digit_root_on_shipped_cells(self):
        # the 101 admissible default-table cells, and a fixed sample of the cells of the
        # threshold_table seeds 0-2 (about 1,030 of them admissible); bounds in ulps of J.
        # The library's report holds the float that the command prints with repr
        default = RunConfig()
        cells = [(8, (default.gamma, bt, beta))
                 for beta in default.beta_grid for bt in default.btilde_grid]
        seeded = []
        for seed in range(3):
            for invocation in workloads.generate("threshold_table", seed):
                grid = dict(zip(invocation.argv[1::2], invocation.argv[2::2]))
                seeded += [(float(grid["--gamma"]), bt, beta)
                           for beta in json.loads(grid["--beta_grid"])
                           for bt in json.loads(grid["--btilde_grid"])]
        cells += [(None, case) for case in random.Random(0).sample(seeded, 1050)]
        admissible, misses = 0, []
        for bound, (gamma, btilde, beta) in cells:
            report = vdwshock.criterion(beta, vdwshock.GasModel(gamma, btilde))
            if not report.admissible:
                continue
            admissible += 1
            if bound is None:
                # 16 where x* >= 2 (13.7 measured on all 142,067 admissible cells of seeds
                # 0-2); 32 where x* < 2 (28.8), as J = (x* - 1)/beta_i cancels there
                bound = 16 if report.x_star >= 2.0 else 32
            # the default cells: 8 (3.6 measured)
            ulps = self.ulps_from_the_50_digit_root((gamma, btilde, beta), report.J)
            if not ulps <= bound:
                misses.append(((gamma, btilde, beta), report.x_star, ulps, bound))
        assert admissible > 1100 and misses == []


class TestParserAndImports:
    def test_import_does_not_run_the_gate(self):
        # cli registers vdwshock.checks (the benchmark's tracer looks it up in
        # sys.modules) but its body runs only when the check command needs it
        out = _cold(
            "import sys, vdwshock.cli as cli\n"
            "print('dataclasses' in sys.modules)\n"
            "m = sys.modules['vdwshock.checks']\n"
            "print('run_all_checks' in object.__getattribute__(m, '__dict__'))\n"
            "print(cli.checks.FAIL, 'run_all_checks' in vars(m), m is cli.checks)\n"
            "import vdwshock.checks\n"
            "print(vdwshock.checks is m)\n"
        )
        assert out.split("\n") == ["False", "False", "fail True True", "True", ""]

    def test_every_record_is_a_named_tuple(self):
        records = [obj for obj in (getattr(vdwshock, name) for name in vdwshock.__all__)
                   if isinstance(obj, type) and not issubclass(obj, Exception)]
        records += [RunConfig, cli.checks.CheckResult]
        # the record classes of the verbatim public surface (CamelCase, not errors), plus two
        named = [name for module, group in PUBLIC.items() if module != "errors"
                 for name in group.split() if name[0].isupper() and "_" not in name]
        assert sorted(r.__name__ for r in records) == sorted(named + ["RunConfig", "CheckResult"])
        assert all(issubclass(r, tuple) and r._fields for r in records), records
        assert not hasattr(vdwshock, "WedgeConfig")

    def test_no_command_line_imports_argparse(self):
        # cli._read reads every command line: a plain one, the help and a malformed one
        out = _cold(
            "import io, sys, contextlib, vdwshock.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in (['front'], ['--help'], ['front', '--'])]\n"
            "print(codes, 'argparse' in sys.modules)\n"
        )
        assert out == "[0, 0, 2] False\n"

    RUNS = {  # the modules whose body each command runs, beside cli, config, errors,
              # geometry, reports and thermo; a data command other than criterion runs its
              # own renderer module reports.<command>, and only table and check the fixture
        "criterion": "regular_reflection shock_relations",
        "table": "regular_reflection reports.table shock_relations table_fixture",
        "field": "linear_acoustics reports.field",
        "front": "linear_acoustics nonlinear_front reports.front",
        "inner": "inner_singular linear_acoustics reports.inner",
        "check": "checks inner_singular linear_acoustics nonlinear_front regular_reflection "
                 "reports.field reports.front reports.inner reports.table shock_relations "
                 "table_fixture",
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_runs_only_its_modules(self, command):
        # every module a command may run is registered on import; a registered module
        # whose body has not run has no __builtins__ yet
        out = _cold(
            "import io, sys, contextlib, vdwshock.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main([{command!r}])\n"
            "print(' '.join(sorted(name.removeprefix('vdwshock.')\n"
            "                      for name, m in sys.modules.items()\n"
            "                      if name.startswith('vdwshock.') and\n"
            "                      '__builtins__' in object.__getattribute__(m, '__dict__'))))\n"
        )
        always = "cli config errors geometry reports thermo".split()
        assert out.split() == sorted(always + self.RUNS[command].split())

    def test_reports_finds_each_renderer_in_its_module(self):
        # a bare import runs the shared formatting and config; each renderer module runs on
        # the first lookup of its name, which binds the name in the package
        out = _cold(
            "import sys, vdwshock.reports as reports\n"
            "def ran():\n"
            "    return ' '.join(sorted(name.removeprefix('vdwshock.') for name in sys.modules\n"
            "                           if name.startswith('vdwshock.')))\n"
            "print(ran())\n"
            "for command in ('table', 'field', 'front', 'inner'):\n"
            "    name = f'render_{command}'\n"
            "    bound = name in vars(reports)\n"
            "    home = getattr(reports, name).__module__\n"
            "    print(command, bound, home, getattr(reports, name) is\n"
            "          getattr(sys.modules[home], name), name in vars(reports))\n"
            "from vdwshock.reports import render_table\n"
            "print(render_table is sys.modules['vdwshock.reports.table'].render_table)\n"
            "try:\n"
            "    reports.render_check\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert out.split("\n") == [
            "config errors reports thermo",
            *(f"{c} False vdwshock.reports.{c} True True" for c in ("table", "field", "front",
                                                                      "inner")),
            "True",
            "module 'vdwshock.reports' has no attribute 'render_check'",
            "",
        ]

    def test_main_usable_after_errors(self):
        # a rejected command line leaves cli.main usable for the next call
        for bad in ("plot", "render_inner"):
            assert_outcome([bad], *_main_outcome([bad]), want=2,
                           expected=_NOT_A_COMMAND + repr(bad))
        assert json.loads(_stdout(["criterion", "--beta_i", "1.2"]))["beta_i"] == 1.2


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
_REFERENCE = "reference constants a0, kappa0 leave the float range at "
_C0 = "c0 must be a finite normal float, got "
_INNER_GRID = "inner grid leaves the float range at theta_prime="
_CUBIC = "threshold cubic overflows a float at "
_FULL_COVOLUME = ("covolume fraction btilde*beta_i of state 1 reaches 1 at "
                  "gamma=1.0000000000098845, btilde=0.999999999999, beta_i=1.000000000001")
_FULL = ["--gamma", "1.0000000000098845", "--btilde", "0.999999999999"]
_HUGE_GAMMA = ["--gamma", "2.6168464956334917e+41"]


class TestGrammar:
    """Command lines and their outcomes: the grammar, and the values it carries."""

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
        # a tiny alpha whose radians do not underflow
        (["field", "--alpha_deg", "1e-310", "--xi_count", "3", "--theta_count", "3"], 0,
         "xi_over_kappa0,"),
        # S_R + sonic_R overflows here although each is finite
        (["inner", "--gamma", "1.7976931348623157e+308"], 0,
         "theta_prime,r_prime,S_R,S_D,sonic_S,sonic_R,U_reflected,U_diffracted\n-3,-3,"
         "1.34826985115e+308,1.01120238836e+308,8.98846567431e+307,1.79769313486e+308,"),
        # a ratio that no column admits: the threshold terms of its row, whose square
        # overflows, must not be formed
        (["table", "--beta_grid", "[1e300]", "--btilde_grid", "[0.1]"], 0,
         "beta_i,btilde,admissible,J,phi_star_deg,fixture_J,abs_diff\n1e+300,0.1,false,,,,\n"),
        # exit 2, a malformed line: the message of the one JSON error object
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
        # json's RecursionError and its int-digits limit escaped as tracebacks (exit 1)
        (["table", "--beta_grid", "[" * 100_000], 2, ("cannot read the value of --beta_grid: ",)),
        (["table", "--beta-grid=" + "[" * 100_000], 2,
         ("cannot read the value of --beta-grid: ",)),
        (["criterion", "--gamma", DIGITS_5000], 2, ("cannot read the value of --gamma: ",)),
        (["table", "--beta_grid", f"[1.2, {DIGITS_5000}]"], 2,
         ("cannot read the value of --beta_grid: ",)),
        (["field", "--xi_count", DIGITS_5000], 2, ("cannot read the value of --xi_count: ",)),
        # exit 2, a value out of its domain
        (["front", "--t", "1"], 2, "unknown configuration key 't'"),
        (["criterion", "--btilde", "1.2"], 2, "btilde must be below 1, got 1.2"),
        (["field", "--alpha_deg", "90"], 2, "alpha_deg must lie in (0, 90), got 90.0"),
        (["front", "--beta_deg", "20"], 2,
         "front command needs beta_deg > alpha_deg (shock side of the sonic ray)"),
        # these printed NaN as JSON, emitted inf cells, blamed an unrelated region gap, or
        # blanked the S_D column; a non-numeric grid entry escaped as a traceback
        (["criterion", "--beta_i", "NaN"], 2, "beta_i must be finite, got nan"),
        (["criterion", "--epsilon", "NaN"], 2, "epsilon must be finite, got nan"),
        (["front", "--epsilon", "Infinity"], 2, "epsilon must be finite, got inf"),
        (["field", "--rho0", "NaN"], 2, "rho0 must be finite, got nan"),
        (["inner", "--eta", "NaN"], 2, "eta must be finite, got nan"),
        (["table", "--beta_grid", '["a"]'], 2, "beta_grid must be a non-empty array of numbers"),
        (["table", "--beta_grid", "[1.2, true]"], 2,
         "beta_grid must be a non-empty array of numbers"),
        (["table", "--beta_grid", "[null]"], 2, "beta_grid must be a non-empty array of numbers"),
        # float() of an int beyond the float range raised OverflowError (exit 1)
        (["criterion", "--gamma", DIGITS_400], 2, f"gamma {_TOO_LARGE}"),
        (["table", "--beta_grid", f"[1.2, {DIGITS_400}]"], 2, f"beta_grid entries {_TOO_LARGE}"),
        (["field", "--xi_count", DIGITS_400], 2, "xi_count must be at most 100000"),
        # math.radians(5e-324) is 0.0: the field ended in a ZeroDivisionError (exit 1)
        (["field", "--alpha_deg", "5e-324"], 2,
         "alpha_deg is too small: 5e-324 degrees is 0 radians"),
        # exit 0 with inf in the locus and strength columns
        (["front", "--epsilon", "1e308"], 2,
         "front quantities overflow at btilde=0.0 for gamma=1.4, epsilon=1e+308 (r=1.0)"),
        # (gamma + 1)**2 in shock_locus raised OverflowError (exit 1)
        (["front", "--gamma", "1e200", "--r", "1.7976931348623157e+308"], 2,
         "front quantities overflow at btilde=0.0 for gamma=1e+200, epsilon=0.1 "
         "(r=1.7976931348623157e+308)"),
        # kappa0 = (1 - btilde)**(-(gamma+1)/2) overflowed: an OverflowError traceback (exit 1)
        (["front", "--gamma", "1e16"], 2,
         _REFERENCE + "gamma=1e+16, btilde=0.049999999999999996, rho0=1.0, p0=1.0"),
        (["inner", "--gamma", "1e16", "--btilde", "0.5"], 2,
         _REFERENCE + "gamma=1e+16, btilde=0.5, rho0=1.0, p0=1.0"),
        (["field", "--gamma", "1e16", "--btilde", "0.5"], 2,
         _REFERENCE + "gamma=1e+16, btilde=0.5, rho0=1.0, p0=1.0"),
        # a0 = sqrt(gamma*p0/(rho0*(1-btilde))) itself exceeds the float range
        (["field", "--rho0", "5e-324", "--p0", "1e300"], 2,
         _REFERENCE + "gamma=1.4, btilde=0.0, rho0=5e-324, p0=1e+300"),
        (["front", "--rho0", "5e-324", "--p0", "1.7976931348623157e308"], 2,
         _REFERENCE + "gamma=1.4, btilde=0.0, rho0=5e-324, p0=1.7976931348623157e+308"),
        (["field", "--rho0", "1e-300", "--p0", "1e300", "--gamma", "1e300"], 2,
         _REFERENCE + "gamma=1e+300, btilde=0.0, rho0=1e-300, p0=1e+300"),
        # a0 ~ 2e-316 is kept, but the field's coordinates would lose their digits dividing
        # by a subnormal c0; in the second c0 = a0/kappa0 underflows to 0 (ZeroDivisionError)
        (["field", "--rho0", "1.7976931348623157e308", "--p0", "5e-324"], 2,
         _C0 + "1.9615463e-316 at rho0=1.7976931348623157e+308, p0=5e-324 "
         "(a0=1.9615463e-316, kappa0=1.0)"),
        (["field", "--rho0", "1e300", "--p0", "1e-300", "--gamma", "50", "--btilde", "0.9"], 2,
         _C0 + "0.0 at rho0=1e+300, p0=1e-300 (a0=2.2360679774997903e-299, "
         "kappa0=3.162277660168397e+25)"),
        # the inner grid: the first three exited 0 with inf or nan in the CSV, the fourth
        # exited 1 (theta'^2 underflows to 0 while theta' != 0)
        (["inner", "--thetaprime_min", "1e300"], 2,
         _INNER_GRID + "1e+300 (gamma=1.4, btilde=0.0, theta0=0.0, thetaprime_min=1e+300, "
         "thetaprime_max=3.0)"),
        (["inner", "--thetaprime_max", "1e200"], 2,
         _INNER_GRID + "8.333333333333333e+198 (gamma=1.4, btilde=0.0, theta0=0.0, "
         "thetaprime_min=-3.0, thetaprime_max=1e+200)"),
        (["inner", "--rprime_min", "-1e308", "--rprime_max", "1e308"], 2,
         "r' grid overflows: rprime_min=-1e+308, rprime_max=1e+308"),
        (["inner", "--thetaprime_min", "1e-310"], 2,
         _INNER_GRID + "1e-310 (gamma=1.4, btilde=0.0, theta0=0.0, thetaprime_min=1e-310, "
         "thetaprime_max=3.0)"),
        (["inner", "--theta0", "1e300"], 2,
         _INNER_GRID + "-3.0 (gamma=1.4, btilde=0.0, theta0=1e+300, thetaprime_min=-3.0, "
         "thetaprime_max=3.0)"),
        (["inner", "--gamma", "100", "--btilde", "0.999999"], 2,
         _INNER_GRID + "-3.0 (gamma=100.0, btilde=0.999999, theta0=0.0, thetaprime_min=-3.0, "
         "thetaprime_max=3.0)"),
        # the theta' grid's step overflows, so its first angle is NaN: this blamed the
        # reflected shock locus, naming neither key
        (["inner", "--thetaprime_min", "-1e308", "--thetaprime_max", "1e308"], 2,
         "theta' grid overflows: thetaprime_min=-1e+308, thetaprime_max=1e+308"),
        (["inner", "--thetaprime_min", "1e308", "--thetaprime_max", "-1e308"], 2,
         "theta' grid overflows: thetaprime_min=1e+308, thetaprime_max=-1e+308"),
        # the cubic's coefficients (2*b2**3) or its closed-form root (m**3) overflow a float
        # at huge gamma: both ended in a traceback; the last exited 3 (h2 = m = n = -inf)
        (["criterion", *_HUGE_GAMMA, "--beta_i", "0.999999999999"], 2,
         _CUBIC + "gamma=2.6168464956334917e+41, beta_i=0.999999999999"),
        (["table", *_HUGE_GAMMA, "--beta_grid", "[0.999999999999]"], 2,
         _CUBIC + "gamma=2.6168464956334917e+41, beta_i=0.999999999999"),
        (["criterion", "--gamma", "1.8e289", "--beta_i", "1.000000000001"], 2,
         _CUBIC + "gamma=1.8e+289, beta_i=1.000000000001"),
        # btilde*beta_i rounds to 1, so the cubic's leading coefficient h3 is 0
        (["criterion", *_FULL, "--beta_i", "1.000000000001"], 2, _FULL_COVOLUME),
        (["table", "--gamma", "1.0000000000098845", "--btilde_grid", "[0.999999999999]",
          "--beta_grid", "[1.000000000001]"], 2, _FULL_COVOLUME),
    ])
    def test_command_line(self, argv, code, expected):
        assert_outcome(argv, *_main_outcome(argv), want=code, expected=expected)

    # check runs the whole gate, so it is left out
    @given(_argvs([c for c in COMMANDS if c != "check"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_main_never_raises(self, argv):
        assert_outcome(argv, *_main_outcome(argv))


class TestExitCodes:
    def test_module_entry_point(self):
        # python -m vdwshock.cli: the gate's failing entries exit 3, a validation error 2
        for argv, code, expected in [(["check"], 3, None),
                                     (["criterion", "--btilde", "1.2"], 2,
                                      "btilde must be below 1, got 1.2")]:
            proc = run_cli(*argv)
            assert_outcome(argv, proc.returncode, proc.stdout, proc.stderr, want=code,
                           expected=expected)


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_data_command_validates_its_gas_once(count_calls, command):
    counts = count_calls(["validate_gas"])
    code, out, err = _main_outcome([command])
    # once, in parse_config, which checks every btilde column of a table; each renderer
    # then calls the unchecked kernels
    assert counts == {"validate_gas": 1}
    assert_outcome([command], code, out, err, want=0)  # which parses the config again


class TestDeterminism:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_byte_identical_reruns(self, command):
        first = run_cli(command)
        second = run_cli(command)
        assert first.stdout == second.stdout
        assert first.stdout != ""

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "table.csv"
        _stdout(["table", "--output", str(out)])  # nothing on stdout
        assert out.read_text() == _stdout(["table"])

    @pytest.mark.parametrize("command", ["criterion", "check"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_exits_two(self, tmp_path, command, target):
        # check runs the gate before it writes
        out = tmp_path / "no" / "x.json" if target == "missing_dir" else tmp_path
        argv = [command, "--output", str(out)]
        message = assert_outcome(argv, *_main_outcome(argv), want=2)
        assert message.startswith(f"cannot write output file {out}: ")


class TestCriterionCommand:
    def test_json_shape(self):
        payload = json.loads(_stdout(["criterion", "--beta_i", "1.2"]))
        assert payload["beta_i"] == 1.2
        assert payload["admissible"] is True
        assert payload["J"] == pytest.approx(0.6420686534161867, rel=1e-12)
        assert payload["phi_star_deg"] == pytest.approx(
            math.degrees(math.atan(math.sqrt(payload["J"]))), rel=1e-12
        )

    def test_inadmissible_reported_not_failed(self):
        payload = json.loads(_stdout(["criterion", "--beta_i", "3.0", "--btilde", "0.5"]))
        assert payload["admissible"] is False
        assert payload["J"] is None
        assert all(payload[key] is None for key in ("h0", "h1", "h2", "h3", "m", "n"))


class TestTableCommand:
    def test_blank_pattern(self):
        for line in _stdout(["table"]).splitlines()[1:]:
            beta_s, bt_s, admissible, j, _, fixture, _ = line.split(",")
            blank = fixture_value(float(beta_s), float(bt_s)) is None
            assert (j == "") == blank
            assert (fixture == "") == blank
            assert admissible == ("false" if blank else "true")

    def test_gamma_sweep_accepted(self):
        _stdout(["table", "--gamma", "1.3", "--beta_grid", "[1.2,2.4]"])


class TestFieldCommand:
    def test_center_value(self):
        rows = [line.split(",") for line in
                _stdout(["field", "--xi_count", "3", "--theta_count", "5"]).splitlines()[1:]]
        center = [r for r in rows if float(r[0]) == 1e-6]
        assert center
        for r in center:
            assert float(r[3]) == pytest.approx(4.0 / 3.0, abs=1e-4)
            assert r[2] == "OmegaTilde"
            assert r[4] == "51"

    def test_arc_rows_tagged(self):
        rows = [line.split(",") for line in
                _stdout(["field", "--xi_count", "2", "--theta_count", "3"]).splitlines()[1:]]
        arc = [r for r in rows if float(r[0]) == 1.0]
        assert arc
        assert {float(r[3]) for r in arc} <= {1.0, 2.0}


class TestFrontCommand:
    def test_trends(self):
        rows = [[float(v) for v in line.split(",")] for line in _stdout(["front"]).splitlines()[1:]]
        jumps = [r[1] for r in rows]
        loci = [r[2] for r in rows]
        strengths = [r[3] for r in rows]
        assert all(b < a for a, b in zip(jumps, jumps[1:]))
        assert all(b > a for a, b in zip(loci, loci[1:]))
        assert all(b > a for a, b in zip(strengths, strengths[1:]))


class TestInnerCommand:
    def test_piecewise_values(self):
        for r in [line.split(",") for line in _stdout(["inner"]).splitlines()[1:]]:
            assert r[4] == "1.2" and r[5] == "2.4"
            assert float(r[6]) in (1.0, 2.0)
            if r[7] != "":
                assert 1.0 <= float(r[7]) <= 1.5


class TestCheckCommand:
    def test_report_shape(self):
        code, out, err = _main_outcome(["check"])
        payload = json.loads(assert_outcome(["check"], code, out, err, want=3))
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
        statuses = {c["name"]: c["status"] for c in payload["checks"]}
        assert statuses["table_fixture_comparison"] == "discrepancy-documented"
        for entry in payload["checks"]:
            assert set(entry) == {"name", "status", "residual", "tolerance", "note"}
        counts = payload["counts"]
        assert counts["pass"] + counts["fail"] + counts["discrepancy-documented"] == len(names)
