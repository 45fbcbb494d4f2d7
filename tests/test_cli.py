"""Command-line interface: arguments, formats, schemas, exit codes."""

import csv
import dataclasses
import io
import json
import subprocess
import sys
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from eigensieve import cli, experiments, problems
from eigensieve.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from eigensieve.problems import canuto_hyperbolic
from eigensieve.quality import quality_report


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = files("eigensieve").joinpath("schemas", name)
    return json.loads(path.read_text())


class TestAnalyze:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--problem", "canuto", "--n", "8")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "rank,re_lambda,im_lambda,s_norm,theta,zero_mode"
        assert len(lines) == 1 + 14  # r = 2n - 2 modes
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[5] in ("true", "false")

    def test_csv_floats_roundtrip_exactly(self, capsys):
        code, csv_out, _ = run_cli(capsys, "analyze", "--problem", "canuto", "--n", "8")
        code2, json_out, _ = run_cli(
            capsys, "analyze", "--problem", "canuto", "--n", "8", "--format", "json"
        )
        assert code == code2 == EXIT_OK
        rows = json.loads(json_out)["rows"]
        for line, row in zip(csv_out.strip().split("\n")[1:], rows):
            cells = line.split(",")
            assert float(cells[1]) == row["re_lambda"]
            assert float(cells[4]) == row["theta"]

    def test_generalized_problem_prints_a_derivative_score(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--problem", "orr-sommerfeld", "--n", "16"
        )
        assert code == EXIT_OK
        scores = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        assert len(scores) == 12 and all(0.0 <= score < np.inf for score in scores)

    def test_json_meta_echoes_configuration(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--problem", "heat", "--n", "12", "--k", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        meta = payload["meta"]
        assert meta["command"] == "analyze"
        assert meta["problem"] == "heat"
        assert meta["n"] == 12 and meta["k"] == 2
        assert meta["null_tol"] == 1e-10

    def test_json_matches_schema(self, capsys):
        _, out, _ = run_cli(
            capsys, "analyze", "--problem", "acoustic", "--n", "8", "--format", "json"
        )
        jsonschema.validate(json.loads(out), load_schema("analyze.schema.json"))

    def test_generalized_json_matches_schema(self, capsys):
        _, out, _ = run_cli(
            capsys, "analyze", "--problem", "orr-sommerfeld", "--n", "16", "--format", "json"
        )
        schema = load_schema("analyze.schema.json")
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        # every mode has a derivative score, so the schema admits no null
        payload["rows"][0]["s_norm"] = None
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "analyze", "--problem", "heat", "--n", "8", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("rank,")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "--problem", "canuto", "--n", "12")
        _, second, _ = run_cli(capsys, "analyze", "--problem", "canuto", "--n", "12")
        assert first == second


class TestSweepK:
    def test_summary_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-k", "--problem", "heat", "--n", "8", "--k-max", "25"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "k,r,proxy_real_error,max_abs_error,min_abs_error,max_abs_real"
        assert len(lines) == 1 + 3  # depth 4 leaves nothing, sweep stops
        assert [line.split(",")[1] for line in lines[1:]] == ["6", "4", "2"]

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-k", "--n", "8", "--k-max", "2", "--grid")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == (
            "k,rank,re_lambda,im_lambda,abs_error,rel_error,s_norm,theta,zero_mode"
        )
        assert len(lines) == 1 + 14 + 12

    def test_no_depth_prints_the_header_alone(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "compress_depths", lambda sys, k_max: iter(()))
        _, summary, _ = run_cli(capsys, "sweep-k", "--n", "8", "--k-max", "2")
        assert summary == "k,r,proxy_real_error,max_abs_error,min_abs_error,max_abs_real\n"
        _, grid, _ = run_cli(capsys, "sweep-k", "--n", "8", "--k-max", "2", "--grid")
        assert grid == "k,rank,re_lambda,im_lambda,abs_error,rel_error,s_norm,theta,zero_mode\n"
        _, json_out, _ = run_cli(capsys, "sweep-k", "--n", "8", "--k-max", "2", "--format", "json")
        assert json.loads(json_out)["rows"] == []

    def test_json_matches_schema_both_layouts(self, capsys):
        schema = load_schema("sweep_k.schema.json")
        _, out, _ = run_cli(
            capsys, "sweep-k", "--n", "8", "--k-max", "2", "--format", "json"
        )
        jsonschema.validate(json.loads(out), schema)
        _, out, _ = run_cli(
            capsys, "sweep-k", "--n", "8", "--k-max", "2", "--grid", "--format", "json"
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        payload["rows"][0]["s_norm"] = None
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)


class TestReduce:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--n", "32", "--ic", "sine", "--r-list", "2,6"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "r,size,rel_error,theta_r"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[0] == "6"

    def test_json_matches_schema_and_keeps_r_list(self, capsys):
        _, out, _ = run_cli(
            capsys, "reduce", "--n", "32", "--ic", "sine", "--r-list", "2,6",
            "--format", "json",
        )
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("reduce.schema.json"))
        assert payload["meta"]["r_list"] == [2, 6]
        assert payload["meta"]["ic"] == "sine"

    def test_every_mode_can_be_retained(self, capsys):
        # acoustic n=16 has 2n - 2 = 30 modes at k = 1
        code, out, _ = run_cli(capsys, "reduce", "--n", "16", "--ic", "sine", "--r-list", "2,30")
        assert code == EXIT_OK
        assert out.strip().split("\n")[-1].startswith("30,30,")


class TestProblems:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "problems")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "name,params"
        assert lines[1] == "heat,n"
        assert "orr-sommerfeld,n;alpha;reynolds" in lines

    def test_json_matches_schema(self, capsys):
        _, out, _ = run_cli(capsys, "problems", "--format", "json")
        jsonschema.validate(json.loads(out), load_schema("problems.schema.json"))


def _csv_cell(value):
    """The CSV cell of a JSON value, by the writer's rule for its type."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


TABLE_COMMANDS = pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--problem", "canuto", "--n", "8"),
        ("analyze", "--problem", "orr-sommerfeld", "--n", "16"),
        ("sweep-k", "--n", "8", "--k-max", "3"),
        ("sweep-k", "--n", "8", "--k-max", "3", "--grid"),
        ("reduce", "--n", "16", "--ic", "bump", "--r-list", "6,2,30,2"),
        ("problems",),
    ],
    ids=["analyze-canuto", "analyze-orr-sommerfeld", "sweep-k", "sweep-k-grid", "reduce",
         "problems"],
)


@TABLE_COMMANDS
def test_csv_and_json_hold_the_same_cells(capsys, args):
    code, csv_out, _ = run_cli(capsys, *args)
    code2, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == code2 == EXIT_OK
    header, *lines = csv.reader(io.StringIO(csv_out))
    rows = json.loads(json_out)["rows"]
    assert rows and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert list(row) == header
        assert line == [_csv_cell(value) for value in row.values()]


@TABLE_COMMANDS
def test_csv_bytes_are_the_csv_module_rendering(capsys, args):
    # the one % template path writes what the csv module would, quoting
    # included: the same header and cells through csv.writer
    code, csv_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(json_out)["rows"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_csv_cell(value) for value in row.values()] for row in rows)
    assert csv_out == buffer.getvalue()


def test_registered_names_need_no_csv_quoting():
    # the CSV writer quotes nothing, so no cell of ``problems`` may hold
    # a character that CSV would quote
    for prob in problems.REGISTRY.values():
        for text in (prob.name, *prob.params):
            assert text and not set(text) & set(',"\r\n'), text


META_KEYS = [
    "command", "problem", "n", "k", "k_max", "alpha", "reynolds", "null_tol",
    "ic", "r_list", "t_end", "grid", "format", "out",
]
# every meta value a subcommand echoes when the option is not given
META_UNSET = {
    "problem": None, "n": None, "k": 1, "k_max": None, "alpha": 1.0,
    "reynolds": 10000.0, "null_tol": 1e-10,
    "ic": None, "r_list": None, "t_end": 1.0, "grid": False, "out": None,
}


@pytest.mark.parametrize(
    "args, given",
    [
        (("analyze", "--problem", "heat", "--n", "8"), {"problem": "heat", "n": 8}),
        (("sweep-k", "--n", "8", "--k-max", "2"), {"problem": "canuto", "n": 8, "k_max": 2}),
        (
            ("reduce", "--n", "16", "--ic", "sine", "--r-list", "2,4"),
            {"problem": "acoustic", "n": 16, "ic": "sine", "r_list": [2, 4]},
        ),
        (("problems",), {}),
    ],
)
def test_json_meta_keys_order_and_echoed_defaults(capsys, args, given):
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_OK
    meta = json.loads(out)["meta"]
    assert list(meta) == META_KEYS
    assert meta == {**META_UNSET, "command": args[0], "format": "json", **given}


# one valid command line of each analysis subcommand
SUBCOMMANDS = [
    ("sweep-k", "--n", "8", "--k-max", "2"),
    ("reduce", "--n", "16", "--ic", "sine", "--r-list", "2"),
    ("analyze", "--problem", "heat", "--n", "8"),
]


class TestExitCodes:
    def test_usage_error_unknown_problem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--problem", "laplace", "--n", "8"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_usage_error_bad_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--problem", "heat", "--n", "-4"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_usage_error_bad_r_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--n", "16", "--ic", "sine", "--r-list", "2,zero"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args", SUBCOMMANDS)
    def test_usage_error_theta_threshold_on_every_subcommand(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--theta-threshold", "0.1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args", SUBCOMMANDS)
    def test_usage_error_zero_floor_on_every_subcommand(self, capsys, args):
        # the zero-mode floor is a fixed multiple of rounding, not an option
        with pytest.raises(SystemExit) as exc:
            main([*args, "--zero-floor", "1e-12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --zero-floor" in capsys.readouterr().err

    @pytest.mark.parametrize("args", SUBCOMMANDS)
    def test_usage_error_null_tol_on_every_subcommand(self, capsys, args):
        # every depth cuts its rank at DEFAULT_NULL_TOL, not at an option
        with pytest.raises(SystemExit) as exc:
            main([*args, "--null-tol", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --null-tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (("reduce", "--problem", "heat", "--n", "16", "--ic", "sine", "--r-list", "2"),
             "invalid choice"),
            (("sweep-k", "--problem", "orr-sommerfeld", "--n", "16", "--k-max", "2"),
             "invalid choice"),
            # 2n - 2 = 30 modes at k = 1
            (("reduce", "--n", "16", "--ic", "sine", "--r-list", "2,31"), "at most 2n - 2 = 30"),
        ],
        ids=["reduce-non-wave-problem", "sweep-k-problem-without-reference",
             "reduce-count-past-the-modes"],
    )
    def test_usage_error_before_any_work(self, capsys, monkeypatch, args, message):
        monkeypatch.setattr(cli, "_COMMANDS", {})  # any work would raise KeyError
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "args, problem",
        [
            (("analyze", "--problem", "acoustic", "--n", "3"), "acoustic"),
            (("analyze", "--problem", "orr-sommerfeld", "--n", "9"), "orr-sommerfeld"),
            (("analyze", "--problem", "heat", "--n", "3"), "heat"),
            (("sweep-k", "--problem", "canuto", "--n", "2", "--k-max", "1"), "canuto"),
            (("reduce", "--n", "3", "--ic", "bump", "--r-list", "1"), "acoustic"),
        ],
        ids=["analyze-acoustic", "analyze-orr-sommerfeld", "analyze-heat", "sweep-k-canuto",
             "reduce"],
    )
    def test_usage_error_grid_below_the_problem_minimum(self, capsys, monkeypatch, args, problem):
        # each problem states its minimum grid once, and its builder and
        # the command line both read it: below it the builder raises,
        # and the command line exits 2 before any work
        prob = problems.REGISTRY[problem]
        with pytest.raises(ValueError, match=f"at least {prob.min_n} grid points"):
            prob.build(n=prob.min_n - 1)
        assert prob.build(n=prob.min_n).labels["n"] == prob.min_n
        monkeypatch.setattr(cli, "_COMMANDS", {})  # any work would raise KeyError
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"--n must be at least {prob.min_n} for {problem}" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        "args, option",
        [
            (("reduce", "--n", "16", "--ic", "sine", "--r-list", "2"), "--t-end"),
            (("analyze", "--problem", "orr-sommerfeld", "--n", "16"), "--alpha"),
            (("analyze", "--problem", "orr-sommerfeld", "--n", "16"), "--reynolds"),
        ],
        ids=["t-end", "alpha", "reynolds"],
    )
    def test_usage_error_non_finite_number(self, capsys, args, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*args, f"{option}={value}"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/out.csv", "No such file or directory"), (".", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_usage_error_unwritable_out(self, capsys, tmp_path, target, reason):
        path = tmp_path / target
        code, out, err = run_cli(
            capsys, "analyze", "--problem", "heat", "--n", "8", "--out", str(path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: cannot write {path}: {reason}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "params",
        [("--alpha", "1e300"), ("--alpha", "1e10", "--reynolds", "1e300")],
        ids=["alpha", "reynolds"],
    )
    def test_numerical_error_overflowing_coefficients(self, capsys, params):
        code, out, err = run_cli(
            capsys, "analyze", "--problem", "orr-sommerfeld", "--n", "16", *params
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_numerical_error_overflowing_modal_coefficients(self, capsys):
        code, out, err = run_cli(
            capsys, "reduce", "--n", "16", "--ic", "bump", "--r-list", "2",
            "--t-end", "1e300",
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("error:") and "exp(lam t)" in err

    def test_numerical_error_underflowed_derivative_block(self, capsys):
        # the block C A^299 underflows, but the score no longer forms it:
        # it is |P_k* A w|, finite and at most |A|_2 |w| at any depth
        code, out, err = run_cli(
            capsys, "analyze", "--problem", "canuto", "--n", "8", "--k", "300"
        )
        assert code == EXIT_OK and err == ""
        system = canuto_hyperbolic(8)
        report = quality_report(system, 300)
        bounds = system.drift_norm * np.linalg.norm(report.modes, axis=1)
        scores = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
        assert len(scores) == bounds.size
        assert all(0.0 <= score <= (1 + 1e-12) * bound for score, bound in zip(scores, bounds))

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 74.5 GiB for an array"),
             "error: Unable to allocate 74.5 GiB for an array\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_a_numerical_failure(self, capsys, monkeypatch, error, message):
        # a grid too large to allocate; the builder raises instead, since
        # a real allocation may succeed under overcommit and exhaust memory
        def build(**params):
            raise error

        prob = problems.REGISTRY["canuto"]
        monkeypatch.setitem(problems.REGISTRY, "canuto", dataclasses.replace(prob, build=build))
        code, out, err = run_cli(capsys, "analyze", "--problem", "canuto", "--n", "100000")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == message

    def test_numerical_error_trivial_subspace(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--problem", "heat", "--n", "8", "--k", "4"
        )
        assert code == EXIT_NUMERICAL
        assert "error:" in err


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eigensieve", "problems"],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,params")
