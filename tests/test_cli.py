import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eightvertex import cli, mcmc
from eightvertex.cli import main
from eightvertex.exact import census_8v, format_rational, z8v_exact
from eightvertex.graphs import gen_k44, gen_octahedron, gen_torus, parse_graph, serialize_graph

from .conftest import build_loop_graph, needs_affinity, one_cpu


@pytest.fixture()
def oct_file(tmp_path):
    path = tmp_path / "oct.8vx"
    path.write_text(serialize_graph(gen_octahedron()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_roundtrips_through_parse(tmp_path, capsys):
    out_path = tmp_path / "t.8vx"
    code, _, _ = run(capsys, "gen", "--type", "torus", "--rows", "2", "--cols", "4",
                     "--out", str(out_path))
    assert code == 0
    graph = parse_graph(out_path.read_text())
    assert graph.vertex_count == 8 and graph.edge_count == 16
    assert graph.bipartition is not None


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--type", "k44")
    assert code == 0
    assert out.startswith("8vx-graph 1\n")


def test_exact_prints_integer(oct_file, capsys):
    code, out, _ = run(capsys, "exact", "--graph", oct_file, "--params", "1,1,1,1")
    assert code == 0
    assert out.strip() == "128"


def test_exact_prints_rational(oct_file, capsys):
    code, out, _ = run(capsys, "exact", "--graph", oct_file, "--params",
                       "1/3,1,1,1")
    assert code == 0
    expected = z8v_exact(gen_octahedron(), ("1/3", "1", "1", "1"))
    assert expected.denominator > 1
    assert out.strip() == format_rational(expected)


def test_exact_signed_params(oct_file, capsys):
    code, out, _ = run(capsys, "exact", "--graph", oct_file, "--params", "1,1,1,-1")
    assert code == 0
    assert out.strip() == "128"
    # a leading minus needs the --params= form, or argparse reads it as a flag
    code, out, _ = run(capsys, "exact", "--graph", oct_file, "--params=-1,1,1,1")
    assert code == 0
    assert out.strip() == format_rational(z8v_exact(gen_octahedron(), (-1, 1, 1, 1)))


def test_exact_torus66_past_the_census(tmp_path, capsys):
    path = tmp_path / "t66.8vx"
    path.write_text(serialize_graph(gen_torus(6, 6)))
    code, out, _ = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 0
    assert out.strip() == str(2**37) == "137438953472"


@pytest.fixture(scope="module")
def torus4x64_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "t4x64.8vx"
    path.write_text(serialize_graph(gen_torus(4, 64)))
    return str(path)


def test_exact_long_torus(torus4x64_file, capsys):
    # the greedy order from vertex 0 alone has width 130 here; another start has 10
    code, out, _ = run(capsys, "exact", "--graph", torus4x64_file, "--params", "1,1,1,1")
    assert code == 0
    assert out.strip() == str(2**257)


def test_exact_long_torus_ec_is_8v_with_classes_swapped(torus4x64_file, capsys):
    # orienting every edge east or south puts each vertex in class B, and xoring an
    # even coloring onto it swaps A<->C and B<->D
    code, ec, _ = run(capsys, "exact", "--graph", torus4x64_file, "--model", "ec",
                      "--params", "3/7,-2,5/3,1")
    assert code == 0
    code, v8, _ = run(capsys, "exact", "--graph", torus4x64_file, "--params", "5/3,1,3/7,-2")
    assert code == 0
    assert ec == v8 and "/" in ec


def test_exact_refuses_wide_graph(tmp_path, capsys):
    path = tmp_path / "t1212.8vx"
    path.write_text(serialize_graph(gen_torus(12, 12)))
    code, out, err = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 2
    assert out == "" and "frontier width 26" in err


def test_exact_has_no_max_dim(oct_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--graph", oct_file, "--params", "1,1,1,1", "--max-dim", "30"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "census", "--graph", oct_file, "--max-dim", "30")
    assert code == 0


def test_census_csv(oct_file, capsys):
    code, out, _ = run(capsys, "census", "--graph", oct_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_A,n_B,n_C,n_D,count"
    census = census_8v(gen_octahedron())
    assert len(lines) - 1 == len(census.counts)
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert total == 128


def test_group_table_row_order(capsys):
    code, out, _ = run(capsys, "group-table", "--class", "bipartite")
    assert code == 0
    labels = [line.split("\t")[0] for line in out.strip().splitlines()[1:]]
    assert labels == [
        "I", "MZ", "MZ^2", "MZ^3", "MZ^4", "MZ^5",
        "MHZ", "MZ*MHZ", "MZ^2*MHZ", "MZ^3*MHZ", "MZ^4*MHZ", "MZ^5*MHZ",
    ]
    code, out, _ = run(capsys, "group-table", "--class", "planar")
    labels = [line.split("\t")[0] for line in out.strip().splitlines()[1:]]
    assert labels == ["I", "MZ", "MZ^2", "MHZ", "MZ*MHZ", "MZ^2*MHZ"]


def test_plan_json(capsys):
    code, out, _ = run(capsys, "plan", "--class", "planar", "--params", "1,1,5,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["element_word"] == "MZ^2"
    assert payload["image"] == ["3", "3", "3", "1"]
    assert payload["flips"] == []


def test_plan_failure_reports_diagnostics(capsys):
    code, out, _ = run(capsys, "plan", "--class", "planar", "--params", "12,1,1,1")
    assert code == 1
    payload = json.loads(out)
    assert payload["plan"] is None
    assert len(payload["diagnostics"]) == 6


def test_sign_refusal_prints_rationals(tmp_path, capsys):
    path = tmp_path / "k44.8vx"
    path.write_text(serialize_graph(gen_k44()))
    want = "error: region predicates need nonnegative parameters, got (-1/2, 0, 3, 0)\n"
    for argv in (("plan", "--class", "planar"),
                 ("estimate", "--graph", str(path), "--class", "bipartite", "--seed", "1")):
        code, out, err = run(capsys, *argv, "--params=-1/2,0,3,0")
        assert (code, out, err) == (2, "", want)


def test_no_plan_refusal_prints_rationals(tmp_path, capsys):
    path = tmp_path / "k44.8vx"
    path.write_text(serialize_graph(gen_k44()))
    code, out, err = run(capsys, "estimate", "--graph", str(path), "--params", "1,0,2,1/2",
                         "--class", "bipartite", "--seed", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"].startswith("no group element maps (1, 0, 2, 1/2) into the ")


def test_sample_emits_bitstrings(oct_file, capsys):
    code, out, _ = run(
        capsys, "sample", "--graph", oct_file, "--params", "1,1,1,2",
        "--seed", "7", "--samples", "5", "--burn-in", "10", "--thinning", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(len(line) == 12 and set(line) <= {"0", "1"} for line in lines)
    code2, out2, _ = run(
        capsys, "sample", "--graph", oct_file, "--params", "1,1,1,2",
        "--seed", "7", "--samples", "5", "--burn-in", "10", "--thinning", "2",
    )
    assert out2 == out


def test_sample_refuses_face_moves_on_torus(tmp_path, capsys):
    path = tmp_path / "t.8vx"
    path.write_text(serialize_graph(gen_torus(4, 4)))
    code, out, err = run(capsys, "sample", "--graph", str(path), "--params", "1,2,2,1",
                         "--seed", "1", "--samples", "5", "--proposal", "face")
    assert code == 2
    assert out == ""
    assert "rank 15" in err and "k=17" in err


@pytest.mark.parametrize("params, proposal, message", [
    ("0,0,0,0", "basis-cycle", "strictly positive"),
    ("1,1,1,1", "face", "rank 15"),
    ("1e200,1,1,1e-200", "basis-cycle", "float range"),
])
def test_zero_samples_still_check_the_settings(tmp_path, capsys, params, proposal, message):
    path = tmp_path / "t.8vx"
    path.write_text(serialize_graph(gen_torus(4, 4)))
    code, out, err = run(capsys, "sample", "--graph", str(path), "--params", params,
                         "--seed", "1", "--samples", "0", "--proposal", proposal)
    assert code == 2
    assert out == "" and message in err


# the kernel counts steps in int64: unrefused, 2^63 would wrap to a negative
# thinning and make no step, and 2^64 + 5 would run as 5
@pytest.mark.parametrize("thinning", [str(1 << 63), str((1 << 64) + 5)])
def test_sample_refuses_a_thinning_past_int64(oct_file, capsys, thinning):
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--graph", oct_file, "--params", "1,1,1,2",
                         "--seed", "7", "--samples", "5", "--thinning", thinning)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == "" and "thinning must lie in [1, 2^63)" in err


# at eps=5e-10 the pilot asks for a chain of 2.2e20 steps, more than int64
# counts; at 1e-200 eps^2 underflows to 0
@pytest.mark.parametrize("eps", ["5e-10", "3e-10", "1e-200"])
def test_estimate_refuses_stages_past_int64(oct_file, capsys, eps):
    start = time.perf_counter()
    code, out, err = run(capsys, "estimate", "--graph", oct_file, "--params", "1,1,5,1",
                         "--class", "planar", "--seed", "1", "--eps", eps)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert f"eps={eps}" in err and "steps per chain" in err and "past 2^63 - 1" in err


def test_sample_rejects_negative_burn_in(oct_file, capsys):
    code, out, err = run(capsys, "sample", "--graph", oct_file, "--params", "1,1,1,2",
                         "--seed", "7", "--samples", "5", "--burn-in", "-5")
    assert code == 2
    assert out == "" and "burn-in" in err


@pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "-0.1"), ("--delta", "0")])
def test_estimate_rejects_bad_accuracy(oct_file, capsys, flag, value):
    code, out, err = run(capsys, "estimate", "--graph", oct_file, "--params", "1,1,5,1",
                         "--class", "planar", "--seed", "3", f"{flag}={value}")
    assert code == 2
    assert out == "" and flag[2:] in err


@pytest.mark.parametrize("command, params", [
    ("estimate", "1e400,1e400,1e400,1e400"),  # weights overflow to inf
    ("sample", "1e400,1,1,1"),
    ("estimate", "1,2,2,1e-320"),  # a subnormal weight
    ("estimate", "1,1,1,1e-400"),  # a weight that rounds to 0
    ("estimate", "1e60,1e60,1e60,1e60"),  # Z = 2^7 * 1e360 overflows
    ("estimate", "1e-60,1e-60,1e-60,1e-60"),  # Z = 2^7 * 1e-360 underflows
    ("estimate", "1e400,1e400,1e400,0"),  # the exact fallback's value overflows
    ("sample", "1e200,1,1,1e-200"),  # (max/min)^T overflows
])
def test_weights_outside_the_float_range_refused(oct_file, capsys, command, params):
    extra = ("--class", "planar") if command == "estimate" else ("--samples", "5")
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--graph", oct_file, "--params", params,
                         "--seed", "1", *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_diagnose_chain_csv(oct_file, capsys):
    code, out, err = run(capsys, "diagnose-chain", "--graph", oct_file,
                         "--params", "1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "steps,tv"
    assert err == "# states=128 steps_to_tv<0.01=31\n"
    last_step, last_tv = lines[-1].split(",")
    assert last_step == "31" and float(last_tv) < 0.01


@pytest.mark.parametrize("value", ["0", "-0.5", "1", "2"])
def test_diagnose_chain_rejects_bad_threshold(oct_file, capsys, value):
    code, out, err = run(capsys, "diagnose-chain", "--graph", oct_file,
                         "--params", "1,1,1,1", f"--tv-threshold={value}")
    assert code == 2
    assert out == "" and "tv_threshold" in err


def test_diagnose_chain_refuses_a_single_state_coset(tmp_path, capsys):
    path = tmp_path / "empty.8vx"
    path.write_text("8vx-graph 1\nvertices 0 edges 0 embedding none\n")
    code, out, err = run(capsys, "diagnose-chain", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 2 and out == ""
    assert err == "error: the chain needs at least one move; this coset has a single state\n"


def test_census_default_cap(tmp_path, capsys):
    # torus 6x6 has k = 37, above the default enumeration cap of 30
    path = tmp_path / "t66.8vx"
    path.write_text(serialize_graph(gen_torus(6, 6)))
    code, out, err = run(capsys, "census", "--graph", str(path))
    assert code == 2
    assert out == "" and "dimension 37 exceeds enumeration cap 30" in err


def test_estimate_json(oct_file, capsys):
    code, out, _ = run(
        capsys, "estimate", "--graph", oct_file, "--params", "1,1,5,1",
        "--class", "planar", "--eps", "0.05", "--delta", "0.25", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    exact = float(z8v_exact(gen_octahedron(), (1, 1, 5, 1)))
    assert abs(payload["value"] / exact - 1) < 0.05
    assert payload["plan"]["element_word"] == "MZ^2"
    assert payload["stages"] > 0


def test_estimate_diagnostics_keys(oct_file, capsys):
    # every stage that runs lies in Y and Z, so no per-stage flag is printed
    code, out, _ = run(capsys, "estimate", "--graph", oct_file, "--params", "3,4,5,2",
                       "--class", "planar", "--eps", "0.1", "--seed", "1")
    assert code == 0
    assert list(json.loads(out)["diagnostics"]) == [
        "anchor", "thinning", "particles", "pilot_log_weight_variance", "group_log_estimates"]


@pytest.mark.parametrize("params, value", [
    ("2,2,2,2", "8192.0"),  # 2^7 * 2^6; 34 stages gave 8192.000000000033
    # 2^7 * 1e180; 3,316 stages gave 1.2799999999846295e+182
    ("1e30,1e30,1e30,1e30", "1.28e+182"),
])
def test_estimate_is_exact_at_multiples_of_the_uniform_point(oct_file, capsys, params, value):
    # every state weighs a^n, so Z = 2^k a^n with no chain step
    code, out, _ = run(capsys, "estimate", "--graph", oct_file, "--params", params,
                       "--class", "planar", "--eps", "0.2", "--seed", "1")
    assert code == 0
    assert f'"value": {value},' in out
    payload = json.loads(out)
    assert payload["stages"] == 0 and payload["groups"] == 0
    assert payload["diagnostics"] == {"exact_anchor": True, "anchor": 128}


def test_verify_sections(capsys):
    code, out, _ = run(capsys, "verify", "groups", "--seed", "1")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_signs_checks_the_planner_matrices(monkeypatch, capsys):
    # negating c is no symmetry where n_C can be odd, as on the octahedron
    from eightvertex import transforms

    wrong = transforms.HalfIntMatrix(tuple(
        tuple(Fraction((-1 if i == 2 else 1) * (i == j)) for j in range(4)) for i in range(4)
    ))
    monkeypatch.setattr(transforms, "D_FLIP", wrong)
    code, out, _ = run(capsys, "verify", "signs", "--seed", "1")
    assert code == 1
    assert "FAIL  d-flip invariance on octahedron" in out


def test_usage_error_on_bad_params(oct_file, capsys):
    code, _, err = run(capsys, "exact", "--graph", oct_file, "--params", "1,2,3")
    assert code == 2
    assert "error" in err


def test_usage_error_on_missing_file(capsys):
    code, _, err = run(capsys, "exact", "--graph", "/nonexistent.8vx",
                       "--params", "1,1,1,1")
    assert code == 2


def test_usage_error_on_unwritable_gen_output(tmp_path, capsys):
    path = tmp_path / "missing" / "t.8vx"
    code, _, err = run(capsys, "gen", "--type", "torus", "--out", str(path))
    assert code == 2
    assert f"error: cannot write graph file {path}:" in err


def test_usage_error_on_non_utf8_graph_file(tmp_path, capsys):
    path = tmp_path / "bad.8vx"
    path.write_bytes(b"8vx-graph 1\n\xff\n")
    code, _, err = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 2
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_edge_count_checked_before_allocation(tmp_path, capsys):
    path = tmp_path / "huge.8vx"
    for size_line, message in (
        ("vertices 2 edges 1000000000000", "a 4-regular graph on 2 vertices has 4 edges"),
        # consistent counts, but more edges than lines after the header
        ("vertices 1000000000000 edges 2000000000000",
         "2000000000000 edges need as many edge lines, but only 0 lines follow"),
    ):
        path.write_text(f"8vx-graph 1\n{size_line} embedding none\n")
        code, out, err = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
        assert code == 2
        assert out == "" and f"line 2: {message}" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--graph", "x", "--params", "1,1,1,1", "--frobnicate"])
    assert exc.value.code == 2


COMMANDS = ("gen", "exact", "census", "group-table", "plan", "verify", "sample",
            "diagnose-chain", "estimate")
# every argv here exits inside argparse, before any command runs
EXITING_ARGVS = [
    [], ["-h"], ["bogus"], ["bogus", "-h"], ["--version"],
    *([command, "-h"] for command in COMMANDS),
    ["exact", "--graph", "g.8vx"],  # a missing required option
    ["verify", "all"],
    ["plan", "--class", "torus", "--params", "1,1,1,1"],  # a bad choice
    ["verify", "nothing", "--seed", "1"],
    ["group-table", "--class", "planar", "--frobnicate"],  # an unknown option after a command
    ["exact", "--graph", "g.8vx", "--params", "1,1,1,1", "extra"],
]
VALID_ARGVS = [
    ["gen", "--type", "torus", "--rows", "2"],
    ["exact", "--graph", "g.8vx", "--params=-1,2,2,1", "--model", "ec"],
    ["census", "--graph", "g.8vx", "--max-dim", "12"],
    ["group-table", "--class", "bipartite"],
    ["plan", "--class", "planar", "--params", "1,1,5,1"],
    ["verify", "signs", "--seed", "3"],
    ["sample", "--graph", "g.8vx", "--params", "1,1,1,1", "--seed", "1", "--samples", "5",
     "--proposal", "face"],
    ["diagnose-chain", "--graph", "g.8vx", "--params", "1,1,1,1", "--tv-threshold", "0.1"],
    ["estimate", "--graph", "g.8vx", "--params", "1,2,2,1", "--class", "planar", "--seed", "2"],
]


def _exit_of(capsys, parse, argv):
    """Exit status, stdout and stderr of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.fixture()
def built(monkeypatch):
    """The ``command`` argument of each ``cli.build_parser`` call."""
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command) or
                        real(command))
    return calls


@pytest.mark.parametrize("argv", EXITING_ARGVS, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, built, argv):
    # help wording varies between Python versions, so the full parser of the
    # same interpreter is the reference, not pinned text
    full = cli.build_parser().parse_args
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _exit_of(capsys, main, argv) == _exit_of(capsys, full, argv), columns
    lean = argv[0] if argv and argv[0] in COMMANDS else None
    assert built == [None] + [lean] * 3  # the reference's call, then main's


def test_full_parser_calls_the_missing_command_by_its_name(capsys):
    # a metavar would replace "command" in these two messages
    assert _exit_of(capsys, main, [])[2].endswith(" required: command\n")
    _, _, err = _exit_of(capsys, main, ["bogus"])
    assert "error: argument command: invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=lambda argv: argv[0])
def test_lean_parser_reads_what_the_full_parser_reads(argv):
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_main_reads_sys_argv(monkeypatch, capsys, built):
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["eightvertex", "group-table", "--class", "planar"])
    assert main() == 0
    assert built == ["group-table"]
    assert capsys.readouterr().out.startswith("# class=planar order=6 ")


# stdout sha256 and exit status of fixed-seed runs.  The sample and estimate
# digests were captured before the chain's table-driven step replaced the
# class-ratio matrix and randrange: the chain must keep every draw and every
# float operation, on the compiled kernel (wherever it builds) and on the
# Python steps (test_chain_pins_hold_on_the_python_path).  The plan and
# verify digests were captured before the planner lost its sign-flip pass,
# which no group element ever needed.  A command whose second word names a
# graph gets that graph's file as --graph.
# `verify holant` is not pinned: it prints float deviations that depend on
# the host's numpy and BLAS.
GOLDEN = [
    (("sample", "torus4x4", "--params", "1,2,2,1", "--seed", "11", "--samples", "200"), 0,
     "90cd5c34ff9f8a3e08c173fa4294063b1b96ec77494ff0f9384f9905503e2c8c"),
    (("sample", "octahedron", "--params", "1,1,2,1", "--seed", "5", "--samples", "200",
      "--proposal", "face"), 0,
     "479affa2d3af75b6a6a062b75101b4b0f4b372d909df777028f15f7990c83222"),
    # self-loops print their slot bit; captured before the rows were read in one array pass
    (("sample", "loop_graph", "--params", "1,2,3,1", "--seed", "3", "--samples", "200"), 0,
     "7a697fa2ae61df4f798ad2fa4627a6f19ace93059af8fe5d43ba8126d5b001fd"),
    # re-pinned when annealing dropped the holding coin: each step proposes,
    # its move from one word, and a stage makes ceil((k+1)/4) steps, so other
    # draws, thinning and particle count.  sample and diagnose-chain keep the
    # lazy chain, so their pins hold
    (("estimate", "octahedron", "--params", "1,1,5,1", "--class", "planar", "--eps", "0.1",
      "--seed", "3"), 0,
     "cb06f8276995742ed1d2621e76107ab19a40204efe980d2fb6b95989111d5bac"),
    (("estimate", "k44", "--params", "2,1,1,3", "--class", "bipartite", "--eps", "0.1",
      "--seed", "7"), 0,
     "8389a584a08508dd42881a20aee8761f6542dbb100520b07f759143eb97bcb44"),
    # on Y's boundary (c + d = a + b), where stage q, which no chain runs, rounds out of Y
    (("estimate", "octahedron", "--params", "3,4,5,2", "--class", "planar", "--eps", "0.1",
      "--seed", "1"), 0,
     "69ff3444c9b2dd7f12a7d748a03941f6613fcdf127cbf25e6051b0a68b138f61"),
    (("plan", "--class", "planar", "--params", "1,1,5,1"), 0,
     "199700088df4815d4f531569c4e5ab8c94a9178a692af5e328fea9debed7837e"),
    (("plan", "--class", "bipartite", "--params", "1,1,1,5"), 0,
     "8e34e595f1a2bfb9adb52f85a53135ffae240dda1a6cacb031897aeda27e41a9"),
    # no plan: the per-element diagnostics print each element's normalized image
    (("plan", "--class", "planar", "--params", "12,1,1,1"), 1,
     "919d8788dc5b51a25fcb41f85e51ecde95066dc1d7a5beb2a82f96de8774bc1d"),
    (("verify", "signs", "--seed", "1"), 0,
     "5a4435f5a7f41786051f0bec556ada6f874af54cf1e27ce7b7a42d8d239511bd"),
    (("verify", "invariance", "--seed", "1"), 0,
     "53002df7c9b2dfb2bebb25f136ff32be027b74ce9ef52d790830335833e2c52f"),
    (("verify", "groups", "--seed", "1"), 0,
     "ea51867a38e5b69f2294e4c74b35b5f782b95c886055cc88c9050e10f229bff6"),
    (("verify", "bijection", "--seed", "1"), 0,
     "f9e4c6d31c7d14947376845b0aa50617331705fb07d39df6605028a3295ca9ad"),
    (("verify", "regions", "--seed", "1"), 0,
     "2e626d5114458023cbee83e11c8f1af98f279359f3575fcaa97100c10ab67412"),
    (("group-table", "--class", "planar"), 0,
     "eee00518a48b2a7c39dfff988a5b8b9259af8a505cc31fe5fde7cac7183a3950"),
    (("group-table", "--class", "bipartite"), 0,
     "d12d54551c513b3de9190e5123464cda670f05e07fee48350d5b07d9b270b812"),
    # captured while the census still walked the moves past its block in Gray order
    (("census", "torus4x4"), 0,
     "e80ba79e898a20e98c4d83aaf2b15eecfd62d4e2a6079096bd82538de410bae7"),
    (("census", "loop_graph", "--model", "ec"), 0,
     "95f574f9b22836cc780ccb2a74c9d84e944697ea26ddbe0b5d32bc381ed4ec5f"),
    # captured while the diagnostics still checked balance and stationarity exactly
    (("diagnose-chain", "octahedron", "--params", "1,2,2,1"), 0,
     "83043f9bf1c9c45b80a76c97446e17b97b5448c9390ae12bd0ade9e97e8edd42"),
    (("diagnose-chain", "k44", "--params", "2,2,3,1"), 0,
     "591c5f4ca72cf05dd2bf45c992551ac7d1e5b8b23ce248b859796167f5d5eb41"),
]
GOLDEN_GRAPHS = {"torus4x4": lambda: gen_torus(4, 4), "octahedron": gen_octahedron,
                 "k44": gen_k44, "loop_graph": build_loop_graph}


def _golden_id(argv):
    if argv[1] in GOLDEN_GRAPHS:
        # a later pin of the same command on the same graph adds its params
        first = next(a for a, _, _ in GOLDEN if a[:2] == argv[:2])
        return f"{argv[0]}-{argv[1]}" + ("" if first == argv else f"-{argv[3]}")
    return "-".join(a for a in argv if not a.startswith("--"))


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN,
                         ids=[_golden_id(a) for a, _, _ in GOLDEN])
def test_fixed_seed_output_pinned(tmp_path, capsys, argv, exit_code, digest):
    command, *rest = argv
    if rest[0] in GOLDEN_GRAPHS:
        graph_name, *rest = rest
        path = tmp_path / f"{graph_name}.8vx"
        path.write_text(serialize_graph(GOLDEN_GRAPHS[graph_name]()))
        rest = ["--graph", str(path), *rest]
    code, out, _ = run(capsys, command, *rest)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [pin for pin in GOLDEN if pin[0][0] in ("sample", "estimate")],
    ids=[_golden_id(a) for a, _, _ in GOLDEN if a[0] in ("sample", "estimate")],
)
def test_chain_pins_hold_on_the_python_path(monkeypatch, tmp_path, capsys, argv, exit_code,
                                            digest):
    # the pins above run the compiled kernel wherever it builds; without it
    # the Python steps must print the same bytes
    monkeypatch.setattr(mcmc, "_load_kernel", lambda: None)
    test_fixed_seed_output_pinned(tmp_path, capsys, argv, exit_code, digest)


@needs_affinity
@pytest.mark.parametrize("python_path", [False, True], ids=["compiled", "python"])
@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [pin for pin in GOLDEN if pin[0][0] == "estimate"],
    ids=[_golden_id(a) for a, _, _ in GOLDEN if a[0] == "estimate"],
)
def test_estimate_pins_hold_on_one_cpu(monkeypatch, tmp_path, capsys, argv, exit_code, digest,
                                       python_path):
    # the pins above run one chain thread per allowed CPU; one CPU runs them
    # all in the calling thread, and must print the same bytes
    if python_path:
        monkeypatch.setattr(mcmc, "_load_kernel", lambda: None)
    with one_cpu():
        test_fixed_seed_output_pinned(tmp_path, capsys, argv, exit_code, digest)


def _run_module(*argv):
    """Run ``python -m eightvertex`` in a fresh process on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "eightvertex", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exit_status(tmp_path):
    proc = _run_module("verify", "groups", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stdout.rstrip("\n").endswith("== result: PASS")
    proc = _run_module("exact", "--graph", str(tmp_path / "missing.8vx"),
                       "--params", "1,1,1,1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def _read_one_line_and_close(tmp_path, samples: int):
    """Run ``sample`` on torus 4x4, read one line, close the pipe; check the exit."""
    path = tmp_path / "t.8vx"
    path.write_text(serialize_graph(gen_torus(4, 4)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "eightvertex", "sample", "--graph", str(path),
         "--params", "1,1,1,1", "--samples", str(samples), "--seed", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.readline()) == 33
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b"", err.decode()


def test_closed_stdout_pipe_ends_without_traceback(tmp_path):
    # the reader takes one line and goes away while sample still writes
    _read_one_line_and_close(tmp_path, 200_000)


def test_closed_stdout_pipe_stops_a_run_past_memory(tmp_path):
    # 10^12 rows of 32 bytes hold more than any memory: the rows stream, one
    # kernel call's worth at a time, and the closed pipe ends the run
    _read_one_line_and_close(tmp_path, 10**12)
