import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eightvertex import mcmc
from eightvertex.cli import main
from eightvertex.exact import census_8v, z8v_exact
from eightvertex.graphs import gen_k44, gen_octahedron, gen_torus, parse_graph, serialize_graph

from .conftest import build_loop_graph


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
    from eightvertex.exact import format_rational

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


def test_exact_torus66_past_the_census(tmp_path, capsys):
    path = tmp_path / "t66.8vx"
    path.write_text(serialize_graph(gen_torus(6, 6)))
    code, out, _ = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 0
    assert out.strip() == str(2**37) == "137438953472"


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


def test_sample_refuses_a_count_past_memory(oct_file, capsys):
    # 10^16 rows of 12 bytes: more than any address space holds
    code, out, err = run(capsys, "sample", "--graph", oct_file, "--params", "1,1,1,2",
                         "--seed", "7", "--samples", str(10**16))
    assert code == 2
    assert out == "" and "do not fit in memory" in err


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
    assert "detailed_balance=True" in err
    last_step, last_tv = lines[-1].split(",")
    assert float(last_tv) < 0.01


@pytest.mark.parametrize("value", ["0", "-0.5", "1", "2"])
def test_diagnose_chain_rejects_bad_threshold(oct_file, capsys, value):
    code, out, err = run(capsys, "diagnose-chain", "--graph", oct_file,
                         "--params", "1,1,1,1", f"--tv-threshold={value}")
    assert code == 2
    assert out == "" and "tv_threshold" in err


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
    (("estimate", "octahedron", "--params", "1,1,5,1", "--class", "planar", "--eps", "0.1",
      "--seed", "3"), 0,
     "634ae51c655c6f412ec01d3767e7abf6f6bb183803bd2f2e606c255899436f2f"),
    (("estimate", "k44", "--params", "2,1,1,3", "--class", "bipartite", "--eps", "0.1",
      "--seed", "7"), 0,
     "deab0ed13aa0cc6984a2984a6fb6624ef96f3b3c1392e99c36ef8149204c14a8"),
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
]
GOLDEN_GRAPHS = {"torus4x4": lambda: gen_torus(4, 4), "octahedron": gen_octahedron,
                 "k44": gen_k44, "loop_graph": build_loop_graph}


def _golden_id(argv):
    if argv[1] in GOLDEN_GRAPHS:
        return f"{argv[0]}-{argv[1]}"
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
