import hashlib
import json

import pytest

from eightvertex.cli import main
from eightvertex.exact import census_8v, z8v_exact
from eightvertex.graphs import gen_k44, gen_octahedron, gen_torus, parse_graph, serialize_graph


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
    path.write_text("8vx-graph 1\nvertices 2 edges 1000000000000 embedding none\n")
    code, out, err = run(capsys, "exact", "--graph", str(path), "--params", "1,1,1,1")
    assert code == 2
    assert out == "" and "line 2: a 4-regular graph on 2 vertices has 4 edges" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--graph", "x", "--params", "1,1,1,1", "--frobnicate"])
    assert exc.value.code == 2


# stdout sha256 of fixed-seed runs, captured before the chain's table-driven
# step replaced the class-ratio matrix and randrange: the chain must keep
# every draw and every float operation, so these stay byte-identical
GOLDEN = [
    (("sample", "torus4x4", "--params", "1,2,2,1", "--seed", "11", "--samples", "200"),
     "90cd5c34ff9f8a3e08c173fa4294063b1b96ec77494ff0f9384f9905503e2c8c"),
    (("sample", "octahedron", "--params", "1,1,2,1", "--seed", "5", "--samples", "200",
      "--proposal", "face"),
     "479affa2d3af75b6a6a062b75101b4b0f4b372d909df777028f15f7990c83222"),
    (("estimate", "octahedron", "--params", "1,1,5,1", "--class", "planar", "--eps", "0.1",
      "--seed", "3"),
     "634ae51c655c6f412ec01d3767e7abf6f6bb183803bd2f2e606c255899436f2f"),
    (("estimate", "k44", "--params", "2,1,1,3", "--class", "bipartite", "--eps", "0.1",
      "--seed", "7"),
     "deab0ed13aa0cc6984a2984a6fb6624ef96f3b3c1392e99c36ef8149204c14a8"),
]
GOLDEN_GRAPHS = {"torus4x4": lambda: gen_torus(4, 4), "octahedron": gen_octahedron,
                 "k44": gen_k44}


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[f"{a[0]}-{a[1]}" for a, _ in GOLDEN])
def test_fixed_seed_output_pinned(tmp_path, capsys, argv, digest):
    command, graph_name, *rest = argv
    path = tmp_path / f"{graph_name}.8vx"
    path.write_text(serialize_graph(GOLDEN_GRAPHS[graph_name]()))
    code, out, _ = run(capsys, command, "--graph", str(path), *rest)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
