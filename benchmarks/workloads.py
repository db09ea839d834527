"""The three benchmark workloads: their set-up, operations and correctness gates.

Every timed operation is a CLI command run in-process through
``eightvertex.cli.main(argv)`` with stdout and stderr captured, which is the
path users take.  Each gate checks an output against a reference that does
not come from the code path being timed: the census CSV is checked against
2^k, an exact call against the census CSV evaluated in this file, an estimate
against the census of its graph, and a sample line by re-deriving its
in-degrees here.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Callable

MODULES = ("cli", "graphs", "states", "exact", "transforms", "mcmc", "estimator")

# 4-bit in-mask (bit label-1) -> class index A=0, B=1, C=2, D=3; odd masks absent.
CLASS_OF_MASK = {
    0b0011: 0, 0b1100: 0,
    0b1001: 1, 0b0110: 1,
    0b0101: 2, 0b1010: 2,
    0b0000: 3, 0b1111: 3,
}


@dataclass
class Outcome:
    rc: int
    out: str
    err: str = ""


@dataclass
class Op:
    """One operation: ``run`` is timed, ``gate`` returns an error string or None."""

    name: str
    kind: str  # census | exact | estimate | sample | check
    run: Callable[[SimpleNamespace], Outcome]  # given freshly imported modules
    gate: Callable[[Outcome], str | None]
    group: str = ""  # operations of one group cost the same; defaults to name
    timed: bool = True  # counts towards commands_s
    facts: Callable[[Outcome], dict] = lambda outcome: {}

    def __post_init__(self):
        self.group = self.group or self.name


@dataclass
class Plan:
    """What one set-up produces: the operations of a pass and the run-once probes."""

    ops: list[Op]
    once: list[Op] = field(default_factory=list)
    known_defects: dict[str, str] = field(default_factory=dict)


def fresh_import(src: Path) -> SimpleNamespace:
    """Import the package from ``src`` anew, dropping all module state of earlier imports."""
    for key in [k for k in sys.modules if k == "eightvertex" or k.startswith("eightvertex.")]:
        del sys.modules[key]
    ev = SimpleNamespace(**{name: import_module("eightvertex." + name) for name in MODULES})
    origin = Path(ev.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"eightvertex imported from {origin}, not from {src}")
    return ev


def cli_call(ev, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = ev.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc, out.getvalue(), err.getvalue())


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_params(p) -> str:
    # the "--params=" form keeps a leading minus sign from reading as an option
    return "--params=" + ",".join(fmt(Fraction(v)) for v in p)


def signed_point(rng: Random) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 5, 7)))
        for _ in range(4)
    )


def write_graph(ev, workdir: Path, name: str, graph) -> str:
    path = workdir / f"{name}.8vx"
    path.write_text(ev.graphs.serialize_graph(graph), encoding="utf-8")
    return str(path)


def weight(profile, p) -> Fraction:
    w = Fraction(1)
    for n_i, p_i in zip(profile, p):
        w *= Fraction(p_i) ** n_i
    return w


def parse_census_csv(text: str) -> dict[tuple[int, ...], int]:
    lines = text.splitlines()
    if not lines or lines[0] != "n_A,n_B,n_C,n_D,count":
        raise ValueError("census CSV header missing")
    rows = {}
    for line in lines[1:]:
        *profile, count = (int(x) for x in line.split(","))
        rows[tuple(profile)] = count
    return rows


def require(ok: bool, message: str) -> str | None:
    return None if ok else message


# ----------------------------------------------------------------------
# exact


def setup_exact(ev, workdir: Path, rng: Random, state: dict) -> Plan:
    graphs = ev.graphs
    torus = graphs.gen_torus(4, 5)
    path = write_graph(ev, workdir, "torus4x5", torus)
    k = torus.edge_count - torus.vertex_count + 1  # connected: m - n + 1
    p, q, r = signed_point(rng), signed_point(rng), signed_point(rng)

    def gate_census(o: Outcome):
        try:
            rows = parse_census_csv(o.out)
        except ValueError as exc:
            return f"unreadable census: {exc}"
        state["rows"] = rows
        if any(sum(profile) != torus.vertex_count for profile in rows):
            return "a profile does not sum to the vertex count"
        return require(sum(rows.values()) == 1 << k, f"census total is not 2^{k}")

    def gate_value(point):
        def gate(o: Outcome):
            if o.rc != 0 or "rows" not in state:
                return f"exit {o.rc}, or no census to compare with"
            want = sum(c * weight(prof, point) for prof, c in state["rows"].items())
            return require(Fraction(o.out.strip()) == want, f"{o.out.strip()} != {fmt(want)}")
        return gate

    # Z_ec(a,b,c,d) = Z_8v(c,d,a,b) on gen_torus graphs: orienting every edge
    # east or south gives each vertex the in-mask 1001 (class B), and xoring an
    # even coloring onto that orientation swaps classes A<->C and B<->D.
    a, b, c, d = q
    ops = [
        Op("census.torus4x5", "census", lambda ev: cli_call(ev, ["census", "--graph", path]),
           gate_census),
        Op("exact.torus4x5.uniform", "exact",
           lambda ev: cli_call(ev, ["exact", "--graph", path, "--params", "1,1,1,1"]),
           lambda o: require(o.rc == 0 and o.out.strip() == str(1 << k), f"Z(1,1,1,1) != 2^{k}"),
           group="exact.torus4x5"),
        Op("exact.torus4x5.signed", "exact",
           lambda ev: cli_call(ev, ["exact", "--graph", path, fmt_params(p)]),
           gate_value(p), group="exact.torus4x5"),
        Op("exact.torus4x5.ec", "exact",
           lambda ev: cli_call(ev, ["exact", "--graph", path, "--model", "ec", fmt_params(q)]),
           gate_value((c, d, a, b)), group="exact.torus4x5"),
    ]
    for name, model, generate in (
        ("octahedron", "ec", lambda graphs: graphs.gen_octahedron()),
        ("k44", "8v", lambda graphs: graphs.gen_k44()),
        ("torus2x4", "8v", lambda graphs: graphs.gen_torus(2, 4)),
    ):
        ops.append(holant_check(name, model, generate, generate(graphs), r))
    return Plan(ops)


def holant_table(p, twist: int) -> list[Fraction]:
    """Truth table for ``holant_exact``: weight of class(mask ^ twist), 0 if odd."""
    table = []
    for index in range(16):
        mask = int(f"{index:04b}"[::-1], 2) ^ twist  # index has label 1 as its MSB
        cls = CLASS_OF_MASK.get(mask)
        table.append(Fraction(0) if cls is None else Fraction(p[cls]))
    return table


def orientation_twist(graph) -> int:
    """The mask ``t`` with in-mask = (edge-bit mask) ^ t at every vertex, up to complement.

    ``holant_exact`` sets a bit at both ends of an edge with value 1.  Reading
    that value as "the edge points to its slot-1 end", a vertex's in-mask is
    the bit mask xor the labels at which it is the slot-0 end.  One table
    serves every vertex only if those label sets agree up to complement.
    """
    slot0 = [0] * graph.vertex_count
    for e in graph.edges:
        slot0[e.u] |= 1 << (e.label_u - 1)
    twist = slot0[0]
    if any(m not in (twist, twist ^ 0b1111) for m in slot0):
        raise ValueError("no single truth table expresses the 8v model on this graph")
    return twist


def holant_check(name: str, model: str, generate, graph, point) -> Op:
    """Census.evaluate against holant_exact, both run inside the operation."""
    table = holant_table(point, 0 if model == "ec" else orientation_twist(graph))

    def run(ev) -> Outcome:
        graph = generate(ev.graphs)
        left = getattr(ev.exact, "census_" + model)(graph).evaluate(point)
        right = ev.exact.holant_exact(graph, table)
        return Outcome(0, f"{fmt(left)} {fmt(right)}\n")

    def gate(o: Outcome):
        left, right = o.out.split()
        return require(left == right, f"census {left} != holant {right}")

    return Op(f"check.holant.{name}.{model}", "check", run, gate, timed=False)


# ----------------------------------------------------------------------
# anneal

EPS, DELTA = 0.1, 0.25


def setup_anneal(ev, workdir: Path, rng: Random, state: dict) -> Plan:
    graphs, exact = ev.graphs, ev.exact
    torus, k44, small = graphs.gen_torus(4, 4), graphs.gen_k44(), graphs.gen_torus(2, 2)
    paths = {"torus4x4": write_graph(ev, workdir, "torus4x4", torus),
             "k44": write_graph(ev, workdir, "k44", k44)}
    census = {"torus4x4": exact.census_8v(torus), "k44": exact.census_8v(k44)}
    targets = (
        ("torus4x4", (1, 2, 2, 1), "planar"),  # identity plan
        ("torus4x4", (1, 1, 5, 1), "planar"),  # planned to (3,3,3,1)
        ("k44", (2, 1, 1, 3), "bipartite"),  # planned to (3/2,5/2,5/2,1/2)
    )
    ops = []
    for graph_name, params, graph_class in targets:
        z = float(census[graph_name].evaluate(params))
        argv = ["estimate", "--graph", paths[graph_name], fmt_params(params),
                "--class", graph_class, "--eps", str(EPS), "--delta", str(DELTA),
                "--seed", str(rng.randrange(1 << 31))]
        ops.append(Op(
            f"estimate.{graph_name}.{','.join(map(str, params))}", "estimate",
            lambda ev, argv=argv: cli_call(ev, argv),
            lambda o, z=z: estimate_gate(o, z), facts=lambda o, z=z: estimate_facts(o, z)))

    refuse_argv = ["estimate", "--graph", paths["k44"], "--params", "3,1,1,1",
                   "--class", "bipartite", "--eps", str(EPS), "--seed", "1"]
    face_seed = rng.randrange(1 << 31)
    face_z = float(exact.census_8v(small).evaluate((1, 3, 3, 1)))

    def face_probe(ev) -> Outcome:
        cfg = ev.mcmc.ChainConfig(seed=face_seed, proposal="face")
        try:
            est = ev.estimator.anneal_estimate(
                ev.graphs.gen_torus(2, 2), (1, 3, 3, 1), EPS, DELTA, cfg)
        except ValueError as exc:
            return Outcome(1, "", f"refused: {exc}\n")
        return Outcome(0, json.dumps(est.to_jsonable()) + "\n")

    def face_gate(o: Outcome):
        if o.rc == 1:
            return None  # a clear refusal is a pass
        ratio = json.loads(o.out)["value"] / face_z
        return require(abs(ratio - 1.0) <= EPS, f"estimate is {ratio:.3f}x the exact Z")

    def refuse_gate(o: Outcome):
        try:
            ok = o.rc == 1 and "error" in json.loads(o.err)
        except ValueError:
            ok = False
        return require(ok, f"expected exit 1 with an error JSON, got exit {o.rc}")

    once = [
        Op("refuse.k44.3,1,1,1", "estimate", lambda ev: cli_call(ev, refuse_argv), refuse_gate,
           timed=False),
        Op("anneal.face.torus2x2.1,3,3,1", "check", face_probe, face_gate, timed=False),
    ]
    defects = {"anneal.face.torus2x2.1,3,3,1":
               "ROADMAP item 3: face moves miss homology cycles on a torus"}
    return Plan(ops, once, defects)


def estimate_gate(o: Outcome, z: float) -> str | None:
    if o.rc != 0:
        return f"exit {o.rc}: {o.err.strip()[:200]}"
    value = json.loads(o.out)["value"]
    return require(abs(value / z - 1.0) <= EPS, f"|Z_hat/Z - 1| = {abs(value / z - 1):.4f} > {EPS}")


def estimate_facts(o: Outcome, z: float) -> dict:
    payload = json.loads(o.out)
    diag = payload["diagnostics"]
    return {
        "estimator.stages": payload["stages"],
        "estimator.groups": payload["groups"],
        "estimator.sampled_steps":
            payload["stages"] * payload["samples_per_stage"] * diag.get("thinning", 0),
        "estimator.rel_err": abs(payload["value"] / z - 1.0),
        "estimator.stage_relvar_max": diag.get("stage_ratio_relvar_max", 0.0),
    }


# ----------------------------------------------------------------------
# sample

BURN_IN, THINNING = 1000, 10  # the CLI defaults
# Class-mean tolerance, in exact standard deviations of the class count.  Over
# 100 seeds of 2000 samples on torus 4x4 the worst class missed by 0.12 sd, so
# 0.25 sd is about seven standard errors, yet an acceptance rule that squares
# the Metropolis ratio misses by 0.8 sd.
MEAN_TOL_SD = 0.25


def setup_sample(ev, workdir: Path, rng: Random, state: dict) -> Plan:
    graphs = ev.graphs
    params = (1, 2, 2, 1)
    torus = graphs.gen_torus(4, 4)
    means, sds = gibbs_class_moments(ev.exact.census_8v(torus), params)
    cases = (
        ("torus4x4", torus, "basis-cycle", 2000, (means, sds)),
        ("torus6x6", graphs.gen_torus(6, 6), "basis-cycle", 1000, None),
        ("octahedron", graphs.gen_octahedron(), "face", 2000, None),
    )
    ops = []
    for name, graph, proposal, samples, moments in cases:
        argv = ["sample", "--graph", write_graph(ev, workdir, name, graph),
                fmt_params(params), "--seed", str(rng.randrange(1 << 31)),
                "--samples", str(samples), "--proposal", proposal]
        ops.append(Op(
            f"sample.{name}.{proposal}", "sample", lambda ev, argv=argv: cli_call(ev, argv),
            lambda o, g=graph, n=samples, m=moments: sample_gate(o, g, n, m),
            facts=lambda o, n=samples: {"mcmc.sample_steps": BURN_IN + n * THINNING}))
    return Plan(ops)


def gibbs_class_moments(census, params):
    """Exact mean and standard deviation of each class count under the Gibbs measure."""
    z = Fraction(0)
    first, second = [Fraction(0)] * 4, [Fraction(0)] * 4
    for profile, count in census.counts.items():
        w = count * weight(profile, params)
        z += w
        for i in range(4):
            first[i] += w * profile[i]
            second[i] += w * profile[i] ** 2
    means = [float(f / z) for f in first]
    sds = [math.sqrt(float(s / z) - m * m) for s, m in zip(second, means)]
    return means, sds


def sample_gate(o: Outcome, graph, samples: int, moments) -> str | None:
    """Each line is an even orientation in wire form; on request, class means match."""
    if o.rc != 0:
        return f"exit {o.rc}: {o.err.strip()[:200]}"
    lines = o.out.split()
    if len(lines) != samples:
        return f"{len(lines)} lines, expected {samples}"
    # wire form: bit 1 iff the edge points toward its higher-numbered endpoint
    ends = []
    for e in graph.edges:
        lo, hi = (e.u, e.label_u, e.v, e.label_v), (e.v, e.label_v, e.u, e.label_u)
        low, high = (lo, hi) if e.u < e.v else (hi, lo)
        ends.append((low[0], 1 << (low[1] - 1), high[0], 1 << (high[1] - 1)))
    totals = [0, 0, 0, 0]
    for number, line in enumerate(lines):
        if len(line) != graph.edge_count or set(line) - {"0", "1"}:
            return f"line {number + 1} is not a {graph.edge_count}-bit string"
        masks = [0] * graph.vertex_count
        for bit, (low, low_bit, high, high_bit) in zip(line, ends):
            if bit == "1":
                masks[high] |= high_bit
            else:
                masks[low] |= low_bit
        for v, mask in enumerate(masks):
            cls = CLASS_OF_MASK.get(mask)
            if cls is None:
                return f"line {number + 1}: vertex {v} has odd in-degree"
            totals[cls] += 1
    if moments is not None:
        means, sds = moments
        for cls, (total, mean, sd) in enumerate(zip(totals, means, sds)):
            got = total / samples
            if abs(got - mean) > MEAN_TOL_SD * sd:
                return f"class {'ABCD'[cls]} mean {got:.3f}, exact {mean:.3f} (sd {sd:.3f})"
    return None


SETUPS = {"exact": setup_exact, "anneal": setup_anneal, "sample": setup_sample}


def build(workload: str, src: Path, workdir: Path, seed: int, state: dict) -> Plan:
    """One full set-up: fresh import, graphs and graph files, exact references.

    ``state`` outlives the set-up: gates that compare with an earlier
    operation's output keep it there, so a set-up may come between the two.
    """
    ev = fresh_import(src)
    rng = Random(f"eightvertex-bench/{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    return SETUPS[workload](ev, workdir, rng, state)
