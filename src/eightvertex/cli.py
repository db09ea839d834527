"""Batch command-line surface.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors.
Exact scalars are printed as integers or ``num/den``; structured results
are JSON, series are CSV.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from random import Random

from . import __version__
from .exact import (
    as_params,
    census_8v,
    census_ec,
    format_rational,
    z8v_exact,
    zec_exact,
)
from .estimator import PipelineError, estimate_z8v
from .graphs import (
    GraphFormatError,
    LabeledGraph,
    gen_k44,
    gen_octahedron,
    gen_torus,
    parse_graph,
    serialize_graph,
)
from .holant import appendix_lemma_check, binary_transform_check
from .mcmc import ChainConfig, exact_chain_diagnostics, sample
from .states import DEFAULT_DIM_CAP, orientation_to_bitstring
from .transforms import (
    bipartite_group,
    group_fingerprint,
    group_for_class,
    plan_report,
    plan_transform,
    planar_group,
    preimage_spotcheck,
)


class UsageError(ValueError):
    pass


def _load_graph(path: str) -> LabeledGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from exc
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_params(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--params needs four comma-separated rationals, e.g. 1,1,5,1")
    try:
        return as_params(parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad parameter vector {text!r}: {exc}") from exc


def _cmd_gen(args) -> int:
    if args.type == "torus":
        graph = gen_torus(args.rows, args.cols)
    elif args.type == "octahedron":
        graph = gen_octahedron()
    elif args.type == "k44":
        graph = gen_k44()
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown graph type {args.type}")
    text = serialize_graph(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_exact(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    value = (z8v_exact if args.model == "8v" else zec_exact)(graph, p)
    print(format_rational(value))
    return 0


def _cmd_census(args) -> int:
    graph = _load_graph(args.graph)
    census = (census_8v if args.model == "8v" else census_ec)(
        graph, dim_cap=args.max_dim
    )
    print("n_A,n_B,n_C,n_D,count")
    for key in sorted(census.counts):
        na, nb, nc, nd = key
        print(f"{na},{nb},{nc},{nd},{census.counts[key]}")
    return 0


def _cmd_group_table(args) -> int:
    elements = group_for_class(args.graph_class)
    fp = group_fingerprint(elements)
    print(f"# class={args.graph_class} order={fp['order']} abelian={fp['abelian']}")
    for el in elements:
        rows = ";".join(
            ",".join(format_rational(x) for x in row) for row in el.matrix.rows
        )
        print(f"{el.label}\torder={el.order}\t{rows}")
    return 0


def _cmd_plan(args) -> int:
    p = _parse_params(args.params)
    plan = plan_transform(p, args.graph_class)
    if plan is None:
        report = plan_report(p, args.graph_class)
        print(
            json.dumps(
                {
                    "plan": None,
                    "diagnostics": [
                        {
                            "element": row["element"],
                            "normalized": None
                            if row.get("normalized") is None
                            else [format_rational(x) for x in row["normalized"]],
                            "in_Y": row.get("in_Y"),
                            "in_Z": row.get("in_Z"),
                            "reason": row.get("reason"),
                        }
                        for row in report
                    ],
                },
                indent=2,
            )
        )
        return 1
    print(json.dumps(plan.to_jsonable(), indent=2))
    return 0


def _cmd_sample(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    cfg = ChainConfig(
        seed=args.seed, burn_in=args.burn_in, thinning=args.thinning,
        proposal=args.proposal,
    )
    for orientation in sample(graph, p, cfg, args.samples):
        print(orientation_to_bitstring(graph, orientation))
    return 0


def _cmd_diagnose_chain(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    diag = exact_chain_diagnostics(graph, p, tv_threshold=args.tv_threshold)
    print(
        f"# states={diag.states} detailed_balance={diag.detailed_balance} "
        f"stationary_exact={diag.stationary_exact} "
        f"steps_to_tv<{diag.tv_threshold}={diag.steps_to_threshold}",
        file=sys.stderr,
    )
    print("steps,tv")
    for t, tv in diag.tv_curve:
        print(f"{t},{tv:.6g}")
    return 0 if (diag.detailed_balance and diag.stationary_exact) else 1


def _cmd_estimate(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    cfg = ChainConfig(seed=args.seed)
    try:
        estimate, plan = estimate_z8v(
            graph, p, args.graph_class, args.eps, args.delta, cfg
        )
    except PipelineError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    payload = estimate.to_jsonable()
    payload["plan"] = plan.to_jsonable()
    print(json.dumps(payload, indent=2))
    return 0


# ----------------------------------------------------------------------
# verify


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}  {name}{suffix}")
    return ok


def _rand_params(rng: Random):
    span = 65536
    return tuple(Fraction(rng.randrange(0, span + 1), span) for _ in range(4))


def _verify_holant(seed: int) -> bool:
    import numpy as np

    from .holant import (
        HZ_BASIS,
        Z_BASIS,
        constraint_from_params,
        holo_transform,
    )

    ok = True
    report = binary_transform_check()
    ok &= _check("binary constraints transform (Z and H cases)", report["passed"])

    rng = Random(seed)
    worst_z = worst_hz = 0.0
    for _ in range(100):
        a, b, c, d = (rng.uniform(-1, 1) for _ in range(4))
        f = constraint_from_params(a, b, c, d)
        got_z = holo_transform(Z_BASIS, f).constraint_matrix()
        want_z = 0.5 * np.array(
            [
                [a + b + c + d, 0, 0, -a + b + c - d],
                [0, a - b + c - d, a + b - c - d, 0],
                [0, a + b - c - d, a - b + c - d, 0],
                [-a + b + c - d, 0, 0, a + b + c + d],
            ]
        )
        worst_z = max(worst_z, float(np.abs(got_z - want_z).max()))
        got_hz = holo_transform(HZ_BASIS, f).constraint_matrix()
        want_hz = 0.5 * np.array(
            [
                [a + b + c - d, 0, 0, -a + b + c + d],
                [0, a - b + c + d, a + b - c + d, 0],
                [0, a + b - c + d, a - b + c + d, 0],
                [-a + b + c + d, 0, 0, a + b + c - d],
            ]
        )
        worst_hz = max(worst_hz, float(np.abs(got_hz - want_hz).max()))
    ok &= _check("Z-image closed form (100 random params)", worst_z < 1e-10,
                 f"max dev {worst_z:.2e}")
    ok &= _check("HZ-image closed form (100 random params)", worst_hz < 1e-10,
                 f"max dev {worst_hz:.2e}")

    rep = appendix_lemma_check(100, 4, seed=seed)
    ok &= _check("arrow-reversal iff real Z-image (100+100 tables)", rep["passed"])
    return ok


def _verify_groups() -> bool:
    from .transforms import D_FLIP, MHZ, MZ, NEG_IDENTITY, PLANAR_SWAP

    ok = True
    pg, bg = planar_group(), bipartite_group()
    fp_p, fp_b = group_fingerprint(pg), group_fingerprint(bg)
    ok &= _check("planar group has 6 elements", len(pg) == 6)
    ok &= _check("bipartite group has 12 elements", len(bg) == 12)
    ok &= _check(
        "planar fingerprint is S3 (order 6, nonabelian)",
        fp_p["order"] == 6 and not fp_p["abelian"],
    )
    ok &= _check(
        "bipartite fingerprint is D6 (orders {1:1,2:7,3:2,6:2})",
        fp_b["element_orders"] == {1: 1, 2: 7, 3: 2, 6: 2},
    )
    by_label_p = {el.label: el for el in pg}
    by_label_b = {el.label: el for el in bg}
    ok &= _check(
        "planar MZ^2*MHZ is the d-flip", by_label_p["MZ^2*MHZ"].matrix == D_FLIP
    )
    ok &= _check("bipartite MZ^3 is -I", by_label_b["MZ^3"].matrix == NEG_IDENTITY)
    ok &= _check(
        "planar generators factor through the coloring swap",
        by_label_p["MZ"].matrix == PLANAR_SWAP @ MZ
        and by_label_p["MHZ"].matrix == PLANAR_SWAP @ MHZ,
    )
    sq = by_label_p["MZ^2*MHZ"].matrix
    ok &= _check("(MZ^2*MHZ)^2 = I and MZ^6 = I (bipartite)",
                 (sq @ sq).rows == by_label_p["I"].matrix.rows
                 and by_label_b["MZ"].matrix.power(6).rows == by_label_b["I"].matrix.rows)
    return ok


def _verify_bijection() -> bool:
    from .states import (
        canonical_bipartite_orientation,
        canonical_planar_orientation,
        coloring_classes,
        enumerate_even_orientations,
        face_two_coloring,
        orientation_classes,
        orientation_to_coloring,
    )

    ok = True
    swap = {0: 1, 1: 0, 2: 3, 3: 2}  # A<->B, C<->D
    oct_ = gen_octahedron()
    canon = canonical_planar_orientation(oct_, face_two_coloring(oct_))
    images = set()
    per_state = True
    for tau in enumerate_even_orientations(oct_):
        coloring = orientation_to_coloring(oct_, tau, canon)
        images.add(coloring)
        want = sorted(swap[c] for c in orientation_classes(oct_, tau))
        got = sorted(coloring_classes(oct_, coloring))
        per_state &= want == got
    ok &= _check(
        "octahedron bijection is onto all even colorings", len(images) == 128
    )
    ok &= _check("octahedron per-state class swap A<->B, C<->D", per_state)

    k44 = gen_k44()
    canon = canonical_bipartite_orientation(k44)
    per_state = True
    images = set()
    for tau in enumerate_even_orientations(k44):
        coloring = orientation_to_coloring(k44, tau, canon)
        images.add(coloring)
        per_state &= sorted(orientation_classes(k44, tau)) == sorted(
            coloring_classes(k44, coloring)
        )
    ok &= _check("K4,4 bijection is onto all even colorings", len(images) == 512)
    ok &= _check("K4,4 per-state classes preserved", per_state)
    return ok


def _verify_signs(seed: int) -> bool:
    rng = Random(seed)
    ok = True
    for graph, name in ((gen_octahedron(), "octahedron"), (gen_k44(), "K4,4"),
                        (gen_torus(2, 2), "2x2 torus")):
        census = census_8v(graph)
        good_d = good_all = True
        for _ in range(20):
            a, b, c, d = _rand_params(rng)
            good_d &= census.evaluate((a, b, c, d)) == census.evaluate((a, b, c, -d))
            good_all &= census.evaluate((a, b, c, d)) == census.evaluate(
                (-a, -b, -c, -d)
            )
        ok &= _check(f"d-flip invariance on {name}", good_d)
        ok &= _check(f"all-flip invariance on {name} (even order)", good_all)
    return ok


def _verify_invariance(seed: int) -> bool:
    rng = Random(seed)
    ok = True
    oct_ = gen_octahedron()
    census = census_8v(oct_)
    good = True
    for el in planar_group():
        for _ in range(5):
            p = _rand_params(rng)
            good &= census.evaluate(p) == census.evaluate(el.matrix.apply(p))
    ok &= _check("planar transforms preserve the octahedron value", good)
    k44 = gen_k44()
    census = census_8v(k44)
    good = True
    for el in bipartite_group():
        for _ in range(5):
            p = _rand_params(rng)
            good &= census.evaluate(p) == census.evaluate(el.matrix.apply(p))
    ok &= _check("bipartite transforms preserve the K4,4 value", good)
    return ok


def _verify_regions(seed: int) -> bool:
    report = preimage_spotcheck(samples_per_row=50, seed=seed)
    bad = [r for r in report.rows if r.failures]
    return _check(
        "table preimages map into Y (50 samples per row)",
        not bad,
        f"{len(report.rows)} rows",
    )


_VERIFY_SECTIONS = {
    "holant": lambda seed: _verify_holant(seed),
    "groups": lambda seed: _verify_groups(),
    "bijection": lambda seed: _verify_bijection(),
    "signs": lambda seed: _verify_signs(seed),
    "invariance": lambda seed: _verify_invariance(seed),
    "regions": lambda seed: _verify_regions(seed),
}


def _cmd_verify(args) -> int:
    sections = list(_VERIFY_SECTIONS) if args.target == "all" else [args.target]
    ok = True
    for name in sections:
        print(f"== {name}")
        ok &= _VERIFY_SECTIONS[name](args.seed)
    print("== result:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eightvertex",
        description="Eight-vertex model toolkit: exact oracles, transform groups, "
        "sampling and estimation on labeled 4-regular graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph file")
    p.add_argument("--type", required=True, choices=("torus", "octahedron", "k44"))
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("exact", help="exact partition function")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--model", choices=("8v", "ec"), default="8v")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("census", help="class-profile census as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", choices=("8v", "ec"), default="8v")
    p.add_argument("--max-dim", type=int, default=DEFAULT_DIM_CAP)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("group-table", help="print a transform group in table order")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=("planar", "bipartite"))
    p.set_defaults(func=_cmd_group_table)

    p = sub.add_parser("plan", help="find a transform into the rapidly-mixing region")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=("planar", "bipartite"))
    p.add_argument("--params", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="run identity checks; exit 1 on failure")
    p.add_argument("target", choices=("all",) + tuple(_VERIFY_SECTIONS))
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="emit sampled orientations as bit-strings")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thinning", type=int, default=10)
    p.add_argument("--proposal", choices=("basis-cycle", "face"),
                   default="basis-cycle")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("diagnose-chain", help="exact chain diagnostics, TV curve CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--tv-threshold", type=float, default=0.01)
    p.set_defaults(func=_cmd_diagnose_chain)

    p = sub.add_parser("estimate", help="transform-then-anneal estimate as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=("planar", "bipartite"))
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
