"""Batch command-line surface.

Exit status: 0 on success, 2 on usage errors, and 1 when
- ``verify`` finds a failed check;
- ``estimate`` is refused: the reason goes to stderr as ``{"error": ...}``;
- ``plan`` finds no plan: stdout has ``"plan": null`` and the diagnostics;
- the reader of stdout goes away.  ``sample`` streams its rows, so with
  ``sample ... | head -1`` the run stops at its next write, the rest of the
  output goes to the null device, and there is no traceback.
Exact scalars are printed as integers or ``num/den``; structured results
are JSON, series are CSV.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
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
    sample_region_point,
)


class UsageError(ValueError):
    pass


def _load_graph(path: str) -> LabeledGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from exc
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_params(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--params needs four comma-separated rationals, e.g. 1,1,5,1")
    try:
        return as_params(parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad parameter vector {text!r}: {exc}") from exc


# the graphs of ``gen --type``, which lists these keys as its choices
_GENERATORS = {
    "torus": lambda args: gen_torus(args.rows, args.cols),
    "octahedron": lambda args: gen_octahedron(),
    "k44": lambda args: gen_k44(),
}


def _cmd_gen(args) -> int:
    text = serialize_graph(_GENERATORS[args.type](args))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write graph file {args.out}: {exc}") from exc
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
        payload = {"plan": None, "diagnostics": plan_report(p, args.graph_class)}
        print(json.dumps(payload, indent=2))
        return 1
    print(json.dumps(plan.to_jsonable(), indent=2))
    return 0


def _cmd_sample(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    cfg = ChainConfig(seed=args.seed, proposal=args.proposal)

    def write(rows):  # about a megabyte of text per write
        per_write = max(1, (1 << 20) // (graph.edge_count + 1))
        for start in range(0, len(rows), per_write):
            sys.stdout.write(orientation_to_bitstring(graph, rows[start:start + per_write]))

    sample(graph, p, cfg, args.samples, args.burn_in, args.thinning, emit=write)
    return 0


def _cmd_diagnose_chain(args) -> int:
    graph = _load_graph(args.graph)
    p = _parse_params(args.params)
    diag = exact_chain_diagnostics(graph, p, tv_threshold=args.tv_threshold)
    print(f"# states={diag.states} steps_to_tv<{diag.tv_threshold}={diag.steps_to_threshold}",
          file=sys.stderr)
    print("steps,tv")
    for t, tv in diag.tv_curve:
        print(f"{t},{tv:.6g}")
    return 0


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


def _verify_holant(seed: int) -> bool:
    import numpy as np

    from .holant import HZ_BASIS, Z_BASIS, constraint_from_params, holo_transform
    from .transforms import MHZ, MZ

    ok = True
    report = binary_transform_check()
    ok &= _check("binary constraints transform (Z and H cases)", report["passed"])

    # the basis change on every leg must act on (a, b, c, d) as the
    # planner's parameter map
    maps = (("Z basis change acts as MZ", Z_BASIS, np.array(MZ.rows, dtype=float)),
            ("HZ basis change acts as MHZ", HZ_BASIS, np.array(MHZ.rows, dtype=float)))
    worst = {name: 0.0 for name, _, _ in maps}
    rng = Random(seed)
    for _ in range(100):
        p = np.array([rng.uniform(-1, 1) for _ in range(4)])
        for name, basis, matrix in maps:
            got = holo_transform(basis, constraint_from_params(*p)).table
            want = constraint_from_params(*(matrix @ p)).table
            worst[name] = max(worst[name], float(np.abs(got - want).max()))
    for name, dev in worst.items():
        ok &= _check(f"{name} (100 random params)", dev < 1e-10, f"max dev {dev:.2e}")

    rep = appendix_lemma_check(100, 4, seed=seed)
    ok &= _check("arrow-reversal iff real Z-image (100+100 tables)", rep["passed"])
    return ok


def _verify_groups(seed: int) -> bool:
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


def _verify_bijection(seed: int) -> bool:
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
    # (name, graph, canonical orientation, class map, even-coloring count, class check)
    cases = (
        ("octahedron", gen_octahedron(),
         lambda g: canonical_planar_orientation(g, face_two_coloring(g)),
         {0: 1, 1: 0, 2: 3, 3: 2}, 128, "class swap A<->B, C<->D"),
        ("K4,4", gen_k44(), canonical_bipartite_orientation,
         {0: 0, 1: 1, 2: 2, 3: 3}, 512, "classes preserved"),
    )
    for name, graph, canonical, classes, count, class_check in cases:
        canon = canonical(graph)
        images = set()
        per_state = True
        for tau in enumerate_even_orientations(graph):
            coloring = orientation_to_coloring(graph, tau, canon)
            images.add(coloring)
            want = sorted(classes[c] for c in orientation_classes(graph, tau))
            per_state &= want == sorted(coloring_classes(graph, coloring))
        ok &= _check(f"{name} bijection is onto all even colorings", len(images) == count)
        ok &= _check(f"{name} per-state {class_check}", per_state)
    return ok


def _verify_signs(seed: int) -> bool:
    from .transforms import D_FLIP, NEG_IDENTITY

    rng = Random(seed)
    ok = True
    for graph, name in ((gen_octahedron(), "octahedron"), (gen_k44(), "K4,4"),
                        (gen_torus(2, 2), "2x2 torus")):
        census = census_8v(graph)
        good_d = good_all = True
        for _ in range(20):
            p = sample_region_point(rng, ())
            value = census.evaluate(p)
            good_d &= value == census.evaluate(D_FLIP.apply(p))
            good_all &= value == census.evaluate(NEG_IDENTITY.apply(p))
        ok &= _check(f"d-flip invariance on {name}", good_d)
        ok &= _check(f"all-flip invariance on {name} (even order)", good_all)
    return ok


def _verify_invariance(seed: int) -> bool:
    rng = Random(seed)
    ok = True
    for name, graph, graph_class in (("octahedron", gen_octahedron(), "planar"),
                                     ("K4,4", gen_k44(), "bipartite")):
        census = census_8v(graph)
        good = True
        for el in group_for_class(graph_class):
            for _ in range(5):
                p = sample_region_point(rng, ())
                good &= census.evaluate(p) == census.evaluate(el.matrix.apply(p))
        ok &= _check(f"{graph_class} transforms preserve the {name} value", good)
    return ok


def _verify_regions(seed: int) -> bool:
    report = preimage_spotcheck(samples_per_row=50, seed=seed)
    return _check(
        "table preimages map into Y (50 samples per row)",
        report.passed,
        f"{len(report.rows)} rows",
    )


# each section takes the seed, whether or not it draws
_VERIFY_SECTIONS = {
    "holant": _verify_holant,
    "groups": _verify_groups,
    "bijection": _verify_bijection,
    "signs": _verify_signs,
    "invariance": _verify_invariance,
    "regions": _verify_regions,
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


# argparse reads "--params -1,2,2,1" as a flag with no value
_PARAMS_HELP = ("four comma-separated rationals a,b,c,d; "
                "write --params=-1,2,2,1 when a is negative")
_GRAPH = ("--graph", {"required": True})
_PARAMS = ("--params", {"required": True, "help": _PARAMS_HELP})
_CLASS = ("--class", {"dest": "graph_class", "required": True,
                      "choices": ("planar", "bipartite")})
_MODEL = ("--model", {"choices": ("8v", "ec"), "default": "8v"})
_SEED = ("--seed", {"type": int, "required": True})

# name: (handler, add_parser keywords, its arguments in help order)
_COMMANDS = {
    "gen": (_cmd_gen, {"help": "write a generated graph file"}, (
        ("--type", {"required": True, "choices": tuple(_GENERATORS)}),
        ("--rows", {"type": int, "default": 4}),
        ("--cols", {"type": int, "default": 4}),
        ("--out", {"help": "output path (default: stdout)"}))),
    "exact": (_cmd_exact, {"help": "exact partition function"}, (_GRAPH, _PARAMS, _MODEL)),
    "census": (_cmd_census, {"help": "class-profile census as CSV"}, (
        _GRAPH, _MODEL, ("--max-dim", {"type": int, "default": DEFAULT_DIM_CAP}))),
    "group-table": (_cmd_group_table, {"help": "print a transform group in table order"},
                    (_CLASS,)),
    "plan": (_cmd_plan, {"help": "find a transform into the rapidly-mixing region"},
             (_CLASS, _PARAMS)),
    "verify": (_cmd_verify, {"help": "run identity checks; exit 1 on failure"}, (
        ("target", {"choices": ("all",) + tuple(_VERIFY_SECTIONS)}), _SEED)),
    "sample": (_cmd_sample, {
        "help": "emit sampled orientations as bit-strings",
        "description": "Print one line per sample.  Bit i of a line is edge i in file order: "
        "1 iff the edge points toward its higher-numbered endpoint.  A self-loop "
        "'edge i v a v b' keeps its slot bit: 1 iff it points into label b."}, (
        _GRAPH, _PARAMS, _SEED,
        ("--samples", {"type": int, "required": True}),
        ("--burn-in", {"type": int, "default": 1000}),
        ("--thinning", {"type": int, "default": 10}),
        ("--proposal", {"choices": ("basis-cycle", "face"), "default": "basis-cycle"}))),
    "diagnose-chain": (_cmd_diagnose_chain, {"help": "exact chain diagnostics, TV curve CSV"}, (
        _GRAPH, _PARAMS, ("--tv-threshold", {"type": float, "default": 0.01}))),
    "estimate": (_cmd_estimate, {"help": "transform-then-anneal estimate as JSON"}, (
        _GRAPH, _PARAMS, _CLASS,
        ("--eps", {"type": float, "default": 0.05}),
        ("--delta", {"type": float, "default": 0.25}), _SEED)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` given, of that one only.

    argparse spends about a millisecond on the eight subparsers a call never
    reads.  The lean parser's metavar names every command in its usage line;
    the full parser has none, so that its errors call a missing or unknown
    command "command".
    """
    parser = argparse.ArgumentParser(
        prog="eightvertex",
        description="Eight-vertex model toolkit: exact oracles, transform groups, "
        "sampling and estimation on labeled 4-regular graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, about, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, **about)
            for flag, spec in arguments:
                p.add_argument(flag, **spec)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
