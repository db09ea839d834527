"""Benchmark of the eightvertex CLI: one workload per invocation, in-process.

    python3 benchmarks/run.py --workload {exact,anneal,sample} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Inputs (parameter points and chain seeds) come from
``--seed``.  The workload's pass of operations repeats a fixed number of
times, ``passes``, which fills about ``--seconds`` on a 2-vCPU host; a count
fixed by the arguments, rather than a deadline, makes every run of a workload
attempt the same operations, so runs agree on ``attempted`` and ``failed``.
Every output is gated for correctness and hashed.  ``SETUP_REPEATS`` set-ups
(fresh import, graphs, graph files, exact references) are spread over the run
and timed.  The last stdout line is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.

Times are reported at a fixed host speed.  Other tenants of a shared host
slow this process by up to half, in spells that last from seconds to
minutes, and those spells moved whole runs' wall times by 15-20%.  While an
operation or set-up runs, a timer interrupts it every 10 ms to time a short
fixed loop (see ``HostGauge``), and its time is scaled to the host speed at
which that loop takes ``REF_SECONDS``.  Raw wall times stay in the
``record`` line.

With ``--trace 1`` each operation runs twice back to back, untraced and
then traced; the traced copies give the per-layer figures (medians over
whole passes) and the pairs give the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_totals  # noqa: E402
from workloads import SETUPS, Op, Outcome, Plan, build, fresh_import  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REF_SECONDS = 0.00026  # reference_loop on an idle core of a 2-vCPU Xeon VM
GAUGE_FIRST, GAUGE_INTERVAL = 0.001, 0.01  # seconds to the first and between gauge ticks
CRASHED = -1  # the exit status recorded for an operation that raised
# Wall seconds of one untraced pass, fresh imports included, on a 2-vCPU VM
# under typical load from other tenants.
PASS_SECONDS = {"exact": 22.5, "anneal": 10.5, "sample": 0.85}
# A run whose passes would end later than this stops early, well within the
# 180 s a run may take; only a host several times slower than usual gets there.
STOP_SECONDS = 140.0

COUNTS = (
    "states.cycle_basis_calls", "exact.census_states", "transforms.in_yz_calls",
    "estimator.stages", "estimator.groups", "estimator.sampled_steps", "mcmc.sample_steps",
)


def reference_loop() -> float:
    """Seconds for a short fixed pure-Python loop: a gauge of the host's speed."""
    start = time.perf_counter()
    table = [i & 3 for i in range(16)]
    masks = [0] * 16
    acc = 0
    for i in range(1, 2000):
        v = i & 15
        masks[v] ^= 1 << (((i & -i).bit_length() - 1) & 3)
        acc += table[masks[v]]
    return time.perf_counter() - start


class HostGauge:
    """Times a block and gauges the host's speed while it runs.

    A real-time interval timer interrupts the block every ``GAUGE_INTERVAL``
    seconds and times ``reference_loop``, whose idle-host time is
    ``REF_SECONDS``.  The block's own time (wall time less the loops) times
    its mean speed relative to the reference is the time it would take on
    the reference host: ``scaled``.
    """

    def __enter__(self) -> "HostGauge":
        self.loops: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_FIRST, GAUGE_INTERVAL)
        return self

    def _tick(self, signum, frame) -> None:
        self.loops.append(reference_loop())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.loops:  # a block shorter than GAUGE_FIRST
            self.loops.append(reference_loop())
        speed = statistics.fmean(REF_SECONDS / loop for loop in self.loops)
        self.scaled = max(self.wall - sum(self.loops), 0.0) * speed


class OpRecord:
    """Every execution of one named operation in this run."""

    def __init__(self, op: Op):
        self.op = op
        self.seconds: list[float] = []  # wall time
        self.scaled: list[float] = []  # at reference host speed
        self.failures: list[str] = []
        self.digest: str | None = None
        self.identical = True  # same stdout on every execution (fixed inputs)

    def add(self, gauge: HostGauge, outcome: Outcome, error: str | None):
        self.seconds.append(gauge.wall)
        self.scaled.append(gauge.scaled)
        digest = hashlib.sha256(outcome.out.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.identical = False
            error = error or "stdout differs from an earlier run of the same inputs"
        if error:
            self.failures.append(error)


def execute(op: Op, record: OpRecord, tracer: Tracer | None = None) -> tuple[float, dict]:
    """Run, gate and record one operation; return its scaled-to-wall ratio and facts.

    Each operation gets freshly imported modules, untimed, so that no module
    state (an ``lru_cache``, say) carries over from earlier commands: each CLI
    command a user runs is a new process.  The import's cost is in set-up.
    """
    ev = fresh_import(SRC)
    gc.collect()  # the modules just dropped are garbage; collect it untimed
    with tracer or nullcontext(), HostGauge() as gauge:
        try:
            outcome = op.run(ev)
        except Exception:  # a crash fails this operation, not the run
            outcome = Outcome(CRASHED, "", traceback.format_exc())
    facts: dict = {}
    try:
        if outcome.rc == CRASHED:
            error = "raised " + outcome.err.strip().splitlines()[-1]
        else:
            error = op.gate(outcome)
        if error is None:
            facts = op.facts(outcome)
    except Exception as exc:  # a malformed output fails its gate, never the run
        error = f"gate raised {type(exc).__name__}: {exc}"
    record.add(gauge, outcome, error)
    return gauge.scaled / gauge.wall, facts


class SetUps:
    """Times each set-up; ``SETUP_REPEATS`` of them are spread over the run.

    Set-ups made back to back would all land in the same spell of host
    contention; spread over the run, their median sees its typical conditions.
    """

    def __init__(self, args, workdir: Path):
        self.args, self.workdir = args, workdir
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.state: dict = {}
        self.plan = self.again()

    def again(self) -> Plan:
        with HostGauge() as gauge:
            self.plan = build(self.args.workload, SRC, self.workdir, self.args.seed, self.state)
        self.seconds.append(gauge.wall)
        self.scaled.append(gauge.scaled)
        return self.plan

    def due(self, done: int, total: int) -> bool:
        """Whether a set-up is due before operation ``done`` of ``total``."""
        return len(self.seconds) < SETUP_REPEATS and done >= len(self.seconds) * total / SETUP_REPEATS


def passes(args) -> int:
    """The passes of a run: about ``--seconds`` of work, twice the work per pass traced."""
    per_pass = PASS_SECONDS[args.workload] * (2 if args.trace else 1)
    return max(2 if args.trace else 1, round(args.seconds / per_pass))


def scaled_layers(spans, scale: float) -> dict[str, float]:
    return {
        key: value * scale if key.endswith("_s") else value
        for key, value in layer_totals(spans).items()
    }


def pass_layers(totals: dict[str, float], facts_list, cli_by_kind) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    g = lambda key: totals.get(key, 0.0)  # noqa: E731
    facts: dict[str, float] = {}
    for f in facts_list:
        for key, value in f.items():
            if key.endswith(("rel_err", "relvar_max")):
                facts[key] = max(facts.get(key, 0.0), value)
            else:
                facts[key] = facts.get(key, 0) + value
    f = lambda key: facts.get(key, 0)  # noqa: E731
    census_states = g("exact.census_states")
    anneal_s, sample_s, stages = g("estimator.anneal_s"), g("mcmc.sample_s"), f("estimator.stages")
    return {
        "cli.main_self_s": g("cli.main_self_s"),
        "cli.census_s": cli_by_kind.get("census", 0.0),
        "cli.exact_s": cli_by_kind.get("exact", 0.0),
        "cli.estimate_s": cli_by_kind.get("estimate", 0.0),
        "cli.sample_s": cli_by_kind.get("sample", 0.0),
        "graphs.parse_s": g("graphs.parse_s"),
        "states.cycle_basis_s": g("states.cycle_basis_s"),
        "states.cycle_basis_calls": g("states.cycle_basis_calls"),
        "states.reference_orientation_s": g("states.reference_orientation_s"),
        "states.face_coloring_s": g("states.face_coloring_s"),
        "exact.census_s": g("exact.census_s"),
        "exact.census_states": census_states,
        "exact.census_ns_per_state":
            1e9 * g("exact.census_s") / census_states if census_states else 0.0,
        "exact.evaluate_s": g("exact.evaluate_s"),
        "exact.holant_s": g("exact.holant_s"),
        "transforms.plan_s": g("transforms.plan_s"),
        "transforms.in_yz_calls": g("transforms.in_yz_calls"),
        "transforms.in_yz_s": g("transforms.in_yz_s"),
        "estimator.schedule_s": g("estimator.schedule_s"),
        "estimator.anneal_self_s": g("estimator.anneal_self_s"),
        "estimator.stages": stages,
        "estimator.groups": f("estimator.groups"),
        "estimator.sampled_steps": f("estimator.sampled_steps"),
        "estimator.steps_per_s": f("estimator.sampled_steps") / anneal_s if anneal_s else 0.0,
        "estimator.stage_s": anneal_s / stages if stages else 0.0,
        "estimator.rel_err": f("estimator.rel_err"),
        "estimator.stage_relvar_max": f("estimator.stage_relvar_max"),
        "mcmc.sample_steps": f("mcmc.sample_steps"),
        "mcmc.steps_per_s": f("mcmc.sample_steps") / sample_s if sample_s else 0.0,
    }


def measure(args, setups: SetUps) -> tuple[dict[str, OpRecord], dict[str, float], list[str]]:
    """Run passes until the deadline; return op records, metrics and problems."""
    plan = setups.plan
    records = {op.name: OpRecord(op) for op in plan.ops + plan.once}
    problems: list[str] = []
    tracer = Tracer()
    layer_passes: list[dict[str, float]] = []
    untraced = traced = 0.0
    count = passes(args)
    total = count * len(plan.ops)
    start = time.perf_counter()
    executed = 0
    for index in range(count):
        if index and (time.perf_counter() - start) * (index + 1) / index > STOP_SECONDS:
            print(f"note: stopped after {index} of {count} passes, the next would end past {STOP_SECONDS:g} s")
            break
        if not args.trace:
            for position in range(len(plan.ops)):
                if setups.due(executed, total):
                    plan = setups.again()
                op = plan.ops[position]
                execute(op, records[op.name])
                executed += 1
            continue
        if setups.due(executed, total):
            plan = setups.again()
        totals: dict[str, float] = {}
        facts, cli_by_kind = [], {}
        for op in plan.ops:
            record = records[op.name]
            execute(op, record)
            untraced += record.scaled[-1]
            scale, fact = execute(op, record, tracer)
            traced += record.scaled[-1]
            for key, value in scaled_layers(tracer.take(), scale).items():
                totals[key] = totals.get(key, 0.0) + value
            facts.append(fact)
            if op.kind != "check":
                cli_by_kind[op.kind] = cli_by_kind.get(op.kind, 0.0) + record.scaled[-1]
        layer_passes.append(pass_layers(totals, facts, cli_by_kind))
        executed += len(plan.ops)
    while len(setups.seconds) < SETUP_REPEATS:
        plan = setups.again()
    for op in plan.once:
        execute(op, records[op.name])

    if args.trace:
        metrics = {
            key: statistics.median(p[key] for p in layer_passes) for key in layer_passes[0]
        }
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        for key in COUNTS:
            if len({p[key] for p in layer_passes}) > 1:
                problems.append(f"count {key} differs between passes")
        return records, metrics, problems

    groups: dict[str, list[float]] = {}
    for record in records.values():
        if record.op.timed:
            groups.setdefault(record.op.group, []).extend(record.scaled)
    medians = {group: statistics.median(values) for group, values in groups.items()}
    metrics = {
        "commands_s": sum(medians[op.group] for op in plan.ops if op.timed),
        "setup_s": statistics.median(setups.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return records, metrics, problems


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 20:
        out[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eightvertex" / "__init__.py").is_file():
        print(f"error: no eightvertex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        setups = SetUps(args, workdir)
        records, metrics, problems = measure(args, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    known = setups.plan.known_defects
    attempted = sum(len(r.seconds) for r in records.values())
    failed = sum(len(r.failures) for r in records.values())
    unexpected = [name for name, r in records.items() if r.failures and name not in known]

    # BENCHMARK.json declares each workload's reason and each metric's unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    for name, r in records.items():
        status = "PASS" if not r.failures else "FAIL"
        if r.failures and name in known:
            status += f" (known defect, {known[name]})"
        print(f"  {status} {name}: {len(r.seconds) - len(r.failures)}/{len(r.seconds)} passed,"
              f" median {statistics.median(r.scaled):.4f} s"
              f" (wall {statistics.median(r.seconds):.4f} s), stdout sha256 {r.digest[:16]}")
        if r.failures:
            print(f"       first failure: {r.failures[0]}")
    for problem in problems:
        print(f"  FAIL {problem}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "context": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines(),
            "ref_seconds": REF_SECONDS,
        },
        "setup_wall_s": setups.seconds,
        "setup_scaled_s": setups.scaled,
        "ops": {
            name: {"kind": r.op.kind, "timed": r.op.timed, "passed": not r.failures,
                   "failures": r.failures[:3], "stdout_sha256": r.digest,
                   "identical": r.identical, **summary(r.scaled),
                   "wall_s": [float(f"{x:.6g}") for x in r.seconds],
                   "scaled_s": [float(f"{x:.6g}") for x in r.scaled]}
            for name, r in records.items()
        },
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not unexpected and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
