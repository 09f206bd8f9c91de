"""Benchmark for congames: three seeded workloads, end-to-end and per layer.

    python3 bench/run.py --workload solve-audit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

A run sets up several times (fresh import of congames plus generating the
seeded inputs), then runs rounds on those inputs until ``--seconds`` have
passed, checking every output.  With ``--trace 0`` it reports end-to-end
metrics: the median round time, the median set-up time, both scaled to a
reference CPU speed (see calibration()), and peak memory.  With
``--trace 1`` each untraced round is followed by the same round replayed
through the library with every layer call in a span; it reports per-layer
times, self time per layer, the tracing overhead, kernel probes and exact
work counts.

At the default seed every output digest must match ``golden.json``;
``--update-golden`` rewrites the pins.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any check failed or congames cannot be imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".bench_run"
SPANS = ROOT / ".bench_out"
DEFAULT_SEED = 0
# set-ups per run: at least MIN_SETUPS, more while they take under the budget
MIN_SETUPS = 5
SETUP_BUDGET_S = 2.0
# calibration() seconds at the reference speed, by its big_ints argument:
# end-to-end times are reported as seconds on a machine where the
# calibration loop takes this long
REFERENCE_CALIBRATION_S = {False: 0.1, True: 0.12}
MODULES = ("instances", "game", "potential", "dynamics", "verify", "analysis", "cli")

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

# Per-layer span totals reported, with the traced span names they sum.
SPAN_METRICS = {
    "instances.gen_lower_bound.s": ("instances.gen_lower_bound",),
    "game.parse_instance.s": ("game.parse_instance",),
    "game.serialize_instance.s": ("game.serialize_instance",),
    "game.social_cost.s": ("game.social_cost",),
    "dynamics.compute_schedule.s": ("dynamics.compute_schedule",),
    "dynamics.run_algorithm.s": ("dynamics.run_algorithm",),
    "dynamics.write_trace.s": ("dynamics.write_trace",),
    "dynamics.read_trace.s": ("dynamics.read_trace",),
    "verify.audit_trace.s": ("verify.audit_trace",),
    "verify.min_equilibrium_factor.s": ("verify.min_equilibrium_factor",),
    "verify.brute_force_poa.s": ("verify.brute_force_poa",),
    "verify.group_poa.s": ("verify.group_poa",),
    "verify.stretch_ratio.s": ("verify.stretch_ratio",),
    "analysis.poa_bounds.s": ("analysis.poa_bounds",),
    "analysis.grid_check.s": (
        "analysis.check_smoothness_constraint",
        "analysis.check_combination_inequality",
    ),
}
STAGES = ("solve_s", "audit_s", "verify_s", "brute_poa_s", "group_oracle_s",
          "lb_build_s", "lb_check_s", "analysis_s")
COUNTS = ("dynamics.moves", "dynamics.phases", "dynamics.trace_bytes", "dynamics.max_bits",
          "verify.states", "instances.lb_coeff_bits")
PROBES = ("game.loads.us_per_call", "game.player_costs.us_per_call",
          "dynamics.best_response.us_per_call", "game.poly_eval.us_per_call",
          "potential.potential.us_per_call", "potential.partial_potential.us_per_call")


def unit_of(name: str) -> str:
    if name.endswith(("us_per_call", "us_per_state")):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name == "failed_frac":
        return "fraction"
    if name.endswith((".s", "_s", "s_per_move")):
        return "s"
    return "count"


def calibration(big_ints: bool) -> float:
    """Seconds taken by a fixed stdlib loop with the same instruction mix
    as the workload: big-int products and quotients, or a small congestion
    game's loads and Horner cost sums in Fractions.

    On a shared 2-vCPU virtual machine the CPU speed switches between
    phases up to 1.6x apart that last seconds to minutes.  A round's time
    divided by the calibration timed on either side of it is steady within
    a phase; the median over rounds drops the rounds that straddle a
    phase change.
    """
    t0 = time.perf_counter()
    if big_ints:
        x = 7**30000
        for i in range(6):
            (x + i) * (x - i) // (x + 3 * i + 1)
        return time.perf_counter() - t0
    n, m = 60, 20
    weights = [Fraction(4 + (7 * u) % 9, 4) for u in range(n)]
    coeffs = [(Fraction(1 + e % 7, 4), Fraction(1 + 3 * e % 5, 4), Fraction(1 + 5 * e % 8, 4))
              for e in range(m)]
    strategies = [((u % m,), ((3 * u + 1) % m, (5 * u + 2) % m)) for u in range(n)]
    for step in range(60):
        chosen = [strategies[u][(u * step) % 2] for u in range(n)]
        loads = [Fraction(0)] * m
        for u in range(n):
            for e in chosen[u]:
                loads[e] += weights[u]
        for u in range(n):
            cost = Fraction(0)
            for e in chosen[u]:
                for a in reversed(coeffs[e]):
                    cost = cost * loads[e] + a
    return time.perf_counter() - t0


def import_congames():
    """Import congames afresh from src/ and return its modules by layer name."""
    src = ROOT / "src"
    if not (src / "congames" / "__init__.py").is_file():
        raise SystemExit(f"bench: no congames package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "congames" or m.startswith("congames.")]:
        del sys.modules[name]
    package = importlib.import_module("congames")
    if Path(package.__file__).resolve().parent != (src / "congames").resolve():
        raise SystemExit(f"bench: congames imported from {package.__file__}, not {src}")
    modules = {m: importlib.import_module(f"congames.{m}") for m in MODULES}
    modules["congames"] = package
    return modules


class Modules:
    """Attribute access to the congames modules: cg.game, cg.cli, ..."""

    def __init__(self, modules: dict) -> None:
        self.__dict__.update(modules)
        self.all = modules


def setup(workload, seed: int, workdir: Path, ledger: Ledger):
    """Fresh import plus input generation; returns (raw seconds, modules, inputs)."""
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    cg = Modules(import_congames())
    inputs = workload.prepare(cg, seed, workdir, ledger)
    return time.perf_counter() - t0, cg, inputs


def stage_times(ledger, before: dict, stages) -> dict[str, float]:
    return {s: ledger.stages.get(s, 0.0) - before.get(s, 0.0) for s in stages}


def to_reference(seconds: float, cal_before: float, cal_after: float, workload) -> float:
    """Seconds at the reference speed, from the calibrations around them."""
    return seconds * REFERENCE_CALIBRATION_S[workload.big_ints] * 2 / (cal_before + cal_after)


class Rounds:
    """Stage times of the rounds of one kind, raw and scaled to reference speed."""

    def __init__(self) -> None:
        self.stages: list[dict[str, float]] = []
        self.scaled: list[float] = []

    def add(self, stages: dict[str, float], cal_before: float, cal_after: float, workload):
        self.stages.append(stages)
        self.scaled.append(to_reference(sum(stages.values()), cal_before, cal_after, workload))

    def median(self, stage: str | None = None) -> float:
        return statistics.median(
            sum(r.values()) if stage is None else r.get(stage, 0.0) for r in self.stages
        )


def run_rounds(workload, cg, inputs, seconds, ledger, golden, record, tracer=None, count=None):
    """Rounds until `seconds` pass (or exactly `count` rounds), with a
    calibration run after each.  With a tracer, each untraced round is
    followed by its traced replay, so both sample the same CPU phases."""
    untraced, traced = Rounds(), Rounds()
    spent: list[float] = []
    start = time.perf_counter()
    cal = calibration(workload.big_ints)
    while True:
        inp = inputs[len(untraced.stages) % len(inputs)]
        t0 = time.perf_counter()
        before = dict(ledger.stages)
        workload.run_round(cg, inp, ledger, golden, record)
        cal_after = calibration(workload.big_ints)
        untraced.add(stage_times(ledger, before, workload.stages), cal, cal_after, workload)
        cal = cal_after
        if tracer is not None:
            before = dict(ledger.stages)
            with tracer.patched(cg.all):
                workload.traced_round(cg, inp, ledger, tracer)
            cal_after = calibration(workload.big_ints)
            traced.add(stage_times(ledger, before, workload.stages), cal, cal_after, workload)
            cal = cal_after
        spent.append(time.perf_counter() - t0)
        if count is not None:
            if len(spent) >= count:
                return untraced, traced
        elif time.perf_counter() - start + statistics.median(spent) > seconds:
            return untraced, traced


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = args.seed
    workdir = WORK / f"{workload.name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ledger = Ledger()
    golden = None
    if seed == DEFAULT_SEED and not args.update_golden:
        golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    try:
        setups, scaled_setups = [], []
        cal = calibration(workload.big_ints)
        while len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S and len(setups) < 15:
            seconds, cg, inputs = setup(workload, seed, workdir / f"setup{len(setups)}", ledger)
            cal_after = calibration(workload.big_ints)
            setups.append(seconds)
            scaled_setups.append(to_reference(seconds, cal, cal_after, workload))
            cal = cal_after
        record: dict[str, str] = {}
        tracer = Tracer() if args.trace else None
        count = len(inputs) if args.update_golden else None
        rounds, traced = run_rounds(
            workload, cg, inputs, args.seconds, ledger, golden, record, tracer, count
        )
        if args.update_golden:
            pins = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
            pins[workload.name] = record
            GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        known_attempted, known_failed, known_s = workload.extra_ops(cg, inputs, workdir)
        counts = {name: 0 for name in COUNTS}
        counts.update(workload.counts(cg, inputs[0]))
        report = {
            "rounds": len(rounds.stages),
            "raw_wall_s": rounds.median(),
            "raw_setup_s": statistics.median(setups),
            **{s: rounds.median(s) for s in workload.stages},
            **counts,
            "failed_frac": (ledger.failed + known_failed) / (ledger.attempted + known_attempted),
            "gen_lb.failed": known_failed,
            "gen_lb_s": known_s,
        }
        if tracer is None:
            metrics = {
                "wall_s": statistics.median(rounds.scaled),
                "setup_s": statistics.median(scaled_setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            metrics = traced_metrics(workload, cg, seed, inputs, workdir, rounds, traced, tracer)
            metrics.update({k: v for k, v in report.items() if k != "rounds"})
            metrics.update({s: rounds.median(s) for s in STAGES})
            metrics = dict(sorted(metrics.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"workload: {workload.name}  seed: {seed}  trace: {int(args.trace)}")
    print(f"why: {workload.why}")
    for line in workload.no_move:
        print(f"predicted no move: {line}")
    for name, value in {**report, **metrics}.items():
        print(f"{name:42s} {value:>16.6g} {'rounds' if name == 'rounds' else unit_of(name)}")
    for message in ledger.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(workload, cg, seed, inputs, workdir, rounds, traced, tracer):
    """Per-layer numbers from the traced rounds, a traced set-up and probes.
    Span times are per round; the overhead compares rounds scaled to the
    reference speed."""
    setup_tracer = Tracer()
    (workdir / "traced-setup").mkdir()
    with setup_tracer.patched(cg.all), setup_tracer.span("setup"):
        workload.prepare(cg, seed, workdir / "traced-setup", Ledger())
    n = len(traced.stages)
    inclusive, self_time = tracer.summary()
    SPANS.mkdir(exist_ok=True)
    tracer.write(SPANS / f"spans-{workload.name}.jsonl")

    out = {
        "traced_wall_s": traced.median(),
        "trace_overhead_s": statistics.median(traced.scaled) - statistics.median(rounds.scaled),
        "instances.gen_random.s": setup_tracer.summary()[0].get("instances.gen_random", 0.0),
    }
    for metric, names in SPAN_METRICS.items():
        out[metric] = sum(inclusive.get(name, 0.0) for name in names) / n
    for layer in ("cli", "lib", *LAYERS):
        out[f"self.{layer}.s"] = self_time.get(layer, 0.0) / n
    out.update({name: 0.0 for name in PROBES})
    out.update(workload.probes(cg, inputs[0]))
    traced_counts = [workload.counts(cg, inputs[k % len(inputs)]) for k in range(n)]
    moves = sum(c.get("dynamics.moves", 0) for c in traced_counts)
    states = sum(c.get("verify.states", 0) for c in traced_counts)
    out["dynamics.traced_moves"] = moves
    out["dynamics.s_per_move"] = inclusive.get("dynamics.run_algorithm", 0.0) / moves if moves else 0.0
    out["verify.us_per_state"] = (
        inclusive.get("verify.brute_force_poa", 0.0) / states * 1e6 if states else 0.0
    )
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after the other.  The combined
    result is printed only when every workload printed one."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return 1
        status |= proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help=f"run every input set once at seed {DEFAULT_SEED} and rewrite the pins")
    args = parser.parse_args(argv)
    if args.update_golden and (args.seed != DEFAULT_SEED or args.trace or not args.workload):
        parser.error(f"--update-golden needs --workload, --seed {DEFAULT_SEED} and --trace 0")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
