"""The benchmark's three workloads.

Each workload makes its inputs from the seed during set-up, then runs
rounds.  A round is a fixed set of operations on one round's inputs, timed
per stage (an operation belongs to one stage), with every output checked.
Untraced rounds go through the public entry points users call, mostly
``congames.cli.main`` in-process; traced rounds replay the same work
through the library with a span around each command.  Each workload also
reports exact counts of the work it did and, when traced, per-call times
of the hot kernels measured by probes on its own data.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracing import NullTracer


class OpFailed(Exception):
    """An operation exited non-zero, raised, or produced a wrong output."""


class Ledger:
    """Times operations per stage and counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stages: dict[str, float] = {}

    def op(self, stage: str, fn, *args):
        """Run one timed operation; an exception counts as its failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # any exception is a failed op; the run goes on
            self.fail(f"{stage}: {type(exc).__name__}: {exc}")
        finally:
            self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - t0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def pin(self, key: str, digest: str, golden: dict | None, record: dict) -> None:
        """Record an output digest; at the default seed it must match its pin."""
        record[key] = digest
        if golden is not None:
            self.check(golden.get(key) == digest, f"{key}: digest differs from pin")

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)
        raise OpFailed(message)


def cli(cg, argv: list[str]) -> tuple[int, str]:
    """Call ``congames.cli.main`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cg.cli.main(argv)
    return code, out.getvalue()


def cli_ok(cg, argv: list[str]) -> str:
    code, out = cli(cg, argv)
    if code != 0:
        raise OpFailed(f"congames {argv[0]} exited {code}")
    return out


def gen_random(cg, ledger, rng, out, d, n, resources, strategies, max_size) -> None:
    """`congames gen-random` with a seed drawn from rng; weights in [1, 3]
    and coefficients in [1/4, 2], so that no cost is ever zero."""
    ledger.op("gen_random", cli_ok, cg, [
        "gen-random", "--seed", str(rng.randrange(2**31)), "--n", str(n), "--d", str(d),
        "--resources", str(resources), "--strategies", str(strategies),
        "--max-size", str(max_size), "--coeff-range", "1/4:2", "--weight-range", "1:3",
        "--out", str(out),
    ])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rational_digest(value: Fraction) -> str:
    """Digest of an exact rational without a decimal conversion, which the
    interpreter refuses for ints above 4,300 digits."""
    def raw(k: int) -> bytes:
        return k.to_bytes((k.bit_length() + 8) // 8, "big", signed=True)

    return sha256(raw(value.numerator) + b"/" + raw(value.denominator))


def fraction_bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def poa_ceiling(cg, d: int, rho: Fraction) -> Fraction:
    """Phi(d, rho)^(d+1) + 1e-6, the bound every PoA check uses."""
    return Fraction(cg.analysis.phi_ratio(d, float(rho)) ** (d + 1)) + Fraction(1, 10**6)


def probe(fn, calls: list[tuple], budget_s: float = 0.25) -> float:
    """Microseconds per call of fn over the argument tuples, cycling until
    the budget is spent (every tuple at least once)."""
    done = 0
    t0 = time.perf_counter()
    while True:
        for args in calls:
            fn(*args)
        done += len(calls)
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / done * 1e6


def kernel_probes(cg, game, states, players) -> dict[str, float]:
    """Per-call times of the cost kernel on recorded states of a game."""
    g, p, d = cg.game, cg.potential, cg.dynamics
    group = players[: max(1, len(players) // 2)]
    x = g.loads(game, states[0])
    polys = [(poly, x[e]) for e, poly in enumerate(game.resources)]
    return {
        "game.loads.us_per_call": probe(g.loads, [(game, s) for s in states]),
        "game.player_costs.us_per_call": probe(g.player_costs, [(game, s) for s in states]),
        "dynamics.best_response.us_per_call": probe(
            d.best_response, [(game, s, u) for s in states for u in players]
        ),
        "game.poly_eval.us_per_call": probe(lambda poly, v: poly(v), polys),
        "potential.potential.us_per_call": probe(p.potential, [(game, s) for s in states]),
        "potential.partial_potential.us_per_call": probe(
            p.partial_potential, [(game, s, group) for s in states]
        ),
    }


class Workload:
    name = ""
    why = ""
    # layer metrics predicted not to move wall_s on this workload, and why
    no_move: tuple[str, ...] = ()
    stages: tuple[str, ...] = ()
    rounds = 1  # input sets made in set-up; runs cycle through them
    big_ints = False  # bound by big-int arithmetic rather than small objects

    def prepare(self, cg, seed: int, workdir: Path, ledger: Ledger) -> list:
        raise NotImplementedError

    def run_round(self, cg, inp, ledger: Ledger, golden: dict | None, record: dict) -> None:
        raise NotImplementedError

    def traced_round(self, cg, inp, ledger: Ledger, tracer) -> None:
        raise NotImplementedError

    def counts(self, cg, inp) -> dict[str, int]:
        raise NotImplementedError

    def probes(self, cg, inp) -> dict[str, float]:
        raise NotImplementedError

    def extra_ops(self, cg, inputs, workdir: Path) -> tuple[int, int, float]:
        """Documented known-failing ops, run outside the timed rounds:
        (attempted, failed, seconds)."""
        return 0, 0, 0.0


# --------------------------------------------------------------------------


class SolveAudit(Workload):
    name = "solve-audit"
    why = (
        "Solver and auditor at scale: every best response recomputes loads over "
        "all players, so the game kernel, dynamics and potential do the work; "
        "no enumeration"
    )
    no_move = (
        "verify.brute_force_poa.s, verify.group_poa.s, verify.stretch_ratio.s: "
        "no enumeration, so Gray-code order and per-load memoisation do not apply",
        "game.parse_instance.s, game.serialize_instance.s: under 1% of solve_s and "
        "audit_s, so a codec change moves no end-to-end metric",
        "instances.gen_random.s: input generation is set-up, so it moves setup_s only",
    )
    stages = ("solve_s", "audit_s", "verify_s")
    rounds = 32
    # (degree, players, resources) of the games in one round
    GAMES = ((1, 40, 16), (2, 50, 20), (3, 25, 12))

    def prepare(self, cg, seed, workdir, ledger):
        rng = random.Random(seed)
        inputs = []
        for r in range(self.rounds):
            games = []
            for g, (d, n, e) in enumerate(self.GAMES):
                path = workdir / f"r{r:02d}g{g}"
                gen_random(cg, ledger, rng, f"{path}.game.json", d, n, e, 3, 3)
                games.append(path)
            inputs.append((r, games))
        return inputs

    def run_round(self, cg, inp, ledger, golden, record):
        r, games = inp
        for g, path in enumerate(games):
            game, state, trace = f"{path}.game.json", f"{path}.state.json", f"{path}.trace.jsonl"
            try:
                ledger.op("solve_s", cli_ok, cg, [
                    "solve", "--input", game, "--output", state, "--trace", trace,
                ])
                out = ledger.op("audit_s", cli_ok, cg, ["audit", "--game", game, "--trace", trace])
                ledger.check("audit: PASS" in out, f"{path}: audit did not pass")
                header = json.loads(Path(trace).read_text().split("\n", 1)[0])
                p = header["schedule"]["p"]
                ceiling = Fraction(p * (p + 3), p - 2)
                out = ledger.op("verify_s", cli_ok, cg, [
                    "verify", "--game", game, "--state", state,
                    "--rho", f"{ceiling.numerator}/{ceiling.denominator}",
                ])
                ledger.check("PASS:" in out, f"{path}: verify failed at the ceiling")
                for kind, file in (("trace", trace), ("state", state)):
                    ledger.pin(f"r{r:02d}.g{g}.{kind}", sha256(Path(file).read_bytes()),
                               golden, record)
            except OpFailed:
                continue

    def traced_round(self, cg, inp, ledger, tracer):
        """The CLI's solve, audit and verify, replayed through the library;
        the trace bytes must equal those the untraced CLI round wrote."""
        _, games = inp
        gm, dyn, ver = cg.game, cg.dynamics, cg.verify
        for path in games:
            game_file = Path(f"{path}.game.json")
            replay = Path(f"{path}.replay.jsonl")
            try:
                with tracer.span("cli.solve"):
                    game, initial = ledger.op("solve_s", gm.parse_instance, game_file.read_bytes())
                    start = initial if initial is not None else gm.State((0,) * game.n)
                    final, trace = ledger.op("solve_s", dyn.run_algorithm, game, start)
                    with open(replay, "w") as fp:
                        ledger.op("solve_s", dyn.write_trace, trace, fp)
                    ledger.op("solve_s", ver.min_equilibrium_factor, game, final)
                with tracer.span("cli.audit"):
                    game, _ = ledger.op("audit_s", gm.parse_instance, game_file.read_bytes())
                    with open(replay) as fp:
                        trace = ledger.op("audit_s", dyn.read_trace, fp)
                    report = ledger.op("audit_s", ver.audit_trace, game, trace)
                    ledger.check(report.passed, f"{path}: traced audit did not pass")
                with tracer.span("cli.verify"):
                    game, _ = ledger.op("verify_s", gm.parse_instance, game_file.read_bytes())
                    factor = ledger.op("verify_s", ver.min_equilibrium_factor, game, final)
                    ledger.check(
                        factor <= trace.schedule.final_factor_ceiling,
                        f"{path}: traced verify failed at the ceiling",
                    )
                ledger.check(
                    replay.read_bytes() == Path(f"{path}.trace.jsonl").read_bytes(),
                    f"{path}: library trace bytes differ from the CLI run's",
                )
            except OpFailed:
                continue

    def _traces(self, cg, inp):
        _, games = inp
        for path in games:
            game, _ = cg.game.parse_instance(Path(f"{path}.game.json").read_bytes())
            raw = Path(f"{path}.trace.jsonl").read_bytes()
            with open(f"{path}.trace.jsonl") as fp:
                yield game, raw, cg.dynamics.read_trace(fp)

    def counts(self, cg, inp):
        moves = phases = size = bits = 0
        for _, raw, trace in self._traces(cg, inp):
            moves += len(trace.moves)
            phases += trace.schedule.m
            size += len(raw)
            s = trace.schedule
            values = [s.c_max, s.c_min, *s.boundaries]
            for mv in trace.moves:
                values += [mv.cost_before, mv.cost_after, mv.potential_before, mv.potential_after]
            bits = max(bits, *map(fraction_bits, values))
        return {
            "dynamics.moves": moves,
            "dynamics.phases": phases,
            "dynamics.trace_bytes": size,
            "dynamics.max_bits": bits,
        }

    def probes(self, cg, inp):
        # the round's largest game, at the states its trace recorded
        game, _, trace = max(self._traces(cg, inp), key=lambda t: t[0].n)
        states = [trace.initial_state, *trace.phase_end_states]
        players = sorted({mv.player for mv in trace.moves})[:8] or [0]
        return kernel_probes(cg, game, states, players)


# --------------------------------------------------------------------------


class PoaOracle(Workload):
    name = "poa-oracle"
    why = (
        "Exhaustive PoA oracles on thousands of tiny states: enumeration and "
        "per-state cost and best-response overhead dominate; no schedule, no "
        "trace, n = 4"
    )
    no_move = (
        "dynamics.run_algorithm.s, dynamics.s_per_move: no schedule and no trace, so "
        "incremental loads in the solver do not apply",
        "game.loads.us_per_call, game.player_costs.us_per_call: n = 4, so a faster "
        "per-call kernel changes little",
    )
    stages = ("brute_poa_s", "group_oracle_s")
    rounds = 32
    RHO = Fraction(3)  # = d+1: the potential's minimiser guarantees an equilibrium
    # (degree, players, resources, strategies, max strategy size)
    BRUTE = (2, 4, 6, 4, 2)  # 4^4 states each, two games a round
    BRUTE_GAMES = 2
    GROUP = (2, 4, 6, 3, 3)  # 3^4 states, every player group, one game a round

    def prepare(self, cg, seed, workdir, ledger):
        rng = random.Random(seed)
        inputs = []
        for r in range(self.rounds):
            paths = []
            for tag, (d, n, e, k, size) in [("brute", self.BRUTE)] * self.BRUTE_GAMES + [
                ("group", self.GROUP)
            ]:
                path = workdir / f"r{r:02d}.{len(paths)}.{tag}.game.json"
                gen_random(cg, ledger, rng, path, d, n, e, k, size)
                paths.append(path)
            group_game, _ = cg.game.parse_instance(paths[-1].read_bytes())
            inputs.append((r, paths[:-1], group_game))
        return inputs

    @staticmethod
    def _group_oracles(cg):
        # max_group_poa_ratio is the planned new name of smoothness_peakroup_poa_ratio
        ver = cg.verify
        group = getattr(ver, "max_group_poa_ratio", None) or ver.smoothness_peakroup_poa_ratio
        return group, ver.max_rho_stretch_ratio

    def _check_groups(self, cg, ledger, game, group_ratio, stretch):
        bound = poa_ceiling(cg, game.degree, self.RHO)
        ledger.check(group_ratio <= bound, f"group PoA {float(group_ratio)} above Phi^(d+1)")
        ledger.check(
            stretch <= cg.potential.alpha(game.degree) * bound,
            f"stretch ratio {float(stretch)} above alpha*Phi^(d+1)",
        )

    def run_round(self, cg, inp, ledger, golden, record):
        r, brute_files, group_game = inp
        rho = f"{self.RHO.numerator}/{self.RHO.denominator}"
        for b, path in enumerate(brute_files):
            try:
                out = ledger.op("brute_poa_s", cli_ok, cg, [
                    "brute-poa", "--game", str(path), "--rho", rho,
                ])
                poa = Fraction(out.split()[1])
                ledger.check(poa <= poa_ceiling(cg, self.BRUTE[0], self.RHO),
                             f"{path}: brute-force PoA {float(poa)} above Phi^(d+1)")
                ledger.pin(f"r{r:02d}.b{b}.brute_poa_stdout", sha256(out.encode()), golden, record)
            except OpFailed:
                continue
        group_fn, stretch_fn = self._group_oracles(cg)
        try:
            g = ledger.op("group_oracle_s", group_fn, group_game, self.RHO)
            s = ledger.op("group_oracle_s", stretch_fn, group_game, self.RHO)
            self._check_groups(cg, ledger, group_game, g, s)
        except OpFailed:
            pass

    def traced_round(self, cg, inp, ledger, tracer):
        _, brute_files, group_game = inp
        for path in brute_files:
            try:
                with tracer.span("cli.brute-poa"):
                    game, _ = ledger.op("brute_poa_s", cg.game.parse_instance, path.read_bytes())
                    poa, _, _ = ledger.op("brute_poa_s", cg.verify.brute_force_poa, game, self.RHO)
                ledger.check(poa <= poa_ceiling(cg, game.degree, self.RHO),
                             f"{path}: traced brute-force PoA above Phi^(d+1)")
            except OpFailed:
                continue
        group_fn, stretch_fn = self._group_oracles(cg)
        try:
            with tracer.span("lib.group_oracle"):
                g = ledger.op("group_oracle_s", group_fn, group_game, self.RHO)
                s = ledger.op("group_oracle_s", stretch_fn, group_game, self.RHO)
            self._check_groups(cg, ledger, group_game, g, s)
        except OpFailed:
            pass

    def _brute_games(self, cg, inp):
        return [cg.game.parse_instance(path.read_bytes())[0] for path in inp[1]]

    def counts(self, cg, inp):
        states = 0
        for game in self._brute_games(cg, inp):
            size = 1
            for player in game.players:
                size *= len(player.strategies)
            states += size
        return {"verify.states": states}

    def probes(self, cg, inp):
        game = self._brute_games(cg, inp)[0]
        states = cg.verify.enumerate_states(game)[::16]
        return kernel_probes(cg, game, states, list(range(game.n)))


# --------------------------------------------------------------------------


class LowerBound(Workload):
    name = "lower-bound"
    why = (
        "Lower-bound family with 10^5-bit coefficients: big-int multiply and "
        "gcd in the cost kernel dominate; also the only float analysis calls"
    )
    no_move = (
        "analysis.poa_bounds.s, analysis.grid_check.s: about 5% of wall_s, so an "
        "analysis speed-up barely moves it",
        "dynamics.run_algorithm.s, verify.brute_force_poa.s: no solver run and no "
        "enumeration here",
    )
    stages = ("lb_build_s", "lb_check_s", "analysis_s")
    rounds = 16
    big_ints = True
    D, N, DIGITS = 2, 150, 40
    GRID_DEGREES = 5  # grid checks for d = 1..5

    def prepare(self, cg, seed, workdir, ledger):
        rng = random.Random(seed)
        # rho in (1, 2]; the coefficient sizes hardly depend on it
        return [(r, Fraction(8 + rng.randint(1, 8), 8)) for r in range(self.rounds)]

    def _round(self, cg, inp, ledger, tracer, golden, record):
        r, rho = inp
        d, n = self.D, self.N
        try:
            with tracer.span("lib.lb_build"):
                bundle = ledger.op("lb_build_s", cg.instances.gen_lower_bound, d, rho, n, self.DIGITS)
            with tracer.span("lib.lb_check"):
                game = bundle.game
                eq = ledger.op("lb_check_s", cg.game.social_cost, game, bundle.equilibrium_state)
                opt = ledger.op("lb_check_s", cg.game.social_cost, game, bundle.optimal_state)
                factor = ledger.op(
                    "lb_check_s", cg.verify.min_equilibrium_factor, game, bundle.equilibrium_state
                )
            ledger.check(factor <= rho, f"rho={rho}: equilibrium factor above rho")
            ratio = eq / opt
            ledger.check(1 < ratio <= poa_ceiling(cg, d, rho), f"rho={rho}: ratio out of range")
            ledger.pin(f"r{r:02d}.lb_ratio", rational_digest(ratio), golden, record)
            ledger.pin(f"r{r:02d}.lb_eq_cost", rational_digest(eq), golden, record)
        except OpFailed:
            pass
        try:
            with tracer.span("cli.poa"):
                out = ledger.op("analysis_s", cli_ok, cg, [
                    "poa", "--rho", f"{rho.numerator}/{rho.denominator}",
                    "--table", "20", "--format", "json",
                ])
            rows = json.loads(out)
            ledger.check(
                len(rows) == 20 and all(
                    abs(row["poa_bound"] - row["phi"] ** (row["d"] + 1)) <= 1e-9 * row["poa_bound"]
                    and row["poa_bound"] <= row["lambert_bound"] * (1 + 1e-9)
                    for row in rows
                ),
                f"rho={rho}: poa table inconsistent",
            )
            an = cg.analysis
            with tracer.span("lib.grid_check"):
                for row in rows[: self.GRID_DEGREES]:
                    k, mu = row["d"], row["mu_hat"]
                    lam = (1 - mu) * row["poa_bound"] / float(rho)
                    res = ledger.op("analysis_s", an.check_smoothness_constraint, k, float(rho), lam, mu)
                    ledger.check(res.passed, f"rho={rho} d={k}: smoothness constraint fails")
                    res = ledger.op("analysis_s", an.check_combination_inequality, k, 1.0)
                    ledger.check(res.passed, f"d={k}: combination inequality fails")
        except OpFailed:
            pass

    def run_round(self, cg, inp, ledger, golden, record):
        self._round(cg, inp, ledger, NullTracer(), golden, record)

    def traced_round(self, cg, inp, ledger, tracer):
        self._round(cg, inp, ledger, tracer, None, {})

    def extra_ops(self, cg, inputs, workdir):
        """`congames gen-lb` at the workload's n dies in format_rational on
        the interpreter's 4,300-digit int-to-str limit (any n >= 35 at
        d=2, rho=3/2).  Attempt it anyway so that a fix shows up as one
        failure fewer; it is timed apart from the rounds."""
        _, rho = inputs[0]
        out = workdir / "gen-lb.game.json"
        t0 = time.perf_counter()
        try:
            code, text = cli(cg, [
                "gen-lb", "--d", str(self.D), "--rho", f"{rho.numerator}/{rho.denominator}",
                "--n", str(self.N), "--out", str(out),
            ])
            ok = code == 0 and json.loads(text)["equilibrium_state"] == [1] * self.N
        except ValueError:
            ok = False
        return 1, 0 if ok else 1, time.perf_counter() - t0

    def counts(self, cg, inp):
        _, rho = inp
        bundle = cg.instances.gen_lower_bound(self.D, rho, self.N, self.DIGITS)
        return {
            "instances.lb_coeff_bits": max(
                fraction_bits(c) for poly in bundle.game.resources for c in poly.coeffs
            )
        }

    def probes(self, cg, inp):
        _, rho = inp
        bundle = cg.instances.gen_lower_bound(self.D, rho, self.N, self.DIGITS)
        states = [bundle.equilibrium_state]
        return kernel_probes(cg, bundle.game, states, [0, self.N // 2, self.N - 1])


WORKLOADS = {w.name: w for w in (SolveAudit(), PoaOracle(), LowerBound())}
