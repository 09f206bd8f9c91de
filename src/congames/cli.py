"""Command-line entry point wiring all modules together.

Subcommands: solve, verify, audit, brute-poa, poa, gen-lb, gen-random.
Exit codes are stable for scripting: 0 success / all checks pass,
1 usage error, 2 verification or audit failure, 3 input error.

Exact quantities (rho, weights, coefficients) are accepted only as "p/q"
or integer strings; decimal notation is rejected so nothing exact ever
passes through floating point.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, dynamics, instances, verify
from .codec import format_rational, parse_rational, read_state, write_state
from .errors import CongamesError, InstanceError, NoEquilibriumError, TraceMismatchError
from .game import MAX_DEGREE, State, parse_instance, serialize_instance, validate_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_instance(path: str):
    return parse_instance(Path(path).read_bytes())


def _factor_str(factor) -> str:
    if factor == float("inf"):
        return "inf"
    try:
        return f"{format_rational(factor)} (~{float(factor):.6f})"
    except OverflowError:  # past the float range: the exact value alone
        return format_rational(factor)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.trace and Path(args.trace).resolve() == Path(args.output).resolve():
        print(f"congames solve: error: --trace and --output name the same file, {args.trace}",
              file=sys.stderr)
        return EXIT_USAGE
    game, initial = _read_instance(args.input)
    state = initial if initial is not None else State((0,) * game.n)
    final, trace = dynamics.run_algorithm(game, state, p_override=args.p_override)
    # Both files are formatted before either is written, so that one that
    # cannot be formatted (exit 3) leaves both as they were.
    buffers = {args.output: io.StringIO()}
    write_state(final.choices, buffers[args.output])
    if args.trace:
        buffers[args.trace] = io.StringIO()
        dynamics.write_trace(trace, buffers[args.trace])
    for path, buffer in buffers.items():
        Path(path).write_text(buffer.getvalue())
    factor = verify.min_equilibrium_factor(game, final)
    print(f"moves: {len(trace.moves)}")
    if trace.schedule is not None:
        print(f"phases: {trace.schedule.m}  p: {trace.schedule.p}"
              f"{'' if trace.schedule.exact_constants else '  (p overridden)'}")
    print(f"final equilibrium factor: {_factor_str(factor)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    game, _ = _read_instance(args.game)
    state = State(read_state(args.state))
    validate_state(game, state)
    group = None
    if args.group:
        try:
            group = [int(tok) for tok in args.group.split(",") if tok != ""]
        except ValueError as exc:
            raise InstanceError(f"--group must list player indices: {exc}") from exc
        for u in group:
            if not 0 <= u < game.n:
                raise InstanceError(f"player index {u} out of range")
    factor = verify.min_equilibrium_factor(game, state, group)
    print(f"equilibrium factor: {_factor_str(factor)}")
    if args.rho is not None:
        rho = parse_rational(args.rho)
        ok = factor <= rho
        print(f"{'PASS' if ok else 'FAIL'}: factor <= {args.rho}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    game, _ = _read_instance(args.game)
    with open(args.trace, encoding="utf-8") as fp:
        trace = dynamics.read_trace(fp)
    report = verify.audit_trace(game, trace)
    for ph in report.phases:
        slack = "-" if ph.key_slack is None else format_rational(ph.key_slack)
        print(
            f"phase {ph.phase}: moves={ph.move_count} movers={sorted(ph.movers)} "
            f"key_slack={slack} settled={ph.settled}"
        )
    print(f"final factor: {_factor_str(report.final_factor)}")
    if report.factor_ceiling is not None:
        print(f"ceiling:      {_factor_str(report.factor_ceiling)}")
    for failure in report.failures:
        print(f"FAIL: {failure}")
    print("audit: PASS" if report.passed else "audit: FAIL")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_brute_poa(args: argparse.Namespace) -> int:
    game, _ = _read_instance(args.game)
    rho = parse_rational(args.rho)
    poa, worst, optimum = verify.brute_force_poa(game, rho, state_cap=args.state_cap)
    print(f"poa: {_factor_str(poa)}")
    print(f"worst_state: {list(worst.choices)}")
    print(f"optimum_state: {list(optimum.choices)}")
    return EXIT_OK


_POA_COLUMNS = ("d", "rho", "phi", "poa_bound", "lambert_bound", "mu_hat", "B_at_mu_hat")


def _cmd_poa(args: argparse.Namespace) -> int:
    if args.table is not None and not 1 <= args.table <= MAX_DEGREE:
        bound = "at least 1" if args.table < 1 else f"at most MAX_DEGREE = {MAX_DEGREE}"
        print(f"congames poa: error: --table must be {bound}, got {args.table}", file=sys.stderr)
        return EXIT_USAGE
    d_values = list(range(1, args.table + 1)) if args.table else [args.d]
    try:  # a degree below 1, rho below 1, or a value past the float range
        rho = float(parse_rational(args.rho))
        results = [analysis.poa_bounds(d, rho) for d in d_values]
    except (ValueError, OverflowError) as exc:
        raise InstanceError(f"poa: {exc}") from exc
    rows = [{c: getattr(r, c) for c in _POA_COLUMNS} for r in results]
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif args.format == "csv":
        print(",".join(_POA_COLUMNS))
        for row in rows:
            print(",".join(f"{row[c]:.12g}" if c != "d" else str(row[c]) for c in _POA_COLUMNS))
    else:
        for row in rows:
            print(
                f"d={row['d']} rho={row['rho']:g}  phi={row['phi']:.6f}  "
                f"poa_bound={row['poa_bound']:.6f}  lambert_bound={row['lambert_bound']:.6f}  "
                f"mu_hat={row['mu_hat']:.6f}  B(mu_hat)={row['B_at_mu_hat']:.6f}"
            )
    return EXIT_OK


def _cmd_gen_lb(args: argparse.Namespace) -> int:
    rho = parse_rational(args.rho)
    bundle = instances.gen_lower_bound(args.d, rho, args.n, args.precision)
    Path(args.out).write_text(
        serialize_instance(bundle.game, initial_state=bundle.equilibrium_state)
    )
    print(
        json.dumps(
            {
                "equilibrium_state": list(bundle.equilibrium_state.choices),
                "optimal_state": list(bundle.optimal_state.choices),
                "root_approx": format_rational(bundle.root_approx),
                "root_approx_float": float(bundle.root_approx),
                "precision_digits": bundle.precision_digits,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InstanceError(f"range must be LO:HI, got {text!r}")
    return parse_rational(lo), parse_rational(hi)


def _cmd_gen_random(args: argparse.Namespace) -> int:
    game = instances.gen_random(
        n=args.n,
        d=args.d,
        num_resources=args.resources,
        strategies_per_player=args.strategies,
        max_strategy_size=args.max_size,
        coeff_range=_parse_range(args.coeff_range),
        weight_range=_parse_range(args.weight_range),
        seed=args.seed,
    )
    Path(args.out).write_text(serialize_instance(game))
    print(f"wrote {args.out}: n={game.n} d={game.degree} resources={game.num_resources}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call: it depends on no argument."""
    parser = _Parser(prog="congames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="run the phased best-response solver")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--p-override", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="measure a state's equilibrium factor")
    p.add_argument("--game", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--rho", default=None, help='factor to check, as "p/q"')
    p.add_argument("--group", default=None, help="comma-separated player indices")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="replay and check a solver trace")
    p.add_argument("--game", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("brute-poa", help="exhaustive PoA of rho-equilibria")
    p.add_argument("--game", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--state-cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_brute_poa)

    p = sub.add_parser("poa", help="PoA bounds table for (d, rho)")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--rho", default="1", help='approximation factor, as "p/q"')
    p.add_argument("--table", type=int, default=None, metavar="DMAX")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_poa)

    p = sub.add_parser("gen-lb", help="generate a tight lower-bound instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int, default=40)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_lb)

    p = sub.add_parser("gen-random", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--strategies", type=int, default=2)
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--coeff-range", default="0:2")
    p.add_argument("--weight-range", default="1:3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TraceMismatchError, NoEquilibriumError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (CongamesError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
