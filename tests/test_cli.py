"""CLI: subcommand wiring, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames.cli import build_parser, main
from congames.dynamics import read_trace
from congames.game import MAX_DEGREE

from conftest import MINIMAL, SETTINGS


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEN = [
    "gen-random", "--seed", "7", "--n", "3", "--d", "1", "--resources", "4",
    "--strategies", "2", "--max-size", "2",
    "--coeff-range", "1/4:2", "--weight-range", "1:3",
]


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "poa", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_keep_weights_is_gone(self, capsys):
        code, _, err = run(capsys, "verify", "--game", "g", "--state", "s", "--keep-weights")
        assert code == 1
        assert "--keep-weights" in err


class TestPoa:
    def test_golden_ratio_line(self, capsys):
        code, out, _ = run(capsys, "poa", "--d", "1", "--rho", "1")
        assert code == 0
        assert "1.618034" in out and "2.618034" in out

    def test_decimal_rho_rejected(self, capsys):
        code, _, err = run(capsys, "poa", "--d", "1", "--rho", "1.5")
        assert code == 3
        assert "rational" in err

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, "poa", "--rho", "3/2", "--table", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("d,rho,phi")
        assert len(lines) == 4

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "poa", "--d", "2", "--rho", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["d"] == 2

    def test_lambert_bound_not_below_poa_bound_at_large_rho(self, capsys):
        code, out, _ = run(capsys, "poa", "--d", "1", "--rho", "10000000000", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["lambert_bound"] >= row["poa_bound"]

    @pytest.mark.parametrize("table", ["0", "-3"])
    def test_table_below_one_is_a_usage_error(self, table):
        proc = run_process("poa", "--table", table)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"--table must be at least 1, got {table}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("table", ["1001", str(10**20)])
    def test_table_above_max_degree_is_a_usage_error(self, table, capsys):
        code, out, err = run(capsys, "poa", "--table", table)
        assert code == 1
        assert "Traceback" not in err
        assert f"--table must be at most MAX_DEGREE = 1000, got {table}" in err
        assert out == ""

    def test_degree_and_rho_grid_never_ends_in_a_traceback(self, capsys):
        # 13 degrees by 11 values of rho, from the float analysis's edges to
        # past the float range; rho = 10^10 once failed the Lambert check.
        degrees = [1, 2, 3, 4, 5, 10, 20, 50, 100, 150, 170, 171, 250]
        rhos = ["1", "3/2", "2", "10", "1000"]
        rhos += ["1" + "0" * k for k in (10, 20, 100, 300, 308, 309)]
        codes = {}
        for d in degrees:
            for rho in rhos:
                codes[d, rho] = code = main(["poa", "--d", str(d), "--rho", rho])
                assert "Traceback" not in capsys.readouterr().err
                assert code in (0, 3), (d, rho)
        assert all(codes[d, "1" + "0" * 10] == 0 for d in (1, 2, 3, 5, 10))

    @pytest.mark.parametrize("argv, reason", [
        (["--d", "0"], "degree must be >= 1"),
        (["--rho", "1/2"], "rho must be >= 1"),
        (["--d", "171"], "out of range"),
        (["--table", "171"], "out of range"),
        (["--rho", "1" + "0" * 400], "too large for a float"),
    ])
    def test_outside_the_float_analysis_is_an_input_error(self, argv, reason):
        proc = run_process("poa", *argv)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "input error" in proc.stderr and reason in proc.stderr
        assert proc.stdout == ""


class TestPipeline:
    def test_solve_audit_verify(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        state = tmp_path / "state.json"
        trace = tmp_path / "trace.jsonl"
        code, _, _ = run(capsys, *GEN, "--out", str(game))
        assert code == 0
        code, out, _ = run(
            capsys, "solve", "--input", str(game), "--output", str(state),
            "--trace", str(trace),
        )
        assert code == 0
        assert "final equilibrium factor" in out
        code, out, _ = run(capsys, "audit", "--game", str(game), "--trace", str(trace))
        assert code == 0
        assert "audit: PASS" in out
        # the guaranteed ceiling for d=1: p(p+3)/(p-2) with p=160
        code, out, _ = run(
            capsys, "verify", "--game", str(game), "--state", str(state),
            "--rho", "26080/158",
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        state = tmp_path / "state.json"
        run(capsys, *GEN, "--out", str(game))
        # pick a deliberately bad state: all players on strategy 0 need not
        # be an exact equilibrium; demand factor <= 1/1000000 to force failure
        state.write_text('{"choices": [0, 0, 0]}')
        code, out, _ = run(
            capsys, "verify", "--game", str(game), "--state", str(state),
            "--rho", "1/1000000",
        )
        assert code == 2
        assert "FAIL" in out

    def test_audit_detects_tampering(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        state = tmp_path / "state.json"
        trace = tmp_path / "trace.jsonl"
        run(capsys, *GEN, "--out", str(game))
        run(capsys, "solve", "--input", str(game), "--output", str(state), "--trace", str(trace))
        lines = trace.read_text().splitlines()
        if len(lines) > 1:
            doc = json.loads(lines[1])
            doc["cost_after"] = "1/7919"
            lines[1] = json.dumps(doc, sort_keys=True)
            trace.write_text("\n".join(lines) + "\n")
            code, _, err = run(capsys, "audit", "--game", str(game), "--trace", str(trace))
            assert code == 2
            assert "check failed" in err

    def test_gen_lb_and_verify_at_rho(self, tmp_path, capsys):
        game = tmp_path / "lb.json"
        code, out, _ = run(
            capsys, "gen-lb", "--d", "1", "--rho", "3/2", "--n", "4",
            "--precision", "30", "--out", str(game),
        )
        assert code == 0
        info = json.loads(out)
        assert info["equilibrium_state"] == [1, 1, 1, 1]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"choices": info["equilibrium_state"]}))
        code, out, _ = run(
            capsys, "verify", "--game", str(game), "--state", str(state), "--rho", "3/2",
        )
        assert code == 0

    def test_brute_poa_no_equilibrium(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        run(capsys, *GEN, "--out", str(game))
        code, _, err = run(capsys, "brute-poa", "--game", str(game), "--rho", "1/2")
        assert code == 2
        assert "check failed" in err

    def test_brute_poa_on_lower_bound(self, tmp_path, capsys):
        game = tmp_path / "lb.json"
        run(capsys, "gen-lb", "--d", "1", "--rho", "1", "--n", "3",
            "--precision", "30", "--out", str(game))
        code, out, _ = run(capsys, "brute-poa", "--game", str(game), "--rho", "1")
        assert code == 0
        assert "poa:" in out and "1.70" in out


def solved(tmp_path, capsys):
    """The GEN game solved with a trace: (game, state, trace) paths."""
    game, state, trace = tmp_path / "game.json", tmp_path / "state.json", tmp_path / "trace.jsonl"
    run(capsys, *GEN, "--out", str(game))
    code, _, _ = run(capsys, "solve", "--input", str(game), "--output", str(state),
                     "--trace", str(trace))
    assert code == 0
    return game, state, trace


def edit_trace_line(trace, index: int, edit) -> None:
    """Apply edit(doc) to the JSON object on one line of a trace file."""
    lines = trace.read_text().splitlines()
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")


class TestInputErrors:
    def test_trace_header_without_schedule(self, tmp_path, capsys):
        game, _, trace = solved(tmp_path, capsys)
        edit_trace_line(trace, 0, lambda doc: doc.pop("schedule"))
        code, _, err = run(capsys, "audit", "--game", str(game), "--trace", str(trace))
        assert code == 3
        assert "input error" in err and "schedule" in err

    @pytest.mark.parametrize("text", ["", '{"schedule": null\n'])
    def test_trace_empty_or_not_json(self, tmp_path, capsys, text):
        game, _, trace = solved(tmp_path, capsys)
        trace.write_text(text)
        code, _, err = run(capsys, "audit", "--game", str(game), "--trace", str(trace))
        assert code == 3
        assert "input error" in err

    def test_state_with_non_integer_choice(self, tmp_path, capsys):
        game, state, _ = solved(tmp_path, capsys)
        state.write_text('{"choices": ["a", 0, 0]}')
        code, _, err = run(capsys, "verify", "--game", str(game), "--state", str(state))
        assert code == 3
        assert "input error" in err

    def test_verify_group_not_an_index(self, tmp_path, capsys):
        game, state, _ = solved(tmp_path, capsys)
        code, _, err = run(capsys, "verify", "--game", str(game), "--state", str(state),
                           "--group", "x")
        assert code == 3
        assert "input error" in err

    @pytest.mark.parametrize("field, value", [("player", -1), ("to_strategy", 99)])
    def test_audit_rejects_bad_move_index(self, tmp_path, capsys, field, value):
        game, _, trace = solved(tmp_path, capsys)
        edit_trace_line(trace, 1, lambda doc: doc.update({field: value}))
        code, _, err = run(capsys, "audit", "--game", str(game), "--trace", str(trace))
        assert code == 2
        assert "check failed" in err and field in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--input", "/nonexistent.json",
                           "--output", "/tmp/out.json")
        assert code == 3
        assert "input error" in err

    @pytest.mark.parametrize("choices, reason", [
        ([0, 0], "2 entries for 3 players"),
        ([0, 0, 2], "strategy index 2 invalid for player 2"),
        ([-1, 0, 0], "strategy index -1 invalid for player 0"),
    ])
    def test_solve_rejects_invalid_initial_state(self, tmp_path, capsys, choices, reason):
        # the instance's initial state is validated when the instance is
        # read, before the solver starts; no state file is written
        game, out = tmp_path / "game.json", tmp_path / "state.json"
        run(capsys, *GEN, "--out", str(game))
        doc = json.loads(game.read_text())
        doc["initial_state"] = choices
        game.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--input", str(game), "--output", str(out))
        assert code == 3
        assert "input error" in err and reason in err
        assert not out.exists()

    def test_malformed_game(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 1}')
        code, _, err = run(capsys, "brute-poa", "--game", str(bad), "--rho", "1")
        assert code == 3

    def test_state_not_json(self, tmp_path, capsys):
        game, state, _ = solved(tmp_path, capsys)
        state.write_text('{"choices": [0, ')
        code, _, err = run(capsys, "verify", "--game", str(game), "--state", str(state))
        assert code == 3
        assert "input error" in err

    def test_state_space_over_cap(self, tmp_path, capsys):
        game, _, _ = solved(tmp_path, capsys)
        code, _, err = run(capsys, "brute-poa", "--game", str(game), "--rho", "1",
                           "--state-cap", "1")
        assert code == 3
        assert "input error" in err and "cap" in err

    def test_solver_error_outside_the_input_classes(self, tmp_path, capsys):
        # ZeroMinCostError is a CongamesError, but neither an InstanceError
        # nor a StateSpaceTooLargeError: the player can reach cost zero
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "degree": 1,
            "resources": [{"coeffs": ["1"]}, {"coeffs": ["0"]}],
            "players": [{"weight": "1", "strategies": [[0], [1]]}],
        }))
        code, _, err = run(capsys, "solve", "--input", str(game),
                           "--output", str(tmp_path / "state.json"))
        assert code == 3
        assert "input error" in err and "cost zero" in err


# One JSON value, as text: an int, a negative or huge one (the last past
# the int/str digit limit), a string, a bad or a good rational, a float, a
# bool, null, a list or an object
JSON_VALUES = st.one_of(
    st.integers(-5, 12).map(str),
    st.sampled_from([
        str(10**30), "9" * 5000, '"x"', '""', '"1/0"', '"1/2/3"', '"-1/2"', '"7/4"',
        "0.5", "1.0", "-0.0", "1e400", "true", "false", "null", "[]", "[0, 1]", "{}", '{"p": 1}',
    ]),
)


@pytest.fixture(scope="module")
def fuzz_case(tmp_path_factory):
    """A 4-player game solved with a trace of three moves: the game's
    path, the trace file's lines and the trace as read back."""
    root = tmp_path_factory.mktemp("fuzz")
    game, trace = root / "game.json", root / "trace.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GEN[:2], "4", "--n", "4", *GEN[5:], "--out", str(game)]) == 0
        assert main(["solve", "--input", str(game), "--output", str(root / "state.json"),
                     "--trace", str(trace)]) == 0
    with trace.open() as fp:
        original = read_trace(fp)
    assert len(original.moves) == 3
    return game, trace.read_text().splitlines(), original


def value_paths(node, path=()):
    """The key path of every value inside a JSON document but the root."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from value_paths(child, path + (key,))


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_audit_of_a_mutated_trace(fuzz_case, data):
    """One JSON value of the header or of a move replaced or deleted: the
    audit exits 0, 2 or 3, no exception escapes main, and it exits 0 only
    when the file reads back as the original trace."""
    game, lines, original = fuzz_case
    index = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[index])
    *to_parent, key = data.draw(st.sampled_from(list(value_paths(doc))))
    parent = functools.reduce(operator.getitem, to_parent, doc)
    value = data.draw(st.none() | JSON_VALUES)  # None deletes the value
    if value is None:
        del parent[key]
    else:
        parent[key] = mark = "\0value"  # a string no trace holds, then spliced
    text = json.dumps(doc, sort_keys=True)
    text = text if value is None else text.replace(json.dumps(mark), value)
    mutated = game.parent / "mutated.jsonl"
    mutated.write_text("\n".join([*lines[:index], text, *lines[index + 1:]]) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["audit", "--game", str(game), "--trace", str(mutated)])
    assert code in (0, 2, 3)
    if code == 0:
        with mutated.open() as fp:
            assert read_trace(fp) == original


# Values for the argv fuzzer: integers small enough that no game or
# bisection grows without bound (the degree and poa's --table also take
# 10^20, which every command must reject at once), and rationals valid or
# malformed.
FUZZ_INTS = st.integers(-3, 20).map(str)
FUZZ_RATIONALS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 20), st.integers(1, 20)),
    FUZZ_INTS,
    st.sampled_from(["1.5", "1/0", "3/", "/2", "1/-2", "1e3", "0x10", "abc", "", " 2", "9" * 5000]),
)
FUZZ_TEXT = {
    "rho": FUZZ_RATIONALS,
    "coeff_range": st.one_of(st.builds("{}:{}".format, FUZZ_RATIONALS, FUZZ_RATIONALS),
                             st.sampled_from(["1/2", "1:2:3", ":"])),
    "group": st.one_of(st.lists(FUZZ_INTS, max_size=4).map(",".join),
                       st.sampled_from(["a", "1,,2", " "])),
}
FUZZ_TEXT["weight_range"] = FUZZ_TEXT["coeff_range"]
# a path option's file: a small valid instance, state and trace, or a
# missing, malformed or unreadable one (a directory, not UTF-8, empty);
# half the draws take the file the option expects
FUZZ_FILES = ["game.json", "state.json", "trace.jsonl", "missing.json", "nodir/out.json",
              "bad.json", "shape.json", "binary.json", "empty.json", "dir"]
FUZZ_EXPECTED = {"input": "game.json", "game": "game.json", "state": "state.json",
                 "trace": "trace.jsonl", "output": "out.json", "out": "out.json"}


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    """A directory whose base/ holds the files FUZZ_FILES names that exist."""
    root = tmp_path_factory.mktemp("argv")
    base = root / "base"
    base.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*GEN, "--out", str(base / "game.json")]) == 0
        assert main(["solve", "--input", str(base / "game.json"), "--output",
                     str(base / "state.json"), "--trace", str(base / "trace.jsonl")]) == 0
    (base / "bad.json").write_text('{"degree": ')
    (base / "shape.json").write_text('{"degree": 1, "players": [], "choices": 0}')
    (base / "binary.json").write_bytes(b"\xff\xfe{}")
    (base / "empty.json").write_text("")
    (base / "dir").mkdir()
    return root


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_argv_fuzz(argv_root, data):
    """A subcommand with some of its options, each drawn from the values
    its parser action takes: main exits 0, 1, 2 or 3, no exception
    escapes it, and stderr holds no traceback.  Every example runs on a
    fresh copy of the files, as a command may overwrite one."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = data.draw(st.sampled_from(sorted(subparsers.choices)))
    workdir = argv_root / f"run{len(os.listdir(argv_root))}"
    shutil.copytree(argv_root / "base", workdir)
    argv = [command]
    for action in subparsers.choices[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        kept = [True] * 9 + [False] if action.required else [True, False]
        if not data.draw(st.sampled_from(kept)):
            continue
        if action.type is int:
            huge = action.dest in ("d", "table")
            values = FUZZ_INTS | st.just(str(10**20)) if huge else FUZZ_INTS
        elif action.choices:
            values = st.sampled_from([*action.choices, "xml"])
        elif action.dest in FUZZ_TEXT:
            values = FUZZ_TEXT[action.dest]
        else:
            names = [FUZZ_EXPECTED[action.dest]] * len(FUZZ_FILES) + FUZZ_FILES
            values = st.sampled_from(names).map(lambda name: str(workdir / name))
        argv += [action.option_strings[0], data.draw(values)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def run_process(*argv: str, python: str = sys.executable) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter at the default int/str digit limit,
    so that an uncaught exception would show as a traceback on stderr.
    Site-packages are off (-S): the CLI needs the standard library only."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [python, "-S", "-m", "congames.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def find_interpreter(name: str) -> str | None:
    """A path that runs the interpreter ``name``, or None when there is
    none.  A pyenv shim on PATH runs only the versions pyenv has selected,
    so pyenv is asked for the interpreter's own path when the shim fails."""
    candidates = [shutil.which(name)]
    if shutil.which("pyenv"):
        where = subprocess.run(["pyenv", "whence", "--path", name], capture_output=True, text=True)
        candidates += where.stdout.split()
    for path in filter(None, candidates):
        if subprocess.run([path, "-c", ""], capture_output=True).returncode == 0:
            return path
    return None


ROUND_TRIP_GAME = [
    "gen-random", "--seed", "3", "--n", "12", "--d", "2", "--resources", "6",
    "--strategies", "3", "--max-size", "2",
    "--coeff-range", "1/4:2", "--weight-range", "1/2:3",
]


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_round_trip_on_supported_interpreters(name, tmp_path, capsys):
    """gen-random -> solve --trace -> audit -> verify under each other
    interpreter pyproject.toml supports: every step exits 0, the audit
    passes, and the trace and state bytes are those of this interpreter."""
    python = find_interpreter(name)
    if python is None:
        pytest.skip(f"{name} not found")
    runs = {}
    for label in ("here", name):
        d = tmp_path / label
        d.mkdir()
        game, state, trace = d / "game.json", d / "state.json", d / "trace.jsonl"
        steps = [
            [*ROUND_TRIP_GAME, "--out", str(game)],
            ["solve", "--input", str(game), "--output", str(state), "--trace", str(trace)],
            ["audit", "--game", str(game), "--trace", str(trace)],
            ["verify", "--game", str(game), "--state", str(state)],
        ]
        for argv in steps:
            if label == "here":
                code, out, err = run(capsys, *argv)
            else:
                proc = run_process(*argv, python=python)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            assert code == 0, (label, argv, err)
            assert argv[0] != "audit" or "audit: PASS" in out
        runs[label] = trace.read_bytes(), state.read_bytes()
    assert runs[name] == runs["here"]


TOO_LONG = "7" * 5000  # past the default limit of 4,300 digits


class TestDigitLimit:
    """An integer past the interpreter's int/str digit limit is an input
    error (exit 3) naming the limit, wherever it is read or written."""

    @staticmethod
    def assert_input_error(proc: subprocess.CompletedProcess) -> None:
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "input error" in proc.stderr and "4300 digits" in proc.stderr

    def test_instance_weight(self, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "degree": 1,
            "resources": [{"coeffs": ["0", "1"]}],
            "players": [{"weight": TOO_LONG, "strategies": [[0]]}],
        }))
        self.assert_input_error(run_process(
            "solve", "--input", str(game), "--output", str(tmp_path / "state.json")
        ))

    def test_trace_rational(self, tmp_path, capsys):
        game, _, trace = solved(tmp_path, capsys)
        edit_trace_line(trace, 1, lambda doc: doc.update({"cost_after": f"1/{TOO_LONG}"}))
        self.assert_input_error(run_process("audit", "--game", str(game), "--trace", str(trace)))

    def test_cli_rational(self, tmp_path, capsys):
        game, state, _ = solved(tmp_path, capsys)
        self.assert_input_error(run_process(
            "verify", "--game", str(game), "--state", str(state), "--rho", TOO_LONG
        ))

    def test_state_integer(self, tmp_path, capsys):
        game, state, _ = solved(tmp_path, capsys)
        state.write_text('{"choices": [' + "1" * 5000 + ", 0]}")
        self.assert_input_error(run_process("verify", "--game", str(game), "--state", str(state)))

    def test_gen_lb_output(self, tmp_path):
        # n = 30 writes coefficients of up to 3,765 digits; n = 40 goes past the limit
        out = tmp_path / "lb.json"
        self.assert_input_error(run_process(
            "gen-lb", "--d", "2", "--rho", "3/2", "--n", "40", "--out", str(out)
        ))
        assert not out.exists()

    def test_solve_trace_output(self, tmp_path):
        # m = 67 phases, so the trace's boundaries have 4,311-digit
        # denominators; the files already at the output paths keep their bytes
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "degree": 4,
            "resources": [{"coeffs": ["0", "1/8"]}, {"coeffs": [str(2**64)]}],
            "players": [{"weight": "1", "strategies": [[e]]} for e in (0, 1)],
            "initial_state": [0, 0],
        }))
        state, trace = tmp_path / "state.json", tmp_path / "trace.jsonl"
        state.write_bytes(b'{"choices": [0, 0]}\n')
        trace.write_bytes(b'{"an": "earlier trace"}\n')
        self.assert_input_error(run_process(
            "solve", "--input", str(game), "--output", str(state), "--trace", str(trace)
        ))
        assert state.read_bytes() == b'{"choices": [0, 0]}\n'
        assert trace.read_bytes() == b'{"an": "earlier trace"}\n'


@pytest.mark.parametrize("p, detail", [
    (10**100, f"recorded Schedule(p={10**100}, "),
    (10**300, "recorded value disagrees with recomputation, one past the int/str digit limit"),
])
def test_audit_of_a_schedule_with_a_huge_p(tmp_path, capsys, p, detail):
    """A p whose recomputed boundaries pass the int/str digit limit fails
    the audit (exit 2) naming the schedule, like any other p, and with no
    traceback; under the limit the message shows both schedules."""
    game, trace = tmp_path / "game.json", tmp_path / "trace.jsonl"
    run(capsys, "gen-random", "--seed", "1", "--n", "6", "--d", "2", "--resources", "4",
        "--out", str(game))
    run(capsys, "solve", "--input", str(game), "--output", str(tmp_path / "state.json"),
        "--trace", str(trace))
    edit_trace_line(trace, 0, lambda doc: doc["schedule"].update(p=p, exact_constants=False))
    proc = run_process("audit", "--game", str(game), "--trace", str(trace))
    assert (proc.returncode, "Traceback" in proc.stderr) == (2, False), proc.stderr
    assert proc.stderr.startswith(f"check failed: schedule: {detail}")


@pytest.mark.parametrize("degree", [10**20, MAX_DEGREE + 1])
def test_solve_rejects_a_degree_above_the_limit(tmp_path, degree):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "degree": degree,
        "resources": [{"coeffs": ["0", "1"]}],
        "players": [{"weight": "1", "strategies": [[0]]}],
    }))
    proc = run_process("solve", "--input", str(game), "--output", str(tmp_path / "state.json"))
    assert (proc.returncode, "Traceback" in proc.stderr) == (3, False), proc.stderr
    assert f"input error: degree {degree} is above MAX_DEGREE = {MAX_DEGREE}" in proc.stderr


@pytest.mark.parametrize("edit, message", [
    (("[[0]]", "5"), "player 0: 'strategies' must be a list"),
    (("[[0]]", "[]"), "player 0: player has no strategies"),
    (("[[0]]", "[[0, 0]]"), "player 0: duplicate resource in strategy (0, 0)"),
    (('["0", "1"]', '["0", "1", "0"]'), "resource 0: 3 coefficients exceed degree 1"),
    (('"degree": 1', '"degree": 0'), "degree must be >= 1, got 0"),
])
def test_solve_rejects_a_malformed_instance(tmp_path, capsys, edit, message):
    # the constructors judge the values a file holds; each is an input error
    game, out = tmp_path / "game.json", tmp_path / "state.json"
    game.write_text(MINIMAL.replace(*edit))
    code, _, err = run(capsys, "solve", "--input", str(game), "--output", str(out))
    assert (code, err) == (3, f"input error: {message}\n")
    assert not out.exists()


def test_readme_synopsis_matches_the_parser():
    """The README's CLI block lists exactly the parser's subcommands, each
    with exactly its long options; an indented line continues the command
    above it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    listed: dict[str, set[str]] = {}
    for line in filter(str.strip, block.splitlines()):
        if not line[0].isspace():
            command = line.split()[1]
        listed.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == defined


@pytest.mark.parametrize("command", [
    ["gen-random", "--seed", "0", "--n", "2", "--resources", "3"],
    ["gen-lb", "--n", "2", "--rho", "3/2"],
])
def test_generators_reject_a_degree_above_the_limit(tmp_path, command):
    # at once: both used to run without bound on this degree
    degree, out = 10**20, tmp_path / "game.json"
    proc = run_process(*command, "--d", str(degree), "--out", str(out))
    assert (proc.returncode, "Traceback" in proc.stderr) == (3, False), proc.stderr
    assert f"input error: degree {degree} is above MAX_DEGREE = {MAX_DEGREE}" in proc.stderr
    assert not out.exists()


class TestFactorPastTheFloatRange:
    """A factor above the largest float prints as the exact rational alone."""

    BIG = 2**1100

    def write_game(self, tmp_path) -> tuple[Path, Path]:
        game, state = tmp_path / "game.json", tmp_path / "state.json"
        game.write_text(json.dumps({
            "degree": 1,
            "resources": [{"coeffs": [str(self.BIG), "0"]}, {"coeffs": ["1", "0"]}],
            "players": [{"weight": "1", "strategies": [[0], [1]]}],
        }))
        state.write_text('{"choices": [0]}')
        return game, state

    def test_verify(self, tmp_path):
        game, state = self.write_game(tmp_path)
        proc = run_process("verify", "--game", str(game), "--state", str(state))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"equilibrium factor: {self.BIG}\n"

    def test_brute_poa(self, tmp_path):
        game, _ = self.write_game(tmp_path)
        proc = run_process("brute-poa", "--game", str(game), "--rho", str(self.BIG))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"poa: {self.BIG}\nworst_state: [0]\noptimum_state: [1]\n"


# each command and option that reads a file, with the bytes in that file
# before which the byte 0xff goes: a string of the instance, a key otherwise
READERS = {
    "solve --input": b'"weight": "',
    "verify --game": b'"weight": "',
    "verify --state": b'{"',
    "audit --trace": b'{"',
}


@pytest.mark.parametrize("defect", ["byte 0xff", "a directory"])
@pytest.mark.parametrize("reader", READERS)
def test_unreadable_input_file(tmp_path, capsys, reader, defect):
    """A file that is not UTF-8, or a path that names a directory, is an
    input error (exit 3), not a traceback."""
    game, state, trace = solved(tmp_path, capsys)
    command, option = reader.split()
    path = {"--input": game, "--game": game, "--state": state, "--trace": trace}[option]
    if defect == "byte 0xff":
        marker = READERS[reader]
        path.write_bytes(path.read_bytes().replace(marker, marker + b"\xff", 1))
    else:
        path.unlink()
        path.mkdir()
    proc = run_process(*{
        "solve": ["solve", "--input", str(game), "--output", str(tmp_path / "out.json")],
        "verify": ["verify", "--game", str(game), "--state", str(state)],
        "audit": ["audit", "--game", str(game), "--trace", str(trace)],
    }[command])
    assert proc.returncode == 3, proc.stderr
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


class TestParser:
    def test_built_once_and_reused(self):
        assert build_parser() is build_parser()
        solve = build_parser().parse_args(["solve", "--input", "a", "--output", "b"])
        poa = build_parser().parse_args(["poa", "--d", "3"])
        assert solve.input == "a" and solve.p_override is None
        assert poa.d == 3 and not hasattr(poa, "input")
        assert build_parser().parse_args(["poa"]).d == 1


class TestDeterminism:
    def test_gen_random_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *GEN, "--out", str(a))
        run(capsys, *GEN, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestGenRandomStrategies:
    ARGS = ["gen-random", "--n", "2", "--d", "1", "--resources", "3", "--max-size", "1"]

    def test_more_strategies_than_distinct_subsets(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        code, _, err = run(capsys, *self.ARGS, "--seed", "1", "--strategies", "4",
                           "--out", str(out))
        assert code == 3
        assert "distinct subsets" in err and not out.exists()

    def test_strategies_distinct_after_repeated_draws(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        code, _, _ = run(capsys, *self.ARGS, "--seed", "10", "--strategies", "3",
                         "--out", str(out))
        assert code == 0
        players = json.loads(out.read_text())["players"]
        assert [p["strategies"] for p in players] == [[[1], [0], [2]]] * 2
