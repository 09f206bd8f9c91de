"""The instance and trace codecs against their references in
tests/reference.py.

On hypothesis games serialize_instance must give the reference's bytes,
and parse_instance must give the reference's game and state, or raise
the same exception class with the same message, on valid documents, on
every malformed case of tests/test_game.py and on random mutations of
valid documents.  The one deliberate difference is an integer past the
interpreter's int/str digit limit: the reference lets the ValueError
out, the codec raises DigitLimitError.

The trace codec walks the dataclass fields of Schedule, MoveRecord and
Trace through one table of (write, read) pairs; the reference lists the
header and the schedule by hand.  On solver runs the writer must give
the reference's bytes, and on every single-field mutation of the header,
the schedule and a move line the reader must give the reference's trace
or raise the same exception class with the same message.  The one
difference is a schedule that is not an object: the reference names
exact_constants, the first key it read, as missing; the codec names p,
the first field of Schedule.
"""

from __future__ import annotations

import collections
import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    CostPolynomial,
    Game,
    State,
    Trace,
    gen_random,
    make_player,
    normalize,
    run_algorithm,
)
from congames import game as game_module
from congames.codec import format_rational, parse_rational
from congames.dynamics import read_trace, write_trace
from congames.errors import DigitLimitError, MalformedTraceError
from congames.game import parse_instance, serialize_instance

from conftest import MINIMAL, SETTINGS, crafted_p_move_game
from reference import (
    reference_parse_instance,
    reference_read_trace,
    reference_serialize_instance,
    reference_write_trace,
)


def outcome(fn, *args, **kwargs):
    """What a call gives: its result's repr (so a Fraction never passes for
    an int), or its exception's type and message; an int/str conversion
    past the digit limit reads the same from the codec and the reference."""
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, DigitLimitError) as exc:
        if "limit" in str(exc) and "digits" in str(exc):
            return "past the int/str digit limit"
        return type(exc), str(exc)
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)


# --------------------------------------------------------------------------
# Hypothesis instances
# --------------------------------------------------------------------------

LIMIT = 10**4300  # the largest integer the interpreter writes by default has 4,300 digits
small = st.integers(0, 12)
huge = st.integers(LIMIT // 10**40, LIMIT - 1) | st.just(LIMIT - 1)
denominators = st.integers(1, 8)


@st.composite
def instances(draw, big: bool = True) -> tuple[Game, State | None]:
    """A game of 1-5 players over 1-5 resources with degree 1-4, zero and
    padded coefficients, strategies of up to 3 resources, weights below
    and above 1, and, when big, coefficients of up to 4,300 digits."""
    degree = draw(st.integers(1, 4))
    num_resources = draw(st.integers(1, 5))
    parts = (small | huge, denominators | huge) if big else (small, denominators)
    coefficient = st.builds(Fraction, *parts)
    resources = tuple(
        CostPolynomial(tuple(draw(st.lists(coefficient, min_size=1, max_size=degree + 1))))
        for _ in range(num_resources)
    )
    subsets = st.lists(st.integers(0, num_resources - 1), min_size=1, max_size=3, unique=True)
    weights = st.builds(Fraction, st.integers(1, 24), denominators)
    players = tuple(
        make_player(draw(weights), draw(st.lists(subsets, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 5)))
    )
    game = Game(degree=degree, resources=resources, players=players)
    state = draw(st.none() | st.just(
        State(tuple(draw(st.integers(0, len(p.strategies) - 1)) for p in players))
    ))
    return game, state


@SETTINGS
@given(instances(), st.booleans())
def test_writer_matches_json_dumps(case, normalized):
    game, state = case
    if normalized:
        game = normalize(game)  # weights >= 1; coefficients scaled by powers of w_min
    text = outcome(serialize_instance, game, state)
    assert text == outcome(reference_serialize_instance, game, state)
    if text != "past the int/str digit limit":
        written = serialize_instance(game, state)
        assert parse_instance(written) == (normalize(game), state)
        try:
            canonical = serialize_instance(normalize(game), state)
        except DigitLimitError:  # normalizing can lengthen a rational past the limit
            return
        assert serialize_instance(*parse_instance(canonical)) == canonical


def test_writer_matches_json_dumps_on_empty_lists():
    game = Game(1, (CostPolynomial((Fraction(1),)),), (make_player(1, [[0]]),))
    assert serialize_instance(game, State(())) == reference_serialize_instance(game, State(()))


# --------------------------------------------------------------------------
# The parser on valid, malformed and mutated documents
# --------------------------------------------------------------------------


def assert_parsers_agree(text: str) -> None:
    for data in (text, text.encode()):
        assert outcome(parse_instance, data) == outcome(reference_parse_instance, data)


def _with_initial_state(state: str) -> str:
    return MINIMAL.replace('"players"', f'"initial_state": {state}, "players"')


# every malformed input of tests/test_game.py::TestParsing, plus the valid MINIMAL
CORPUS = [
    MINIMAL,
    MINIMAL.replace('"0", "1"', '"-1/2", "1"'),
    MINIMAL.replace('"degree": 1,', '"degree": 1, "comment": "hi",'),
    MINIMAL.replace('"weight": "1"', '"weight": "1.5"'),
    MINIMAL.replace('"weight": "1"', '"weight": "3/0"'),
    MINIMAL.replace("[[0]]", "[[]]"),
    MINIMAL.replace("[[0]]", "[[3]]"),
    MINIMAL.replace('["0", "1"]', '["0", "1", "0"]'),
    MINIMAL.replace("[[0]]", "[[0, 0]]"),
    "{not json",
    _with_initial_state("[0]"),
    _with_initial_state("[2]"),
]
# the same document with one value of the wrong type, sign or range
CORPUS += [
    MINIMAL.replace('"degree": 1', f'"degree": {degree}') for degree in ("true", "1.0", "0", "3")
] + [
    MINIMAL.replace('"weight": "1"', f'"weight": {weight}')
    for weight in ('"0"', '"-3"', "1", '"2/4"', '" 5/4 "', '"\\t-0/7\\n"')
] + [
    MINIMAL.replace("[[0]]", strategies)
    for strategies in (
        "[[-1]]", "[[1]]", "[[true]]", "[[0.0]]", "[[1, 0]]", "[[0], [0]]", "[0]", "[]", "5"
    )
] + [_with_initial_state(state) for state in ("[true]", "[-1]", "[0, 0]", "0")] + [
    MINIMAL.replace('{"coeffs"', '{"weight": "1", "coeffs"'),
    MINIMAL.replace('{"weight"', '{"coeffs": [], "weight"'),
    MINIMAL.replace('["0", "1"]', '["0", "-1"]'),
    MINIMAL.replace('["0", "1"]', '["0", 1]'),
    MINIMAL.replace('["0", "1"]', "[]"),
]


@pytest.mark.parametrize("text", CORPUS)
def test_parser_matches_reference_on_corpus(text):
    assert_parsers_agree(text)


# replacement values: wrong types, bools and floats where ints belong,
# negative and zero values, out-of-range indices, odd rational strings
BAD_VALUES = [
    None, True, False, 0, 1, -1, 2, 5, 99, 1.0, 1.5, "0", "1", "-1/2", "3/0", "1.5", "x",
    " 5/4 ", "+2", "1/-2", "2/4", "0/3", [], [0], [0, 0], [1, 0], [-1], [99], [True], {},
    {"coeffs": ["1"]}, {"weight": "1", "strategies": [[0]]},
]


def _paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*path, key))


def _mutate(doc, draw):
    """One random edit: replace a node, add an unknown key, drop a node,
    or append to a list (a duplicate index, a coefficient too many, ...)."""
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    kind = draw(st.sampled_from(["replace", "add key", "drop", "append"]))
    if kind == "replace" and path:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    elif kind == "add key" and isinstance(node, dict):
        node[draw(st.sampled_from(["comment", "weight", "coeffs", "initial_state"]))] = 0
    elif kind == "drop" and path:
        del parent[path[-1]]
    elif kind == "append" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else draw(st.sampled_from(BAD_VALUES)))


@settings(SETTINGS, max_examples=300)
@given(instances(big=False), st.data())
def test_parser_matches_reference_on_mutations(case, data):
    doc = json.loads(reference_serialize_instance(*case))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(doc, data.draw)
    assert_parsers_agree(json.dumps(doc))


def test_parser_parses_each_distinct_rational_once(monkeypatch):
    """A gen-random file repeats a few rational strings many times: at
    d = 2, n = 50 and 20 resources it holds 110 rationals, 12 distinct.
    parse_instance parses each distinct string once per call."""
    game = gen_random(
        n=50, d=2, num_resources=20, strategies_per_player=3, max_strategy_size=3,
        coeff_range=(Fraction(1, 4), Fraction(2)), weight_range=(Fraction(1), Fraction(3)), seed=1,
    )
    text = serialize_instance(game)
    doc = json.loads(text)
    strings = [c for r in doc["resources"] for c in r["coeffs"]] + [p["weight"] for p in doc["players"]]
    calls = collections.Counter()

    def counting(value):
        calls[value] += 1
        return parse_rational(value)

    monkeypatch.setattr(game_module, "parse_rational", counting)
    for _ in range(2):  # once per call, not once per process
        calls.clear()
        assert parse_instance(text) == (game, None)
        assert set(calls) == set(strings) and set(calls.values()) == {1}, calls
    assert (len(strings), len(calls)) == (110, 12)


# --------------------------------------------------------------------------
# The int/str digit limit
# --------------------------------------------------------------------------


def test_digit_limit_raises_digit_limit_error():
    too_long = "7" * 4301
    with pytest.raises(DigitLimitError, match="4300"):
        parse_rational(too_long)
    with pytest.raises(DigitLimitError, match="4300"):
        parse_rational(f"1/{too_long}")
    with pytest.raises(DigitLimitError, match="4300"):
        format_rational(Fraction(1, 10**4301))
    with pytest.raises(DigitLimitError, match="4300"):
        parse_instance(MINIMAL.replace('"degree": 1', f'"degree": {too_long}'))
    assert parse_rational("7" * 4300) == int("7" * 4300)


# --------------------------------------------------------------------------
# The trace codec on solver runs and on single-field mutations
# --------------------------------------------------------------------------


def written(write, trace: Trace) -> str:
    buf = io.StringIO()
    write(trace, buf)
    return buf.getvalue()


def solver_traces():
    """Traces of gen-random games with and without p overridden, the
    crafted run with both move classes, and the schedule-less trivial run."""
    for seed, (n, d) in enumerate([(6, 1), (8, 2), (5, 3), (10, 2)]):
        game = gen_random(n, d, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=seed)
        for p_override in (None, 4 * d + 8):
            yield run_algorithm(game, State((0,) * n), p_override)[1]
    game, s0 = crafted_p_move_game()
    yield run_algorithm(game, s0, p_override=4)[1]
    zero = Game(1, (CostPolynomial((Fraction(0),)),), (make_player(1, [[0]]),))
    yield run_algorithm(zero, State((0,)))[1]


TRACES = list(solver_traces())


def test_solver_traces_cover_every_shape():
    assert any(t.schedule is None for t in TRACES)
    assert any(t.schedule and not t.schedule.exact_constants for t in TRACES)
    assert any(t.schedule and t.schedule.exact_constants and t.moves for t in TRACES)
    assert {mv.move_class for t in TRACES for mv in t.moves} == {"alpha_move", "p_move"}


@pytest.mark.parametrize("trace", TRACES)
def test_writer_matches_reference(trace):
    text = written(write_trace, trace)
    assert text == written(reference_write_trace, trace)
    assert read_trace(io.StringIO(text)) == reference_read_trace(io.StringIO(text)) == trace


MUTATION_VALUES = [None, "x", 1.5, True, [], {}, [["a"]]]
DELETE = object()


def single_field_mutations(text: str):
    """(label, mutated text) for each key of the header, the schedule and
    the first move line, deleted or set to each of MUTATION_VALUES."""
    lines = text.splitlines()

    def variants(doc: dict, where: str):
        for key in doc:
            for value in [DELETE, *MUTATION_VALUES]:
                mutated = copy.deepcopy(doc)
                if value is DELETE:
                    del mutated[key]
                else:
                    mutated[key] = value
                yield f"{where}.{key} = {'deleted' if value is DELETE else repr(value)}", mutated

    header = json.loads(lines[0])
    for label, doc in variants(header, "header"):
        yield label, "\n".join([json.dumps(doc, sort_keys=True), *lines[1:]])
    for label, schedule in variants(header["schedule"], "schedule"):
        doc = dict(header, schedule=schedule)
        yield label, "\n".join([json.dumps(doc, sort_keys=True), *lines[1:]])
    for label, move in variants(json.loads(lines[1]), "move"):
        yield label, "\n".join([lines[0], json.dumps(move, sort_keys=True), *lines[2:]])


# a schedule that is not an object (None is the schedule of the trivial run)
SCHEDULE_NOT_AN_OBJECT = {f"header.schedule = {v!r}" for v in MUTATION_VALUES if v is not None}


@pytest.mark.parametrize("trace", [TRACES[1], TRACES[-2]])  # p overridden; crafted run
def test_reader_matches_reference_on_mutations(trace):
    rejected = 0
    mutations = list(single_field_mutations(written(write_trace, trace)))
    for label, text in mutations:
        got = outcome(read_trace, io.StringIO(text))
        expected = outcome(reference_read_trace, io.StringIO(text))
        if label in SCHEDULE_NOT_AN_OBJECT:  # the message names the first key read
            assert expected == (
                MalformedTraceError, "trace schedule: missing key 'exact_constants'"
            )
            assert got == (MalformedTraceError, "trace schedule: missing key 'p'"), label
        else:
            assert got == expected, label
        rejected += isinstance(got, tuple)
    assert len(mutations) == 8 * (7 + 9 + 10)
    assert rejected > len(mutations) // 2
