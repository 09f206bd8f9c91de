"""Exact-arithmetic weighted congestion games with polynomial costs.

A game of degree d has a set of resources, each carrying a cost polynomial
of degree at most d with nonnegative coefficients, and a set of players,
each with a positive weight and an explicit list of strategies (nonempty
subsets of resource indices).  A state fixes one strategy index per player.

All scalars are `fractions.Fraction`: weights, coefficients, loads, costs
and potentials are exact, so every threshold comparison made by the solver
is bit-exact and reproducible.  All types are immutable after construction
and safe to share between threads; the operations below are pure functions.

Loads, costs and potentials are computed in one place: an integer form
of the game, made by compile_game and kept on the Game object
(Game.compiled).  The solver, the auditor, the verification oracles and
group/social costs run on it, and loads and player_costs here,
dynamics.best_response and the potentials of potential.py are views of
it, scaled back to Fractions.  Weights are scaled by W, the lcm of their
denominators, so loads are integers X = W*x.  Each c_e(X/W) is scaled to
integer coefficients over D = lcm(coefficient denominators) * W^d, and
each potential phi_e(X/W), derived from those integer cost rows on first
use, over Dp = 2*W*D.  A cost K stands for K/(W*D) and a potential P for
P/Dp.  Every test made on them (cost >= b_i, cost > t * cost',
drop >= floor) is homogeneous in the cost scale, so one uniform positive
rescaling leaves its answer unchanged: a boundary b becomes the integer
ceil(b*W*D), and a rational factor t = a/c is compared by
cross-multiplying, K*c > a*K'.  Values become Fractions again only where
they are reported.

Instance file format (JSON, UTF-8, strict — unknown keys are rejected)::

    {
      "degree": 2,
      "resources": [ {"coeffs": ["0", "1/2", "3"]}, ... ],
      "players":   [ {"weight": "3/2", "strategies": [[0, 1], [2]]}, ... ],
      "initial_state": [0, 1]          // optional
    }

Rationals are written as "p/q" or integer strings, always in lowest terms.
The canonical bytes of an instance, which Game.fingerprint hashes, are
those of json.dumps(doc, indent=2, sort_keys=True) + "\n";
serialize_instance writes them directly, without the json encoder.  The
rational form and the JSON decoding, with its mapping of the int/str
digit limit, are those of the codec module.  parse_instance checks the
JSON shape only; the values are judged by the constructors, for files
and library callers alike.  Game rejects a degree above MAX_DEGREE before
it pads any coefficient.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .codec import format_rational, parse_rational, read_json
from .errors import (
    DegreeMismatchError, EmptyStrategyError, InstanceError, MalformedInstanceError,
    NegativeCoefficientError, ResourceIndexError,
)

# The largest degree a game may have: every resource is padded to
# degree + 1 coefficients, so a degree of 10^9 would allocate gigabytes.
MAX_DEGREE = 1000


def check_degree(degree: int) -> None:
    """Reject a degree above MAX_DEGREE, before anything is built to it."""
    if degree > MAX_DEGREE:
        raise MalformedInstanceError(f"degree {degree} is above MAX_DEGREE = {MAX_DEGREE}")


def _at(exc: InstanceError, kind: str, i: int) -> InstanceError:
    """The error exc of building item i, prefixed by the index it does not
    know ("resource 3: ", "player 0: "); the error keeps its class."""
    return type(exc)(f"{kind} {i}: {exc}")


@dataclass(frozen=True)
class CostPolynomial:
    """A polynomial cost function with nonnegative rational coefficients.

    ``coeffs[v]`` is the coefficient of x**v.  Trailing zeros are allowed;
    evaluation is nondecreasing on x >= 0 because all coefficients are >= 0.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise MalformedInstanceError("cost polynomial needs >= 1 coefficient")
        for c in self.coeffs:
            if c.numerator < 0:  # a rational's sign is its numerator's
                raise NegativeCoefficientError(f"negative coefficient {c}")

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def padded(self, degree: int) -> "CostPolynomial":
        """Return the same polynomial with exactly degree+1 coefficients
        (this one when it has them already)."""
        if len(self.coeffs) == degree + 1:
            return self
        if len(self.coeffs) > degree + 1:
            raise DegreeMismatchError(
                f"{len(self.coeffs)} coefficients exceed degree {degree}"
            )
        pad = (Fraction(0),) * (degree + 1 - len(self.coeffs))
        return CostPolynomial(self.coeffs + pad)


@dataclass(frozen=True)
class PlayerSpec:
    """A player: positive weight plus an explicit, nonempty strategy list.

    Each strategy is a set of resource indices, stored as a sorted tuple so
    that structural equality and serialization are canonical.
    """

    weight: Fraction
    strategies: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.weight.numerator <= 0:
            raise MalformedInstanceError(f"weight must be positive, got {self.weight}")
        if not self.strategies:
            raise EmptyStrategyError("player has no strategies")
        for strat in self.strategies:
            if not strat:
                raise EmptyStrategyError("empty strategy")
            if not all(map(operator.lt, strat, strat[1:])):  # strictly increasing
                if len(set(strat)) != len(strat):
                    raise MalformedInstanceError(f"duplicate resource in strategy {strat}")
                raise MalformedInstanceError("strategy not in canonical sorted order")


def make_player(weight: Fraction, strategies: Iterable[Iterable[int]]) -> PlayerSpec:
    """Build a PlayerSpec, canonicalizing each strategy to a sorted tuple;
    PlayerSpec rejects a duplicate resource."""
    return PlayerSpec(
        weight=Fraction(weight),
        strategies=tuple(tuple(sorted(s)) for s in strategies),
    )


@dataclass(frozen=True)
class Game:
    """An immutable weighted congestion game of some fixed degree.

    Invariants checked at construction: 1 <= degree <= MAX_DEGREE, at
    least one player, every polynomial fits the degree (padded to exactly
    degree+1 coefficients), and every strategy points at existing
    resources; those two errors name the resource or player at fault.
    """

    degree: int
    resources: tuple[CostPolynomial, ...]
    players: tuple[PlayerSpec, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise MalformedInstanceError(f"degree must be >= 1, got {self.degree}")
        check_degree(self.degree)
        if not self.players:
            raise MalformedInstanceError("game needs at least one player")
        if not self.resources:
            raise MalformedInstanceError("game needs at least one resource")
        resources: list[CostPolynomial] = []
        try:
            for p in self.resources:
                resources.append(p.padded(self.degree))
        except InstanceError as exc:
            raise _at(exc, "resource", len(resources)) from exc
        object.__setattr__(self, "resources", tuple(resources))
        m = len(self.resources)
        for u, player in enumerate(self.players):
            for strat in player.strategies:
                if strat[0] < 0 or strat[-1] >= m:  # a strategy is sorted
                    e = next(e for e in strat if not 0 <= e < m)
                    raise ResourceIndexError(f"player {u}: resource index {e} out of range")

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def is_normalized(self) -> bool:
        """True when every weight is >= 1 (the solver's preferred form)."""
        return all(p.weight.numerator >= p.weight.denominator for p in self.players)

    @cached_property
    def compiled(self) -> "IntGame":
        """The integer form of the game (compile_game), made on first use
        and kept on this object."""
        return compile_game(self)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical instance serialization (no initial
        state), computed on first use and kept on this object."""
        return hashlib.sha256(serialize_instance(self).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class State:
    """One chosen strategy index per player."""

    choices: tuple[int, ...]


def validate_state(game: Game, state: State) -> None:
    if len(state.choices) != game.n:
        raise MalformedInstanceError(
            f"state has {len(state.choices)} entries for {game.n} players"
        )
    for u, k in enumerate(state.choices):
        if not 0 <= k < len(game.players[u].strategies):
            raise MalformedInstanceError(f"strategy index {k} invalid for player {u}")


def normalize(game: Game) -> Game:
    """Rescale weights and coefficients so that every weight is >= 1.

    With w_min the minimum weight, weights become w/w_min and the
    coefficient of x**v becomes a_v * w_min**v.  Every player's cost in
    every state is then scaled by the uniform factor 1/w_min, so all cost
    ratios between states are preserved exactly.  Identity when w_min >= 1.
    """
    if game.is_normalized:
        return game
    w_min = min(p.weight for p in game.players)
    resources = tuple(
        CostPolynomial(tuple(c * w_min**v for v, c in enumerate(poly.coeffs)))
        for poly in game.resources
    )
    players = tuple(
        PlayerSpec(weight=p.weight / w_min, strategies=p.strategies)
        for p in game.players
    )
    return Game(degree=game.degree, resources=resources, players=players)


def loads(game: Game, state: State) -> tuple[Fraction, ...]:
    """Total weight on each resource under the given state: IntGame.loads,
    scaled back."""
    ig = game.compiled
    return tuple(Fraction(x, ig.W) for x in ig.loads(state.choices))


def player_costs(game: Game, state: State) -> tuple[Fraction, ...]:
    """All players' costs at the state: IntGame.player_costs, scaled back."""
    ig = game.compiled
    rcosts = ig.resource_costs(ig.loads(state.choices))
    return tuple(map(ig.cost_value, ig.player_costs(state.choices, rcosts)))


def group_cost(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Summed cost of a player group, via the per-resource form
    sum_e x_{R,e} * c_e(x_e), evaluated on the integer game and only on
    the resources the group uses; agrees exactly with summing player costs."""
    ig = game.compiled
    x = ig.loads(state.choices)
    x_group = ig.loads(state.choices, set(players))
    return ig.cost_value(
        sum(xg * _horner(ig.costs[e], x[e]) for e, xg in enumerate(x_group) if xg)
    )


def social_cost(game: Game, state: State) -> Fraction:
    return group_cost(game, state, range(game.n))


# --------------------------------------------------------------------------
# Integer kernel: the game compiled once by a uniform rescaling
# --------------------------------------------------------------------------


def _horner(coeffs: tuple[int, ...], x: int) -> int:
    """Evaluate integer coefficients given highest degree first."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class IntGame:
    """A Game compiled to integers; see compile_game.

    A load X stands for X/W, a cost K for K/(W*D) and a potential P for
    P/Dp.  ``costs[e]`` and ``potentials[e]`` are the integer coefficients,
    highest degree first, of D*c_e(X/W) and Dp*phi_e(X/W); Dp and the
    potentials are derived from the cost rows on first use.  ``choices``
    arguments are strategy indices per player, as in State.choices.  The
    package's one cost kernel: a player's cost on each of her strategies,
    the others' choices fixed, is written once, in strategy_costs, and
    best_response is their argmin.  tests/reference.py keeps from-scratch
    Fraction player costs, strategy costs, best responses and potentials
    as its oracle.  alone_cost sums the same costs in a loop of its own,
    at empty loads, for compute_schedule's c_min.
    """

    W: int
    D: int
    weights: tuple[int, ...]
    strategies: tuple[tuple[tuple[int, ...], ...], ...]
    costs: tuple[tuple[int, ...], ...]

    @property
    def Dp(self) -> int:
        return 2 * self.W * self.D

    @cached_property
    def potentials(self) -> tuple[tuple[int, ...], ...]:
        """The package's one definition of the potential phi_e (its formula
        is in the potential module's docstring): with k_v the X^v
        coefficient of D*c_e(X/W), the X^j coefficient of Dp*phi_e(X/W) is
        2*k_{j-1} + (j+1)*W*k_j for 1 <= j <= d, 2*k_d for j = d+1 and 0
        for j = 0."""
        rows = []
        for row in self.costs:  # k_d, ..., k_0
            terms = zip(range(len(row), 0, -1), (0, *row), row)  # (j, k_j, k_{j-1}), j = d+1..1
            rows.append((*(2 * lower + (j + 1) * self.W * k for j, k, lower in terms), 0))
        return tuple(rows)

    def loads(self, choices: Sequence[int], players: Iterable[int] | None = None) -> list[int]:
        """Scaled loads of all players, or of a group."""
        totals = [0] * len(self.costs)
        for u in range(len(choices)) if players is None else players:
            w = self.weights[u]
            for e in self.strategies[u][choices[u]]:
                totals[e] += w
        return totals

    def resource_costs(self, x: Sequence[int]) -> list[int]:
        """D * c_e(X_e/W) for every resource."""
        return [_horner(poly, x[e]) for e, poly in enumerate(self.costs)]

    def own_costs(self, choices: Sequence[int], x: Sequence[int], u: int) -> dict[int, int]:
        """D * c_e(X_e/W) for the resources of player u's strategy only:
        all that strategy_costs reads of ``rcosts`` for u."""
        return {e: _horner(self.costs[e], x[e]) for e in self.strategies[u][choices[u]]}

    def player_cost(self, choices: Sequence[int], rcosts: Sequence[int], u: int) -> int:
        """Scaled cost of player u, from the resource_costs of the loads."""
        return self.weights[u] * sum(rcosts[e] for e in self.strategies[u][choices[u]])

    def player_costs(self, choices: Sequence[int], rcosts: Sequence[int]) -> list[int]:
        """Scaled cost of every player (player_cost)."""
        return [self.player_cost(choices, rcosts, u) for u in range(len(choices))]

    def strategy_costs(
        self, choices: Sequence[int], x: Sequence[int], rcosts: Sequence[int], u: int,
        evaluate: Callable[[tuple[int, ...], int], int] | None = None,
    ) -> list[int]:
        """Scaled, unweighted cost of player u on each of her strategies,
        the others' choices fixed (alone_cost sums them at empty loads).
        weights[u] times each is her scaled cost at that state.  ``x`` and
        ``rcosts`` belong to ``choices``: her own resources' costs are read
        from ``rcosts``, any other resource's is evaluate(cost row, load
        with her), by default _horner."""
        w, evaluate = self.weights[u], evaluate or _horner
        current, costs = self.strategies[u][choices[u]], self.costs
        totals = []
        for strat in self.strategies[u]:
            total = 0
            for e in strat:
                total += rcosts[e] if e in current else evaluate(costs[e], x[e] + w)
            totals.append(total)
        return totals

    def best_response(
        self, choices: Sequence[int], x: Sequence[int], rcosts: Sequence[int], u: int,
        evaluate: Callable[[tuple[int, ...], int], int] | None = None,
    ) -> tuple[int, int, int]:
        """Best strategy index of player u with its cost, and u's current
        cost: the argmin of strategy_costs, ties going to the lowest index.
        Costs are scaled but unweighted, so their ratio does not depend on
        the weight."""
        totals = self.strategy_costs(choices, x, rcosts, u, evaluate)
        best = min(totals)
        return totals.index(best), best, totals[choices[u]]

    def alone_cost(self, u: int) -> int:
        """Scaled cost of player u's cheapest strategy when she is alone on
        its resources."""
        w, costs = self.weights[u], self.costs
        best = None
        for strat in self.strategies[u]:
            total = 0
            for e in strat:
                total += _horner(costs[e], w)
            if best is None or total < best:
                best = total
        return w * best

    def potential(self, x: Sequence[int]) -> int:
        """Scaled global potential at the loads."""
        return sum(_horner(poly, x[e]) for e, poly in enumerate(self.potentials))

    def partial_potential(self, choices: Sequence[int], players: Iterable[int]) -> int:
        """Scaled partial potential of a group R (see
        potential.partial_potential): Phi(X) - Phi(X - X_R) is the sum of
        Phi_e(X_e) - Phi_e(X_e - X_{R,e}) over the resources R uses, as
        every other resource's term is 0.  An empty group computes no loads."""
        group = set(players)
        if not group:
            return 0
        x, potentials = self.loads(choices), self.potentials
        return sum(
            _horner(potentials[e], x[e]) - _horner(potentials[e], x[e] - xr)
            for e, xr in enumerate(self.loads(choices, group)) if xr
        )

    def cost_value(self, k: int) -> Fraction:
        return Fraction(k, self.W * self.D)

    def potential_value(self, p: int) -> Fraction:
        return Fraction(p, self.Dp)

    def cost_ceil(self, c: Fraction) -> int:
        """Smallest scaled cost K with K/(W*D) >= c."""
        return -(-c.numerator * self.W * self.D // c.denominator)


def _common_denominator(values: Iterable[Fraction]) -> tuple[int, dict[int, int]]:
    """L, the lcm of the values' denominators (taken in ascending order,
    cheap when each divides the next), and L // d for each denominator d."""
    descending = sorted({a.denominator for a in values}, reverse=True)
    L = math.lcm(*reversed(descending))
    # L // d for each denominator d, largest first: when d divides the next
    # larger e, L // d = (L // e) * (e // d), a short division, not a long one
    quotient: dict[int, int] = {}
    for d, e in zip(descending, [0, *descending]):
        quotient[d] = quotient[e] * (e // d) if e and e % d == 0 else L // d
    return L, quotient


def _scale(
    polys: Sequence[Sequence[Fraction]], W: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A common denominator L * W^t of every coefficient of every p(X/W),
    with each polynomial's integer coefficients over it, highest first: L
    is the lcm of the coefficient denominators (_common_denominator) and t
    the top exponent, so a_v/W^v becomes a_v.numerator * (L //
    a_v.denominator) * W^(t-v), with no gcd."""
    top = max(map(len, polys)) - 1
    L, quotient = _common_denominator(a for coeffs in polys for a in coeffs)
    powers = [W ** v for v in range(top + 1)]  # coefficient v's factor is powers[top - v]
    return L * powers[top], tuple([
        tuple([
            a.numerator * quotient[a.denominator] * w
            for a, w in zip(reversed(coeffs), powers[top + 1 - len(coeffs):])
        ])
        for coeffs in polys
    ])


def compile_game(game: Game) -> IntGame:
    """Compile a game to the integer form of IntGame: W is the lcm of the
    weight denominators (_common_denominator), each weight w becomes the
    integer w * W, and D is the denominator made by _scale.  Use
    Game.compiled, which compiles each Game once."""
    weights = [p.weight for p in game.players]
    W, quotient = _common_denominator(weights)
    D, costs = _scale([poly.coeffs for poly in game.resources], W)
    return IntGame(
        W=W,
        D=D,
        weights=tuple([w.numerator * quotient[w.denominator] for w in weights]),
        strategies=tuple([p.strategies for p in game.players]),
        costs=costs,
    )


# --------------------------------------------------------------------------
# Instance (de)serialization
# --------------------------------------------------------------------------


_KEYS = {
    "instance": frozenset({"degree", "resources", "players", "initial_state"}),
    "resource": frozenset({"coeffs"}),
    "player": frozenset({"weight", "strategies"}),
}


def _require_keys(obj: dict, kind: str, i: int | None = None) -> None:
    """Reject a key of obj outside _KEYS[kind]; the message names the item
    as "resource 3" (kind and index) and is formatted only on failure."""
    if not obj.keys() <= _KEYS[kind]:
        where = kind if i is None else f"{kind} {i}"
        raise MalformedInstanceError(f"unknown keys {sorted(obj.keys() - _KEYS[kind])} in {where}")


def parse_instance(data: bytes | str) -> tuple[Game, State | None]:
    """Parse an instance file; returns the game and its optional initial state.

    Parsing is strict: unknown keys, non-string rationals and malformed
    structure are rejected.  The game comes back normalized (weights below
    1 scaled away, see normalize).  Checked here, in document order, is the
    JSON shape only: the types and keys, each rational string (each
    distinct string is parsed once per call), integer resource indices and
    an initial state of integers.  Each strategy is handed over sorted.
    The values are judged by the constructors, as for any caller:
    CostPolynomial, PlayerSpec and Game (see their checks), and
    validate_state for the initial state; an error of a CostPolynomial or
    PlayerSpec built here is prefixed with its resource or player index.
    """
    rationals: dict[str, Fraction] = {}

    def rational(text) -> Fraction:
        if type(text) is not str:
            return parse_rational(text)  # which rejects it
        value = rationals.get(text)
        if value is None:
            value = rationals[text] = parse_rational(text)
        return value

    raw = read_json(data, MalformedInstanceError, "invalid JSON", "instance")
    if not isinstance(raw, dict):
        raise MalformedInstanceError("top level must be an object")
    _require_keys(raw, "instance")

    # read_json makes every integer an exact int, so type() rejects bools
    degree = raw.get("degree")
    if type(degree) is not int:
        raise MalformedInstanceError(f"degree must be an integer, got {degree!r}")

    if not isinstance(raw.get("resources"), list):
        raise MalformedInstanceError("'resources' must be a list")
    resources = []
    for i, entry in enumerate(raw["resources"]):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"resource {i} must be an object")
        _require_keys(entry, "resource", i)
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list):
            raise MalformedInstanceError(f"resource {i}: 'coeffs' must be a list")
        coeffs = tuple(map(rational, coeffs))
        try:
            resources.append(CostPolynomial(coeffs))
        except InstanceError as exc:
            raise _at(exc, "resource", i) from exc

    if not isinstance(raw.get("players"), list):
        raise MalformedInstanceError("'players' must be a list")
    players = []
    for i, entry in enumerate(raw["players"]):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"player {i} must be an object")
        _require_keys(entry, "player", i)
        weight = rational(entry.get("weight"))
        strategies = entry.get("strategies")
        if not isinstance(strategies, list):
            raise MalformedInstanceError(f"player {i}: 'strategies' must be a list")
        for strat in strategies:
            if not isinstance(strat, list):
                raise MalformedInstanceError(f"player {i}: strategy must be a list")
            for e in strat:
                if type(e) is not int:
                    raise MalformedInstanceError(
                        f"player {i}: resource index {e!r} must be an integer"
                    )
            strat.sort()  # a list of the decoded document, which is ours
        strategies = tuple(map(tuple, strategies))
        try:
            players.append(PlayerSpec(weight, strategies))
        except InstanceError as exc:
            raise _at(exc, "player", i) from exc

    game = Game(degree=degree, resources=tuple(resources), players=tuple(players))

    initial_state = None
    if "initial_state" in raw:
        entries = raw["initial_state"]
        if not isinstance(entries, list) or not all(type(k) is int for k in entries):
            raise MalformedInstanceError("'initial_state' must be a list of integers")
        initial_state = State(tuple(entries))
        validate_state(game, initial_state)

    return normalize(game), initial_state


def _json_block(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """Encoded items as a list, or as an object with brackets="{}" and
    '"key": value' items, laid out as json.dumps(indent=2) lays out one
    that opens on a line indented by ``indent`` spaces."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + f"{pad}{brackets[1]}"


def serialize_instance(game: Game, initial_state: State | None = None) -> str:
    """Serialize to the canonical instance format (deterministic bytes):
    exactly json.dumps(doc, indent=2, sort_keys=True) + "\n", written
    directly, keys in sorted order.  The values need no escaping: ints,
    and rationals made of digits, "-" and "/".  The lists of a Game's
    players, strategies, resources and coefficients are never empty (its
    constructors see to that), so each is written as one join of its
    items between the brackets' fixed lines; only the top-level object
    and the initial state go through _json_block."""
    players = [
        '{\n      "strategies": [\n        [\n          '
        + "\n        ],\n        [\n          ".join(
            [",\n          ".join(map(str, s)) for s in p.strategies]
        )
        + f'\n        ]\n      ],\n      "weight": "{format_rational(p.weight)}"\n    }}'
        for p in game.players
    ]
    resources = [
        '{\n      "coeffs": [\n        "'
        + '",\n        "'.join(map(format_rational, poly.coeffs))
        + '"\n      ]\n    }'
        for poly in game.resources
    ]
    fields = [f'"degree": {game.degree}']
    if initial_state is not None:
        fields.append('"initial_state": ' + _json_block([str(k) for k in initial_state.choices], 2))
    fields += ['"players": ' + _json_block(players, 2), '"resources": ' + _json_block(resources, 2)]
    return _json_block(fields, 0, "{}") + "\n"
