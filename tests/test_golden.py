"""Golden digests: fixed instances must keep producing byte-identical
trace JSONL, state files, `audit` and `brute-poa` output, and the same
exact values from the group PoA oracles.

The pins were computed with the all-Fraction solver, auditor and
oracles; any change to how costs, potentials or thresholds are computed
must leave every digest and value unchanged.  The solver cases cover
degrees 1-3, a run whose moves happen after phase 0, a p-move run, a
game whose weights normalize to non-integers, and the trivial
all-zero-cost run.  The oracle cases are 4-player games of degree 1-3
with zero coefficients and weights that normalize to non-integers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from congames import (
    CostPolynomial,
    Game,
    State,
    gen_random,
    make_player,
    max_group_poa_ratio,
    max_rho_stretch_ratio,
    serialize_instance,
)
from congames.cli import main

from conftest import crafted_p_move_game


def _gen_random(seed: int, n: int, d: int, resources: int, strategies: int, max_size: int,
                weight_range: str = "1:3", coeff_range: str = "1/4:2") -> list[str]:
    return [
        "gen-random", "--seed", str(seed), "--n", str(n), "--d", str(d),
        "--resources", str(resources), "--strategies", str(strategies),
        "--max-size", str(max_size), "--coeff-range", coeff_range, "--weight-range", weight_range,
    ]


def _late_phase_game() -> tuple[Game, State]:
    """An anchor player of cost 2^60 stretches the schedule to 60 phases;
    the three others sit below b_1 and only move in phase 1."""
    res = (
        CostPolynomial((Fraction(2**60), Fraction(0))),
        CostPolynomial((Fraction(3), Fraction(0))),
        CostPolynomial((Fraction(0), Fraction(1))),
        CostPolynomial((Fraction(2), Fraction(0))),
    )
    players = (
        make_player(Fraction(1), [[0]]),
        make_player(Fraction(1), [[1], [2]]),
        make_player(Fraction(1), [[1], [2]]),
        make_player(Fraction(2), [[3], [2]]),
    )
    return Game(degree=1, resources=res, players=players), State((0,) * 4)


def _zero_cost_game() -> tuple[Game, State]:
    res = (CostPolynomial((Fraction(0), Fraction(0))), CostPolynomial((Fraction(1),)))
    return Game(degree=1, resources=res, players=(make_player(Fraction(1), [[0], [1]]),)), State((0,))


# name -> (gen-random argv, or a function returning (game, initial state); extra solve flags)
CASES = {
    "d1": (_gen_random(11, 25, 1, 10, 3, 3), []),
    "d2": (_gen_random(12, 15, 2, 8, 3, 3), []),
    "d3": (_gen_random(13, 10, 3, 6, 3, 2), []),
    "d2-n40": (_gen_random(14, 40, 2, 14, 3, 3), []),
    "weights-normalized": (_gen_random(15, 10, 2, 6, 3, 2, weight_range="1/2:5/2"), []),
    "late-phase": (_late_phase_game, []),
    "p-move": (crafted_p_move_game, ["--p-override", "4"]),
    "zero-cost": (_zero_cost_game, []),
}


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"congames {' '.join(argv)} exited {code}"
    return out.getvalue()


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Solve and audit one case through the CLI; sha256 of each output."""
    source, solve_flags = CASES[name]
    game = workdir / f"{name}.game.json"
    state = workdir / f"{name}.state.json"
    trace = workdir / f"{name}.trace.jsonl"
    if isinstance(source, list):
        _cli([*source, "--out", str(game)])
    else:
        g, s = source()
        game.write_text(serialize_instance(g, initial_state=s))
    _cli(["solve", "--input", str(game), "--output", str(state), "--trace", str(trace),
          *solve_flags])
    audit = _cli(["audit", "--game", str(game), "--trace", str(trace)])
    assert "audit: PASS" in audit
    outputs = {"trace": trace.read_bytes(), "state": state.read_bytes(), "audit": audit.encode()}
    return {kind: hashlib.sha256(data).hexdigest() for kind, data in outputs.items()}


PINS: dict[str, dict[str, str]] = {
    "d1": {
        "trace": "7e2cc22a22882f45fa8a87a20116c89e5604af1d3a4eacf191b91e7b7693e04b",
        "state": "247717abb35ddf10b70f5dde4ef5a43cec67dc63cc3ede00292b403e4560c34b",
        "audit": "aab1344e792f2501dd84c3b00fb24c03a2468ebbdb41b73e3cedfd3da96177b4",
    },
    "d2": {
        "trace": "8bce2a522d9561501be1e0cb36e3373d8ed45ba2664284774ac31739936afa42",
        "state": "31dff1c32ed2b1d3d4b18fa4142fb4eb833abe20246d47d0d783255877e4c626",
        "audit": "a0fd69eeb0cb0bf38e9caa96f9b0de5cd13b3de7e4f144abfef55ec335057942",
    },
    "d2-n40": {
        "trace": "fd30ced350bcf55ee1c950f0763bd081330d0a814e700e6a0bad92d8471777eb",
        "state": "2c838144ba728a7353284d81149281a0f0f0af746bba21d324bb543d8a92f23a",
        "audit": "162c155a9ea6347fd8f6796cf8422c448821be06cfc266bd7299690ced235609",
    },
    "d3": {
        "trace": "3b0d3e75ade719e83c743abf91f843e21b026d9bd1f9194ad3fbdcbd8a063075",
        "state": "21b0e192df7b27a7fcc5f1d2a338b9066b010ea122edd57a2c115fd505aa4828",
        "audit": "96d455b3c43f6790a74c055cebb7a2508dd6431e2155864bce5f2af602ae6b1a",
    },
    "late-phase": {
        "trace": "1f236932d3cd85821c5eafa3df1d15df3ffe21393a304fc3606f7adf1fcdaef6",
        "state": "41102e5fd2a1942976487d81ca65261016aa719ea5ad954cb55e62080cff0fb1",
        "audit": "8466c4a3c45a38895eb7c4bce3cc8ef73028e1ae211961a6a5d4d8a722f61c97",
    },
    "p-move": {
        "trace": "10a313d928e65e35cf231bf1e860adb1abae4aa2f59ea9690fe78c67596e4b38",
        "state": "def35f161d2ccb6217c954f79b6ad6ebf9bc03d83fab7e3a462384be4f2790af",
        "audit": "de6a2b428bc2d5f88a8880523d339cd35cdb0c1a6d09d3e47505b90e5537b8f1",
    },
    "weights-normalized": {
        "trace": "c7dc80ff2ab7f2c3a3361ca66cf92972a131049ae0043df448c61de9c80c69d9",
        "state": "f503efc9957055c25d9c7d0775af806f950e32856e558bcfcb301910bc562813",
        "audit": "7f79fb3ca2899201027250a19fac0b80dfaf3eda3efc853bc23e00bb75c9adef",
    },
    "zero-cost": {
        "trace": "55a0cfea49ccb27855f81c6834e7b30a18d5d31d28c39267cb455857feb393f9",
        "state": "e468ffbbd57b6025470f6f9125c0af5a48fac6a753a4de68f227f6183d4fa8b3",
        "audit": "9505119482d3e617d17e0583dd43d83c0430509c1d4d92162af827aafcefd920",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == PINS[name]


# brute-poa: (seed, degree, rho) of a 4-player, 3-resource, 3^4-state gen-random game
# -> sha256 of the command's stdout (the PoA, the worst state and the optimum)
BRUTE_POA_PINS = {
    (46, 1, "1"): "b72b0d1c51925ea7acc9475f94fef8f419ab3d95a93e47c4487a4d9ff6f787b9",
    (41, 2, "3/2"): "aba5800fe44b0d312a2a108c88616b431de184e9f57ded191203cac2f78091ec",
    (41, 3, "2"): "879a7ae5f187b84047c31ec433af4e8289ba4f127d1ad7eb610dac5c921f8174",
}


@pytest.mark.parametrize("seed, d, rho", sorted(BRUTE_POA_PINS))
def test_brute_poa_digest(seed, d, rho, tmp_path):
    game = tmp_path / "game.json"
    _cli([*_gen_random(seed, 4, d, 3, 3, 2, weight_range="1/2:5/2", coeff_range="0:2"),
          "--out", str(game)])
    out = _cli(["brute-poa", "--game", str(game), "--rho", rho])
    assert hashlib.sha256(out.encode()).hexdigest() == BRUTE_POA_PINS[seed, d, rho]


# (seed, degree) of a 4-player, 4-resource gen-random game -> rho -> exact
# (max_group_poa_ratio, max_rho_stretch_ratio)
GROUP_PINS = {
    (51, 1): {
        Fraction(1): (Fraction(1), Fraction(1)),
        Fraction(3, 2): (Fraction(76, 51), Fraction(229, 136)),
    },
    (52, 2): {
        Fraction(1): (Fraction(7551, 5194), Fraction(8721, 6904)),
        Fraction(3, 2): (Fraction(17251, 9002), Fraction(20977, 10550)),
    },
}


@pytest.mark.parametrize("seed, d", sorted(GROUP_PINS))
def test_group_oracle_values(seed, d):
    game = gen_random(4, d, 4, 3, 2, (Fraction(0), Fraction(2)), (Fraction(1, 2), Fraction(5, 2)),
                      seed=seed)
    for rho, expected in GROUP_PINS[seed, d].items():
        assert (max_group_poa_ratio(game, rho), max_rho_stretch_ratio(game, rho)) == expected
