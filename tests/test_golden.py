"""Golden digests: fixed instances must keep producing byte-identical
trace JSONL, state files, `audit`, `brute-poa` and `verify --group`
output, the same instance files from gen-random, gen-lb and
serialize_instance, and the same exact values from the group PoA oracles
and from social_cost and min_equilibrium_factor on lower-bound games.

The pins were computed with the all-Fraction solver, auditor and
oracles; any change to how costs, potentials or thresholds are computed
must leave every digest and value unchanged.  The solver cases cover
degrees 1-3, a run whose moves happen after phase 0, a p-move run, a
game whose weights normalize to non-integers, and the trivial
all-zero-cost run.  The oracle cases are 4-player games of degree 1-3
with zero coefficients and weights that normalize to non-integers.  The
lower-bound cases (n = 40) have coefficients of thousands of digits.
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
    gen_lower_bound,
    gen_random,
    make_player,
    max_group_poa_ratio,
    max_rho_stretch_ratio,
    min_equilibrium_factor,
    serialize_instance,
    social_cost,
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


# name -> sha256 of the instance file each CASES entry writes (gen-random's
# output, or serialize_instance of the game and its initial state)
INSTANCE_PINS = {
    "d1": "2e977a91e54a8d172f5ca5022d07175a80346960a272829e9d6163702429a6db",
    "d2": "1b422902d5852b87b0357e137408d9d741be7c583c1be8bbcea1bab9bdccfc2f",
    "d2-n40": "dc7fd05a6731e7501119add503922fab95ca9a9b01c3eb8f3f11b7c3a2c21e80",
    "d3": "1706364f6a25ea49ca7b62a943de19538cb3d5482e4d9218f9df6e8f67e89644",
    "late-phase": "6579a17db7e92a06441bbf894cb47f5c95fe71bc0b8550c90f89fc3a1d5ec77c",
    "p-move": "1997cef48777206ab153c1d581710f923ec1edc7fd420e0f8e20838d9f0b9a63",
    "weights-normalized": "ab39275754287da0c80ab42213fe5bc4c58230ede687e64b04bb162d41c9aeba",
    "zero-cost": "9fae67c0d8cb63d9360a809fc986b8d612225d411317f5ecae7ce1e3e5e5c48f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_instance_digests(name, tmp_path):
    source, _ = CASES[name]
    game = tmp_path / "game.json"
    if isinstance(source, list):
        _cli([*source, "--out", str(game)])
    else:
        game.write_text(serialize_instance(*source()))
    assert hashlib.sha256(game.read_bytes()).hexdigest() == INSTANCE_PINS[name]


def test_lower_bound_instance_digest(tmp_path):
    """The n = 30 lower-bound instance gen-lb writes (d = 2, rho = 3/2,
    40 digits), whose coefficients have up to 3,800 digits above and below."""
    game = tmp_path / "lb.json"
    _cli(["gen-lb", "--d", "2", "--rho", "3/2", "--n", "30", "--out", str(game)])
    bundle = gen_lower_bound(2, Fraction(3, 2), 30, 40)
    assert game.read_text() == serialize_instance(bundle.game, bundle.equilibrium_state)
    assert hashlib.sha256(game.read_bytes()).hexdigest() == (
        "673d15ebbbe3611c3d60584934a001de555f6b9fc1f9e65123368b39108f2d4b"
    )


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


# (degree, rho) of gen_lower_bound(d, rho, n=40, 40 digits) -> sha256 of the
# hex "numerator/denominator" of the social cost at the equilibrium and at
# the optimal state (too long for a decimal string); the equilibrium factor
# at the equilibrium state is exactly rho in every case.
LOWER_BOUND_PINS = {
    (1, "9/8"): ("be77a6ca9dfe420f5c2712472db63f5cb8e17df2a6234530199334428447513a",
                 "99b1ae4f566dad026e1e4c7e5ab9bb6bc980a0c4e6c4430ae34b6daac1bb9a22"),
    (1, "3/2"): ("81da3e2fcccf175148f72b322c6c32587d55e7f356d688d8b58a7234367bc434",
                 "dc5aa84c632baff6a9349d7927e1d9b3e74cee1ae800b489ace14a0378628738"),
    (1, "2"): ("f3fb20451dd679516c74fc3b0b2c10edbd00838f9ef1f5e07298c6fcc7db8355",
               "27ac0e52c7e44e2a2cc74ba73b29beed3e6489aca83506155e74cb23d82b2fb1"),
    (2, "9/8"): ("3a1f62cd86eb5111ee08ae40073246b3c7e5deb68a5c04e99f11125db3ece8dd",
                 "1c0967d5fbd67421e21333b6b00c54d59f8e045804c202087b7b26cabe063c5b"),
    (2, "3/2"): ("831b71ae221b03787456a874288bf3624027e1b02f83879b7e2ee562f9321424",
                 "443390ca57078539e3abf5c69e9c8072f1e6f9a23eb1fd5bb915ad6fe2cb86c2"),
    (2, "2"): ("7b5e90f242b87eeaff66f5da314832bdf623d28e1e8a8cc99b73c1c41a6fbd4b",
               "596012ffc93e7b0c1d563ad6ce4dd5223d320d6830238d24762c5502f6997ae4"),
    (3, "9/8"): ("6787521dfa3c517ef3670ec9112fefff2397b42c20cb6bfd60dbb822c616f51a",
                 "dcce903f1fdf147a6c35b624f0573a587d0b391b7d7b9ea868c6a93cde75ead9"),
    (3, "3/2"): ("ff1ca174d0b40d2b3467a3973528bd1f940d1c05415991f21b7b0b6531512809",
                 "fa64cf0caf6e7447b2a1f5d86bbb0b7993003bc68c45550f8864dc399b0d730e"),
    (3, "2"): ("f6e63449afc43dd0eb7bb314a249f71bbc68f2de8d8ee1ffec55dc1ee920c29f",
               "afbb93da11ec42e3bc1e457ab236187c92cb668d178eccd95b4664612881b876"),
}


def _rational_digest(value: Fraction) -> str:
    return hashlib.sha256(f"{value.numerator:x}/{value.denominator:x}".encode()).hexdigest()


@pytest.mark.parametrize("d, rho", sorted(LOWER_BOUND_PINS))
def test_lower_bound_values(d, rho):
    bundle = gen_lower_bound(d, Fraction(rho), 40, 40)
    eq = social_cost(bundle.game, bundle.equilibrium_state)
    opt = social_cost(bundle.game, bundle.optimal_state)
    assert (_rational_digest(eq), _rational_digest(opt)) == LOWER_BOUND_PINS[d, rho]
    assert repr(min_equilibrium_factor(bundle.game, bundle.equilibrium_state)) == repr(
        Fraction(rho)
    )


# `verify` of an 8-player degree-2 gen-random game (weights normalized) at a
# fixed state, with and without --group -> sha256 of stdout
VERIFY_PINS = {
    "0,2,5": "9dbf1ebd9f3cf5181284d39ff970b7c441dbdd1c24dfc3f5b32fb85cc1a067c7",
    "": "6c6b30f7d28e64f306b04f7428941aa808b9ec54d8e852ae5ad5ba46cfedfa83",
}


@pytest.mark.parametrize("group", sorted(VERIFY_PINS))
def test_verify_group_digest(group, tmp_path):
    game, state = tmp_path / "game.json", tmp_path / "state.json"
    _cli([*_gen_random(61, 8, 2, 6, 3, 2, weight_range="1/2:5/2", coeff_range="0:2"),
          "--out", str(game)])
    state.write_text('{"choices": [0, 1, 2, 0, 1, 2, 0, 1]}')
    flags = ["--group", group] if group else []
    out = _cli(["verify", "--game", str(game), "--state", str(state), *flags, "--rho", "3"])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PINS[group]
