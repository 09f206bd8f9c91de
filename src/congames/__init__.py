"""Weighted polynomial congestion games: exact solver and PoA analysis.

The package splits into an exact-rational core (game representation,
potential functions, the phased best-response solver, verification
oracles) and a floating-point analysis layer for the price-of-anarchy
constants.  See the module docstrings for the contracts.
"""

from .analysis import (
    AnalysisResult,
    check_combination_inequality,
    check_p_property,
    check_smoothness_constraint,
    lambert_w,
    smoothness_peak,
    phi_ratio,
    poa_bounds,
    smoothness_B,
    smoothness_mu_hat,
)
from .dynamics import (
    MoveRecord,
    Schedule,
    Trace,
    best_response,
    compute_schedule,
    run_algorithm,
    target_p,
)
from .game import (
    CostPolynomial,
    Game,
    PlayerSpec,
    State,
    group_cost,
    loads,
    make_player,
    normalize,
    parse_instance,
    player_costs,
    serialize_instance,
    social_cost,
)
from .instances import LowerBoundBundle, gen_lower_bound, gen_random
from .potential import alpha, partial_potential, potential
from .verify import (
    AuditReport,
    audit_trace,
    brute_force_poa,
    max_group_poa_ratio,
    max_rho_stretch_ratio,
    min_equilibrium_factor,
)

__version__ = "0.1.0"
