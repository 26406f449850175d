"""Observer-relative entities on Conway's Life, plus three experiments
relating behavioral consistency to performance in simple games."""

from .ca import (
    BLOCK,
    CAState,
    Cell,
    GLIDER,
    PatternError,
    Trace,
    find_glider,
    glider_block_scene,
    life_step,
    parse_pattern,
    render_pattern,
    run,
)
from .coop import (
    CoopConfig,
    CoopReport,
    IndividualRecord,
    PayoffMatrix,
    Stance,
    flip_probability_for_even_odds,
    meeting_payoff,
    run_coop_experiment,
)
from .market import (
    ConsistentPolicy,
    FreePolicy,
    MarketReport,
    Portfolio,
    PriceDynamics,
    run_market_experiment,
    sample_consistent_policy,
    sample_dynamics,
    simulate_week,
)
from .observe import (
    Observer,
    ObservedEpisode,
    PerceivedTrace,
    PerceptionSpace,
    PropositionCheck,
    Witness,
    ZERO,
    check_proposition,
    contradiction_threshold,
    dual_view,
    extract_entities,
    format_perceived_trace,
    glider_observer,
    intelligence,
    is_contradictory,
    is_deterministic_env,
    perceive_trace,
    run_theorem_check,
)
from .seeds import DEFAULT_SEED, substream
from .updown import (
    BonusDemo,
    DOWN,
    Deck,
    Strategy,
    UP,
    VictoryCount,
    all_strategies,
    contradictory_bonus_demo,
    deck_pattern,
    max_victories,
    victories_bruteforce,
    victories_dp,
    wins,
)

__version__ = "0.1.0"
