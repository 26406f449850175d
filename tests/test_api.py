"""The public API surface: the names `lifelens/__init__.py` exports.

A change to this list is a change to the public API, so it has to be
made here on purpose.
"""

import types

import lifelens

PUBLIC_NAMES = [
    "BLOCK", "BonusDemo", "CAState", "Cell", "ConsistentPolicy", "CoopConfig",
    "CoopReport", "DEFAULT_SEED", "DOWN", "Deck", "FreePolicy", "GLIDER",
    "IndividualRecord", "MarketReport", "ObservedEpisode", "Observer", "PatternError",
    "PayoffMatrix", "PerceivedTrace", "PerceptionSpace", "Portfolio", "PriceDynamics",
    "PropositionCheck", "Stance", "Strategy", "Trace", "UP", "VictoryCount", "Witness",
    "ZERO", "all_strategies", "check_proposition", "contradiction_threshold",
    "contradictory_bonus_demo", "deck_pattern", "dual_view", "extract_entities",
    "find_glider", "flip_probability_for_even_odds", "format_perceived_trace",
    "glider_block_scene", "glider_observer", "intelligence", "is_contradictory",
    "is_deterministic_env", "life_step", "max_victories", "meeting_payoff",
    "parse_pattern", "perceive_trace", "render_pattern", "run", "run_coop_experiment",
    "run_market_experiment", "run_theorem_check", "sample_consistent_policy",
    "sample_dynamics", "simulate_week", "substream", "victories_bruteforce",
    "victories_dp", "wins",
]


def test_public_names_are_frozen():
    # Submodules become package attributes on import; they are not exports.
    exported = sorted(name for name, value in vars(lifelens).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
