"""Acceptance gate: every shipped guarantee, one test and one verdict line each.

Each test asserts its tolerance and runtime budget and records a
PASS/FAIL line that pytest prints after the run (see conftest.py).
Statistical checks use pinned seeds so the suite is deterministic.
"""

import functools
import math
import statistics
import subprocess
import sys
from time import perf_counter

from conftest import record_criterion
from reference import random_deterministic_episode, random_episode

from lifelens.ca import glider_block_scene, run
from lifelens.coop import CoopConfig, run_coop_experiment
from lifelens.market import PRICES, START_CASH, START_SHARES, run_market_experiment
from lifelens.observe import (
    ZERO,
    dual_view,
    extract_entities,
    glider_observer,
    intelligence,
    is_contradictory,
    is_deterministic_env,
    perceive_trace,
    run_theorem_check,
)
from lifelens.seeds import DEFAULT_SEED, substream
from lifelens.updown import (
    Strategy,
    VictoryCount,
    all_strategies,
    max_victories,
    victories_bruteforce,
    victories_dp,
)


def criterion(name):
    """Record the PASS/FAIL verdict of the wrapped test under `name`."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_criterion(name, False, f"{type(exc).__name__}: {exc}"[:160])
                raise
            record_criterion(name, True, detail or "")
        return wrapper
    return decorate


@criterion("exact win counts: best strategy for n=10,11,12")
def test_exact_win_counts():
    expected = {
        10: VictoryCount(50521, 3628800),
        11: VictoryCount(353792, 39916800),
        12: VictoryCount(2702765, 479001600),
    }
    t0 = perf_counter()
    for n, want in expected.items():
        best, count = max_victories(n)
        assert count == want, f"n={n}: got {count}, want {want}"
        assert best == Strategy.alternating(n)
    elapsed = perf_counter() - t0
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s, budget 5s"
    return f"{elapsed:.2f}s"


@criterion("count oracles agree: DP == brute force (n<=8), partition of n! (n<=12)")
def test_count_oracle_equivalence():
    t0 = perf_counter()
    for n in range(2, 9):
        for s in all_strategies(n):
            dp, brute = victories_dp(s), victories_bruteforce(s)
            assert dp == brute, f"{s}: dp {dp} != brute {brute}"
    for n in range(2, 13):
        total = sum(victories_dp(s).wins for s in all_strategies(n))
        assert total == math.factorial(n), f"n={n}: partition sum {total}"
    elapsed = perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    return f"{elapsed:.2f}s"


@criterion("pigeonhole theorem: exhaustive sweep + 10^4 randomized, zero violations")
def test_theorem_sweep():
    t0 = perf_counter()
    report = run_theorem_check(trials=10_000, seed=DEFAULT_SEED, max_len=200)
    elapsed = perf_counter() - t0
    # Two binary alphabets (the absent state counts), every terminated
    # episode that fits a length-10 window, then the randomized batch.
    assert report.exhaustive_episodes == 4092
    assert report.exhaustive_premise_cases > 0, "exhaustive sweep never hit the premises"
    assert report.randomized_trials == 10_000
    assert report.randomized_premise_cases > 0, "randomized sweep never hit the premises"
    assert report.violations == 0, f"{report.violations} violations"
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    return (f"{elapsed:.2f}s; premise cases "
            f"{report.exhaustive_premise_cases}+{report.randomized_premise_cases}")


@criterion("duality: deterministic environment == non-contradictory dual, 10^4 episodes")
def test_duality():
    rng = substream(DEFAULT_SEED, "duality")
    ent_pool = ("A", "B", "C", "D")
    env_pool = ("V", "W", "X", "Y")
    nontrivial = 0
    for k in range(10_000):
        ents = ent_pool[: rng.randint(1, 4)]
        envs = env_pool[: rng.randint(1, 4)]
        if k % 2:
            ep = random_episode(rng, ents, envs, 60)
        else:
            ep = random_deterministic_episode(rng, ents, envs, 60)
        dual = dual_view(ep)
        assert dual_view(dual) == ep
        env_witness = is_deterministic_env(ep)
        assert env_witness == is_contradictory(dual)
        assert is_contradictory(ep) == is_deterministic_env(dual)
        nontrivial += env_witness is not None
    assert 0 < nontrivial < 10_000, "sweep never exercised both outcomes"
    return f"10000 episodes, {nontrivial} with a divergence witness"


@criterion("glider scene: one entity, lifetime 0..14, intelligence 14, then absent")
def test_glider_scene():
    trace = run(glider_block_scene(), 19)
    perceived = perceive_trace(glider_observer(), trace)
    assert len(perceived.pairs) == 20
    episodes = extract_entities(perceived)
    assert len(episodes) == 1, f"expected one entity, found {len(episodes)}"
    ep = episodes[0]
    assert list(ep.lifetime) == list(range(15))
    assert intelligence(ep) == 14
    assert ep.terminated
    for t in range(15, 20):
        assert perceived.pairs[t][0] is ZERO, f"entity still perceived at t={t}"
    return "lifetime {0..14}, intelligence 14"


@criterion("cooperation game: >=99% contradictory winners; payoffs and survival at even odds")
def test_cooperation_experiment():
    t0 = perf_counter()
    seeds = (271828, 1, 2)
    coop_means, noncoop_means, noncontra = [], [], []
    pcts = {}
    for seed in seeds:
        report = run_coop_experiment(CoopConfig(
            env_size=20, population=1000, flip_probability=None,
            repetitions=100, seed=seed))
        pcts[seed] = report.contradictory_winner_pct
        assert report.contradictory_winner_pct >= 99.0, (
            f"seed {seed}: {report.contradictory_winner_pct}% contradictory winners")
        for rep in report.repetitions:
            if not math.isnan(rep.mean_payoff_coop):
                coop_means.append(rep.mean_payoff_coop)
            if not math.isnan(rep.mean_payoff_noncoop):
                noncoop_means.append(rep.mean_payoff_noncoop)
            noncontra.append(rep.noncontradictory_fraction)
    # Meetings within a repetition share one environment row, so the
    # standard error is taken across repetition means, not meetings.
    for name, means in (("coop", coop_means), ("noncoop", noncoop_means)):
        mean = statistics.fmean(means)
        se = statistics.stdev(means) / math.sqrt(len(means))
        assert abs(mean - 0.5) < 3 * se, (
            f"{name} mean payoff {mean:.4f} leaves 0.5 +- {3 * se:.4f}")
    # Flip decisions are independent across players: binomial sigma.
    players = len(seeds) * 100 * 1000
    fraction = statistics.fmean(noncontra)
    sigma = math.sqrt(0.25 / players)
    assert abs(fraction - 0.5) < 3 * sigma, (
        f"non-contradictory fraction {fraction:.5f} leaves 0.5 +- {3 * sigma:.5f}")
    elapsed = perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    return (f"{elapsed:.2f}s; winners {sorted(pcts.values())}%, "
            f"survival {fraction:.4f}")


@criterion("market game: consistent group almost never ahead, free group often ahead")
def test_market_experiment():
    t0 = perf_counter()
    a_rates, b_rates = [], []
    conserved = 0
    for seed in range(20):
        report = run_market_experiment(tests=50, group_size=100, days=7, seed=seed)
        a_rates.append(report.count_a_gt_b / report.tests)
        b_rates.append(report.count_b_gt_a / report.tests)
        for result in report.results:
            start = PRICES.index(result.initial_price)
            if int(result.transition_digits[start]) == start:
                # Constant price path: trading can only relabel holdings,
                # so both bests equal the starting capital exactly.
                want = START_CASH + START_SHARES * result.initial_price
                assert result.best_consistent == want, result
                assert result.best_free == want, result
                conserved += 1
    # Feasibility is enforced structurally: every trade played rejects
    # negative holdings, so completing the weeks played certifies every
    # trade: group A's 20 * 50 * 100, and group B's 100 in each test
    # whose price moves (a still week draws and plays none for group B).
    mean_a = statistics.fmean(a_rates)
    mean_b = statistics.fmean(b_rates)
    assert mean_a <= 0.05, f"consistent group ahead in {mean_a:.3f} of tests"
    assert 0.30 <= mean_b <= 0.85, f"free group ahead in {mean_b:.3f} of tests"
    assert conserved > 0
    elapsed = perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    return (f"{elapsed:.2f}s; A ahead {mean_a:.3f}, B ahead {mean_b:.3f}, "
            f"{conserved} constant-price tests conserved")


@criterion("CLI reproducibility: byte-identical output for every subcommand")
def test_cli_reproducibility(tmp_path):
    pattern = tmp_path / "glider.txt"
    pattern.write_text(".O.\n..O\nOOO\n")
    commands = [
        ["life", str(pattern), "--steps", "4"],
        ["observe", "--steps", "19"],
        ["observe", "--steps", "19", "--format", "csv"],
        ["updown", "--n", "6"],
        ["updown", "--n", "6", "--format", "csv"],
        ["coop", "--env-size", "3", "--population", "25", "--reps", "5"],
        ["coop", "--env-size", "3", "--population", "25", "--reps", "5",
         "--format", "csv"],
        ["market", "--tests", "4", "--group-size", "8"],
        ["market", "--tests", "4", "--group-size", "8", "--format", "csv"],
        ["theorem", "--trials", "60", "--max-len", "20"],
    ]
    for command in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "lifelens", *command],
                                  capture_output=True, timeout=60)
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stderr == b"", (command, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"{command} differed between runs"
    return f"{len(commands)} subcommands run twice"
