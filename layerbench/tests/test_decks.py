"""Decks are a pure function of the seed, and every deck is balanced."""

import random
from collections import Counter

from common import beyond, build_deck, deck_count, median, nearest_rank

PAIRS = [(name, command) for name in ("a", "b", "c", "d", "e")
         for command in ("analyze", "check", "slice")]


def test_same_seed_same_deck():
    for index in range(3):
        assert build_deck(PAIRS, 7, index) == build_deck(PAIRS, 7, index)


def test_seed_and_index_change_the_order():
    assert build_deck(PAIRS, 7, 0) != build_deck(PAIRS, 8, 0)
    assert build_deck(PAIRS, 7, 0) != build_deck(PAIRS, 7, 1)


def test_every_deck_is_balanced():
    for seed in range(5):
        for index in range(4):
            deck = build_deck(PAIRS, seed, index)
            assert Counter(deck) == Counter(PAIRS)


def test_deck_count_is_whole_and_floored_by_minimum():
    assert deck_count(1, 24.0, 2) == 2
    assert deck_count(45, 24.0, 2) == 2
    assert deck_count(45, 15.0, 3) == 3
    assert deck_count(120, 15.0, 3) == 8


def test_nearest_rank_returns_an_observed_sample():
    rng = random.Random(3)
    for n in (1, 2, 7, 39, 78, 100):
        values = [rng.uniform(0, 10) for _ in range(n)]
        for q in (0.01, 0.5, 0.7, 0.85, 0.9, 0.99, 1.0):
            assert nearest_rank(values, q) in values


def test_nearest_rank_known_values():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.9) == 90
    assert nearest_rank(values, 0.85) == 85


def test_runs_hold_ten_samples_beyond_the_tail():
    import cli_workloads
    import serve_workload
    from common import MIN_BEYOND, TAIL

    per_deck = {
        "cli-cold": 13 * len(cli_workloads.COMMANDS),
        "cli-large": cli_workloads.LARGE_PROGRAMS
        * len(cli_workloads.COMMANDS),
        "serve-edit": 13 * len(serve_workload.ENDPOINTS),
        "serve-body": 13 * len(serve_workload.ENDPOINTS),
    }
    workloads = {**cli_workloads.WORKLOADS, **serve_workload.WORKLOADS}
    for name, workload in workloads.items():
        fewest = workload.min_decks * per_deck[name]
        assert beyond(fewest, TAIL) >= MIN_BEYOND, name


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def test_setup_repeats_are_spread_over_the_decks():
    from cli_workloads import SETUP_REPEATS, setup_slots

    for decks in (1, 2, 4, SETUP_REPEATS, SETUP_REPEATS + 3):
        slots = setup_slots(decks)
        assert len(slots) == decks + 1
        assert sum(slots) == SETUP_REPEATS
        # Every deck, the first included, follows a fresh set-up while
        # repeats last.
        assert slots[:min(decks, SETUP_REPEATS)] == [1] * min(decks,
                                                              SETUP_REPEATS)
