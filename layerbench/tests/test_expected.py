"""The recorded suite answers agree with the repository's goldens."""

import json
import shutil

import pytest

from cli_workloads import EXPECTED, chdir
from common import SUITE_DIR
from oracle import reference_cli

EXPECTED_PROGRAMS = json.loads(EXPECTED.read_text())["programs"]


def test_every_suite_program_is_recorded():
    from repro.suite.registry import PROGRAM_NAMES

    assert sorted(EXPECTED_PROGRAMS) == sorted(PROGRAM_NAMES)


def test_checker_counts_match_the_suite_goldens():
    from tests.analysis.checkers.test_suite_goldens import GOLDEN

    for name, golden in GOLDEN.items():
        recorded = EXPECTED_PROGRAMS[name]["check"]
        for flavor, counts in golden.items():
            assert recorded[flavor]["by_checker"] == counts, (name, flavor)


def test_cs_never_has_more_pairs_than_ci():
    for name, entry in EXPECTED_PROGRAMS.items():
        ci = entry["analyze"]["insensitive"]["pairs"]["total"]
        cs = entry["analyze"]["sensitive"]["pairs"]["total"]
        assert cs <= ci, name


@pytest.mark.parametrize("name", ["allroots", "loader"])
def test_recorded_answers_are_reproducible(name, tmp_path):
    shutil.copyfile(SUITE_DIR / f"{name}.c", tmp_path / f"{name}.c")
    with chdir(tmp_path):
        fresh = reference_cli(f"{name}.c")
    assert fresh == EXPECTED_PROGRAMS[name]
