"""The oracle flags wrong and stale answers; failures are tallied."""

import json

import pytest

from oracle import Tally, cli_signature, judge, served_signature


def _check_doc(digest):
    return {"programs": [{"program": "p.c", "flavors": {
        "insensitive": {"digest": digest, "findings": [
            {"checker": "nullderef"}]}}}], "errors": []}


def test_planted_wrong_digest_is_wrong():
    want = cli_signature("check", json.dumps(_check_doc("a" * 64)).encode())
    got = cli_signature("check", json.dumps(_check_doc("b" * 64)).encode())
    assert judge(want, want) is None
    assert judge(got, want) == "wrong"


def test_answer_matching_an_earlier_version_is_stale():
    old = {"operations": [{"locations": ["x"]}]}
    new = {"operations": [{"locations": ["y"]}]}
    assert judge(old, new, stale=[old]) == "stale"
    assert judge({"operations": []}, new, stale=[old]) == "wrong"


def test_unreadable_output_raises_value_error():
    with pytest.raises(ValueError):
        cli_signature("analyze", b"not json")
    with pytest.raises(ValueError):
        cli_signature("slice", json.dumps({"slices": [], "errors": []}).encode())


def test_tally_counts_reasons():
    tally = Tally()
    for reason in (None, None, "stale", "exit", None):
        tally.record(reason, "detail")
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.fail_frac == pytest.approx(0.4)
    assert tally.as_dict()["reasons"] == {"stale": 1, "exit": 1}


def test_served_signatures_pick_the_compared_fields():
    payload = {"tier": "solution", "flavors": {
        "insensitive": {"digest": "d1", "counters": {"transfers": 3}}}}
    assert served_signature("analyze", payload) == {"insensitive": "d1"}
    sliced = {"slice": {"digest": "s", "size": 4, "nodes": []}}
    assert served_signature("slice", sliced) == {"digest": "s", "size": 4}
