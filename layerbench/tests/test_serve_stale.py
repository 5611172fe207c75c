"""A real daemon's answer after a header edit is judged ``stale``.

The daemon keys its answers on the named file's bytes only, so after
the included header changes it keeps serving the earlier version's
answer (ROADMAP item 1).  The benchmark must count that as ``stale``,
never as correct.
"""

import pytest

from common import SUITE_DIR
from oracle import reference_served
from serve_workload import (Daemon, Target, _answer, compute_references,
                            post)


@pytest.fixture
def target(tmp_path):
    (tmp_path / "tmp").mkdir()
    folder = tmp_path / "client0"
    folder.mkdir()
    original = (SUITE_DIR / "allroots.c").read_text()
    target = Target(0, folder / "allroots_c0.c", original)
    compute_references([target], (0, 1))
    return target


def test_header_edit_versions_differ(target):
    assert target.refs[(0, 0)]["query"] != target.refs[(0, 1)]["query"]
    assert target.refs[(0, 0)]["analyze"] != target.refs[(0, 1)]["analyze"]


def test_body_edit_constant_never_changes_an_answer(target):
    # Every body edit writes new content, but the references are kept
    # per (body, header) version: the bumped constant must not matter.
    for _ in range(4):
        target.edit("body")
    assert target.serial == 4 and target.body == 0
    assert reference_served(target.path, target.criterion) \
        == target.refs[(0, 0)]
    target.edit("body")
    assert reference_served(target.path, target.criterion) \
        == target.refs[(1, 0)]


def test_stale_query_after_header_edit(target, tmp_path):
    daemon = Daemon(tmp_path, tmp_path / "cache")
    try:
        conn = daemon.connect()
        status, raw = post(conn, "query", target.request_body("query"))
        assert _answer("query", status, raw, target)[0] is None
        target.header = 1
        target.render()
        status, raw = post(conn, "query", target.request_body("query"))
        reason, detail, _ = _answer("query", status, raw, target)
        conn.close()
    finally:
        daemon.stop()
    # The failure is the program's (ROADMAP item 1); the oracle must
    # name it.  A fixed daemon answers correctly (reason None).
    assert reason in ("stale", None), detail
    assert reason == "stale", "daemon now re-keys on headers: update README"
