from __future__ import annotations

import copy

from sdepthlab.corpus import (
    BAD_PB_INTERVALS,
    EXPECTED,
    ITEMS,
    GoldenCheck,
    pair,
    run_corpus,
)
from sdepthlab.engines import EngineCache
from sdepthlab.io import parse_input


def test_items_parse():
    for name, text in ITEMS.items():
        Q = parse_input(text)
        assert Q == pair(name)


def test_corpus_all_green():
    report = run_corpus(cache=EngineCache())
    assert report.ok
    assert report.failures() == ()
    assert len(report.checks) == 53
    j = report.to_json()
    assert j["ok"] is True
    assert all(c["ok"] for c in j["checks"])


def test_corpus_detects_tampering():
    tampered = copy.deepcopy(EXPECTED)
    tampered["ex3"]["d"] = 3
    report = run_corpus(expected=tampered)
    assert not report.ok
    bad = report.failures()
    assert len(bad) == 1
    assert (bad[0].item, bad[0].name) == ("ex3", "d")
    assert bad[0].to_json()["ok"] is False


def test_golden_check():
    ok = GoldenCheck("x", "value", 3, 3)
    assert ok.ok
    bad = GoldenCheck("x", "value", 3, 4)
    assert not bad.ok
    assert bad.to_json() == {
        "item": "x", "name": "value", "expected": "3", "actual": "4",
        "ok": False,
    }


def test_listed_surgery_partition_is_frozen():
    assert len(BAD_PB_INTERVALS) == 6
    assert BAD_PB_INTERVALS[0] == ("x2", "x1*x2*x3")
    assert all(len(pairing) == 2 for pairing in BAD_PB_INTERVALS)
