from __future__ import annotations

import dataclasses
import json
import random

import pytest

from helpers import CASE_BAD_PATH, reference_ml1_sampler
from sdepthlab.fuzz import (
    FuzzConfig,
    instance_rng,
    random_pair,
    run_fuzz,
    run_instance,
    sample_ml1_instance,
)
from sdepthlab.io import parse_input
from sdepthlab.monomials import InputError


def test_config_validation():
    FuzzConfig().validate()
    with pytest.raises(InputError, match="outside the supported range"):
        FuzzConfig(n=9).validate()
    with pytest.raises(InputError, match="outside the supported range"):
        FuzzConfig(n=0).validate()
    with pytest.raises(InputError, match="count"):
        FuzzConfig(count=-1).validate()
    with pytest.raises(InputError, match="max_degree"):
        FuzzConfig(n=5, max_degree=6).validate()
    with pytest.raises(dataclasses.FrozenInstanceError):
        FuzzConfig().count = 7


def test_stream_is_deterministic():
    cfg = FuzzConfig(n=4, count=12, seed=11)
    a = run_fuzz(cfg, keep_records=True)
    b = run_fuzz(cfg, keep_records=True)
    assert a.records == b.records
    assert a.to_json() == b.to_json()


def test_stream_has_no_inconsistencies():
    cfg = FuzzConfig(n=5, count=60, seed=42)
    report = run_fuzz(cfg, keep_records=True)
    assert report.instances + report.skipped == 60
    assert report.inconsistent == 0
    assert report.ml1_ok == report.ml1_runs
    assert report.to_json()["inconsistent"] == 0
    for record in report.records:
        if "skipped" in record:
            continue
        assert record["inconsistent"] == []
        assert set(record["depth"]) == {"0", "2"}
        assert set(record) == {
            "seed", "index", "instance", "strata", "sdepth", "depth",
            "hdepth", "verdicts", "inconsistent", "ml1", "findings_count",
        }
        for entry in record["ml1"]:
            assert entry["status"] in (
                "ok", "hypothesis_unsatisfied", "driver_failure"
            )
            if entry["status"] == "ok":
                assert entry["verified"] is True


def test_jsonl_log_replays(tmp_path):
    log = tmp_path / "stream.jsonl"
    cfg = FuzzConfig(n=5, count=20, seed=7, out=str(log))
    run_fuzz(cfg)
    lines = [json.loads(ln) for ln in log.read_text().splitlines()]
    assert len(lines) == 20
    for record in lines:
        Q = random_pair(instance_rng(record["seed"], record["index"]), cfg)
        assert record["instance"] == {
            "n": Q.ambient,
            "I": [str(g) for g in Q.I.gens],
            "J": [str(g) for g in Q.J.gens],
        }


def test_poset_budget_skips():
    cfg = FuzzConfig(n=4, count=4, seed=0, poset_budget=0)
    report = run_fuzz(cfg, keep_records=True)
    assert report.skipped == 4 and report.instances == 0
    assert all(r["skipped"] == "poset budget exceeded" for r in report.records)


def test_run_instance_record_shape():
    cfg = FuzzConfig(n=5)
    Q = random_pair(instance_rng(42, 0), cfg)
    record, findings = run_instance(Q, cfg)
    assert record["inconsistent"] == []
    assert record["findings_count"] == len(findings)
    assert isinstance(record["verdicts"], list) and record["verdicts"]
    assert record["strata"].keys() == {"d", "r", "s", "q", "E_size"}


def test_run_instance_reports_driver_runs_and_the_fallback():
    Q = parse_input(CASE_BAD_PATH)
    record, findings = run_instance(Q, FuzzConfig(n=6, ml1_max_runs=6))
    ok = {"status": "ok", "kind": "upgraded_partition", "verified": True}
    assert record["ml1"] == [
        {"b": b, **ok, "fallback": b == "x3*x4*x5"}
        for b in ("x1*x2*x4", "x1*x3*x4", "x1*x4*x6", "x2*x4*x5",
                  "x3*x4*x5", "x4*x5*x6")
    ]
    pair = {
        "n": 6,
        "I": ["x1*x4", "x4*x5", "x2*x4*x6", "x3*x4*x6"],
        "J": ["x1*x2*x3*x4", "x1*x4*x5*x6", "x2*x3*x4*x5"],
    }
    assert record["instance"] == pair
    assert findings == [{
        "kind": "ml1_driver_anomaly",
        "pair": pair,
        "b": "x3*x4*x5",
        "fallback": True,
        "verified": True,
        "trace": [
            "reduced pair partition of value 4 found",
            "stage 0: start x1*x3*x4",
            "case 3: bad path ['x1*x3*x4'] with top x1*x3*x4*x5",
            "continuation vertex x1*x4*x5 is not admissible",
            "fallback: deciding the disjunction by direct computation",
        ],
    }]
    assert record["findings_count"] == 1


@pytest.mark.parametrize("n, seeds", [(5, 30), (6, 60), (7, 30)])
def test_ml1_sampler_replays_the_strata_based_tries(n, seeds):
    for seed in range(seeds):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = sample_ml1_instance(rng, n=n)
        want = reference_ml1_sampler(ref_rng, n=n)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].key() == want[0].key()
            assert got[1] == want[1]
        assert rng.getstate() == ref_rng.getstate()
