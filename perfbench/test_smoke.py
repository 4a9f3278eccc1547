"""Smoke tests of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced on the first few items of its pool,
with the corpus gate and the answer checks switched on, and must print the
metrics BENCHMARK.json names.  The checks themselves must reject a wrong
answer, the cap must stop a stalled item, and the command must fail without
printing a result where the sources are missing.
"""
from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER, ItemCapped  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LIMITS = {"stream": 4, "sdepth_hard": 3, "depth_wide": 4, "driver": 2}


def _cli(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (k, unit, better) for k, (unit, better) in PER_LAYER.items()]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(LIMITS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _cli("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", trace, "--pool-limit", str(LIMITS[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == LIMITS[workload]
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_traced_stream_sees_the_layers():
    proc = _cli("--workload", "stream", "--seed", "5", "--seconds", "0",
                "--trace", "1", "--pool-limit", "3")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for key in ("engines.depth.calls", "poset.poset_bitset.calls",
                "sdepth.decide.calls", "depth.calls.char0", "depth.calls.char2",
                "linalg.rank.gf2.calls", "monomials.colon_pair.calls"):
        assert metrics[key]["value"] > 0, key
    assert metrics["engines.depth.computed"]["value"] <= metrics["engines.depth.calls"]["value"]
    assert metrics["verdicts.consistency_audit.self_s"]["value"] > 0


def test_wrong_stream_answer_fails_the_item():
    L = run.import_sdepthlab()
    spec = run.SPEC["stream"]
    wl = run.Stream(spec, reference=[[0] * 9] * spec["pool_size"])
    item = wl.build(L, 1)[0]
    outcome = run.run_item(L, wl, item, None)
    assert outcome.status == "failed"
    assert "differ from the reference" in outcome.error
    assert run.result_line([outcome], {})["correct"] is False


def test_cross_checks_catch_a_wrong_depth():
    L = run.import_sdepthlab()
    wl = run.DepthWide(run.SPEC["depth_wide"])
    pool = wl.build(L, 4)  # one Reisner-checked pair in every characteristic
    outcomes = [run.run_item(L, wl, item, None) for item in pool]
    outcomes[1].answer += 1
    run.gate_run(L, wl, pool, outcomes)
    assert [o.status for o in outcomes] == ["ok", "failed", "ok", "ok"]
    assert "Reisner" in outcomes[1].error or "char 0" in outcomes[1].error


def test_cap_stops_a_stalled_item_and_counts_it_at_the_cap():
    L = run.import_sdepthlab()
    spec = dict(run.SPEC["sdepth_hard"], cap_s=0.05)
    wl = run.SdepthHard(spec)
    m8 = next(item for item in wl.build(L, 4) if item.ident == "m_8")
    outcome = run.run_item(L, wl, m8, None)
    assert (outcome.status, outcome.latency) == ("capped", 0.05)
    with pytest.raises(ItemCapped):
        with run.capped(0.01):
            while True:
                pass


def test_capped_item_runs_once_and_items_keep_their_median_repeat():
    calls = []

    class Fake(run.Workload):
        cap = 0.5

        def run(self, L, item):
            calls.append(item.ident)
            if item.ident == "stall":
                raise ItemCapped()
            sum(range(20000))
            return item.ident

    pool = [run.Item("stall", None), run.Item("quick", None)]
    clock = run.HostClock()
    outcomes, _ = run.run_passes(None, Fake({}), pool, 0.05, random.Random(1), clock)
    assert len(clock.seconds) >= 2
    assert calls.count("stall") == 1
    assert calls.count("quick") > 1
    stalls = [o for o in outcomes if o.item.ident == "stall"]
    assert len(stalls) >= len(outcomes) // 2
    assert {(o.status, o.latency) for o in stalls} == {("capped", 0.5)}
    quick = [o.latency for o in outcomes if o.item.ident == "quick"]
    assert run.item_times(pool, outcomes, None) == [0.5, statistics.median(quick)]
    scaled = run.item_times(pool, outcomes, clock)
    assert scaled[0] == 0.5 and scaled[1] > 0

def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "stream", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
