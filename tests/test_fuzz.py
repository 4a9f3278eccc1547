from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RP2, RP2_FREE, reference_ml1_sampler
from sdepthlab import fuzz
from sdepthlab.fuzz import (
    FuzzConfig,
    instance_rng,
    random_pair,
    run_fuzz,
    run_instance,
    sample_ml1_instance,
)
from sdepthlab.engines import EngineCache
from sdepthlab.io import parse_input
from sdepthlab.monomials import Ideal, InputError, Monomial, QuotientPair


@st.composite
def _ideals(draw) -> Ideal:
    """Nonzero ideals of up to 10 variables, the unit ideal included."""
    n = draw(st.integers(min_value=1, max_value=10))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          min_size=1, max_size=5))
    return Ideal(n, map(Monomial, masks))


@given(_ideals())
@settings(max_examples=60)
def test_upper_elements_match_a_scan_of_every_mask(I):
    d = min(m.bit_count() for m in I.gen_masks())
    scan = [m for m in range(1, 1 << I.ambient)
            if d + 1 <= m.bit_count() <= d + 2 and I.member_mask(m)]
    assert fuzz._upper_elements(I, d) == scan


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
    with pytest.raises(InputError, match="max_gens"):
        FuzzConfig(max_gens=0).validate()
    with pytest.raises(dataclasses.FrozenInstanceError):
        FuzzConfig().count = 7


def test_stream_is_deterministic(tmp_path):
    logs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    a, b = (run_fuzz(FuzzConfig(n=4, count=12, seed=11, out=str(log)))
            for log in logs)
    assert logs[0].read_bytes() == logs[1].read_bytes()
    assert a.to_json() == b.to_json()


def test_stream_has_no_inconsistencies(tmp_path):
    log = tmp_path / "stream.jsonl"
    report = run_fuzz(FuzzConfig(n=5, count=60, seed=42, out=str(log)))
    assert report.instances == 60
    assert report.inconsistent == 0
    assert report.to_json()["inconsistent"] == 0
    records = [json.loads(ln) for ln in log.read_text().splitlines()]
    assert len(records) == 60
    for record in records:
        assert record["inconsistent"] == []
        assert set(record["depth"]) == {"0", "2"}
        assert set(record) == {
            "seed", "index", "instance", "strata", "sdepth", "depth",
            "hdepth", "verdicts", "inconsistent", "findings_count",
        }


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



def test_jsonl_log_matches_the_recorded_records(tmp_path):
    # sha256 of the JSONL log: every record's strata, depths and verdicts,
    # so a change to any engine can show it keeps them
    log = tmp_path / "stream.jsonl"
    run_fuzz(FuzzConfig(n=6, seed=2026, count=200, out=str(log)))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "dfda429d8d4322b7179742c4ae624e18bf12c47fbfe171501540350233a53f93"
    )


def test_run_instance_record_shape():
    cfg = FuzzConfig(n=5)
    Q = random_pair(instance_rng(42, 0), cfg)
    record, findings = run_instance(Q, cfg)
    assert record["inconsistent"] == []
    assert record["findings_count"] == len(findings)
    assert isinstance(record["verdicts"], list) and record["verdicts"]
    assert record["strata"].keys() == {"d", "r", "s", "q", "E_size"}


def _audited_fields(monkeypatch, pairs: list[QuotientPair]) -> list[set]:
    """Per pair, the (entry point, field) calls of the verdicts and audit
    that one `run_instance` makes."""
    seen: set = set()
    for name in ("bounds_report", "consistency_audit"):
        def spy(Q, cache=None, field=0, name=name, real=getattr(fuzz, name)):
            seen.add((name, field))
            return real(Q, cache=cache, field=field)

        monkeypatch.setattr(fuzz, name, spy)
    out = []
    for Q in pairs:
        seen.clear()
        run_instance(Q, FuzzConfig(n=Q.ambient), cache=EngineCache())
        out.append(set(seen))
    return out


def test_char2_pass_runs_exactly_where_a_char2_depth_differs(monkeypatch):
    # the projective plane's depth drops in characteristic 2, alone and with
    # a free variable; no module of the first 200 stream pairs does
    cfg = FuzzConfig(n=6, seed=2026)
    stream = [random_pair(instance_rng(cfg.seed, i), cfg) for i in range(200)]
    got = _audited_fields(monkeypatch, [RP2, parse_input(RP2_FREE)] + stream)
    entry_points = ("bounds_report", "consistency_audit")
    both = {(name, c) for name in entry_points for c in (0, 2)}
    char0 = {(name, 0) for name in entry_points}
    assert got[:2] == [both, both]
    assert got[2:] == [char0] * 200


def test_report_counts_the_char2_passes(monkeypatch):
    assert run_fuzz(FuzzConfig(n=6, count=30, seed=2026)).char2_passes == 0
    monkeypatch.setattr(fuzz, "random_pair", lambda rng, cfg: RP2)
    report = run_fuzz(FuzzConfig(n=6, count=3))
    assert report.char2_passes == report.to_json()["char2_passes"] == 3


def test_run_instance_builds_no_pair_past_its_input(monkeypatch):
    # every colon, split and restriction of the pipeline is a PosetView:
    # a QuotientPair, or an Ideal, exists only as the input
    cfg = FuzzConfig(n=6, seed=2026)
    pairs = [random_pair(instance_rng(2026, i), cfg) for i in range(100)]
    built = []
    init, fill = QuotientPair.__init__, Ideal._fill

    def counted(self, I, J):
        built.append((I, J))
        init(self, I, J)

    def counted_fill(self, ambient, masks):
        built.append(masks)
        fill(self, ambient, masks)

    monkeypatch.setattr(QuotientPair, "__init__", counted)
    monkeypatch.setattr(Ideal, "_fill", counted_fill)
    for Q in pairs:
        run_instance(Q, cfg, cache=EngineCache())
    assert built == []


# one draw: ("randint", a, width - 1), ("choice", size) or ("sample", size, k)
_DRAW_CALLS = st.one_of(
    st.tuples(st.just("randint"), st.integers(-50, 50), st.integers(0, 1 << 20)),
    st.tuples(st.just("choice"), st.integers(1, 16)),
    st.integers(1, 16).flatmap(lambda size: st.tuples(
        st.just("sample"), st.just(size), st.integers(0, size))),
)


@given(st.integers(0, 1 << 32), st.lists(_DRAW_CALLS, max_size=40))
@settings(max_examples=200)
def test_draw_kernel_replays_the_stdlib(seed, calls):
    # every value and the generator's whole state after every call
    rng, ref = random.Random(seed), random.Random(seed)
    draw = fuzz._Draws(rng)
    for call in calls:
        if call[0] == "randint":
            a, b = call[1], call[1] + call[2]
            got, want = draw.randint(a, b), ref.randint(a, b)
        else:
            population = [f"v{i}" for i in range(call[1])]
            if call[0] == "choice":
                got, want = draw.choice(population), ref.choice(population)
            else:
                got = draw.sample(population, call[2])
                want = ref.sample(population, call[2])
        assert got == want
        assert rng.getstate() == ref.getstate()


def test_draw_kernel_raises_on_an_empty_range():
    draw = fuzz._Draws(random.Random(0))
    for call in (lambda: draw.randint(1, 0), lambda: draw.choice([]),
                 lambda: draw.sample(range(3), 4), lambda: draw.sample([], -1)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("n, seeds, max_tries", [
    (3, 30, 400), (4, 60, 400), (5, 30, 400), (6, 60, 400), (7, 30, 400),
    (8, 4, 400), (16, 3, 5),
], ids=["3-30", "4-60", "5-30", "6-60", "7-30", "8-4", "16-3-5"])
def test_ml1_sampler_replays_the_strata_based_tries(n, seeds, max_tries):
    # at n >= 8 every try is rejected: the screen must reject exactly the
    # tries the reference rejects, after the same draws.  At n = 3 a try
    # with d = 2 has an empty pick pool, so it draws no index.  At n = 16 the
    # reference's strata take about 0.2 s a try, so few tries are replayed
    for seed in range(seeds):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = sample_ml1_instance(rng, n=n, max_tries=max_tries)
        want = reference_ml1_sampler(ref_rng, n=n, max_tries=max_tries)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].key() == want[0].key()
            assert got[1] == want[1]
        assert rng.getstate() == ref_rng.getstate()


def test_ml1_sampler_sorts_the_pick_pool_only_for_tries_that_pass(monkeypatch):
    tries = []  # per try: [its pool, whether it passes the screen, keys read]
    closure = fuzz._containment_closure

    def spy(*args):
        got = closure(*args)
        _, pool, _, s, q = got
        tries.append([pool, 4 <= s <= q + 2, 0])
        return got

    key = fuzz.canonical_key

    def counted(mask):
        tries[-1][2] += 1
        return key(mask)

    monkeypatch.setattr(fuzz, "_containment_closure", spy)
    monkeypatch.setattr(fuzz, "canonical_key", counted)
    for n in (5, 6, 7):
        for seed in range(20):
            sample_ml1_instance(random.Random(seed), n=n)
    passed = [t for t in tries if t[1]]
    assert 0 < len(passed) < len(tries) / 20
    for pool, passes, keys in tries:
        assert keys == (pool.bit_count() if passes else 0)


@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_ml1_sampler_rejects_ambients_outside_its_range(n):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match=r"\[3, 16\]"):
        sample_ml1_instance(rng, n=n)
    assert rng.getstate() == state  # raised before any draw


def test_ml1_sampler_at_the_edges_of_its_range():
    assert sample_ml1_instance(random.Random(0), n=3) is None
    start = time.perf_counter()
    assert sample_ml1_instance(random.Random(0), n=16, max_tries=5) is None
    assert time.perf_counter() - start < 1.0
