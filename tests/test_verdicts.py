from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RP2_FREE, as_pair, from_strs, quotient_pairs
from sdepthlab.engines import EngineCache
from sdepthlab.fuzz import FuzzConfig, instance_rng, random_pair
from sdepthlab.io import parse_input, serialize_pair
from sdepthlab.monomials import Ideal, Monomial, QuotientPair, ideal_sum
from sdepthlab.poset import PosetView, poset_view, split_pair
from sdepthlab.verdicts import (
    AuditCheck,
    AuditReport,
    Verdict,
    bounds_report,
    consistency_audit,
    inconsistencies,
    stanley_observation,
)

ALWAYS_PRESENT = {
    "depth_ge_min_degree",
    "sdepth_ge_min_degree",
    "sdepth_le_hilbert_depth",
    "b_count_exceeds_c_plus_r_sdepth",
    "b_count_below_2r_sdepth",
    "b_count_exceeds_c_plus_r",
    "b_count_below_2r",
    "sdepth_eq_min_forces_depth",
    "conjecture_small_cases",
    "three_generators_step",
    "four_generators_step",
    "cover_by_lcms_depth_one",
    "all_low_divisors_generate",
}


@given(quotient_pairs(max_n=4, normalized=False))
@settings(max_examples=25)
def test_no_inconsistencies_on_random_pairs(Q):
    for char in (0, 2):
        cache = EngineCache()
        verdicts = bounds_report(Q, cache, char)
        audit = consistency_audit(Q, cache, char)
        assert audit.ok
        assert inconsistencies(verdicts, audit) == ()
        names = [v.rule for v in verdicts]
        assert ALWAYS_PRESENT <= set(names)
        for rule in ALWAYS_PRESENT:
            assert names.count(rule) == 1
        assert "colon_restriction_count" in names


@st.composite
def _presentations(draw) -> QuotientPair:
    """Pairs whose J may have generators of degree <= d, with some of the
    generators of I moved into J."""
    Q = draw(quotient_pairs(normalized=False))
    moved = draw(st.lists(st.sampled_from(Q.I.gens), max_size=2))
    J = ideal_sum(Q.J, Ideal(Q.ambient, moved))
    return Q if J.contains_ideal(Q.I) else QuotientPair(Q.I, J)


@given(_presentations())
def test_verdicts_read_only_the_normal_form(Q):
    # I/J is isomorphic to the normal form of its poset, so every rule and
    # check must read the same on both presentations
    N = as_pair(poset_view(Q))
    for char in (0, 2):
        reports = []
        for M in (Q, N):
            cache = EngineCache()
            verdicts = bounds_report(M, cache, char)
            audit = consistency_audit(M, cache, char)
            assert inconsistencies(verdicts, audit) == ()
            reports.append(([v.to_json() for v in verdicts], audit.to_json()))
        assert reports[0] == reports[1]


def test_all_low_divisors_rule_is_gated_only_at_d_zero():
    # at d >= 1 the rule applies exactly when its hypothesis holds, as it did
    # before the d >= 1 gate; at d = 0 (I = (1)) it never applies
    cfg = FuzzConfig(n=4, count=1, seed=0, max_gens=4, max_degree=3)
    seen_closed = 0
    for idx in range(150):
        Q = random_pair(instance_rng(31, idx), cfg)
        v = next(v for v in bounds_report(Q) if v.rule == "all_low_divisors_generate")
        closed = v.hypothesis.endswith("True")
        assert v.applicable == closed
        seen_closed += v.applicable
    assert seen_closed > 0
    unit = QuotientPair(Ideal(3, [Monomial(0)]), Ideal(3))
    v = next(v for v in bounds_report(unit) if v.rule == "all_low_divisors_generate")
    assert v.hypothesis.endswith("True") and not v.applicable


def test_counting_rules_are_the_hilbert_depth_test_at_d_plus_2():
    # β_{d+1}^{d+2} = s - 2r' and β_{d+2}^{d+2} = q - s + r' on the layer
    # counts, so one of the two rules applies iff hdepth1 <= d+1
    seen = 0
    for n in range(3, 9):
        cfg = FuzzConfig(n=n, seed=2026)
        for index in range(100):
            Q = random_pair(instance_rng(cfg.seed, index), cfg)
            cache = EngineCache()
            d = cache.strata(Q).d
            if d + 2 > n:
                continue
            by_rule = {v.rule: v for v in bounds_report(Q, cache)}
            fired = (by_rule["b_count_exceeds_c_plus_r_sdepth"].applicable
                     or by_rule["b_count_below_2r_sdepth"].applicable)
            assert fired == (cache.hdepth(Q).value <= d + 1), (n, index)
            seen += 1
    assert seen > 400


def test_three_generator_rule_fires_on_known_pairs():
    for text, expect_bound in (
        ("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n", 3),
        (
            "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
            "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n",
            2,
        ),
    ):
        Q = parse_input(text)
        verdicts = bounds_report(Q)
        v = next(v for v in verdicts if v.rule == "three_generators_step")
        assert v.applicable
        assert v.relation == "<=" and v.bound == expect_bound
        assert v.consistent is True


def test_colon_restriction_rules_on_four_generator_pair():
    Q = parse_input("n=5\nI = x2*x3, x1*x2, x3*x4, x3*x5\nJ = x1*x2*x4*x5\n")
    verdicts = bounds_report(Q)
    counts = [v for v in verdicts if v.rule == "colon_restriction_count"]
    depths = [v for v in verdicts if v.rule == "colon_restriction_depth"]
    assert [v.detail["t"] for v in counts] == [1]
    assert counts[0].applicable and counts[0].consistent is True
    assert len(depths) == 1 and depths[0].applicable
    assert depths[0].bound == 3 and depths[0].observed == 3
    assert depths[0].consistent is True


def test_colon_restriction_depth_reads_the_restriction_in_normal_form():
    # stream pair #24 of seed 2026 at n=6: I∩(x4) = (x1*x4, x2*x4, x3*x4)
    # has x1*x4 in J, but the restriction is built in normal form, I' =
    # (x2*x4, x3*x4), so r = 2 and the depth rule applies
    Q = random_pair(instance_rng(2026, 24), FuzzConfig(n=6, seed=2026))
    assert (Q.I, Q.J) == (from_strs(6, "x1", "x2", "x3"),
                          from_strs(6, "x1*x4", "x2*x6", "x2*x3*x5"))
    v = next(v for v in bounds_report(Q)
             if v.rule == "colon_restriction_depth" and v.detail["t"] == 4)
    assert v.applicable and "case r=2" in v.hypothesis
    assert (v.observed, v.relation, v.bound) == (3, "<=", 3)
    assert v.consistent is True


def test_colon_restriction_not_applicable_row():
    Q = QuotientPair(from_strs(2, "x1"), Ideal(2))
    verdicts = bounds_report(Q)
    counts = [v for v in verdicts if v.rule == "colon_restriction_count"]
    assert len(counts) == 1
    assert counts[0].applicable is False


def test_verdict_json_shape():
    live = Verdict(
        rule="r", applicable=True, hypothesis="h",
        quantity="depth", relation="<=", bound=2, observed=1,
    )
    assert live.to_json() == {
        "rule": "r", "applicable": True, "hypothesis": "h",
        "claim": "depth <= 2", "observed": 1, "consistent": True,
    }
    idle = Verdict(rule="r", applicable=False, hypothesis="h")
    assert idle.to_json() == {"rule": "r", "applicable": False, "hypothesis": "h"}


def test_inconsistencies_merges_audit_failures():
    bad_verdict = Verdict(
        rule="r", applicable=True, hypothesis="h",
        quantity="depth", relation="<=", bound=1, observed=2,
    )
    ok_verdict = Verdict(rule="s", applicable=False, hypothesis="h")
    failing = AuditCheck("colon_bound_step", "t=1", False)
    audit = AuditReport((AuditCheck("colon_depth_monotone", "j=1", True), failing))
    assert not audit.ok
    assert audit.failures() == (failing,)
    merged = inconsistencies((bad_verdict, ok_verdict), audit)
    assert merged == (bad_verdict, failing)


def test_audit_check_names_and_json():
    Q = parse_input(
        "n=6\nI = x1, x2, x3, x4*x5, x5*x6\n"
        "J = x2*x4, x3*x4, x1*x6, x2*x6, x3*x6\n"
    )
    audit = consistency_audit(Q)
    assert audit.ok
    names = {c.name for c in audit.checks}
    assert {
        "colon_depth_monotone",
        "colon_sequence_first", "colon_sequence_middle", "colon_sequence_last",
        "colon_bound_step",
        "subideal_sequence_first", "subideal_sequence_middle",
        "subideal_sequence_last",
    } <= names
    j = audit.to_json()
    assert j["ok"] is True and len(j["checks"]) == len(audit.checks)


def test_audit_handles_degenerate_colon():
    # I:(x2) and J:(x2) coincide, so the colon row is not applicable
    Q = QuotientPair(from_strs(2, "x1"), from_strs(2, "x1*x2"))
    audit = consistency_audit(Q)
    row = next(
        c for c in audit.checks
        if c.name == "colon_depth_monotone" and c.param == "j=2"
    )
    assert row.ok is None
    assert audit.ok


def test_stanley_observation():
    Q = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    assert stanley_observation(Q) is None

    class DoctoredCache(EngineCache):
        def sdepth(self, Q):
            return SimpleNamespace(value=1)

        def depth(self, Q, field=0):
            return SimpleNamespace(depth=2)

    for char in (0, 2):
        assert stanley_observation(Q, DoctoredCache(), char) == {
            "kind": "sdepth_below_depth",
            "pair": str(Q),
            "field": char,
            "sdepth": 1,
            "depth": 2,
        }


def _reports(Q: QuotientPair, cache_for_call) -> list:
    out = []
    for char in (0, 2):
        out.append([v.to_json() for v in bounds_report(Q, cache_for_call(), char)])
        out.append(consistency_audit(Q, cache_for_call(), char).to_json())
    return out


def test_shared_cache_reports_match_fresh_caches():
    # one warm cache across both characteristics, as in fuzz.run_instance,
    # against a cold cache per call (which computes char-2 depths directly)
    Q = parse_input(RP2_FREE)
    reports = _reports(Q, EngineCache)
    # each audit reads every derived depth in its own characteristic
    for audit, dep in ((reports[1], 4), (reports[3], 3)):
        values = {(c["name"], c["param"]): c.get("values") for c in audit["checks"]}
        assert values["colon_depth_monotone", "j=7"] == {"colon_depth": dep, "depth": dep}
        assert values["colon_sequence_first", "t=7"] == {
            "first": dep, "middle": dep, "last": dep - 1}
    shared = EngineCache()
    assert _reports(Q, lambda: shared) == _reports(Q, EngineCache)
    for n, count in ((6, 200), (7, 100)):
        cfg = FuzzConfig(n=n, seed=2026)
        for i in range(count):
            Q = random_pair(instance_rng(2026, i), cfg)
            shared = EngineCache()
            assert _reports(Q, lambda: shared) == _reports(Q, EngineCache), (n, i)


def _holds_module(value) -> bool:
    if isinstance(value, (QuotientPair, PosetView)):
        return True
    return isinstance(value, tuple) and any(_holds_module(v) for v in value)


def _poset_of(module) -> tuple | None:
    """What identifies a derived module: its ambient, generators and poset."""
    if module is None:
        return None
    view = poset_view(module)
    return view.ambient, view.gens, view.bits


def test_derived_pairs_live_on_the_cache_not_the_pair():
    Q = parse_input("n=5\nI = x1*x2, x1*x3, x1*x4, x2*x3*x5\nJ = x2*x3*x4*x5\n")
    cache = EngineCache()
    bounds_report(Q, cache)
    consistency_audit(Q, cache, 2)
    derived = cache.derived_pairs(Q)
    assert len(derived) == Q.ambient and _holds_module(derived)
    assert cache.derived_pairs(parse_input(serialize_pair(Q))) is derived
    # the pair holds its own view, and neither holds a derived module
    held = [getattr(Q, name) for name in QuotientPair.__slots__ if name != "_poset"]
    held += [getattr(Q._poset, name) for name in PosetView.__slots__]
    assert not any(_holds_module(v) for v in held)
    rebuilt = EngineCache().derived_pairs(Q)
    assert rebuilt is not derived
    assert [list(map(_poset_of, row)) for row in rebuilt] == [
        list(map(_poset_of, row)) for row in derived]


def test_subideal_split_is_the_split_by_the_ideal_of_the_f_list():
    # the audit splits I/J by I' = (f_1, .., f_r) once per pair, on the
    # cache, and names I' as the ideal would print
    cfg = FuzzConfig(n=6, seed=2026)
    checked = 0
    for idx in range(200):
        Q = random_pair(instance_rng(cfg.seed, idx), cfg)
        cache = EngineCache()
        report = cache.strata(Q)
        if not report.E:
            continue
        checked += 1
        sub = Ideal(Q.ambient, report.f_list)
        split = cache.subideal_split(Q)
        assert list(map(_poset_of, split)) == list(
            map(_poset_of, split_pair(Q, sub)))
        for char in (0, 2):
            params = {c.param for c in consistency_audit(Q, cache, char).checks
                      if c.name.startswith("subideal_sequence")}
            assert params == {f"I'={sub}"}
        assert cache.subideal_split(Q) is split
    assert checked > 50


def test_a_restriction_equal_to_the_pair_is_the_pair():
    # I∩(x1) = I, so the restriction by x1 is Q itself and shares its view
    Q = QuotientPair(from_strs(3, "x1*x2", "x1*x3"), from_strs(3, "x1*x2*x3"))
    derived = EngineCache().derived_pairs(Q)
    assert derived[0][1] is Q and derived[0][2] is None
    assert derived[1][1].gens[0] == from_strs(3, "x1*x2").gen_masks()  # I∩(x2)
