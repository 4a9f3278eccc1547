"""Partition surgery on reduced pairs.

Starting from a value-(d+2) partition of the reduced pair I_b/J_b (where b is
a degree-(d+1) multiple of exactly one least-degree generator), this module
builds the injection h from interval bottoms to interval tops, classifies
paths through the resulting digraph, and rewrites the partition by rotations
and generator swaps.  The two-generator driver either upgrades the partition
to one of I/J with value d+2, or isolates a proper subideal I' whose quotient
has small Stanley depth while I/(J,I') keeps depth >= d+1 (in
characteristic 0).

Every rewrite and every outcome is re-verified by the exact engines, so a
bookkeeping mistake here can cause an honest failure but never a wrong
certificate.  A situation no kept rewrite route covers ends in the fallback,
which settles the disjunction by direct search and flags the outcome.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .depth import depth
from .hilbert import colon_refuter
from .monomials import Ideal, InputError, Monomial, QuotientPair, minimalize
from .poset import (
    PosetView, StrataReport, filter_bitset, interval_bits, members, poset_view,
    split_filter, split_pair, strata)
from .sdepth import (
    Interval,
    Partition,
    sdepth,
    sdepth_decide,
    verify_partition,
)

_MAX_ENUMERATED_PATHS = 4096
_MAX_STAGES_FACTOR = 2


class SurgeryError(InputError):
    """A surgery precondition failed; the message names the violated clause."""


class DriverFailure(RuntimeError):
    """The driver exhausted its rewriting strategies without a verified outcome."""

    def __init__(self, message: str, trace: tuple[str, ...]):
        super().__init__(message)
        self.trace = trace


def _designated_generator(st: StrataReport, b: Monomial) -> Monomial:
    divisors = [f for f in st.f_list if f.divides(b)]
    if len(divisors) != 1:
        raise SurgeryError(
            f"b must be a multiple of exactly one least-degree generator; "
            f"{b} has {len(divisors)}"
        )
    return divisors[0]


def build_reduced_pair(Q: QuotientPair, b: Monomial) -> PosetView:
    """Drop b and the generator dividing it: I_b = (other f's, B minus b).
    The module I_b/(J∩I_b) is a PosetView in the normal form of
    `poset.view_of`: b lies in P but not in I_b, so it is never Q."""
    st = strata(Q)
    if b not in st.B:
        raise SurgeryError(f"b={b} is not a degree-(d+1) element of the poset")
    f1 = _designated_generator(st, b)
    F = filter_bitset(Q.ambient, [m.mask for m in st.f_list + st.B
                                  if m != f1 and m != b])
    if (F >> b.mask) & 1:
        raise SurgeryError(f"reduction failed: {b} still lies in I_b")
    pair_b = split_filter(Q, F)[0]
    if pair_b is None:
        raise SurgeryError("reduced pair I_b/J_b must be nonzero")
    return pair_b


def _truncated_cover(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    # partition the elements of [lo, hi] of degree <= k into intervals
    # whose tops have degree exactly k
    if lo.bit_count() == k:
        return [(lo, lo)]
    if hi.bit_count() == k:
        return [(lo, hi)]
    span = hi & ~lo
    x = 1 << (span.bit_length() - 1)
    return _truncated_cover(lo, hi & ~x, k) + _truncated_cover(lo | x, hi, k)


def _inner_elements(iv: Interval) -> tuple[Monomial, ...]:
    """The elements of `iv` one degree above its bottom, in canonical order."""
    lo = iv.lo.mask
    inner = [Monomial(lo | 1 << i) for i in members(iv.hi.mask & ~lo)]
    return tuple(sorted(inner, key=Monomial.sort_key))


def normalize_partition(Q: QuotientPair | PosetView, partition: Partition, k: int) -> Partition:
    """Reshape a partition so every element of degree < k tops out at degree k.

    Intervals reaching past degree k are truncated (their high elements are
    re-emitted as singletons), and elements the input leaves uncovered are
    added as singletons.  Fails if the input's value is below k on the low
    part, since no reshaping can fix that.
    """
    bits = poset_view(Q).bits
    covered = 0
    pieces: list[Interval] = []
    for iv in partition.intervals:
        lo, hi = iv.lo.mask, iv.hi.mask
        inside = interval_bits(lo, hi)
        covered |= inside
        if lo.bit_count() >= k:
            pieces.append(iv)
            continue
        if hi.bit_count() < k:
            raise InputError(
                f"interval [{iv.lo},{iv.hi}] tops out below degree {k}"
            )
        for a, c in _truncated_cover(lo, hi, k):
            pieces.append(Interval(Monomial(a), Monomial(c)))
        # high leftovers of the truncated interval become singletons, from
        # the largest mask down
        for m in reversed(members(inside)):
            if m.bit_count() > k:
                pieces.append(Interval(Monomial(m), Monomial(m)))
    for m in members(bits & ~covered):
        if m.bit_count() < k:
            raise InputError(
                f"uncovered element {Monomial(m)} of degree < {k} cannot be "
                "normalized into a singleton"
            )
        pieces.append(Interval(Monomial(m), Monomial(m)))
    out = Partition(tuple(pieces))
    vr = verify_partition(Q, out)
    if not vr:
        raise InputError(f"normalization produced an invalid partition: {vr.reason}")
    return out


@dataclass(frozen=True)
class HMap:
    """Bottom-to-top assignment extracted from a normalized partition.

    Generator intervals [f, c'_f] contribute h(f) = c'_f and carry their two
    middle elements (the "inner" pair); every other degree-(d+1) element b'
    bottoms its own interval and contributes h(b') = top.
    """

    pair_b: PosetView
    b: Monomial
    partition: Partition
    st: StrataReport
    inners: dict
    inner: frozenset                # every inner element, of all generators
    mapping: dict

    def h(self, m: Monomial) -> Monomial:
        return self.mapping[m]

    def in_inner_ideal(self, c: Monomial) -> bool:
        return any(u.divides(c) for u in self.inner)

    def to_json(self) -> dict:
        return {
            "b": str(self.b),
            "mapping": {str(k): str(v) for k, v in sorted(
                self.mapping.items(), key=lambda kv: kv[0].sort_key())},
            "inners": {str(f): [str(u) for u in uu] for f, uu in sorted(
                self.inners.items(), key=lambda kv: kv[0].sort_key())},
        }


def build_h(Q: QuotientPair, b: Monomial, P_b: Partition) -> HMap:
    """Normalize P_b on the reduced pair and read off the injection h."""
    return _h_map(strata(Q), build_reduced_pair(Q, b), b, P_b)


def _h_map(st: StrataReport, pair_b: PosetView, b: Monomial,
           P_b: Partition) -> HMap:
    view_b = poset_view(pair_b)
    d_b = view_b.d
    partition = normalize_partition(pair_b, P_b, d_b + 2)
    if partition.sdepth_value < d_b + 2:
        raise SurgeryError(
            f"partition value {partition.sdepth_value} is below d+2={d_b + 2}"
        )

    by_lo = {iv.lo: iv for iv in partition.intervals}
    inners: dict = {}
    mapping: dict = {}
    inner_all = set()
    for fm in view_b.layer(d_b):
        f = Monomial(fm)
        iv = by_lo.get(f)
        if iv is None:
            raise SurgeryError(f"generator {f} is not an interval bottom")
        mid = _inner_elements(iv)
        if len(mid) != 2:
            raise SurgeryError(
                f"generator interval [{f},{iv.hi}] must contain exactly two "
                f"degree-{d_b + 1} elements, found {len(mid)}"
            )
        inners[f] = mid
        mapping[f] = iv.hi
        inner_all.update(mid)

    for mm in view_b.layer(d_b + 1):
        m = Monomial(mm)
        if m in inner_all:
            continue
        iv = by_lo.get(m)
        if iv is None:
            raise SurgeryError(f"degree-(d+1) element {m} is neither inner nor bottom")
        mapping[m] = iv.hi

    if len(set(mapping.values())) != len(mapping):
        raise SurgeryError("top assignment is not injective")
    if len(mapping) != st.s - st.r:
        raise SurgeryError(
            f"image size {len(mapping)} differs from s-r = {st.s - st.r}"
        )
    return HMap(
        pair_b=pair_b,
        b=b,
        partition=partition,
        st=st,
        inners=inners,
        inner=frozenset(inner_all),
        mapping=mapping,
    )


@dataclass(frozen=True)
class Path:
    elements: tuple[Monomial, ...]
    weak: bool
    bad: bool
    maximal: bool

    def to_json(self) -> dict:
        return {
            "elements": [str(m) for m in self.elements],
            "weak": self.weak,
            "bad": self.bad,
            "maximal": self.maximal,
        }


@dataclass(frozen=True)
class PathSearch:
    paths: tuple[Path, ...]
    T: frozenset
    weak_exists: bool
    bad_exists: bool


def _b_divisors(H: HMap, c: Monomial) -> list[Monomial]:
    return [m for m in H.st.B if m.divides(c)]


def find_paths(H: HMap, start: Monomial) -> PathSearch:
    """Enumerate all maximal paths from `start` and the reachable vertex set.

    A path hops from a vertex a to a divisor of h(a) as long as h(a) avoids
    the removed element b; it is bad when the final top is a multiple of b,
    weak when some top along the way lands in the inner-pair ideal.
    """
    excluded = H.inner | {H.b}
    if start in excluded or start not in H.mapping:
        raise SurgeryError(f"path start {start} is not admissible")
    paths: list[Path] = []

    def emit(seq: list[Monomial], bad: bool) -> None:
        if len(paths) >= _MAX_ENUMERATED_PATHS:
            raise SurgeryError(
                f"path enumeration exceeded {_MAX_ENUMERATED_PATHS} paths"
            )
        weak = any(H.in_inner_ideal(H.h(a)) for a in seq)
        paths.append(Path(tuple(seq), weak=weak, bad=bad, maximal=True))

    def dfs(seq: list[Monomial], seen: set) -> None:
        c = H.h(seq[-1])
        if H.b.divides(c):
            emit(seq, bad=True)
            return
        exts = [m for m in _b_divisors(H, c) if m not in excluded and m not in seen]
        if not exts:
            emit(seq, bad=False)
            return
        for m in exts:
            seen.add(m)
            seq.append(m)
            dfs(seq, seen)
            seq.pop()
            seen.remove(m)

    dfs([start], {start})
    T = _bfs(H, start)
    return PathSearch(
        paths=tuple(paths),
        T=frozenset(T),
        weak_exists=any(H.in_inner_ideal(H.h(x)) for x in T),
        bad_exists=any(H.b.divides(H.h(x)) for x in T),
    )


def _bfs(H: HMap, start: Monomial, forbidden: frozenset = frozenset()) -> dict:
    """BFS tree of the paths from start: vertex -> predecessor, in visit order.

    Its keys are the reachable vertices (loop-erasure makes BFS exact), and
    the tree path to the first key with a property is a shortest path to it.
    """
    blocked = H.inner | forbidden | {H.b}
    parent = {start: None}
    queue = [start]
    for x in queue:
        c = H.h(x)
        if H.b.divides(c):
            continue  # rule (iii): nothing extends past a bad top
        for m in _b_divisors(H, c):
            if m not in blocked and m not in parent:
                parent[m] = x
                queue.append(m)
    return parent


def _tree_path(tree: dict, hit) -> list[Monomial] | None:
    """The tree path to the first visited vertex satisfying `hit`, or None."""
    x = next((v for v in tree if hit(v)), None)
    if x is None:
        return None
    seq = []
    while x is not None:
        seq.append(x)
        x = tree[x]
    return seq[::-1]


def rotate(Q: QuotientPair | PosetView, partition: Partition,
           lows: list[Monomial]) -> Partition:
    """Shift interval tops backwards along a divisibility-linked segment.

    Intervals [a_v,c_v],…,[a_p,c_p] become [a_v,c_p], [a_{j+1},c_j]; legality
    requires a_{j+1} | c_j along the segment and a_v | c_p to close it.
    """
    if not lows:
        raise InputError("rotation needs at least one interval")
    by_lo = {iv.lo: iv for iv in partition.intervals}
    ivs = []
    for m in lows:
        iv = by_lo.get(m)
        if iv is None:
            raise InputError(f"{m} is not an interval bottom")
        ivs.append(iv)
    tops = [iv.hi for iv in ivs]
    for j in range(len(lows) - 1):
        if not lows[j + 1].divides(tops[j]):
            raise InputError(
                f"illegal rotation: {lows[j + 1]} does not divide {tops[j]}"
            )
    if not lows[0].divides(tops[-1]):
        raise InputError(
            f"illegal rotation: {lows[0]} does not divide {tops[-1]}"
        )
    shifted = [Interval(lo, hi) for lo, hi in zip(lows, tops[-1:] + tops[:-1])]
    return _rewritten(Q, partition, set(lows), shifted, "rotation")


def swap_into_generator(
    Q: QuotientPair | PosetView, partition: Partition, f: Monomial, a_t: Monomial
) -> Partition:
    """Trade [f,c'_f], [a_t,c_t] for [f,c_t], [u',c'_f].

    Requires a_t to be a multiple of f and c_t a multiple of exactly one of
    the two inner elements of f's interval; the displaced inner u' keeps the
    old top.  Coverage is preserved exactly.
    """
    by_lo = {iv.lo: iv for iv in partition.intervals}
    iv_f = by_lo.get(f)
    iv_a = by_lo.get(a_t)
    if iv_f is None or iv_a is None:
        raise InputError(f"{f} and {a_t} must both be interval bottoms")
    if not f.divides(a_t):
        raise InputError(f"{a_t} is not a multiple of {f}")
    c_f, c_t = iv_f.hi, iv_a.hi
    mid = _inner_elements(iv_f)
    if len(mid) != 2:
        raise InputError(f"[{f},{c_f}] is not a two-inner generator interval")
    dividing = [u for u in mid if u.divides(c_t)]
    if len(dividing) != 1:
        raise InputError(
            f"exactly one inner of [{f},{c_f}] must divide {c_t}, "
            f"found {len(dividing)}"
        )
    u = dividing[0]
    u_prime = mid[0] if mid[1] == u else mid[1]
    return _rewritten(Q, partition, (f, a_t),
                      [Interval(f, c_t), Interval(u_prime, c_f)], "swap")


def _in_order(pieces) -> Partition:
    return Partition(tuple(sorted(pieces, key=lambda iv: iv.lo.sort_key())))


def _rewritten(Q: QuotientPair | PosetView, partition: Partition, drop, add,
               what: str) -> Partition:
    """`partition` without the intervals bottomed in `drop`, plus `add`, in
    canonical order; raises unless the result is a partition of Q."""
    out = _in_order([iv for iv in partition.intervals if iv.lo not in drop]
                    + list(add))
    vr = verify_partition(Q, out)
    if not vr:
        raise InputError(f"{what} broke the partition: {vr.reason}")
    return out


@dataclass(frozen=True)
class SurgeryOutcome:
    kind: str                       # "upgraded_partition" | "subideal_witness"
    partition: Partition | None = None
    subideal: Ideal | None = None
    sdepth_sub: int | None = None
    depth_rest: int | None = None   # depth of I/(J,I'); None when upgraded
    fallback: bool = False
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "fallback": self.fallback}
        if self.partition is not None:
            out["partition"] = self.partition.to_json()
            out["value"] = self.partition.sdepth_value
        if self.subideal is not None:
            out["subideal"] = [str(g) for g in self.subideal.gens]
            out["sdepth_sub"] = self.sdepth_sub
            out["depth_rest"] = self.depth_rest
        out["trace"] = list(self.trace)
        return out


def _switch_bottom(partition: Partition, old_lo: Monomial, new_lo: Monomial):
    pieces = []
    for iv in partition.intervals:
        if iv.lo == old_lo:
            pieces.append(Interval(new_lo, iv.hi))
        else:
            pieces.append(iv)
    return pieces


def containment_violators(st: StrataReport) -> tuple[Monomial, ...]:
    """The elements of C breaking the C-containment condition, in canonical order.

    The condition asks every c in C to be a multiple of two of the
    generators f_1, f_2 and E.  Whether c meets it reads only those
    generators and c, so putting some violators into J (which removes just
    them: their multiples lie above degree d+2) leaves the others' answers
    unchanged.
    """
    gens = [g.mask for g in st.f_list + st.E]
    return tuple([
        c for c in st.C if sum(1 for g in gens if g & ~c.mask == 0) < 2
    ])


def check_pair_hypotheses(Q: QuotientPair) -> None:
    """Validate the two-generator lemma's pair-level hypotheses, by name."""
    st = strata(Q)
    if st.r != 2:
        raise SurgeryError(f"hypothesis r=2 fails: r={st.r}")
    if any(g.degree != st.d + 1 for g in st.E):
        raise SurgeryError(
            "hypothesis fails: higher generators must all have degree d+1"
        )
    if not (4 <= st.s <= st.q + 2):
        raise SurgeryError(
            f"hypothesis 4 <= s <= q+2 fails: s={st.s}, q={st.q}"
        )
    bad_c = containment_violators(st)
    if bad_c:
        raise SurgeryError(f"hypothesis C-containment fails at {bad_c[0]}")


def ml1_candidate_bs(Q: QuotientPair) -> tuple[Monomial, ...]:
    """The b's structurally eligible for the driver (pair hypotheses pass
    and exactly one least-degree generator divides b); the remaining
    hypothesis — a value-(d+2) partition of the reduced pair — is checked
    by the driver itself."""
    st = strata(Q)
    try:
        check_pair_hypotheses(Q)
    except SurgeryError:
        return ()
    return tuple(
        b for b in st.B
        if sum(1 for f in st.f_list if f.divides(b)) == 1
    )


class _Driver:
    def __init__(self, Q: QuotientPair, b: Monomial):
        self.Q = Q
        self.b = b
        self.trace: list[str] = []
        # subideals `_try_candidate` has tried; a repeat would fail again
        self.tried: set[Ideal] = set()
        self.st = strata(Q)
        self.d = self.st.d

    def log(self, msg: str) -> None:
        self.trace.append(msg)

    def _outcome(self, **fields) -> SurgeryOutcome:
        return SurgeryOutcome(trace=tuple(self.trace), **fields)

    def _upgrade(self, pieces, line: str) -> SurgeryOutcome | None:
        """The upgrade to `pieces`, logged as `line`, if they form a
        partition of Q of value >= d+2; otherwise None."""
        out = _in_order(pieces)
        if not (verify_partition(self.Q, out) and out.sdepth_value >= self.d + 2):
            return None
        self.log(line)
        return self._outcome(kind="upgraded_partition", partition=out)

    def check_hypotheses(self) -> None:
        st, Q, b = self.st, self.Q, self.b
        check_pair_hypotheses(Q)
        if b not in st.B:
            raise SurgeryError(f"b={b} is not in B")
        f1 = _designated_generator(st, b)
        self.f1 = f1
        self.f2 = next(f for f in st.f_list if f != f1)

    # -- main loop ------------------------------------------------------

    def run(self) -> SurgeryOutcome:
        self.check_hypotheses()
        b, d = self.b, self.d
        self.pair_b = build_reduced_pair(self.Q, b)
        # the colon bound refutes most failing reduced pairs without a search
        refuted = colon_refuter(self.pair_b, d + 2) is not None
        cert = None if refuted else sdepth_decide(self.pair_b, d + 2)
        if cert is None:
            raise SurgeryError(
                f"hypothesis sdepth(I_b/J_b) >= d+2 fails for b={b}"
            )
        self.log(f"reduced pair partition of value {d + 2} found")
        # continuing from f1*x_l keeps the partition, so one h serves every stage
        H = _h_map(self.st, self.pair_b, b, cert)
        start = self._pick_start(H)
        trail: list[Monomial] = []
        max_stages = _MAX_STAGES_FACTOR * self.st.s + 4

        for stage in range(max_stages):
            trail_set = frozenset(trail)
            self.log(f"stage {stage}: start {start}")

            hit_seq = self._trail_hit(H, start, trail, trail_set)
            if hit_seq is not None:
                outcome = self._revisit_win(H, hit_seq)
                if outcome is not None:
                    return outcome
                self.log("trail-revisit rewrite failed verification")
                break

            tree = _bfs(H, start, trail_set)
            bad = _tree_path(tree, lambda x: H.b.divides(H.h(x)))
            if bad is not None:
                step = self._case_bad(H, bad, trail)
                if isinstance(step, SurgeryOutcome):
                    return step
                if step is None:
                    break
                start = step
                trail = trail + bad
                continue
            weak = _tree_path(tree, lambda x: H.in_inner_ideal(H.h(x)))
            if weak is not None:
                outcome = self._case_weak(H, weak, tree, trail_set)
                if outcome is not None:
                    return outcome
                break
            self.log(f"case 1: no weak or bad path from {start}")
            break

        return self._fallback(H)

    def _pick_start(self, H: HMap) -> Monomial:
        # stage 0 only: B minus b and f2's inner pair keeps s-3 >= 1, all in h's domain
        blocked = H.inner | {H.b}
        return next(m for m in H.st.B if m not in blocked and m in H.mapping)

    # -- trail revisits --------------------------------------------------

    def _trail_hit(self, H, start, trail, trail_set):
        """Shortest path from start touching the trail, as a combined segment."""
        if not trail:
            return None
        path = _tree_path(
            _bfs(H, start),
            lambda x: any(
                t.divides(H.h(x)) for t in trail_set
            ) and not H.b.divides(H.h(x)),
        )
        if path is None:
            return None
        last_c = H.h(path[-1])
        v = next(v for v, t in enumerate(trail) if t.divides(last_c))
        return trail[v:] + path

    def _revisit_win(self, H, seq):
        """Cyclic rotation pushing a top onto the continuation vertex, then
        the bottom switch that absorbs f_1 and b."""
        try:
            rotated = rotate(H.pair_b, H.partition, seq)
        except InputError as exc:
            self.log(f"rotation rejected: {exc}")
            return None
        # after rotation the stage-entry vertex f1*x_l carries a top in (b)
        by_lo = {iv.lo: iv for iv in rotated.intervals}
        for m in seq:
            if self.f1.divides(m) and self.b.divides(by_lo[m].hi):
                outcome = self._upgrade(_switch_bottom(rotated, m, self.f1),
                                        f"upgrade via trail revisit at {m}")
                if outcome is not None:
                    return outcome
        return None

    # -- bad paths --------------------------------------------------------

    def _case_bad(self, H, path, trail):
        """An upgrade, None to fall back, or the start of the next stage."""
        a_t = path[-1]
        c_t = H.h(a_t)
        x_l = Monomial(c_t.mask & ~self.b.mask)
        fxl = Monomial(self.f1.mask | x_l.mask)
        self.log(
            f"case 3: bad path {[str(m) for m in path]} with top {c_t}"
        )
        if self.f1.divides(a_t):
            outcome = self._upgrade(_switch_bottom(H.partition, a_t, self.f1),
                                    f"upgrade by direct switch at {a_t}")
            if outcome is None:
                self.log("direct switch failed verification")
            return outcome
        if fxl in path:
            v = path.index(fxl)
            try:
                rotated = rotate(H.pair_b, H.partition, path[v:])
            except InputError as exc:
                self.log(f"rotation rejected: {exc}")
                return None
            outcome = self._upgrade(_switch_bottom(rotated, fxl, self.f1),
                                    f"upgrade by rotation into {fxl}")
            if outcome is None:
                self.log("rotated switch failed verification")
            return outcome
        # Over 8 802 driver runs of sample_ml1_instance (n=5 seeds 0..599, n=6
        # seeds 0..1999, n=7 seeds 0..599), all 549 fallbacks leave the
        # rewriting here; for them `_fallback`'s full search is the answer.
        if (fxl in H.inner or fxl == self.b or fxl not in H.mapping
                or fxl in trail):
            self.log(f"continuation vertex {fxl} is not admissible")
            return None
        self.log(f"continuing from {fxl}")
        return fxl

    # -- weak paths -------------------------------------------------------

    def _case_weak(self, H, path, T, trail_set):
        a_t = path[-1]
        c_t = H.h(a_t)
        mid = H.inners[self.f2]
        u = next(x for x in mid if x.divides(c_t))
        u_prime = mid[0] if mid[1] == u else mid[1]
        self.log(
            f"case 2: weak path {[str(m) for m in path]} hits ({u}) at {c_t}"
        )
        U1 = {H.h(x) for x in T}

        partition, swap_at = H.partition, a_t
        if not self.f2.divides(a_t):
            x_m = Monomial(c_t.mask & ~u.mask)
            a_next = Monomial(self.f2.mask | x_m.mask)
            if a_next == u_prime or a_next == self.b or a_next not in H.mapping:
                self.log(f"generator-side divisor {a_next} is not admissible")
                return None
            joined = self._join_rotation(H, path, a_next, trail_set)
            if joined is None:
                self.log(f"could not join {a_next} onto the weak path")
                return None
            partition, swap_at = joined

        try:
            partition = swap_into_generator(H.pair_b, partition, self.f2, swap_at)
        except InputError as exc:
            self.log(f"generator swap rejected: {exc}")
            return None
        self.log(f"swapped {swap_at} into the {self.f2} interval")
        H2 = _h_map(self.st, self.pair_b, self.b, partition)
        T_final = set(T) | {u}
        if any(u_prime.divides(c) for c in U1):
            T_final.add(u_prime)
            T_final.update(_bfs(H2, u_prime, trail_set))
            self.log(f"completing the reach set through {u_prime}")
        outcome = self._finish(H2, frozenset(T_final), rewritten=True)
        if outcome is not None:
            return outcome
        self.log("post-swap candidates exhausted")
        return None

    def _join_rotation(self, H, path, a_next, trail_set):
        """Try to link a_next back onto the current path by one rotation."""
        if a_next in path:
            return None
        sub = _tree_path(
            _bfs(H, a_next, trail_set | frozenset(path)),
            lambda x: any(p.divides(H.h(x)) for p in path),
        )
        if sub is None:
            return None
        last_c = H.h(sub[-1])
        v = next(i for i, p in enumerate(path) if p.divides(last_c))
        seq = path[v:] + sub
        try:
            rotated = rotate(H.pair_b, H.partition, seq)
        except InputError as exc:
            self.log(f"join rotation rejected: {exc}")
            return None
        self.log(f"joined {a_next} onto the weak path by rotation")
        return rotated, a_next

    # -- endgame ----------------------------------------------------------

    def _finish(self, H: HMap, T, rewritten: bool):
        B_all = set(self.st.B)
        G1 = B_all - set(T)
        G2 = G1 - H.inner
        g_variants = []
        for G in ([G2, G1] if rewritten else [G1, G2]):
            if G not in g_variants:
                g_variants.append(G)
        U = {H.h(x) for x in T if x in H.mapping}
        f_pair = (self.f1, self.f2)
        F_des = tuple(f for f in f_pair if not any(f.divides(c) for c in U))
        f_variants = [F_des]
        for F in (f_pair, (self.f1,), (self.f2,), ()):
            if F not in f_variants:
                f_variants.append(F)

        for G in g_variants:
            for F in f_variants:
                outcome = self._try_candidate(tuple(F) + tuple(sorted(
                    G, key=Monomial.sort_key)))
                if outcome is not None:
                    return outcome
        return None

    def _try_candidate(self, gens):
        Q, d = self.Q, self.d
        I_sub = minimalize(Q.ambient, gens)
        if I_sub in self.tried:
            return None
        self.tried.add(I_sub)
        # I' is proper when it leaves part of the poset outside it
        sub, rest = split_pair(Q, I_sub)
        if sub is None or rest is None:
            return None
        cert_sub = sdepth_decide(sub, d + 2)
        if cert_sub is None:
            depth_rest = depth(rest, 0).depth
            if depth_rest < d + 1:
                self.log(
                    f"candidate ({I_sub}) rejected: "
                    f"depth of the complement is {depth_rest} < {d + 1}"
                )
                return None
            value = sdepth(sub).value
            self.log(
                f"subideal witness ({I_sub}): sdepth {value} <= {d + 1}"
            )
            return self._outcome(kind="subideal_witness", subideal=I_sub,
                                 sdepth_sub=value, depth_rest=depth_rest)
        cert_rest = sdepth_decide(rest, d + 2)
        if cert_rest is None:
            return None
        pieces = [*cert_sub.intervals, *cert_rest.intervals]
        return self._upgrade(pieces, f"upgrade by splitting along ({I_sub})")

    def _fallback(self, H: HMap) -> SurgeryOutcome:
        """Settle the disjunction directly; H is the h-map `run` started from."""
        self.log("fallback: deciding the disjunction by direct computation")
        cert = sdepth_decide(self.Q, self.d + 2)
        if cert is not None:
            return self._outcome(kind="upgraded_partition", partition=cert,
                                 fallback=True)
        tried = set()
        for a in H.st.B:
            if a not in H.mapping or a in H.inner or a == self.b:
                continue
            T = frozenset(_bfs(H, a))
            if T in tried:
                continue
            tried.add(T)
            outcome = self._finish(H, T, rewritten=False)
            if outcome is not None:
                return replace(outcome, fallback=True)
        raise DriverFailure(
            "no verified outcome: rewriting and fallback both exhausted",
            tuple(self.trace),
        )


def ml1_driver(Q: QuotientPair, b: Monomial) -> SurgeryOutcome:
    """Run the two-generator case analysis from the removed element b.

    Preconditions, read off the normal form of Q's poset (each reported by
    name if violated): r=2, E in degree d+1, 4 <= s <= q+2, the
    C-containment condition, and a value-(d+2) partition of the reduced
    pair.  That last one is screened first by the colon bound
    (`hilbert.colon_refuter`), which refutes it without a search whenever
    some variable's colon pair has hdepth1 < d+2; only pairs it passes go to
    `sdepth_decide`.  The outcome is always engine-verified;
    if every rewriting strategy dead-ends, the disjunction is settled by
    direct computation and flagged as a fallback.
    """
    return _Driver(Q, b).run()


def verify_outcome(Q: QuotientPair, outcome: SurgeryOutcome) -> bool:
    """Re-check an outcome's claims with the engines alone."""
    d = poset_view(Q).d
    if outcome.kind == "upgraded_partition":
        if outcome.partition is None:
            return False
        return bool(verify_partition(Q, outcome.partition)) and (
            outcome.partition.sdepth_value >= d + 2
        )
    if outcome.kind != "subideal_witness" or outcome.subideal is None:
        return False
    I_sub = outcome.subideal
    if not Q.I.contains_ideal(I_sub):
        return False
    # a proper I' leaves part of the poset outside it
    sub, rest = split_pair(Q, I_sub)
    if sub is None or rest is None or sdepth_decide(sub, d + 2) is not None:
        return False
    return depth(rest, 0).depth >= d + 1
