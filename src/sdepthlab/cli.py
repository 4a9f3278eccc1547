"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 input/parse error, 3 internal invariant
violation, 4 verdict inconsistency (or golden-corpus mismatch).
"""
from __future__ import annotations

import argparse
import json
import sys

from .corpus import run_corpus
from .engines import EngineCache
from .fuzz import FuzzConfig, run_fuzz
from .depth import depth
from .hilbert import hdepth1_pair, herzog_question
from .io import load_pair
from .linalg import check_field
from .monomials import InputError, QuotientPair, parse_monomial
from .sdepth import sdepth, sdepth_decide
from .surgery import DriverFailure, ml1_driver
from .verdicts import (
    bounds_report,
    consistency_audit,
    inconsistencies,
    stanley_observation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_INCONSISTENT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="sdepthlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    a = sub.add_parser("analyze", help="full report for a pair file")
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.add_argument("--char", type=int, default=0)

    d = sub.add_parser("depth", help="depth via the Koszul complex")
    d.add_argument("file")
    d.add_argument("--char", type=int, default=0)

    s = sub.add_parser("sdepth", help="exact Stanley depth")
    s.add_argument("file")
    s.add_argument("--decide", type=int, default=None, metavar="K")

    h = sub.add_parser("hdepth", help="Hilbert depth of the pair's series")
    h.add_argument("file")

    hz = sub.add_parser("herzog", help="compare hdepth1(m) with hdepth1(S+m)")
    hz.add_argument("n", type=int)

    sg = sub.add_parser("surgery", help="two-generator partition surgery")
    sg.add_argument("file")
    sg.add_argument("--b", required=True, metavar="MONOMIAL")
    sg.add_argument("--trace", action="store_true")

    sub.add_parser("corpus", help="replay the embedded golden examples")

    f = sub.add_parser("fuzz", help="seeded random-instance campaign")
    f.add_argument("--n", type=int, default=FuzzConfig.n)
    f.add_argument("--count", type=int, default=FuzzConfig.count)
    f.add_argument("--seed", type=int, default=FuzzConfig.seed)
    f.add_argument("--max-gens", type=int, default=FuzzConfig.max_gens)
    f.add_argument("--max-degree", type=int, default=FuzzConfig.max_degree)
    f.add_argument("--out", default=None, metavar="LOG")
    f.add_argument("--findings", default=None, metavar="LOG")
    return p


def _analysis_report(Q: QuotientPair, cache: EngineCache, field: int) -> dict:
    st = cache.strata(Q)
    verdicts = bounds_report(Q, cache=cache, field=field)
    audit = consistency_audit(Q, cache=cache, field=field)
    bad = [v.to_json() for v in inconsistencies(verdicts, audit)]
    findings = []
    obs = stanley_observation(Q, cache=cache, field=field)
    if obs is not None:
        findings.append(obs)
    return {
        "input": {
            "n": Q.ambient,
            "I": [str(g) for g in Q.I.gens],
            "J": [str(g) for g in Q.J.gens],
            "field": field,
        },
        "normalization_warning": Q.normalization_warning,
        "strata": st.to_json(),
        "sdepth": cache.sdepth(Q).to_json(),
        "depth": cache.depth(Q, field).to_json(),
        "hdepth": cache.hdepth(Q).to_json(),
        "verdicts": [v.to_json() for v in verdicts],
        "audit": audit.to_json(),
        "inconsistent": bad,
        "findings": findings,
    }


def _cmd_analyze(args) -> int:
    char = check_field(args.char)
    report = _analysis_report(load_pair(args.file), EngineCache(), char)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        st = report["strata"]
        print(f"n={report['input']['n']}  I=({', '.join(report['input']['I'])})"
              f"  J=({', '.join(report['input']['J']) or '0'})")
        if report["normalization_warning"]:
            print("warning: J has a generator of degree <= d")
        print(f"strata: d={st['d']} r={st['r']} s={st['s']} q={st['q']} "
              f"|E|={len(st['E'])}")
        print(f"sdepth = {report['sdepth']['value']}")
        print(f"depth  = {report['depth']['depth']} "
              f"(char {report['input']['field']})")
        print(f"hdepth = {report['hdepth']['value']}")
        applicable = [v for v in report["verdicts"] if v["applicable"]]
        print(f"verdicts: {len(applicable)} applicable, "
              f"{len(report['inconsistent'])} inconsistent")
        for v in applicable:
            mark = "ok" if v["consistent"] else "INCONSISTENT"
            print(f"  [{mark}] {v['rule']}: {v.get('claim', '')}")
        for f in report["findings"]:
            print(f"finding: {f['kind']} (sdepth {f['sdepth']} < depth {f['depth']})")
    return EXIT_INCONSISTENT if report["inconsistent"] else EXIT_OK


def _cmd_depth(args) -> int:
    char = check_field(args.char)
    res = depth(load_pair(args.file), char)
    print(f"depth = {res.depth} (char {res.field}, pd = {res.pd}, "
          f"witness multidegree {res.witness_degree})")
    return EXIT_OK


def _cmd_sdepth(args) -> int:
    Q = load_pair(args.file)
    if args.decide is not None:
        cert = sdepth_decide(Q, args.decide)
        if cert is None:
            print(f"sdepth >= {args.decide}: unsat")
        else:
            print(f"sdepth >= {args.decide}: certificate")
            for iv in cert.intervals:
                print(f"  [{iv.lo}, {iv.hi}]")
        return EXIT_OK
    res = sdepth(Q)
    notes = []
    if res.refuted_by is not None:
        notes.append(f"k = {res.refuted_k} refuted by {res.refuted_by}")
    if res.free:
        notes.append(f"{res.free} free variable{'s' if res.free > 1 else ''}")
    print(f"sdepth = {res.value}" + (f"  ({'; '.join(notes)})" if notes else ""))
    for iv in res.certificate.intervals:
        print(f"  [{iv.lo}, {iv.hi}]")
    return EXIT_OK


def _cmd_hdepth(args) -> int:
    Q = load_pair(args.file)
    res = hdepth1_pair(Q)
    print(f"hdepth1 = {res.value}")
    if res.failing_coefficient is not None:
        print(f"  (coefficient {res.failing_coefficient} fails at value+1)")
    return EXIT_OK


def _cmd_herzog(args) -> int:
    rec = herzog_question(args.n)
    flag = "=" if rec["equal"] else "!="
    print(f"n={rec['n']}: hdepth1(m) = {rec['hdepth_m']} {flag} "
          f"hdepth1(S+m) = {rec['hdepth_s_plus_m']}")
    return EXIT_OK


def _cmd_surgery(args) -> int:
    Q = load_pair(args.file)
    b = parse_monomial(args.b)
    outcome = ml1_driver(Q, b)
    payload = outcome.to_json()
    if not args.trace:
        payload.pop("trace", None)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    report = run_corpus()
    for check in report.checks:
        mark = "ok" if check.ok else "MISMATCH"
        print(f"[{mark}] {check.item}: {check.name}")
        if not check.ok:
            print(f"    expected {check.expected!r}")
            print(f"    actual   {check.actual!r}")
    print(f"{sum(c.ok for c in report.checks)}/{len(report.checks)} checks passed")
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def _cmd_fuzz(args) -> int:
    cfg = FuzzConfig(
        n=args.n,
        count=args.count,
        seed=args.seed,
        max_gens=args.max_gens,
        max_degree=args.max_degree,
        out=args.out,
        findings=args.findings,
    )
    report = run_fuzz(cfg)
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_INCONSISTENT if report.inconsistent else EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "depth": _cmd_depth,
    "sdepth": _cmd_sdepth,
    "hdepth": _cmd_hdepth,
    "herzog": _cmd_herzog,
    "surgery": _cmd_surgery,
    "corpus": _cmd_corpus,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except DriverFailure as exc:
        sys.stderr.write(f"driver failure: {exc}\n")
        for line in exc.trace:
            sys.stderr.write(f"  {line}\n")
        return EXIT_INTERNAL
    except (AssertionError, RuntimeError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
