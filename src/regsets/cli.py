"""Command-line interface.

Exit codes: 0 = decided true, certificate valid, or survey without
anomalies; 1 = decided false (``check``, ``construct``, ``perfect-code``),
certificate INVALID (``verify``), or a survey that reported an anomaly
(``survey``); 2 = error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .config import Limits, limits_from_env
from .errors import PreconditionViolated, RegsetError
from .group_core import all_subgroups, is_normal, normalizer
from .harness import (
    certificate_to_json_text,
    group_from_arg,
    subgroup_from_arg,
    survey,
    verify_certificate_file,
    write_certificate,
)
from .regular_sets import (
    PairSpec,
    check_normal_chain,
    construct_normal_chain,
    decide_regular_set,
    perfect_code_pair,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsets",
        description="Decide and construct (r,s)-regular subgroup sets and "
                    "perfect codes in coset graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(p):
        p.add_argument("group", help="preset:..., inline JSON, or a spec file path")
        p.add_argument("--H", default="trivial", dest="H",
                       help="subgroup: ids '0,2', generators 'gen:3', 'trivial', 'all'")
        p.add_argument("--A", required=True, dest="A", help="subgroup (same syntax)")

    p = sub.add_parser("check", help="decide (r,s)-regularity by complete search")
    add_pair_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--emit", help="write the certificate JSON here")

    p = sub.add_parser("construct", help="build a witness from the normal-chain recipe")
    add_pair_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--emit", help="write the certificate JSON here")

    p = sub.add_parser("perfect-code", help="decide the (0,1) case")
    add_pair_args(p)
    p.add_argument("--emit", help="write the certificate JSON here")

    p = sub.add_parser("survey", help="cross-validate all criteria over all subgroup pairs")
    p.add_argument("group")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("verify", help="re-check a stored certificate")
    p.add_argument("certificate", help="path to a certificate JSON file")

    p = sub.add_parser("show", help="print subgroups and normalizers")
    p.add_argument("group")
    return parser


def _emit(cert, path: Optional[str]) -> None:
    if path:
        write_certificate(cert, path)
        print(f"certificate written to {path}")
    else:
        print(certificate_to_json_text(cert), end="")


def _cmd_check(args, limits: Limits) -> int:
    G = group_from_arg(args.group, limits=limits)
    pair = PairSpec(G, subgroup_from_arg(G, args.H), subgroup_from_arg(G, args.A))
    cert = decide_regular_set(pair, args.r, args.s, limits=limits)
    if cert is None:
        print(f"({args.r},{args.s}): no connection set exists (search complete)")
        return 1
    print(f"({args.r},{args.s}): regular set, degree {cert.degree}")
    _emit(cert, args.emit)
    return 0


def _cmd_construct(args, limits: Limits) -> int:
    G = group_from_arg(args.group, limits=limits)
    pair = PairSpec(G, subgroup_from_arg(G, args.H), subgroup_from_arg(G, args.A))
    report = check_normal_chain(pair, args.r, args.s)
    for cid, ok, wit in zip(report.condition_ids, report.outcomes, report.witnesses):
        extra = f" (witness element {wit})" if wit is not None and not ok else ""
        print(f"condition {cid}: {'pass' if ok else 'FAIL'}{extra}")
    if not report.verdict:
        return 1
    cert = construct_normal_chain(pair, args.r, args.s)
    print(f"constructed U with {len(cert.connection)} elements, degree {cert.degree}")
    _emit(cert, args.emit)
    return 0


def _cmd_perfect_code(args, limits: Limits) -> int:
    G = group_from_arg(args.group, limits=limits)
    pair = PairSpec(G, subgroup_from_arg(G, args.H), subgroup_from_arg(G, args.A))
    ok, cert = perfect_code_pair(pair, limits=limits)
    print(f"perfect code: {'yes' if ok else 'no'}")
    if ok:
        _emit(cert, args.emit)
    return 0 if ok else 1


def _cmd_survey(args, limits: Limits) -> int:
    G = group_from_arg(args.group, limits=limits)
    report = survey(G, limits=limits)
    print(report.to_text(), end="")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    return 0 if not report.anomalies else 1


def _cmd_verify(args, limits: Limits) -> int:
    ok = verify_certificate_file(args.certificate, limits=limits)
    print("certificate valid" if ok else "certificate INVALID")
    return 0 if ok else 1


def _cmd_show(args, limits: Limits) -> int:
    G = group_from_arg(args.group, limits=limits)
    subs = all_subgroups(G, limits=limits)  # checks the cap before any output
    print(f"{G.label}: order {G.order}")
    orders: dict[int, int] = {}
    for a in range(G.order):
        k = G.element_order(a)
        orders[k] = orders.get(k, 0) + 1
    print("element orders: " + ", ".join(f"{k}:{v}" for k, v in sorted(orders.items())))
    print(f"{len(subs)} subgroups:")
    full = G.full_subgroup()
    for H in subs:
        N = normalizer(G, H)
        flag = "normal" if is_normal(H, full) else f"|N_G(H)|={N.order}"
        print(f"  order {H.order:>3}  {flag:>12}  members {list(H.members)}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "construct": _cmd_construct,
    "perfect-code": _cmd_perfect_code,
    "survey": _cmd_survey,
    "verify": _cmd_verify,
    "show": _cmd_show,
}


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, limits_from_env())
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (RegsetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
