"""Command-line surface: deterministic seeds in, machine-readable reports out.

Every subcommand builds a RunReport listing each assertion it made with an
explicit verdict; the process exits 0 exactly when all assertions pass.
Identical (command, params, seed) produce identical reports apart from the
wall time. `--json` switches the output to JSON; graph files always use
the canonical graph JSON format.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .equivariant import (
    FixedPointFreeInvolution,
    assembled_graph_json_dict,
    build_pair_colouring,
    make_orbit_spec,
    sym_complement,
    symmetric_group,
    verify_colour_group,
)
from .graphs import (
    ColouredGraph,
    check_no_fpf_colour_involution,
    find_witness,
    random_graph,
    saturate,
    witness_queries,
)
from .perms import cycle_string, double_coset_lower_bound
from .spin import (
    COVER_ENUM_MAX_M,
    CoverKind,
    blocking_involutions,
    canonical_fpf_involution,
    enumerate_cover,
    lift,
    order,
    order_rule_table,
    pin_neg,
    supplement_condition_direct,
)


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    command: str
    params: dict
    seed: Optional[int]
    assertions: list[Assertion] = field(default_factory=list)
    wall_time_s: float = 0.0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "assertions": [
                {"name": a.name, "passed": a.passed, "detail": a.detail}
                for a in self.assertions
            ],
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def render_text(self) -> str:
        shown = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"command: {self.command}", f"params: {shown or '(none)'}"]
        for a in self.assertions:
            mark = "PASS" if a.passed else "FAIL"
            suffix = f" - {a.detail}" if a.detail else ""
            lines.append(f"[{mark}] {a.name}{suffix}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({self.wall_time_s:.3f}s)")
        return "\n".join(lines)


def _write_file(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _histogram(G: ColouredGraph) -> dict[int, int]:
    counts = {c: 0 for c in range(1, G.m + 1)}
    for _, _, c in G.pairs():
        counts[c] += 1
    return counts


def cmd_gen_random(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="gen-random",
        params={"n": args.n, "m": args.m, "out": args.out},
        seed=args.seed,
    )
    G = random_graph(args.n, args.m, args.seed)
    _write_file(args.out, G.to_json())
    hist = _histogram(G)
    report.check(
        "graph-written",
        True,
        f"n={G.n} m={G.m} colour histogram "
        + " ".join(f"{c}:{hist[c]}" for c in sorted(hist)),
    )
    if args.dot:
        _write_file(args.dot, G.to_dot())
        report.check("dot-written", True, args.dot)
    return report


def cmd_complement(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="complement",
        params={"m": args.m, "orbits": args.orbits},
        seed=args.seed,
    )
    m = args.m
    if m % 2 == 1:
        spec, ver = sym_complement(m, args.orbits, args.seed)
        report.check(
            "all-elements-consistent",
            ver.all_consistent,
            ver.summary(),
        )
        report.check(
            "kernel-trivial",
            ver.kernel_size == 1,
            f"|K| = {ver.kernel_size} (complement behaviour needs 1)",
        )
        if args.out:
            _write_file(
                args.out,
                json.dumps(assembled_graph_json_dict(spec, ver.graph), sort_keys=True) + "\n",
            )
            report.check("graph-written", True, args.out)
    else:
        G = symmetric_group(m)
        witness = None
        try:
            build_pair_colouring(G, args.seed)
        except FixedPointFreeInvolution as exc:
            witness = exc
        if witness is not None:
            detail = (
                "no pair colouring exists: involution acting as "
                f"{cycle_string(witness.colour_perm)} fixes no colour"
            )
        else:
            detail = "pair colouring unexpectedly succeeded"
        report.check("obstruction-witness", witness is not None, detail)
        graph = random_graph(5, m, args.seed)
        obstruction = check_no_fpf_colour_involution(graph)
        report.check(
            "no-consistent-fpf-involution",
            obstruction.passed,
            obstruction.summary(),
        )
    return report


def cmd_supplement(args: argparse.Namespace) -> RunReport:
    kind = CoverKind(args.cover)
    report = RunReport(
        command="supplement",
        params={"m": args.m, "cover": kind.value, "orbits": args.orbits},
        seed=args.seed,
    )
    m = args.m
    if m > COVER_ENUM_MAX_M and m % 2 == 1:
        report.check(
            "supplement-condition",
            True,
            f"m={m} is odd: every colour involution fixes a colour, so none can "
            f"block the {kind.value} cover; the orbit construction was not run "
            f"(covers are enumerated only for m <= {COVER_ENUM_MAX_M})",
        )
        return report
    if m > COVER_ENUM_MAX_M:
        for k in (CoverKind.TILDE, CoverKind.HAT):
            ok = supplement_condition_direct(m, k)
            p = canonical_fpf_involution(m)
            x = lift(p, k)
            report.check(
                f"supplement-condition-{k.value}",
                ok,
                f"lift of {cycle_string(p)} has order {order(x)} "
                f"(order {order(pin_neg(x))} for the other lift); "
                + ("order 4, cover usable" if ok else "order 2, cover blocked"),
            )
        if not any(a.passed for a in report.assertions):
            report.check(
                "both-covers-blocked",
                False,
                f"m={m}: no supplement arises from either double cover",
            )
        return report
    cover = enumerate_cover(m, kind)
    blockers = blocking_involutions(cover)
    if blockers:
        g = blockers[0]
        report.check(
            "supplement-condition",
            False,
            f"blocking involution: element {g} of order 2 acts as "
            f"{cycle_string(cover.group.phi[g])} with no fixed colour",
        )
        return report
    report.check(
        "supplement-condition",
        True,
        f"every order-2 element of the {kind.value} cover fixes a colour or acts trivially",
    )
    f = build_pair_colouring(cover.group, args.seed)
    spec = make_orbit_spec(cover.group, f, args.orbits, args.seed)
    ver = verify_colour_group(spec)
    report.check("all-elements-consistent", ver.all_consistent, ver.summary())
    report.check(
        "kernel-order-two",
        ver.kernel_size == 2,
        f"|K| = {ver.kernel_size} (supplement intersection needs 2)",
    )
    expected_kernel = tuple(sorted((0, cover.neg_unit_label)))
    report.check(
        "kernel-is-centre",
        ver.kernel == expected_kernel,
        f"K = {list(ver.kernel)}, the labels of +1 and -1",
    )
    if args.out:
        _write_file(
            args.out,
            json.dumps(assembled_graph_json_dict(spec, ver.graph), sort_keys=True) + "\n",
        )
        report.check("graph-written", True, args.out)
    return report


def cmd_cover_table(args: argparse.Namespace) -> RunReport:
    kind = CoverKind(args.cover)
    mode = "direct" if args.direct else "auto"
    report = RunReport(
        command="cover-table",
        params={"m": args.m, "cover": kind.value, "mode": mode},
        seed=None,
    )
    table = order_rule_table(args.m, kind, mode=mode)
    for row in table.rows:
        report.check(
            f"order-rule-r{row.r}",
            row.passed,
            f"observed {list(row.observed_orders)}, expected {row.expected_order}, "
            f"{row.elements_checked} lifts checked",
        )
    if args.m % 8 == 0:
        # the r = m/2 row holds the lifts of the fixed-point-free involutions
        half = next(row for row in table.rows if row.r == args.m // 2)
        report.check(
            "supplement-note",
            half.observed_orders == (2,),
            f"m={args.m}: fixed-point-free involutions lift to order "
            f"{list(half.observed_orders)} in the {kind.value} cover; order 2 means "
            f"no supplement from the {kind.value} cover",
        )
    print(table.render_text(), file=sys.stderr)
    return report


def cmd_saturate(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="saturate",
        params={
            "in": args.infile,
            "k": args.k,
            "rounds": args.rounds,
            "out": args.out,
        },
        seed=args.seed,
    )
    G = ColouredGraph.from_json(Path(args.infile).read_text(encoding="utf-8"))
    H, achieved = saturate(G, args.k, args.seed, rounds=args.rounds)
    report.check(
        "achieved",
        achieved,
        f"grew from {G.n} to {H.n} vertices",
    )
    if achieved:
        unsatisfied = sum(
            1 for q in witness_queries(H.n, H.m, args.k) if find_witness(H, q) is None
        )
        report.check(
            "witness-sweep",
            unsatisfied == 0,
            f"exhaustive sweep of all queries of size <= {args.k}: "
            f"{unsatisfied} unsatisfied",
        )
    _write_file(args.out, H.to_json())
    report.check("graph-written", True, args.out)
    return report


def cmd_obstruction(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="obstruction",
        params={"in": args.infile},
        seed=None,
    )
    G = ColouredGraph.from_json(Path(args.infile).read_text(encoding="utf-8"))
    result = check_no_fpf_colour_involution(G)
    report.check("no-consistent-fpf-involution", result.passed, result.summary())
    return report


def cmd_coset_bound(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="coset-bound",
        params={"m": args.m, "k": args.k},
        seed=None,
    )
    if args.m is not None and args.k is not None:
        value = double_coset_lower_bound(args.m, args.k)
        report.check(
            "bound",
            value,
            f"m^(k^2) > m*(k!)^2 for m={args.m}, k={args.k}: {value}",
        )
        return report
    failures = [
        (m, k)
        for m in range(2, 11)
        for k in range(2, 11)
        if not double_coset_lower_bound(m, k)
    ]
    report.check(
        "bound-sweep",
        not failures,
        f"all m, k in 2..10 satisfy the bound (failures: {failures})",
    )
    k1 = [m for m in range(2, 11) if double_coset_lower_bound(m, 1)]
    report.check(
        "k1-fails",
        not k1,
        "the bound correctly fails at k = 1 for every m in 2..10",
    )
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coloursym",
        description="Edge-coloured complete graphs and their colour symmetries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-random", help="write a seeded random coloured graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m", type=int, required=True, help="palette size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser(
        "complement",
        help="verify the colour-symmetry complement (odd m) or the obstruction (even m)",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--orbits", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the assembled graph JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser(
        "supplement", help="test a double cover as a supplement and verify it"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cover", choices=["tilde", "hat"], required=True)
    p.add_argument("--orbits", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_supplement)

    p = sub.add_parser("cover-table", help="orders of lifted transposition products")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cover", choices=["tilde", "hat"], required=True)
    p.add_argument("--direct", action="store_true", help="skip cover enumeration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover_table)

    p = sub.add_parser("saturate", help="add witnesses until size-k queries succeed")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser(
        "obstruction", help="exhaustive fixed-point-free recolouring check"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("coset-bound", help="the m^(k^2) > m*(k!)^2 inequality")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coset_bound)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - start
    if getattr(args, "json", False):
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
