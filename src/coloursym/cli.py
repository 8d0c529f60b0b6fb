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
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .equivariant import (
    ColourGroupReport,
    FixedPointFreeInvolution,
    build_pair_colouring,
    make_orbit_spec,
    sym_complement,
    verify_colour_group,
)
from .graphs import (
    ColouredGraph,
    ObstructionReport,
    check_no_fpf_colour_involution,
    check_palette,
    find_witness,  # unused here; perfbench/tracing.py patches cli.find_witness
    random_graph,
    read_graph,
    row_blocks,
    saturate,
)
from .perms import cycle_string, double_coset_lower_bound, fixed_points
from .spin import (
    COVER_ENUM_MAX_M,
    CoverKind,
    blocking_involutions,  # unused here; perfbench/tracing.py patches cli.blocking_involutions
    broken_schur_relation,
    canonical_fpf_involution,
    enumerate_cover,
    lift,  # unused here; perfbench/tracing.py patches cli.lift
    order,  # unused here; perfbench/tracing.py patches cli.order
    order_rule_table,
    predicted_lift_order,
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


def _histogram(G: ColouredGraph) -> list[int]:
    """Entry c - 1 counts the pairs of colour c. The matrix is symmetric with
    a zero diagonal, so it holds each pair twice and bin 0 holds the diagonal.
    Counted a block of rows at a time, since bincount copies its input to intp."""
    counts = np.zeros(G.m + 1, dtype=np.int64)
    for rows in row_blocks(G.n, G.n):
        counts += np.bincount(G.colours[rows].ravel(), minlength=G.m + 1)
    return (counts[1:] // 2).tolist()


def _write_graph(path: str, graph: ColouredGraph, labels: Optional[list] = None) -> None:
    """Stream graph JSON to path; with labels, as {"graph": ..., "vertex_labels": labels}."""
    tail = "" if labels is None else f', "vertex_labels": {json.dumps(labels, sort_keys=True)}}}'
    with open(path, "w", encoding="utf-8") as out:
        out.write("" if labels is None else '{"graph": ')
        out.writelines(graph.json_chunks())
        out.write(tail + "\n")


def _check_writable(*paths: Optional[str]) -> None:
    """Raise the OSError that writing each given path would raise, or
    ValueError if two of them name one file, before any work; a file that
    did not exist is removed again."""
    opened: list[str] = []
    made: list[str] = []
    try:
        for path in filter(None, paths):
            existed = os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                made.append(path)
            for other in opened:
                if os.path.samefile(other, path):
                    raise ValueError(f"output paths {other} and {path} name the same file")
            opened.append(path)
    finally:
        for path in made:
            os.remove(path)


def _refuse_unread(args: argparse.Namespace, flags: tuple[str, ...], needs: str) -> None:
    """Raise before any work when the run's branch reads none of the given
    flags but some were passed: each would be dropped without a word."""
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        verb = "needs" if len(given) == 1 else "need"
        raise ValueError(
            f"{args.command} {' and '.join(given)} {verb} {needs}, "
            f"where the orbit graph is built; got m={args.m}"
        )


def _write_orbit_graph(report: RunReport, path: str, ver: ColourGroupReport) -> None:
    size = ver.group_size  # each flat vertex id is labelled with its orbit and group element
    labels = [{"orbit": v // size, "element": v % size} for v in range(ver.graph.n)]
    _write_graph(path, ver.graph, labels)
    report.check("graph-written", True, path)


def cmd_gen_random(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="gen-random",
        params={"n": args.n, "m": args.m, "out": args.out},
        seed=args.seed,
    )
    G = random_graph(args.n, args.m, args.seed)
    _write_graph(args.out, G)
    hist = _histogram(G)
    report.check(
        "graph-written",
        True,
        f"n={G.n} m={G.m} colour histogram "
        + " ".join(f"{c}:{count}" for c, count in enumerate(hist, start=1)),
    )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as out:
            out.writelines(G.dot_chunks())
        report.check("dot-written", True, args.dot)
    return report


def cmd_complement(args: argparse.Namespace) -> RunReport:
    m = args.m
    check_palette(m)
    if m % 2 == 0:
        _refuse_unread(args, ("out", "orbits"), "odd m")
    orbits = 2 if args.orbits is None else args.orbits
    report = RunReport(
        command="complement",
        params={"m": m, "orbits": orbits},
        seed=args.seed,
    )
    if m % 2 == 1:
        _, ver = sym_complement(m, orbits, args.seed)
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
            _write_orbit_graph(report, args.out, ver)
    else:
        # Sym(m) holds the involution p, and the pair (identity, p) would need a colour p fixes
        p = canonical_fpf_involution(m)
        report.check(
            "obstruction-witness",
            not fixed_points(p),
            f"no pair colouring exists: involution acting as {cycle_string(p)} fixes no colour",
        )
        obstruction = ObstructionReport(m=m, n=5)  # the argument holds on every graph
        report.check(
            "no-consistent-fpf-involution",
            obstruction.passed,
            obstruction.summary(),
        )
    return report


def cmd_supplement(args: argparse.Namespace) -> RunReport:
    kind = CoverKind(args.cover)
    m = args.m
    check_palette(m)
    if m > COVER_ENUM_MAX_M:
        _refuse_unread(args, ("out", "orbits", "seed"), f"m <= {COVER_ENUM_MAX_M}")
    orbits = 1 if args.orbits is None else args.orbits
    seed = 0 if args.seed is None else args.seed
    report = RunReport(
        command="supplement",
        params={"m": m, "cover": kind.value, "orbits": orbits},
        seed=seed,
    )
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
        # fixed-point-free involutions, products of m/2 disjoint transpositions, are all conjugate:
        # all their lifts share one order, which decides a cover; the other is reported only if
        # the run's cover is blocked
        p = canonical_fpf_involution(m)
        other = CoverKind.HAT if kind is CoverKind.TILDE else CoverKind.TILDE
        for k in (kind, other):
            broken = broken_schur_relation(m, k)
            lift_order = None if broken else predicted_lift_order(m // 2, k)
            report.check(
                f"supplement-condition-{k.value}",
                lift_order == 4,
                f"Schur relations fail in the {k.value} kind: {broken}" if broken else
                f"Schur relations + parity + conjugacy: both lifts of {cycle_string(p)} "
                f"have order {lift_order}; cover " + ("usable" if lift_order == 4 else "blocked"),
            )
            if lift_order != 2:  # usable, or undecided
                break
        else:
            report.check(
                "both-covers-blocked",
                False,
                f"m={m}: no supplement arises from either double cover",
            )
        return report
    cover = enumerate_cover(m, kind)
    try:
        # the colouring visits every involution, so it fails exactly when one blocks
        f = build_pair_colouring(cover.group, seed)
    except FixedPointFreeInvolution as exc:
        report.check(
            "supplement-condition",
            False,
            f"blocking involution: element {exc.element} of order 2 acts as "
            f"{cycle_string(exc.colour_perm)} with no fixed colour",
        )
        return report
    report.check(
        "supplement-condition",
        True,
        f"every order-2 element of the {kind.value} cover fixes a colour or acts trivially",
    )
    spec = make_orbit_spec(cover.group, f, orbits, seed)
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
        _write_orbit_graph(report, args.out, ver)
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
    G = read_graph(args.infile)
    H, achieved = saturate(G, args.k, args.seed, rounds=args.rounds)
    report.check(
        "achieved",
        achieved,
        f"grew from {G.n} to {H.n} vertices",
    )
    if achieved:  # saturate's last sweep found none missing among the queries left open
        report.check(
            "witness-sweep",
            True,
            f"every query of size <= {args.k} has a witness: the first sweep read all "
            "of them, each later one those on a vertex it added: 0 unsatisfied",
        )
    _write_graph(args.out, H)
    report.check("graph-written", True, args.out)
    return report


def cmd_obstruction(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="obstruction",
        params={"in": args.infile},
        seed=None,
    )
    G = read_graph(args.infile)
    result = check_no_fpf_colour_involution(G)
    report.check("no-consistent-fpf-involution", result.passed, result.summary())
    return report


def cmd_coset_bound(args: argparse.Namespace) -> RunReport:
    report = RunReport(
        command="coset-bound",
        params={"m": args.m, "k": args.k},
        seed=None,
    )
    if (args.m is None) != (args.k is None):
        raise ValueError("coset-bound takes --m and --k together, or neither")
    if args.m is not None:
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


_ONLY = f"m <= {COVER_ENUM_MAX_M} only"
# each command: its help, its function, and its arguments besides -h and --json
_COMMANDS = {
    "gen-random": ("write a seeded random coloured graph", cmd_gen_random, [
        ("--n", {"type": int, "required": True, "help": "vertex count"}),
        ("--m", {"type": int, "required": True, "help": "palette size"}),
        ("--seed", {"type": int, "default": 0}),
        ("--out", {"required": True, "help": "output graph JSON path"}),
        ("--dot", {"default": None, "help": "also write a DOT rendering here"}),
    ]),
    "complement": (
        "verify the colour-symmetry complement (odd m) or the obstruction (even m)",
        cmd_complement, [
            ("--m", {"type": int, "required": True}),
            ("--orbits", {"type": int, "default": None,
                          "help": "orbit copies, odd m only (default 2)"}),
            ("--seed", {"type": int, "default": 0}),
            ("--out", {"default": None, "help": "write the assembled graph JSON here (odd m only)"}),
        ]),
    "supplement": ("test a double cover as a supplement and verify it", cmd_supplement, [
        ("--m", {"type": int, "required": True}),
        ("--cover", {"choices": ["tilde", "hat"], "required": True}),
        ("--orbits", {"type": int, "default": None, "help": f"orbit copies, {_ONLY} (default 1)"}),
        ("--seed", {"type": int, "default": None, "help": f"colouring seed, {_ONLY} (default 0)"}),
        ("--out", {"default": None, "help": f"write the assembled graph JSON here, {_ONLY}"}),
    ]),
    "cover-table": ("orders of lifted transposition products", cmd_cover_table, [
        ("--m", {"type": int, "required": True}),
        ("--cover", {"choices": ["tilde", "hat"], "required": True}),
        ("--direct", {"action": "store_true", "help": "skip cover enumeration"}),
    ]),
    "saturate": ("add witnesses until size-k queries succeed", cmd_saturate, [
        ("--in", {"dest": "infile", "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--rounds", {"type": int, "default": 8}),
        ("--out", {"required": True}),
    ]),
    "obstruction": ("no 2-cycle meets a fixed-point-free recolouring", cmd_obstruction, [
        ("--in", {"dest": "infile", "required": True}),
    ]),
    "coset-bound": ("the m^(k^2) > m*(k!)^2 inequality", cmd_coset_bound, [
        ("--m", {"type": int, "default": None}),
        ("--k", {"type": int, "default": None}),
    ]),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv. Every command is registered with its name and
    help, so the usage, the choices and -h read the same for any argv; only
    the invoked command, the first argument that names one, gets its
    arguments, since argparse never reads the others."""
    parser = argparse.ArgumentParser(
        prog="coloursym",
        description="Edge-coloured complete graphs and their colour symmetries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (summary, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, add_help=name == invoked)
        if name == invoked:
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.add_argument("--json", action="store_true")
            p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    start = time.perf_counter()
    try:
        _check_writable(getattr(args, "out", None), getattr(args, "dot", None))
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
