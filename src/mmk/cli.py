"""Command-line front end.

Subcommands: check, solve, dual, signed, bounded-dual, xor, case,
figure.  Problem files are JSON; rationals serialize as "p/q" strings.
Exit codes: 0 success/feasible, 2 infeasible, 1 malformed input,
unknown name, an output file that cannot be written, or an LP the
solver refuses (a size cap) or cannot certify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import case_studies, feasibility, lp_core, transport, xor_model
from .measures import (
    DomainError,
    IndexSet,
    MarginalFamily,
    as_fraction,
    as_int,
    cell_sums,
    integral,
    is_consistent,
    measure_from_json,
    measure_to_json,
    potentials_to_json,
    uniform,
)


class MalformedInput(Exception):
    pass


def _rat(value) -> str:
    return str(Fraction(value))


def load_problem(path: str):
    """Parse a problem file into (family, cost or None, refs or None).

    A JSON number with a fraction or exponent is read from its decimal
    text (0.1 is 1/10, not the double nearest it), through as_fraction's
    exponent guard; an integer is read as an int.
    """
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=str)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, >4300 digits, too deep
        raise MalformedInput(f"cannot read problem file: {exc}") from exc
    try:
        n = as_int(data["n"])
        k = as_int(data["k"])
        axes = [as_int(v) for v in data["axes"]]
        if not isinstance(data["marginals"], dict):
            raise DomainError("marginals must be an object keyed by index set")
        marginals = {}
        for key, obj in data["marginals"].items():
            alpha = IndexSet.from_key(key)
            marginals[alpha] = measure_from_json(obj, axes=tuple(alpha))
        fam = MarginalFamily(n, k, axes, marginals)
        cost = None
        if "cost" in data:
            if not isinstance(data["cost"], dict):
                raise DomainError("cost must be an object with weights")
            if not isinstance(data["cost"]["weights"], list):
                raise DomainError("cost weights must be a JSON array")
            values = [as_fraction(v) for v in data["cost"]["weights"]]
            if [as_int(v) for v in data["cost"].get("axes", axes)] != axes:
                raise DomainError("cost axes do not match problem axes")
            cost = transport.CostGrid(fam.full_grid(), values)
        refs = None
        if "refs" in data:
            refs = [
                measure_from_json(obj, axes=(i + 1,))
                for i, obj in enumerate(data["refs"])
            ]
        return fam, cost, refs
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise MalformedInput(f"malformed problem file: {exc}") from exc


def default_refs(fam: MarginalFamily):
    return [uniform([s], axes=[i + 1]) for i, s in enumerate(fam.sizes)]


def write_pgm(path: str, rows, maxval: int = 255) -> None:
    """Write a 2-d array of values in [0, 1] as an ASCII P2 graymap."""
    height = len(rows)
    width = len(rows[0]) if height else 0
    lines = [f"P2", f"{width} {height}", str(maxval)]
    for row in rows:
        lines.append(" ".join(str(round(float(v) * maxval)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_check(args) -> int:
    fam, _, _ = load_problem(args.file)
    consistency = is_consistent(fam)
    if not consistency:
        _emit(
            {
                "consistent": False,
                "failures": [
                    [a.key(), b.key()] for a, b in consistency.failures
                ],
            }
        )
        return 2
    verdict = feasibility.kellerer_check(fam, arithmetic=args.arithmetic)
    if verdict.feasible:
        _emit(
            {
                "consistent": True,
                "feasible": True,
                "witness": measure_to_json(verdict.witness),
            }
        )
        return 0
    _emit(
        {
            "consistent": True,
            "feasible": False,
            "certificate": potentials_to_json(verdict.potentials),
        }
    )
    return 2


def _load_with_cost(args):
    """(family, cost) of the problem file; MalformedInput if it has no cost."""
    fam, cost, _ = load_problem(args.file)
    if cost is None:
        raise MalformedInput(f"{args.command} requires a cost tensor in the problem file")
    return fam, cost


def cmd_solve(args) -> int:
    fam, cost = _load_with_cost(args)
    _emit(transport.verify_gap(fam, cost, arithmetic=args.arithmetic).to_json())
    return 0


def cmd_dual(args) -> int:
    fam, cost = _load_with_cost(args)
    potentials, value = transport.solve_dual(fam, cost, arithmetic=args.arithmetic)
    _emit({"value": _rat(value), "potentials": potentials_to_json(potentials)})
    return 0


def cmd_signed(args) -> int:
    fam, _, refs = load_problem(args.file)
    if refs is None:
        refs = default_refs(fam)
    mu = feasibility.signed_uniting(fam, refs)
    _emit({"signed_uniting": measure_to_json(mu)})
    return 0


def cmd_bounded_dual(args) -> int:
    fam, cost = _load_with_cost(args)
    d, value = transport.solve_dual(fam, cost)
    out = transport.extract_bounded_dual(fam, cost, d, value)
    _emit({"value": _rat(integral(fam, out)), "potentials": potentials_to_json(out)})
    return 0


def _parse_dyadic(text) -> xor_model.Dyadic:
    if text is None:
        raise DomainError("a dyadic operand is missing")
    return xor_model.Dyadic.from_fraction(as_fraction(text))


def _write_slice(z: xor_model.Dyadic, depth: int, out: str) -> int:
    """Write the Sierpinski slice at height z as a P2 image and print its path."""
    write_pgm(out, xor_model.sierpinski_slice(z, depth), maxval=1)
    print(out)
    return 0


def cmd_xor(args) -> int:
    if args.op == "slice":
        z = _parse_dyadic(args.z)
        out = args.out or f"sierpinski_z{z.a}_{z.p}_d{args.depth}.pgm"
        return _write_slice(z, args.depth, out)
    x, y = _parse_dyadic(args.x), _parse_dyadic(args.y)
    if args.op == "xor":
        print(_rat(xor_model.xor_dyadic(x, y).value))
    elif args.op == "integral":
        print(_rat(xor_model.xor_integral(x, y)))
    else:  # argparse leaves only "f"
        print(_rat(xor_model.dual_f(x, y)))
    return 0


def _case_unreachable(args):
    N = 12 if args.N is None else args.N
    fam, cost, alpha0 = case_studies.build_unreachable(N)
    cells = []
    m_max = min(4, N - 2)

    for m in range(1, m_max + 1):
        bound = case_studies.unreachable_gamma_bound(m, alpha0)
        vals = [
            case_studies.min_mass_at_cell(
                fam, tuple(c - 1 for c in pt), arithmetic="float"
            )
            for pt in case_studies._a_points(m)
        ]
        cells.append(
            {
                "m": m,
                "lower_bound": float(bound),
                "lp_min": [float(v) for v in vals],
            }
        )
    sums = case_studies.diagnose_dual_growth(N)
    return {
        "case": "unreachable",
        "N": N,
        "alpha0": _rat(alpha0),
        "gamma_bounds": cells,
        "diagonal_sums": [float(s) for s in sums],
        "weighted_growth": case_studies.weighted_diagonal_growth(sums),
    }


def _case_nonstrong(args):
    N = 10 if args.N is None else args.N
    fam, cost = case_studies.build_nonstrong(N)
    potentials, value = transport.solve_dual(fam, cost, arithmetic=args.arithmetic)
    grid = fam.full_grid()
    totals = cell_sums(grid, potentials)
    diag = [_rat(totals[grid.ravel((n - 1, n - 1, n - 1))]) for n in range(1, N + 1)]
    return {
        "case": "nonstrong",
        "N": N,
        "dual_value": _rat(value),
        "F_diagonal": diag,
    }


def _case_discontinuous(args):
    N = 12 if args.N is None else args.N
    fam, cost, dual = case_studies.build_discontinuous(N)
    pi = case_studies.composite_pi(N)
    pots = dual.potentials(N)
    value = integral(fam, pots)
    primal = sum(w * c for w, c in zip(pi.weights, cost.values))
    slack = transport.complementary_slackness(pi, pots, cost)
    return {
        "case": "discontinuous",
        "N": N,
        "dual_value": _rat(value),
        "composite_cost": _rat(primal),
        "slack_cells": len(slack),
        "total_cells": N**3,
    }


def _case_uniformband(args):
    N = 24 if args.N is None else args.N
    fam, cost = case_studies.build_uniformband(N)
    pi, value = transport.solve_primal(fam, cost, arithmetic="float")
    grid = fam.full_grid()
    outdir = args.out or "."
    paths = []
    peak = max(float(w) for w in pi.weights) or 1.0
    for z in range(3):
        raster = [
            [float(pi.weight((i, j, z))) / peak for j in range(N)]
            for i in range(N)
        ]
        path = os.path.join(outdir, f"uniformband_z{z}.pgm")
        write_pgm(path, raster)
        paths.append(path)
    return {
        "case": "uniformband",
        "N": N,
        "value": float(value),
        "slices": paths,
    }


def _case_plane_duals(args):
    checks = []
    for A in (0, 1, 2):
        x, y = Fraction(1, 3), Fraction(1, 4)
        z = 1 - x - y
        lhs = (
            case_studies.eval_fA(A, x, y)
            + case_studies.eval_fA(A, x, z)
            + case_studies.eval_fA(A, y, z)
        )
        checks.append({"A": A, "plane_value": _rat(lhs), "xyz": _rat(x * y * z)})
    return {"case": "plane-duals", "kappa": _rat(case_studies.FA_KAPPA), "checks": checks}


def _case_nonuniform222(args):
    fam = case_studies.build_nonuniform_2x2x2()
    values = case_studies.verify_unique_uniting(
        fam, list(fam.full_grid().cells()), arithmetic=args.arithmetic
    )
    return {
        "case": "nonuniform222",
        "unique": values is not None,
        "witness": {
            ",".join(map(str, cell)): _rat(v) for cell, v in (values or {}).items()
        },
    }


_CASES = {
    "unreachable": _case_unreachable,
    "nonstrong": _case_nonstrong,
    "discontinuous": _case_discontinuous,
    "uniformband": _case_uniformband,
    "plane-duals": _case_plane_duals,
    "nonuniform222": _case_nonuniform222,
}


def cmd_case(args) -> int:
    handler = _CASES.get(args.name)
    if handler is None:
        print(f"unknown case {args.name!r}; choose from {sorted(_CASES)}", file=sys.stderr)
        return 1
    _emit(handler(args))
    return 0


def cmd_figure(args) -> int:
    if args.name == "sierpinski":
        out = args.out or "sierpinski.pgm"
        return _write_slice(_parse_dyadic(args.z), args.depth, out)
    if args.name == "uniformband":
        report = _case_uniformband(args)
        _emit(report)
        return 0
    print(f"unknown figure {args.name!r}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmk",
        description="Discrete multistochastic (n,k) Monge-Kantorovich toolkit",
    )
    parser.add_argument(
        "--arithmetic",
        choices=["exact", "float"],
        default="exact",
        help="LP arithmetic mode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in [
        ("check", cmd_check),
        ("solve", cmd_solve),
        ("dual", cmd_dual),
        ("signed", cmd_signed),
        ("bounded-dual", cmd_bounded_dual),
    ]:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file (JSON)")
        p.set_defaults(handler=fn)

    px = sub.add_parser("xor")
    px.add_argument("op", choices=["xor", "integral", "f", "slice"])
    px.add_argument("x", nargs="?", help="dyadic rational, e.g. 3/8")
    px.add_argument("y", nargs="?", help="dyadic rational")
    px.add_argument("--z", default="0", help="slice height (dyadic)")
    px.add_argument("--depth", type=int, default=5)
    px.add_argument("--out", help="output path for slice images")
    px.set_defaults(handler=cmd_xor)

    pc = sub.add_parser("case")
    pc.add_argument("name")
    pc.add_argument("--N", type=int)
    pc.add_argument("--out", help="output directory for images")
    pc.set_defaults(handler=cmd_case)

    pf = sub.add_parser("figure")
    pf.add_argument("name")
    pf.add_argument("--N", type=int)
    pf.add_argument("--z", default="0", help="slice height (dyadic)")
    pf.add_argument("--depth", type=int, default=5)
    pf.add_argument("--out", help="output path")
    pf.set_defaults(handler=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except transport.InfeasibleFamilyError:  # solve, dual, bounded-dual
        _emit({"feasible": False})
        return 2
    except MalformedInput as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except lp_core.LPError as exc:
        print(f"cannot solve: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output file: load_problem reports its own
        print(f"cannot write: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
