"""Command-line interface.

Subcommands: generate, validate, distortion, reduce, export, survey,
enumerate.  Exit codes: 0 on success, 1 when a knot fails validation or an
assertion-style check, 2 for usage and parse problems.  Output is
deterministic given the same inputs and flags; exact values print as
reduced fractions ("a/b", or a bare integer when the denominator is 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

from .certificate import certify_distortion
from .distortion import distortion_value, format_exact, vertex_distortion
from .explorer import CENSUS_CAP, census_walks, classify_distortion_one
from .io import (
    dump_tabulation_json,
    knot_to_json,
    knot_to_obj,
    knot_to_vertex_csv,
    load_knot_text,
    sniff_kind,
)
from .knot import KnotError, LatticeKnot
from .oracle import vertex_distortion_oracle
from .reduction import Direction, ReductionError, ReductionMove, apply_reduction
from .reduction import is_irreducible
from .torus import (
    distortion_formula_even_large,
    distortion_formula_even_small,
    distortion_formula_odd,
    edge_length_formula,
    generate_torus_tabulation,
    torus_knot,
    verify_structure,
)

USAGE_ERROR = 2
CHECK_ERROR = 1
SURVEY_CAP = 200  # the survey builds every family member up to --max-p


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_knot(path: str) -> tuple[LatticeKnot, int | None]:
    # a spreadsheet's "CSV UTF-8" file starts with a byte-order mark
    text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    kind = sniff_kind(path, text)
    return load_knot_text(text, kind)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.p < 2:
        print("error: --p must be at least 2", file=sys.stderr)
        return USAGE_ERROR
    tab = generate_torus_tabulation(args.p)
    _write_output(dump_tabulation_json(tab, torus_p=args.p), args.output)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    K, torus_p = _load_knot(args.input)
    print(f"simple, closed, {K.stick_count} sticks, length {K.edge_length}")
    if torus_p is None:
        return 0
    # compare sizes first, so that a wrong tag never builds a huge knot
    if (6 * torus_p, edge_length_formula(torus_p)) == (K.stick_count, K.edge_length):
        family = torus_knot(torus_p)
        if family.canonical_tabulation()[0] == K.canonical_tabulation()[0]:
            report = verify_structure(torus_p, family)
            verdict = "ok" if report.ok else f"FAILED ({', '.join(report.failed)})"
            print(f"torus structure checks (p={torus_p}): {verdict}")
            return 0 if report.ok else CHECK_ERROR
    print(
        f"torus tag p={torus_p}: conformation does not match the "
        "generated family member",
        file=sys.stderr,
    )
    return CHECK_ERROR


def cmd_distortion(args: argparse.Namespace) -> int:
    K, _ = _load_knot(args.input)
    if not (args.pairs or args.oracle):
        print(format_exact(distortion_value(K)))
        return 0
    report = vertex_distortion(K)
    if args.oracle:  # before printing, so that a knot too long to list prints nothing
        certificate = certify_distortion(K)
        if certificate.certified:
            value, pairs = certificate.value, certificate.realizing_pairs
        else:
            value, pairs = vertex_distortion_oracle(K)
    print(format_exact(report.value))
    if args.pairs:
        for i, j in report.realizing_pairs:
            print(f"{i} {j}")
    if args.oracle:
        if value != report.value or pairs != report.realizing_pairs:
            print(
                f"oracle mismatch: kernel {format_exact(report.value)} vs "
                f"oracle {format_exact(value)}",
                file=sys.stderr,
            )
            return CHECK_ERROR
        print("oracle: agree")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    move = (args.stick, args.direction, args.amount, args.output)
    if args.check_irreducible and any(option is not None for option in move):
        print("error: --check-irreducible applies no move; it takes no -o, --stick, "
              "--direction or --amount", file=sys.stderr)
        return USAGE_ERROR
    K, _ = _load_knot(args.input)
    if args.check_irreducible:
        report = is_irreducible(K)
        if report.irreducible:
            print("irreducible")
        else:
            print("reducible")
            for stick, direction, amount in report.witnesses:
                print(f"{stick} {direction.value} {amount}")
        return 0
    if args.stick is None or args.direction is None or args.amount is None:
        print(
            "error: a move needs --stick, --direction and --amount "
            "(or use --check-irreducible)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    direction = Direction.parse(args.direction)
    reduced = apply_reduction(K, ReductionMove(args.stick, direction, args.amount))
    _write_output(knot_to_vertex_csv(reduced), args.output)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    K, torus_p = _load_knot(args.input)
    if args.format == "obj":
        text = knot_to_obj(K)
    elif args.format == "csv":
        text = knot_to_vertex_csv(K)
    else:
        text = knot_to_json(K, torus_p)
    _write_output(text, args.output)
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    if not 2 <= args.max_p <= SURVEY_CAP:
        why = ("must be at least 2" if args.max_p < 2
               else f"{args.max_p} exceeds the cap {SURVEY_CAP}")
        print(f"error: --max-p {why}", file=sys.stderr)
        return USAGE_ERROR
    header = (
        "p,edge_length,stick_count,delta_v"
        ",formula_even_small,match_even_small"
        ",formula_odd,match_odd"
        ",formula_even_large,match_even_large"
    )
    print(header)
    for p in range(2, args.max_p + 1):
        if args.even_formulas and p % 2 != 0:
            continue
        K = torus_knot(p)
        value = distortion_value(K)
        cells = [str(p), str(K.edge_length), str(K.stick_count), format_exact(value)]
        for formula in (
            distortion_formula_even_small,
            distortion_formula_odd,
            distortion_formula_even_large,
        ):
            expected = formula(p)
            cells.append(format_exact(expected))
            cells.append("MATCH" if expected == value else "MISMATCH")
        print(",".join(cells))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.golden_dir is not None and not args.classify:
        print("error: --golden-dir writes the classified knots; it needs --classify",
              file=sys.stderr)
        return USAGE_ERROR
    # counted, and the golden directory made, before the header, so that a
    # refused length or an unusable directory prints nothing
    if args.classify:
        knots = classify_distortion_one(census_walks(args.max_length))
        counts = Counter(K.edge_length for K in knots)
        header = "edge_length,distortion_one_count"
        if args.golden_dir is not None:
            out_dir = Path(args.golden_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
    else:
        counts = Counter(map(len, census_walks(args.max_length)))
        header = "edge_length,conformations"
    print(header)
    for length in range(4, args.max_length + 1, 2):
        print(f"{length},{counts.get(length, 0)}")
    if args.golden_dir is not None:
        index: dict[int, int] = {}
        for K in knots:
            n = index.get(K.edge_length, 0)
            index[K.edge_length] = n + 1
            name = f"distortion_one_len{K.edge_length:02d}_{n}.csv"
            (out_dir / name).write_text(knot_to_vertex_csv(K))
    return 0


@functools.cache  # built on the first call, not at import; reused after
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeknots",
        description="Exact-arithmetic tools for knots in the cubic lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit a torus-family tabulation JSON")
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="build and validate a knot file")
    p_val.add_argument("input")
    p_val.set_defaults(func=cmd_validate)

    p_dis = sub.add_parser("distortion", help="exact vertex distortion of a knot")
    p_dis.add_argument("input")
    p_dis.add_argument("--pairs", action="store_true")
    p_dis.add_argument(
        "--oracle",
        action="store_true",
        help="recompute the value and pairs independently: certified from "
        "lattice-neighbour shells when the bound n/(2d) closes (O(n) when it "
        "closes at shell 1, as on every torus p tested; at most n(n-1)/16 "
        "lookups past shell 1), by comparing every vertex pair in O(n^2) only "
        "when it cannot; exit 1 if they disagree",
    )
    p_dis.set_defaults(func=cmd_distortion)

    p_red = sub.add_parser("reduce", help="apply a stick reduction or test all")
    p_red.add_argument("input")
    p_red.add_argument("--stick", type=int, default=None,
                       help="0-based index of the stick to shorten")
    p_red.add_argument(
        "--direction", default=None,
        help="which end of the stick slides inward: with_orientation (with, WITH) "
        "or against_orientation (against, AGAINST)",
    )
    p_red.add_argument("--amount", type=int, default=None,
                       help="how far the end slides; the knot loses 2 * amount edges")
    p_red.add_argument(
        "--check-irreducible", action="store_true",
        help="apply no move; print 'irreducible', or 'reducible' and one "
        "'stick direction amount' line per witness: every stick and direction "
        "that admits a reduction, with its largest amount",
    )
    p_red.add_argument("-o", "--output", default=None,
                       help="write the reduced knot as a vertex CSV here "
                       "(default: stdout)")
    p_red.set_defaults(func=cmd_reduce)

    p_exp = sub.add_parser("export", help="export a knot as obj, csv or json")
    p_exp.add_argument("input")
    p_exp.add_argument("--format", choices=("obj", "csv", "json"), required=True)
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.set_defaults(func=cmd_export)

    p_sur = sub.add_parser("survey", help="distortion table over the torus family")
    p_sur.add_argument("--max-p", type=int, default=10, help=f"at most {SURVEY_CAP}")
    p_sur.add_argument(
        "--even-formulas",
        action="store_true",
        help="survey even p only, where the even-p formulas apply",
    )
    p_sur.set_defaults(func=cmd_survey)

    p_enu = sub.add_parser("enumerate", help="census of small conformations")
    p_enu.add_argument("--max-length", type=int, required=True,
                       help=f"an even length from 4 to {CENSUS_CAP}")
    p_enu.add_argument(
        "--classify",
        action="store_true",
        help="count the distortion-one conformations and check their structure; "
        "a conformation is dropped at its first antipodal vertex pair closer "
        "than half its length, and every vertex of a survivor is a corner of "
        "its bounding box, so none exists past 8 edges",
    )
    p_enu.add_argument("--golden-dir", default=None,
                       help="write each classified knot as a vertex CSV here; "
                       "needs --classify")
    p_enu.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError,) as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ReductionError as exc:
        print(f"move rejected: {exc}", file=sys.stderr)
        return CHECK_ERROR
    except KnotError as exc:
        print(f"invalid knot: {exc}", file=sys.stderr)
        return CHECK_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return CHECK_ERROR
    except (MemoryError, RecursionError) as exc:
        reason = f"too large or too deeply nested ({type(exc).__name__})"
        print(f"error: input {reason}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
