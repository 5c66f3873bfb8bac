"""Command-line front end.

Weights are entered in coordinates by default ("a1,..,am/b1,..,bn");
raw basis coefficients go through --coeffs.  Exit status: 0 when the
requested computation or verification succeeds, 1 when a verification
fails, 2 on usage errors, 3 when an enumeration would exceed its size
bound, 4 when two computations that must agree identically do not (an
internal inconsistency).  Errors print one `error:` line on stderr.  All
randomized sweeps take --seed and are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bggcheck, borels, charring, diagrams, rootdata, vermacalc

FAIL_EXIT, USAGE_EXIT, BOUND_EXIT, CONSISTENCY_EXIT = 1, 2, 3, 4


def _at_least(least: int):
    """argparse type: an integer no smaller than `least`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _parse_blocks(text: str, profile: rootdata.RankProfile) -> tuple[list[int], list[int]]:
    try:
        eps_part, delta_part = text.split("/")
        eps = [int(v) for v in eps_part.split(",") if v != ""]
        delta = [int(v) for v in delta_part.split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse weight blocks {text!r}: {exc}") from None
    if len(eps) != profile.m or len(delta) != profile.n:
        raise ValueError(f"weight {text!r} does not match gl({profile.m}|{profile.n})")
    return eps, delta


def _weight_from_args(args, profile) -> rootdata.Weight:
    if getattr(args, "coeffs", None):
        eps, delta = _parse_blocks(args.coeffs, profile)
        return rootdata.weight_from_blocks(profile, eps, delta)
    if getattr(args, "coords", None):
        eps, delta = _parse_blocks(args.coords, profile)
        return rootdata.weight_from_coords(profile, eps, delta)
    raise ValueError("a weight is required: pass --coords or --coeffs")


def _borel_from_args(args, profile) -> borels.BorelElt:
    spec = getattr(args, "borel", None)
    if not spec:
        return borels.distinguished(profile)
    try:
        parts = [int(v) for v in spec.split(",") if v != ""]
        return borels.borel(profile, parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse Borel partition {spec!r}: {exc}") from None


def _profile(args) -> rootdata.RankProfile:
    return rootdata.RankProfile(args.m, args.n)


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _add_common(sub, weight=True, borel=False, depth=None):
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    if weight:
        sub.add_argument("--coords", help="coordinate tuple a1,..,am/b1,..,bn")
        sub.add_argument("--coeffs", help="basis coefficients a1,..,am/b1,..,bn")
    if borel:
        sub.add_argument("--borel", help="partition like 2,1 (default: distinguished)")
    if depth is not None:
        sub.add_argument("--depth", type=_at_least(0), default=depth)
    sub.add_argument("--format", choices=["text", "json"], default="text")


def cmd_roots(args) -> int:
    p = _profile(args)
    b = _borel_from_args(args, p)
    vectors = rootdata.rho_vectors(p, b)
    simples = [f"{r} ({r.parity})" for r in b.simple_roots()]
    obj = {
        "profile": [p.m, p.n],
        "borel": list(b.partition),
        "simple_roots": [[r.i, r.j] for r in b.simple_roots()],
        "odd_positive_count": len(b.odd_positive_roots()),
        "rho": list(vectors.rho.coeffs),
        "rho_b": list(vectors.rho_b.coeffs),
        "ber": list(vectors.ber.coeffs),
        "rho0_x2": list(vectors.rho0_x2.coeffs),
        "rho1_b_x2": list(vectors.rho1_b_x2.coeffs),
    }
    lines = [
        f"{p} {b} seq:{b.seq()}",
        f"simple roots: {', '.join(simples)}",
        f"rho = {vectors.rho}, rho_b = {vectors.rho_b}, ber = {vectors.ber}",
    ]
    _emit(args, lines, obj)
    return 0


def cmd_borels(args) -> int:
    p = _profile(args)
    items = borels.enumerate_borels(p)
    lines = [borels.render(b) for b in items]
    obj = {
        "profile": [p.m, p.n],
        "count": len(items),
        "borels": [
            {"partition": list(b.partition), "seq": b.seq_ascii(), "boxes": b.box_count()}
            for b in items
        ],
    }
    _emit(args, lines, obj)
    return 0


def cmd_diagram(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    d = diagrams.weight_diagram(lam)
    lines = [
        diagrams.render_ascii(d),
        "legend: v=both blocks, x=eps only, o=delta only, ^=neither",
        f"totally disconnected: {diagrams.is_totally_disconnected(lam)}",
    ]
    obj = diagrams.diagram_json(d)
    obj["totally_disconnected"] = diagrams.is_totally_disconnected(lam)
    _emit(args, lines, obj)
    return 0


def cmd_atyp(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    b = _borel_from_args(args, p)
    result = rootdata.atypicality(lam, b)
    gamma = sorted(result.gamma, key=lambda r: (r.i, r.j))
    lines = [
        f"atypicality: {result.aty}",
        f"atypical distinguished-positive roots: {', '.join(map(str, gamma)) or '(none)'}",
    ]
    obj = {
        "atypicality": result.aty,
        "gamma": [[r.i, r.j] for r in gamma],
    }
    _emit(args, lines, obj)
    return 0


def cmd_generic(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    value = diagrams.is_g1_generic(lam, mode=args.mode)
    _emit(args, [f"g_-1-generic: {value}"], {"generic": value, "mode": args.mode})
    return 0


CHAR_TYPES = ("verma", "even-simple", "kac", "narrow", "simple-td")


def cmd_char(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    if args.type == "verma":
        f = charring.char_verma(_borel_from_args(args, p), lam, args.depth)
    elif args.type == "even-simple":
        f = charring.char_even_simple(lam, args.depth)
    elif args.type == "kac":
        f = charring.char_kac(lam, args.depth)
    elif args.type == "narrow":
        f = charring.char_narrow(lam, args.depth)
    else:
        f = charring.char_simple_td(lam, args.depth)
    lines = [f"top {f.top} depth {f.depth}"]
    lines += [f"  {w}: {c}" for w, c in f.sorted_terms()]
    _emit(args, lines, f.to_json_obj())
    return 0


def cmd_euler(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    report = bggcheck.euler_check(lam, args.depth)
    verdict = "pass" if report.equal else "FAIL"
    lines = [f"euler identity at depth {args.depth}: {verdict}", f"note: {report.note}"]
    if report.first_discrepancy:
        w, a, b = report.first_discrepancy
        lines.append(f"first discrepancy at {w}: lhs {a} rhs {b}")
    _emit(args, lines, report.to_json_obj())
    return 0 if report.equal else FAIL_EXIT


def cmd_sweep(args) -> int:
    p = _profile(args)
    report = bggcheck.character_shift_sweep(
        p, trials=args.trials, depth=args.depth, seed=args.seed
    )
    verdict = "pass" if report.passed else "FAIL"
    lines = [
        f"character sweep over {report.pairs_checked} ordered Borel pairs: {verdict}",
        f"mismatched shifts detected: {report.mismatches_detected}/{report.mismatches_tried}",
    ]
    _emit(args, lines, report.to_json_obj())
    return 0 if report.passed else FAIL_EXIT


def cmd_image(args) -> int:
    p = _profile(args)
    lam = _weight_from_args(args, p)
    ranks = vermacalc.narrow_image_dims(lam, args.depth)
    chart = charring.char_narrow(lam, args.depth, warn=False)
    ok = all(chart.coeff(nu) == rank for nu, rank in ranks.items())
    ordered = sorted(ranks.items(), key=lambda kv: (-kv[0].xi, kv[0].coeffs))
    lines = [f"narrow image ranks vs character at depth {args.depth}: {'pass' if ok else 'FAIL'}"]
    for nu, rank in ordered:
        lines.append(f"  {nu}: rank {rank} coeff {chart.coeff(nu)}")
    obj = {
        "check": "image",
        "profile": [p.m, p.n],
        "lambda_coords": list(rootdata.encode(lam).values),
        "depth": args.depth,
        "pass": ok,
        "details": {
            "ranks": [
                {"weight": list(nu.coeffs), "rank": rank, "coeff": chart.coeff(nu)}
                for nu, rank in ordered
            ]
        },
    }
    _emit(args, lines, obj)
    return 0 if ok else FAIL_EXIT


def _suite_checks(args):
    """Name -> callable returning (passed, detail). Ordered by name."""
    seed = args.seed
    depth = args.depth

    def check_borel_lattice():
        import math

        for m in range(1, 5):
            for n in range(1, 5):
                p = rootdata.RankProfile(m, n)
                items = borels.enumerate_borels(p)
                if len(items) != math.comb(m + n, m):
                    return False, f"count failed for gl({m}|{n})"
                for edge in borels.borel_graph(p):
                    lhs = rootdata.rho_b(edge.target)
                    rhs = rootdata.rho_b(edge.source) + edge.alpha.as_weight()
                    if lhs != rhs:
                        return False, f"rho update failed on {edge}"
        return True, "profiles up to (4,4)"

    def check_character_sweep():
        rep = bggcheck.character_shift_sweep(
            rootdata.RankProfile(2, 2), trials=3, depth=min(depth, 5), seed=seed
        )
        return rep.passed, f"{rep.pairs_checked} pairs"

    def check_euler():
        cases = [
            (rootdata.RankProfile(1, 1), ([0], [0]), min(depth, 4)),
            (rootdata.RankProfile(2, 1), ([3, 0], [3]), depth),
            (rootdata.RankProfile(2, 2), ([7, 2], [2, 7]), min(depth, 6)),
        ]
        for p, (e, d), dd in cases:
            lam = rootdata.weight_from_coords(p, e, d)
            if not bggcheck.euler_check(lam, dd).equal:
                return False, f"failed at {p} coords ({e}|{d})"
        return True, f"{len(cases)} weights"

    def check_narrow_image():
        p = rootdata.RankProfile(2, 1)
        lam = rootdata.weight_from_coords(p, [3, 0], [3])
        ranks = vermacalc.narrow_image_dims(lam, 3)
        chart = charring.char_narrow(lam, 3, warn=False)
        ok = all(chart.coeff(nu) == r for nu, r in ranks.items())
        return ok, f"{len(ranks)} weights"

    def check_pbw_oracle():
        p = rootdata.RankProfile(2, 2)
        lam = rootdata.weight_from_blocks(p, [1, 0], [0, -1])
        ok = True
        for b in borels.enumerate_borels(p):
            chart = charring.char_verma(b, lam, 4)
            module = vermacalc.VermaModule(b, lam)
            for nu in vermacalc.cone_weights_below(chart.top, 4):
                if chart.coeff(nu) != len(module.weight_space_monomials(nu)):
                    ok = False
        return ok, "all Borels of gl(2|2), depth 4"

    def check_genericity():
        for m, n in ((2, 1), (1, 2)):
            p = rootdata.RankProfile(m, n)
            import itertools as it

            for values in it.product(range(-3, 4), repeat=p.dim):
                lam = rootdata.weight_from_coords(p, values[: p.m], values[p.m:])
                if diagrams.is_g1_generic(lam, "fast") != diagrams.is_g1_generic(
                    lam, "brute"
                ):
                    return False, f"fast/brute split at coords {values}"
        return True, "boxes |coord| <= 3"

    def check_small_rank():
        p = rootdata.RankProfile(2, 1)
        lam = rootdata.weight_from_coords(p, [3, 0], [3])
        rep = bggcheck.small_rank_exactness(lam, 3)
        return rep.passed, "gl(2|1) coords (3,0|3)"

    return {
        "borel_lattice": check_borel_lattice,
        "euler_identity": check_euler,
        "genericity_equivalence": check_genericity,
        "character_shift_sweep": check_character_sweep,
        "narrow_image": check_narrow_image,
        "pbw_oracle": check_pbw_oracle,
        "small_rank_exactness": check_small_rank,
    }


def cmd_suite(args) -> int:
    checks = _suite_checks(args)
    results = []
    all_ok = True
    for name in sorted(checks):
        ok, detail = checks[name]()
        all_ok &= ok
        results.append((name, ok, detail))
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    lines.append(f"suite: {'PASS' if all_ok else 'FAIL'}")
    obj = {
        "check": "suite",
        "pass": all_ok,
        "details": {name: {"pass": ok, "detail": detail} for name, ok, detail in results},
    }
    _emit(args, lines, obj)
    return 0 if all_ok else FAIL_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact gl(m|n) highest-weight combinatorics and character checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("roots", help="root data and shift vectors")
    _add_common(sub, weight=False, borel=True)
    sub.set_defaults(func=cmd_roots)

    sub = subs.add_parser("borels", help="list the Borel lattice")
    _add_common(sub, weight=False)
    sub.set_defaults(func=cmd_borels)

    sub = subs.add_parser("diagram", help="weight diagram of a regular dominant weight")
    _add_common(sub)
    sub.set_defaults(func=cmd_diagram)

    sub = subs.add_parser("atyp", help="atypicality and atypical roots")
    _add_common(sub, borel=True)
    sub.set_defaults(func=cmd_atyp)

    sub = subs.add_parser("generic", help="g_-1-genericity test")
    _add_common(sub)
    sub.add_argument("--mode", choices=["auto", "fast", "brute"], default="auto")
    sub.set_defaults(func=cmd_generic)

    sub = subs.add_parser("char", help="truncated formal characters")
    _add_common(sub, borel=True, depth=charring.DEFAULT_DEPTH)
    sub.add_argument("--type", choices=CHAR_TYPES, required=True)
    sub.set_defaults(func=cmd_char)

    sub = subs.add_parser("euler", help="Euler-characteristic identity")
    _add_common(sub, depth=charring.DEFAULT_DEPTH)
    sub.set_defaults(func=cmd_euler)

    sub = subs.add_parser("sweep", help="Verma character sweep over Borel pairs")
    _add_common(sub, weight=False, depth=6)
    sub.add_argument("--trials", type=_at_least(1), default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("image", help="narrow submodule ranks vs character")
    _add_common(sub, depth=3)
    sub.set_defaults(func=cmd_image)

    sub = subs.add_parser("suite", help="run the verification battery")
    sub.add_argument("--depth", type=_at_least(0), default=8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.set_defaults(func=cmd_suite)

    return parser


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input; ProfileMismatch and DepthError included
        return _error(exc, USAGE_EXIT)
    except rootdata.EnumerationBound as exc:
        return _error(exc, BOUND_EXIT)
    except rootdata.ConsistencyError as exc:
        return _error(exc, CONSISTENCY_EXIT)


if __name__ == "__main__":
    sys.exit(main())
