"""Command line surface: one verb per task, deterministic output.

Verbs: hull, dual, satake, classify, strata, limit-ray, render,
flat-test, compare.  Results are JSON documents; with --out (and friends)
they go to files and a short table is printed instead, otherwise the
document itself lands on stdout.  Exit codes: 0 success, 2 malformed
input, 3 precondition violation, 4 inconclusive numeric verdict, 1 a
numeric verdict of failure.

Relative output paths are resolved inside $HOROPOLY_OUT_DIR when that
variable is set; there is no other environment configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from ._linalg import frac, vdot
from .errors import InputError, PreconditionError
from .horoboundary import (Horofunction, enumerate_strata,
                           horofunction_to_json, limit_of_ray)
from .norm import polyhedral_norm
from .polytope import (Polytope, convex_hull, polar_dual, polytope_from_json,
                       polytope_to_json)
from .render import render_off, render_svg
from .rootsys import (build, named_weight, point_ambient, weight_ambient)
from .satake import (CompactificationReport, classify, report_to_json,
                     same_compactification, satake_ball, weight_hull,
                     weight_spec)

# the JSON form of each result a verb prints, built by _emit_json
_DOCUMENT = {Polytope: polytope_to_json, CompactificationReport: report_to_json,
             Horofunction: horofunction_to_json}


def _out_path(path: str) -> Path:
    base = os.environ.get("HOROPOLY_OUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _write_text(path: str, text: str) -> None:
    target = _out_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _emit_json(doc, out: str | None) -> None:
    """Write doc, with the results in it formatted by _DOCUMENT.

    An exact result with an integer past Python's int-to-str digit limit
    (3.10.7 on) is refused: the document readers could not read it back.
    """
    try:
        text = json.dumps(doc, indent=2, sort_keys=True,
                          default=lambda obj: _DOCUMENT[type(obj)](obj)) + "\n"
    except ValueError:  # str of an int past the limit
        raise PreconditionError(
            f"the exact result has an integer of over {sys.get_int_max_str_digits()} "
            "digits, more than a document can be read back with") from None
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _table(pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {value}")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(frac(tok.strip()) for tok in text.split(","))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad vector {text!r}: expected comma-separated "
                         "rationals") from exc


def _parse_scale(text: str) -> Fraction:
    try:
        return frac(text)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad scale {text!r}") from exc


def _spec_from_flags(family: str, rank: int, weights: str, scale: str):
    rs = build(family, rank)
    names = [w.strip() for w in weights.split(",") if w.strip()]
    if not names:
        raise InputError("at least one weight name is required")
    vectors = [named_weight(rs, name) for name in names]
    return rs, weight_spec(rs, vectors, _parse_scale(scale))


def _cmd_hull(args) -> int:
    obj = _load_json(args.points)
    if isinstance(obj, dict):
        obj = obj.get("vertices")
    if not isinstance(obj, list) or not obj:
        raise InputError("expected a JSON list of points (or a 'vertices' key)")
    P = convex_hull([_coerce_point(p) for p in obj])
    _emit_json(P, args.out)
    if args.out:
        _table([("dim", P.ambient_dim), ("vertices", len(P.vertices)),
                ("facets", len(P.facets))])
    return 0


def _coerce_point(p) -> tuple:
    if not isinstance(p, list):
        raise InputError("each point must be a JSON list of rationals")
    try:
        return tuple(frac(c) for c in p)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad point {p!r}") from exc


def _cmd_dual(args) -> int:
    P = polytope_from_json(_load_json(args.polytope))
    D = polar_dual(P)
    _emit_json(D, args.out)
    if args.out:
        _table([("dim", D.ambient_dim), ("vertices", len(D.vertices)),
                ("facets", len(D.facets))])
    return 0


def _cmd_satake(args) -> int:
    rs, spec = _spec_from_flags(args.family, args.rank, args.weights, args.scale)
    hull = weight_hull(spec)
    ball = satake_ball(hull)
    report = classify(spec)
    any_file = bool(args.out or args.ball or args.report)
    if any_file:
        if args.out:
            _emit_json(hull, args.out)
        if args.ball:
            _emit_json(ball, args.ball)
        if args.report:
            _emit_json(report, args.report)
        _table([("family", rs.type_label), ("rank", rs.rank),
                ("weights", args.weights), ("scale", args.scale),
                ("hull f-vector", list(report.hull_f_vector)),
                ("ball f-vector", list(report.ball_f_vector)),
                ("shape", report.shape), ("regular", report.regular)])
    else:
        _emit_json({"hull": hull, "ball": ball, "report": report}, None)
    return 0


def _cmd_classify(args) -> int:
    _, spec = _spec_from_flags(args.family, args.rank, args.weights, args.scale)
    report = classify(spec)
    _emit_json(report, args.out)
    if args.out:
        _table([("shape", report.shape), ("regular", report.regular),
                ("hull f-vector", list(report.hull_f_vector)),
                ("ball f-vector", list(report.ball_f_vector))])
    return 0


def _cmd_strata(args) -> int:
    norm = polyhedral_norm(polytope_from_json(_load_json(args.ball)))
    strata = enumerate_strata(norm)
    # The extreme sets of a polytope are its faces: the proper ones, which
    # are the strata, plus the whole ball.  There are finitely many, so
    # Walsh's finiteness criterion always holds.
    doc = {
        "dim": norm.dim,
        "stratum_count": len(strata),
        "extreme_set_count": len(strata) + 1,
        "finite_boundary": True,
        "strata": [{"face": list(face.vertex_indices), "dim": dim}
                   for face, dim in strata],
    }
    _emit_json(doc, args.out)
    if args.out:
        _table([("strata", doc["stratum_count"]),
                ("extreme sets", doc["extreme_set_count"])])
    return 0


def _cmd_limit_ray(args) -> int:
    norm = polyhedral_norm(polytope_from_json(_load_json(args.ball)))
    h = limit_of_ray(norm, _parse_vector(args.q), _parse_vector(args.u))
    _emit_json(h, args.out)
    return 0


def _wall_rays(family: str, rank: int, chart: str) -> list:
    """Chamber wall directions of the rank-2 chart, two rays per root."""
    rs = build(family, rank)
    if rs.rank != 2:
        raise InputError("wall overlays need a rank 2 root system")
    units = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    rays = []
    for alpha in rs.positive_roots:
        if chart == "weight":
            a, b = (vdot(weight_ambient(rs, u), alpha) for u in units)
        else:
            a, b = (vdot(alpha, point_ambient(rs, u)) for u in units)
        # the kernel of the row (a, b), in the basis echelon form gives
        d = (-b / a, Fraction(1)) if a else (Fraction(1), Fraction(0))
        rays.append(d)
        rays.append(tuple(-c for c in d))
    return rays


def _cmd_render(args) -> int:
    P = polytope_from_json(_load_json(args.polytope))
    if P.ambient_dim > 3:
        raise InputError("rendering supports dimensions 2 and 3 only")
    if args.format == "svg":
        walls = (_wall_rays(args.family, args.rank, args.chart)
                 if args.walls else ())
        pts = ()
        if args.points:
            raw = _load_json(args.points)
            if not isinstance(raw, list):
                raise InputError("points overlay must be a JSON list")
            pts = [_coerce_point(p) for p in raw]
        text = render_svg(P, wall_rays=walls, labels=args.labels, points=pts)
    else:
        if args.walls or args.points or args.labels:
            raise InputError("overlays are available for SVG output only")
        text = render_off(P)
    if args.out:
        _write_text(args.out, text)
        _table([("format", args.format), ("bytes", len(text.encode()))])
    else:
        sys.stdout.write(text)
    return 0


def _flat_grid(n: int) -> list:
    if n == 2:
        return [(a, -a) for a in range(-3, 4)]
    if n == 3:
        return [(a, b, -a - b) for a, b in product(range(-2, 3), repeat=2)]
    return [(a, b, c, -a - b - c)
            for a, b, c in product(range(-1, 2), repeat=3)]


def _flat_rays(n: int, t_max: float) -> list:
    """A regular ray and (rank permitting) a one-wall ray, gently sloped.

    Slopes scale with t_max so the matrix exponentials stay inside the
    conditioning guard along the whole ladder of sample times.
    """
    if not math.isfinite(t_max):
        raise InputError("t_max must be positive and finite")
    den = max(1000, int(t_max) // 10)
    ramp = [Fraction(n - 1 - 2 * i, den * (n - 1)) for i in range(n)]
    rays = [("regular", tuple(ramp))]
    if n >= 3:
        glued = list(ramp)
        avg = (glued[0] + glued[1]) / 2
        glued[0] = glued[1] = avg
        rays.append(("wall", tuple(glued)))
    return rays


def _cmd_flat_test(args) -> int:
    # the float layer, and numpy with it, loads for this verb alone
    from .flatspace import (InvarianceConfig, consistency_report_to_json,
                            flat_limit_consistency, flat_space,
                            invariance_report_to_json, invariance_suite)

    config = InvarianceConfig(seed=args.seed)
    ball = polytope_from_json(_load_json(args.ball))
    fs = flat_space(args.n, ball)
    grid = _flat_grid(args.n)
    start = (Fraction(0),) * args.n
    consistency = {}
    statuses = []
    for label, direction in _flat_rays(args.n, args.tmax):
        rep = flat_limit_consistency(fs, start, direction, grid,
                                     t_max=args.tmax, tol=args.tol)
        consistency[label] = consistency_report_to_json(rep)
        statuses.append(rep.status)
    inv = invariance_suite(fs, config)
    doc = {
        "n": args.n,
        "seed": args.seed,
        "consistency": consistency,
        "invariance": invariance_report_to_json(inv),
    }
    _emit_json(doc, args.out)
    flags = (inv.basepoint_ok and inv.equivariance_ok
             and inv.limit_ok and inv.limit_monotone)
    if args.out:
        _table([("statuses", ",".join(statuses)),
                ("invariance ok", flags)])
    if "failed" in statuses or not flags:
        return 1
    if "inconclusive" in statuses:
        return 4
    return 0


def _cmd_compare(args) -> int:
    _, spec1 = _spec_from_flags(args.family, args.rank, args.weights, args.scale)
    _, spec2 = _spec_from_flags(args.family, args.rank, args.weights2,
                                args.scale2)
    same = same_compactification(spec1, spec2)
    _emit_json({"family": args.family, "rank": args.rank,
                "weights": args.weights, "scale": args.scale,
                "weights2": args.weights2, "scale2": args.scale2,
                "same": same}, args.out)
    return 0


def _add_spec_flags(sub) -> None:
    sub.add_argument("--type", dest="family", required=True,
                     help="root system family: A, B, C, or D")
    sub.add_argument("--rank", type=int, required=True, help="root system rank")
    sub.add_argument("--weights", required=True,
                     help="comma-separated weight names: adjoint, standard, "
                          "dual-standard, fundamental:k")
    sub.add_argument("--scale", default="1",
                     help="positive rational scale factor (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horopoly",
        description="Exact polyhedral balls, their boundary strata, weight "
                    "polytopes, and the matrix-space numeric checks.")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("hull", help="convex hull of a JSON list of points")
    p.add_argument("points", help="JSON file: list of points or {'vertices': ...}")
    p.add_argument("--out", help="write polytope JSON here")
    p.set_defaults(func=_cmd_hull)

    p = subs.add_parser("dual", help="polar dual of a polytope")
    p.add_argument("polytope", help="polytope JSON file")
    p.add_argument("--out", help="write polytope JSON here")
    p.set_defaults(func=_cmd_dual)

    p = subs.add_parser("satake", help="weight hull, induced ball, and report")
    _add_spec_flags(p)
    p.add_argument("--out", help="write the weight hull JSON here")
    p.add_argument("--ball", help="write the induced ball JSON here")
    p.add_argument("--report", help="write the classification JSON here")
    p.set_defaults(func=_cmd_satake)

    p = subs.add_parser("classify", help="classification report only")
    _add_spec_flags(p)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("strata", help="boundary strata of a unit ball")
    p.add_argument("--ball", required=True, help="unit ball JSON file")
    p.add_argument("--out", help="write the strata JSON here")
    p.set_defaults(func=_cmd_strata)

    p = subs.add_parser("limit-ray", help="boundary function of a ray")
    p.add_argument("--ball", required=True, help="unit ball JSON file")
    p.add_argument("--q", required=True, help="ray start, e.g. 0,3 or -1,0")
    p.add_argument("--u", required=True, help="ray direction, e.g. 1,0 or -1/2,1")
    p.add_argument("--out", help="write the boundary function JSON here")
    p.set_defaults(func=_cmd_limit_ray)

    p = subs.add_parser("render", help="SVG (dim 2) or OFF (dim 3) picture")
    p.add_argument("polytope", help="polytope JSON file")
    p.add_argument("--format", required=True, choices=("svg", "off"))
    p.add_argument("--out", help="write the picture here")
    p.add_argument("--walls", action="store_true",
                   help="overlay dashed chamber wall rays (SVG)")
    p.add_argument("--type", dest="family", default="A",
                   help="root system family for the wall overlay")
    p.add_argument("--rank", type=int, default=2,
                   help="root system rank for the wall overlay")
    p.add_argument("--chart", choices=("weight", "point"), default="weight",
                   help="which rank-2 chart the picture lives in")
    p.add_argument("--labels", action="store_true",
                   help="overlay vertex index labels (SVG)")
    p.add_argument("--points", help="JSON list of points to mark (SVG)")
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("flat-test", help="matrix-space numeric verification")
    p.add_argument("--n", type=int, required=True, help="matrix size (2..4)")
    p.add_argument("--ball", required=True,
                   help="permutation-invariant unit ball JSON file")
    p.add_argument("--tmax", type=float, default=1e4,
                   help="ray horizon for the consistency check")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="convergence tolerance at the horizon")
    p.add_argument("--seed", type=int, default=7, help="sampling seed")
    p.add_argument("--out", help="write the combined report JSON here")
    p.set_defaults(func=_cmd_flat_test)

    p = subs.add_parser("compare", help="same compactification decision")
    _add_spec_flags(p)
    p.add_argument("--weights2", required=True,
                   help="second weight list to compare against")
    p.add_argument("--scale2", default="1",
                   help="scale of the second list (default 1)")
    p.add_argument("--out", help="write the decision JSON here")
    p.set_defaults(func=_cmd_compare)

    return parser


def _join_vector_flags(argv) -> list:
    """Join --q/--u to a following vector that starts with a minus sign,
    --q -1,0 to --q=-1,0, which argparse would otherwise read as an option."""
    out, i = [], 0
    while i < len(argv):
        tok, nxt = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if tok in ("--q", "--u") and len(nxt) > 1 and nxt[0] == "-" and nxt[1] in "0123456789./":
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_vector_flags(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
