"""Command-line interface.

Subcommands: validate, cone check, cone sample, metric, curvature, verify,
affine-verify, cone-metric, identity-n8f. JSON on stdout is the default
(schemaVersion 1); --text switches to a human-readable rendering. Exit codes:
0 success, 1 a verification check failed, 2 parse or domain errors.

Forms come from --form (grammar in `kahlercone.cubic`) or --form-file (JSON
with fields "n" and "monomials"). The variable count is inferred from the
highest variable index unless --n is given. Points are comma-separated
rationals; semicolons separate points of dimension > 1 ("1,2;3,4" is two
2-dimensional points; for n = 1, "1,2,1/3" is three points).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .cubic import (ConePoint, CubicForm, _classify, cone_sample,
                    norm_identity_check, parse_text)
from .errors import KahlerConeError, ParseError
from .geometry import curvature_report, kahler_metric, verify_identity
from .linalg import hermitian_inertia, inertia
from .report import SCHEMA_VERSION, render_json, render_text
from .scalars import Complex, format_scalar, parse_rational
from .special import (affine_curvature_check, build_tilde_metric,
                      tilde_christoffel_check, tilde_inverse_check)

__all__ = ["main"]


def _infer_dimension(src: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"y(\d+)", src)]
    if not indices:
        raise ParseError("no variables found; pass --n explicitly", 0)
    return max(indices)


def _load_form(args) -> CubicForm:
    if args.form_file:
        try:
            with open(args.form_file, "r", encoding="utf-8") as fh:
                return CubicForm.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                TypeError, ZeroDivisionError) as exc:
            raise KahlerConeError(f"cannot load form file: {exc}") from exc
    if not args.form:
        raise KahlerConeError("one of --form or --form-file is required")
    n = args.n if args.n else _infer_dimension(args.form)
    return parse_text(args.form, n)


def _parse_points(text: str, n: int):
    groups = [g for g in text.split(";") if g.strip()]
    points = []
    for g in groups:
        try:
            coords = [parse_rational(c) for c in g.split(",") if c.strip()]
        except ValueError as exc:
            raise KahlerConeError(f"bad rational in point '{g.strip()}'") \
                from exc
        if len(coords) == n:
            points.append(tuple(coords))
        elif n == 1:
            points.extend((c,) for c in coords)
        else:
            raise KahlerConeError(
                f"point group '{g.strip()}' has {len(coords)} coordinates, "
                f"expected {n}")
    return points


def _sample_points(args, form: CubicForm):
    if args.samples < 1:
        raise KahlerConeError(f"--samples must be at least 1, "
                              f"got {args.samples}")
    hint = None
    if args.hint:
        hints = _parse_points(args.hint, form.n)
        if len(hints) != 1:
            raise KahlerConeError("--hint must be exactly one point")
        (hint,) = hints
    return cone_sample(form, args.samples, seed=args.seed, hint=hint)


def _points_for(args, form: CubicForm):
    if args.points:
        points = _parse_points(args.points, form.n)
    elif args.samples is not None:
        points = _sample_points(args, form)
    else:
        raise KahlerConeError("no points given: pass --points or --samples")
    if not points:
        raise KahlerConeError(f"no points in --points {args.points!r}")
    return points


def _form_echo(form: CubicForm) -> dict:
    doc = form.to_json_dict()
    doc["text"] = form.to_text()
    return doc


def _matrix_doc(m):
    return [[format_scalar(v) for v in row] for row in m.rows()]


def _tensor_doc(t):
    n = t.n
    return [[[[format_scalar(t[i, j, k, l]) for l in range(n)]
              for k in range(n)] for j in range(n)] for i in range(n)]


def _complex_rows_doc(rows):
    return [[format_scalar(z) for z in row] for row in rows]


def _emit(args, doc: dict, text: str) -> None:
    sys.stdout.write(text if args.text else render_json(doc))


# ----------------------------------------------------------------------------
# subcommand bodies; each returns a process exit code

def _cmd_validate(args):
    form = _load_form(args)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "validate",
           "form": _form_echo(form), "monomialCount": len(form.monomials)}
    _emit(args, doc, f"valid homogeneous cubic: {form.to_text()}  "
                     f"(n={form.n}, {len(form.monomials)} monomials)\n")
    return 0


def _cmd_cone_check(args):
    form = _load_form(args)
    results = []
    lines = []
    for y in _points_for(args, form):
        verdict, fval, sig = _classify(form, y)
        results.append({"y": [format_scalar(v) for v in y],
                        "verdict": verdict.value,
                        "f": format_scalar(fval),
                        "hessianInertia": list(sig)})
        coords = ",".join(str(format_scalar(v)) for v in y)
        lines.append(f"y=({coords}): {verdict.value}  f={format_scalar(fval)} "
                     f"inertia={sig}")
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "cone-check",
           "form": _form_echo(form), "points": results}
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_cone_sample(args):
    form = _load_form(args)
    points = _sample_points(args, form)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "cone-sample",
           "form": _form_echo(form), "seed": args.seed,
           "points": [[format_scalar(v) for v in y] for y in points]}
    text = "\n".join(",".join(str(format_scalar(v)) for v in y)
                     for y in points) + "\n"
    _emit(args, doc, text)
    return 0


def _cmd_metric(args):
    form = _load_form(args)
    entries = []
    lines = []
    for y in _points_for(args, form):
        yy = tuple(Fraction(v) for v in y) if args.mode == "exact" \
            else tuple(float(v) for v in y)
        jet = kahler_metric(form, yy)
        entry = {"y": [format_scalar(v) for v in yy],
                 "g": _matrix_doc(jet.g), "gInv": _matrix_doc(jet.ginv)}
        if args.mode == "exact":
            entry["inertia"] = list(inertia(jet.g))
        entries.append(entry)
        lines.append(f"y={entry['y']}: g={entry['g']}")
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "metric",
           "form": _form_echo(form), "mode": args.mode, "points": entries}
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_curvature(args):
    form = _load_form(args)
    entries = []
    lines = []
    for y in _points_for(args, form):
        yy = tuple(Fraction(v) for v in y) if args.mode == "exact" \
            else tuple(float(v) for v in y)
        rep = curvature_report(form, yy, convention=args.convention)
        n = form.n
        entries.append({
            "y": [format_scalar(v) for v in yy],
            "normFunction": format_scalar(rep.potential_arg),
            "yukawa": [[[format_scalar(rep.yukawa[i, j, k]) for k in range(n)]
                        for j in range(n)] for i in range(n)],
            "christoffel": [[[format_scalar(rep.christoffel[i][j][k])
                              for k in range(n)] for j in range(n)]
                            for i in range(n)],
            "lhs": _tensor_doc(rep.lhs),
            "rhs": _tensor_doc(rep.rhs),
            "residual": _tensor_doc(rep.residual),
            "maxAbsResidual": format_scalar(rep.max_abs_residual),
        })
        lines.append(f"y={entries[-1]['y']}: max|lhs-rhs|="
                     f"{entries[-1]['maxAbsResidual']}")
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "curvature",
           "form": _form_echo(form), "mode": args.mode,
           "convention": args.convention, "points": entries}
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    form = _load_form(args)
    points = _points_for(args, form)
    summary = verify_identity(form, points, mode=args.mode,
                              convention=args.convention, seed=args.seed)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "verify"}
    doc.update(summary.to_json_dict(include_timing=args.timing))
    doc["form"] = _form_echo(form)
    _emit(args, doc, render_text(summary))
    return 0 if summary.overall == "PASS" else 1


def _cmd_affine_verify(args):
    form = _load_form(args)
    entries = []
    lines = []
    ok = True
    for y in _points_for(args, form):
        res = affine_curvature_check(form, y)
        ok = ok and res.passed
        entries.append({"y": [format_scalar(v) for v in y],
                        "passed": res.passed,
                        "kappa": format_scalar(res.kappa)
                        if res.kappa is not None else None,
                        "maxAbsResidual": format_scalar(res.max_abs_residual)})
        lines.append(f"y={entries[-1]['y']}: "
                     f"{'PASS' if res.passed else 'FAIL'} "
                     f"kappa={entries[-1]['kappa']}")
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "affine-verify",
           "form": _form_echo(form), "points": entries,
           "overall": "PASS" if ok else "FAIL"}
    _emit(args, doc, "\n".join(lines) + f"\noverall: {doc['overall']}\n")
    return 0 if ok else 1


def _cmd_cone_metric(args):
    form = _load_form(args)
    points = _points_for(args, form)
    xs = _parse_points(args.x, form.n) if args.x else [None] * len(points)
    if len(xs) != len(points):
        raise KahlerConeError("--x must give one group per point")
    lam = _parse_lambda(args.lam)
    entries = []
    lines = []
    ok = True
    for y, x in zip(points, xs):
        t = ConePoint(y, x).complexified()
        tm = build_tilde_metric(form, t, lam)
        inv = tilde_inverse_check(tm)
        chris = tilde_christoffel_check(tm, form)
        sig = hermitian_inertia(tm.gtilde)
        ok = ok and inv.passed and chris.passed
        entries.append({
            "t": [format_scalar(z) for z in t],
            "lambda": format_scalar(lam),
            "normFunction": format_scalar(tm.norm_value),
            "gTilde": _complex_rows_doc(tm.gtilde),
            "gTildeInvStated": _complex_rows_doc(tm.gtilde_inv_stated),
            "inverseCheck": inv.passed,
            "inertia": list(sig),
            "christoffelCheck": {
                "passed": chris.passed,
                "matches": chris.matches,
                "lowerSymmetric": chris.lower_symmetric,
                "recoveryRelation": chris.recovery_relation,
            },
        })
        lines.append(f"t={entries[-1]['t']}: inverse="
                     f"{'PASS' if inv.passed else 'FAIL'} inertia={sig} "
                     f"christoffel={'PASS' if chris.passed else 'FAIL'}")
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "cone-metric",
           "form": _form_echo(form), "points": entries,
           "overall": "PASS" if ok else "FAIL"}
    _emit(args, doc, "\n".join(lines) + f"\noverall: {doc['overall']}\n")
    return 0 if ok else 1


def _parse_lambda(text: str) -> Complex:
    try:
        m = re.fullmatch(r"\s*([+-]?[\d/]+)\s*([+-]\s*[\d/]+)\s*i\s*", text)
        if m:
            return Complex(parse_rational(m.group(1)),
                           parse_rational(m.group(2).replace(" ", "")))
        return Complex(parse_rational(text))
    except ValueError as exc:
        raise KahlerConeError(f"bad fibre coordinate {text!r}") from exc


def _cmd_identity_n8f(args):
    form = _load_form(args)
    res = norm_identity_check(form)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": "identity-n8f",
           "form": _form_echo(form), "holds": res.holds}
    if not res.holds:
        exp, got, want = res.counterexample
        doc["counterexample"] = {"exponents": list(exp),
                                 "got": format_scalar(got),
                                 "expected": format_scalar(want)}
    _emit(args, doc, f"norm function equals 8*f: "
                     f"{'HOLDS' if res.holds else 'FAILS'}\n")
    return 0 if res.holds else 1


# ----------------------------------------------------------------------------

def _add_form_arguments(p):
    p.add_argument("--form", help="polynomial text, e.g. 'y1*y2^2 + 2*y2^3'")
    p.add_argument("--form-file", help="path to a JSON form document")
    p.add_argument("--n", type=int, help="number of variables "
                   "(default: highest index appearing in --form)")
    p.add_argument("--json", dest="text", action="store_false", default=False,
                   help="JSON output (default)")
    p.add_argument("--text", dest="text", action="store_true",
                   help="human-readable output")


def _add_point_arguments(p):
    p.add_argument("--points", "--point", dest="points",
                   help="semicolon-separated points of comma-separated "
                        "rationals")
    p.add_argument("--samples", type=int,
                   help="sample this many interior points instead")
    p.add_argument("--hint", help="known interior point for the sampler")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kahlercone",
        description="Exact curvature checks for the Kahler geometry of "
                    "cubic-form index cones.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and echo a form")
    _add_form_arguments(p)
    p.set_defaults(func=_cmd_validate)

    cone = sub.add_parser("cone", help="index-cone membership and sampling")
    cone_sub = cone.add_subparsers(dest="cone_command", required=True)
    p = cone_sub.add_parser("check", help="classify points")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.set_defaults(func=_cmd_cone_check)
    p = cone_sub.add_parser("sample", help="sample interior points")
    _add_form_arguments(p)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--hint", help="known interior point")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cone_sample)

    p = sub.add_parser("metric", help="metric and inverse at points")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("curvature",
                       help="curvature tensors and residual at points")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--convention", choices=("standard", "negated"),
                   default="standard")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="verify the curvature identity")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--convention", choices=("standard", "negated"),
                   default="standard")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the report "
                        "(off by default so reports are byte-reproducible)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("affine-verify",
                       help="verify the flat-prepotential curvature identity")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.set_defaults(func=_cmd_affine_verify)

    p = sub.add_parser("cone-metric",
                       help="fibre-extended metric: inverse and connection "
                            "checks")
    _add_form_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--x", help="real parts of t (defaults to 0)")
    p.add_argument("--lam", default="1",
                   help="fibre coordinate, rational or 'a+bi'")
    p.set_defaults(func=_cmd_cone_metric)

    p = sub.add_parser("identity-n8f",
                       help="check the norm-function identity N = 8 f "
                            "symbolically")
    _add_form_arguments(p)
    p.set_defaults(func=_cmd_identity_n8f)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KahlerConeError as exc:
        doc = {"schemaVersion": SCHEMA_VERSION,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        if getattr(args, "text", False):
            sys.stdout.write(f"error: {type(exc).__name__}: {exc}\n")
        else:
            sys.stdout.write(render_json(doc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
