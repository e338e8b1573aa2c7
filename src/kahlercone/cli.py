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

`COMMANDS` is the one table of subcommands: their words, help, arguments
beyond the form group, and handler; `build_parser` reads nothing else. The
per-point subcommands (cone check, cone sample, metric, curvature,
affine-verify, cone-metric) share one handler, `_per_point`: each supplies a
function from one point to its JSON entry, its text line and its verdict
(None when the subcommand checks nothing), and `_per_point` builds the
document, the text and the exit code. `_doc` is the one formatter from
scalars, points and tensors to JSON values; under `--mode float` it rounds
each exact value once to binary64 (`scalars.to_float`), since every mode
computes exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .cubic import (ConePoint, CubicForm, _classify, cone_sample,
                    norm_identity_check, parse_text)
from .errors import KahlerConeError, ParseError
from .geometry import (CONVENTIONS, MODES, _integer_jet, curvature_report,
                       verify_identity)
from .linalg import CurvTensor, Sym3Tensor, SymMatrix, inertia
from .report import SCHEMA_VERSION, render_json, render_text
from .scalars import Complex, format_scalar, parse_rational, to_float
from .special import (affine_curvature_check, build_tilde_metric,
                      tilde_christoffel_check, tilde_inverse_check)

__all__ = ["main"]


def _infer_dimension(src: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"y(\d+)", src)]
    if not indices:
        raise ParseError("no variables found; pass --n explicitly", 0)
    return max(1, *indices)         # at least 1, so the parser names y0


def _load_form(args) -> CubicForm:
    if args.n is not None and args.n < 1:
        raise KahlerConeError(f"--n must be at least 1, got {args.n}")
    if args.form_file:
        try:
            with open(args.form_file, "r", encoding="utf-8") as fh:
                return CubicForm.from_json_dict(json.load(fh))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise KahlerConeError(f"cannot load form file: {exc}") from exc
    if not args.form:
        raise KahlerConeError("one of --form or --form-file is required")
    n = args.n if args.n is not None else _infer_dimension(args.form)
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


def _parse_lambda(text: str) -> Complex:
    try:
        m = re.fullmatch(r"\s*([+-]?[\d/]+)\s*([+-]\s*[\d/]+)\s*i\s*", text)
        if m:
            return Complex(parse_rational(m.group(1)),
                           parse_rational(m.group(2).replace(" ", "")))
        return Complex(parse_rational(text))
    except ValueError as exc:
        raise KahlerConeError(f"bad fibre coordinate {text!r}") from exc


def _form_echo(form: CubicForm) -> dict:
    doc = form.to_json_dict()
    doc["text"] = form.to_text()
    return doc


_RANK = {SymMatrix: 2, Sym3Tensor: 3, CurvTensor: 4}


def _doc(x, mode="exact", index=()):
    """JSON value of a scalar (None stays None), or nested lists of them for
    a point, rows, a Christoffel array or a symmetric or curvature tensor;
    in float mode each scalar is first rounded by `to_float`."""
    rank = _RANK.get(type(x))
    if rank is not None:
        if len(index) < rank:
            return [_doc(x, mode, index + (i,)) for i in range(x.n)]
        x = x[index]
    elif isinstance(x, (list, tuple)):
        return [_doc(v, mode) for v in x]
    if x is None:
        return None
    return format_scalar(to_float(x) if mode == "float" else x)


def _coords(y) -> str:
    return ",".join(str(format_scalar(v)) for v in y)


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _emit(args, doc: dict, text: str) -> None:
    sys.stdout.write(text if args.text else render_json(doc))


# ----------------------------------------------------------------------------
# handlers: each takes the command name and the parsed arguments and
# returns a process exit code

def _per_point(body, points=_points_for, echo=()):
    """Handler that runs body(args, form, point) -> (entry, line, passed) at
    each point of points(args, form). The document echoes the options named
    in `echo`; it has an "overall" verdict, and the text an "overall:" line,
    when the body checks something (passed is not None)."""
    def run(command, args):
        form = _load_form(args)
        results = [body(args, form, p) for p in points(args, form)]
        doc = {"schemaVersion": SCHEMA_VERSION, "command": command,
               "form": _form_echo(form)}
        doc.update((key, getattr(args, key)) for key in echo)
        doc["points"] = [entry for entry, _, _ in results]
        text = "".join(line + "\n" for _, line, _ in results)
        verdicts = [passed for _, _, passed in results]
        if None not in verdicts:
            doc["overall"] = _verdict(all(verdicts))
            text += f"overall: {doc['overall']}\n"
        _emit(args, doc, text)
        return 0 if doc.get("overall", "PASS") == "PASS" else 1
    return run


def _cone_check_point(args, form, y):
    verdict, sig, point = _classify(form, y)
    entry = {"y": _doc(y), "verdict": verdict.value, "f": _doc(point.f),
             "hessianInertia": list(sig)}
    return (entry, f"y=({_coords(y)}): {verdict.value}  f={entry['f']} "
                   f"inertia={sig}", None)


def _cone_sample_point(args, form, y):
    return _doc(y), _coords(y), None


def _metric_point(args, form, y):
    ij = _integer_jet(form, y)
    doc = functools.partial(_doc, mode=args.mode)
    entry = {"y": doc(y), "g": doc(ij.g), "gInv": doc(ij.ginv)}
    if args.mode == "exact":
        # M = 4 F^2 g / l^2, a positive multiple of g: the same inertia
        entry["inertia"] = list(inertia(ij.point.M))
    return entry, f"y={entry['y']}: g={entry['g']}", None


def _curvature_point(args, form, y):
    rep = curvature_report(form, y, convention=args.convention)
    doc = functools.partial(_doc, mode=args.mode)
    entry = {"y": doc(y), "normFunction": doc(rep.potential_arg),
             "yukawa": doc(rep.yukawa), "christoffel": doc(rep.christoffel),
             "lhs": doc(rep.lhs), "rhs": doc(rep.rhs),
             "residual": doc(rep.residual),
             "maxAbsResidual": doc(rep.max_abs_residual)}
    return (entry, f"y={entry['y']}: max|lhs-rhs|={entry['maxAbsResidual']}",
            None)


def _affine_point(args, form, y):
    res = affine_curvature_check(form, y)
    entry = {"y": _doc(y), "passed": res.passed, "kappa": _doc(res.kappa),
             "maxAbsResidual": _doc(res.max_abs_residual)}
    return (entry, f"y={entry['y']}: {_verdict(res.passed)} "
                   f"kappa={entry['kappa']}", res.passed)


def _cone_metric_points(args, form):
    """(t, lambda) per point: t = x + i y, x from --x or 0."""
    points = _points_for(args, form)
    xs = _parse_points(args.x, form.n) if args.x else [None] * len(points)
    if len(xs) != len(points):
        raise KahlerConeError("--x must give one group per point")
    lam = _parse_lambda(args.lam)
    return [(ConePoint(y, x).complexified(), lam) for y, x in zip(points, xs)]


def _cone_metric_point(args, form, point):
    t, lam = point
    tm = build_tilde_metric(form, t, lam)
    inv = tilde_inverse_check(tm)
    chris = tilde_christoffel_check(tm)
    sig = inertia(tm.bordered)
    entry = {
        "t": _doc(t),
        "lambda": _doc(lam),
        "normFunction": _doc(tm.norm_value),
        "gTilde": _doc(tm.gtilde),
        "gTildeInvStated": _doc(tm.gtilde_inv_stated),
        "inverseCheck": inv.passed,
        "inertia": list(sig),
        "christoffelCheck": {
            "passed": chris.passed,
            "matches": chris.matches,
            "lowerSymmetric": chris.lower_symmetric,
            "recoveryRelation": chris.recovery_relation,
        },
    }
    return (entry, f"t={entry['t']}: inverse={_verdict(inv.passed)} "
                   f"inertia={sig} christoffel={_verdict(chris.passed)}",
            inv.passed and chris.passed)


def _cmd_validate(command, args):
    form = _load_form(args)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": command,
           "form": _form_echo(form), "monomialCount": len(form.monomials)}
    _emit(args, doc, f"valid homogeneous cubic: {form.to_text()}  "
                     f"(n={form.n}, {len(form.monomials)} monomials)\n")
    return 0


def _cmd_verify(command, args):
    form = _load_form(args)
    summary = verify_identity(form, _points_for(args, form), mode=args.mode,
                              convention=args.convention, seed=args.seed)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": command}
    doc.update(summary.to_json_dict(include_timing=args.timing))
    doc["form"] = _form_echo(form)
    _emit(args, doc, render_text(summary, include_timing=args.timing))
    return 0 if summary.overall == "PASS" else 1


def _cmd_identity_n8f(command, args):
    form = _load_form(args)
    res = norm_identity_check(form)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": command,
           "form": _form_echo(form), "holds": res.holds}
    if not res.holds:
        exp, got, want = res.counterexample
        doc["counterexample"] = {"exponents": list(exp), "got": _doc(got),
                                 "expected": _doc(want)}
    _emit(args, doc, f"norm function equals 8*f: "
                     f"{'HOLDS' if res.holds else 'FAILS'}\n")
    return 0 if res.holds else 1


# ----------------------------------------------------------------------------
# argument specs: (flags, add_argument keywords)

_FORM_ARGS = (
    (("--form",), dict(help="polynomial text, e.g. 'y1*y2^2 + 2*y2^3'")),
    (("--form-file",), dict(help="path to a JSON form document")),
    (("--n",), dict(type=int, help="number of variables "
                    "(default: highest index appearing in --form)")),
    (("--json",), dict(dest="text", action="store_false", default=False,
                       help="JSON output (default)")),
    (("--text",), dict(dest="text", action="store_true",
                       help="human-readable output")),
)
_POINT_ARGS = (
    (("--points", "--point"), dict(dest="points", help="semicolon-separated "
                                   "points of comma-separated rationals")),
    (("--samples",), dict(type=int,
                          help="sample this many interior points instead")),
    (("--hint",), dict(help="known interior point for the sampler")),
    (("--seed",), dict(type=int, default=0, help="sampler seed")),
)
_MODE_ARGS = ((("--mode",), dict(choices=MODES, default="exact")),)
_CONVENTION_ARGS = ((("--convention",),
                     dict(choices=CONVENTIONS, default="standard")),)

# (words, help, arguments beyond _FORM_ARGS, handler); a row without a
# handler groups the subcommands whose words extend its own
COMMANDS = (
    (("validate",), "parse and echo a form", (), _cmd_validate),
    (("cone",), "index-cone membership and sampling", (), None),
    (("cone", "check"), "classify points", _POINT_ARGS,
     _per_point(_cone_check_point)),
    (("cone", "sample"), "sample interior points",
     ((("--samples",), dict(type=int, default=25)),
      (("--hint",), dict(help="known interior point")),
      (("--seed",), dict(type=int, default=0))),
     _per_point(_cone_sample_point, points=_sample_points, echo=("seed",))),
    (("metric",), "metric and inverse at points", _POINT_ARGS + _MODE_ARGS,
     _per_point(_metric_point, echo=("mode",))),
    (("curvature",), "curvature tensors and residual at points",
     _POINT_ARGS + _MODE_ARGS + _CONVENTION_ARGS,
     _per_point(_curvature_point, echo=("mode", "convention"))),
    (("verify",), "verify the curvature identity",
     _POINT_ARGS + _MODE_ARGS + _CONVENTION_ARGS
     + ((("--timing",), dict(action="store_true", help="include wall-clock "
                             "timing in the report (off by default so "
                             "reports are byte-reproducible)")),),
     _cmd_verify),
    (("affine-verify",), "verify the flat-prepotential curvature identity",
     _POINT_ARGS, _per_point(_affine_point)),
    (("cone-metric",),
     "fibre-extended metric: inverse and connection checks",
     _POINT_ARGS + ((("--x",), dict(help="real parts of t (defaults to 0)")),
                    (("--lam",), dict(default="1", help="fibre coordinate, "
                                      "rational or 'a+bi'"))),
     _per_point(_cone_metric_point, points=_cone_metric_points)),
    (("identity-n8f",),
     "check the norm-function identity N = 8 f symbolically", (),
     _cmd_identity_n8f),
)


# an argument starting with "-" and a digit is a value, not an option:
# "--points -1,2", "--hint -1/2,1" and "--lam -1/2+1i" (argparse itself
# takes only plain negative numbers such as "-1" or "-0.5" for values)
_NEGATIVE_VALUE = re.compile(r"-\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    top = argparse.ArgumentParser(
        prog="kahlercone",
        description="Exact curvature checks for the Kahler geometry of "
                    "cubic-form index cones.")
    groups = {(): top.add_subparsers(dest="command", required=True)}
    for words, help_text, specs, handler in COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        if handler is None:
            groups[words] = p.add_subparsers(
                dest="_".join(words + ("command",)), required=True)
            continue
        for flags, kwargs in _FORM_ARGS + specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=functools.partial(handler, "-".join(words)))
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
