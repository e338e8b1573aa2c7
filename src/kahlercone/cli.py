"""Command-line interface.

Subcommands: validate, cone check, cone sample, metric, curvature, verify,
affine-verify, cone-metric, identity-n8f. JSON on stdout is the default
(schemaVersion 1, written by `report.render_json`); --text switches to a
human-readable rendering. Exit codes: 0 success, 1 a verification check
failed, 2 parse or domain errors. A reader that closes stdout early changes
neither the exit code nor stderr: `_write` writes every document.

Forms come from --form (grammar in `kahlercone.cubic`) or --form-file (JSON
with fields "n" and "monomials"). The variable count is inferred from the
highest variable index unless --n is given. Points are comma-separated
rationals; semicolons separate points of dimension > 1 ("1,2;3,4" is two
2-dimensional points; for n = 1, "1,2,1/3" is three points).

`COMMANDS` is the one table of subcommands: their words, help, arguments
beyond the form group, and body; `build_parser` reads nothing else.
`_command` is the one handler: it loads the form, runs the body, which
returns (fields, text, passed), and writes the document - schemaVersion,
command, the form, then the fields - or the text. It alone decides exit 0
or 1: 1 when passed is False, 0 when it is True or None (the subcommand
checks nothing); `main` alone maps a `KahlerConeError` to its error
document and exit 2. The per-point subcommands (cone check, cone sample,
metric, curvature, affine-verify, cone-metric) share one body,
`_per_point`: each supplies a function from one point to its JSON entry,
its text line and its verdict (None when it checks nothing).

`_doc` is the one formatter from scalars, points and tensors to JSON
values: exact rationals become decimal-free strings ("p/q" or "p"); under
`--mode float` each value is first rounded once by `scalars.to_float`, and
a real one is written as a JSON number (every mode computes exactly). A
packed container becomes a container of its own class holding its
formatted stored entries, each formatted once; `render_json` writes it as
its dense nested array, and `metric`'s text line prints its `.rows()`. No
report holds wall-clock time unless `verify --timing` asks for the time
the CLI measures around `verify_identity`, so a fixed command line and seed
give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from .cubic import (CubicForm, _classify, cone_sample, norm_identity_check,
                    parse_text)
from .errors import KahlerConeError
from .geometry import (CONVENTIONS, MODES, _integer_jet, curvature_report,
                       verify_identity)
from .linalg import _Packed
from .report import SCHEMA_VERSION, render_json
from .scalars import (Complex, format_point, format_scalar, parse_rational,
                      to_float)
from .special import (affine_curvature_check, build_tilde_metric,
                      tilde_christoffel_check, tilde_inverse_check)

__all__ = ["main"]


def _load_form(args) -> CubicForm:
    if args.n is not None and args.n < 1:
        raise KahlerConeError(f"--n must be at least 1, got {args.n}")
    if args.form_file:
        try:
            with open(args.form_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_float=parse_rational,
                                parse_constant=parse_rational)
            return CubicForm.from_json_dict(doc)
        except (OSError, KeyError, ValueError, TypeError,
                RecursionError) as exc:
            raise KahlerConeError(f"cannot load form file: {exc}") from exc
    if not args.form:
        raise KahlerConeError("one of --form or --form-file is required")
    return parse_text(args.form, args.n)


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
    """A rational, or a+bi split at the last sign before i that follows no
    exponent's e; each part read by `parse_rational`, as in --points."""
    m = re.fullmatch(r"(.*[^eE])([+-])\s*(.*?)\s*i\s*", text)
    try:
        if m:
            return Complex(parse_rational(m[1]), parse_rational(m[2] + m[3]))
        return Complex(parse_rational(text))
    except ValueError as exc:
        raise KahlerConeError(f"bad fibre coordinate {text!r}") from exc


def _form_echo(form: CubicForm) -> dict:
    doc = form.to_json_dict()
    doc["text"] = form.to_text()
    return doc


def _doc(x, mode="exact"):
    """JSON value of a scalar (None stays None), a packed container of the
    same class holding the JSON values of its stored entries, or a list of
    these, nested or not."""
    if isinstance(x, (list, tuple)):
        return [_doc(v, mode) for v in x]
    if x is None:
        return None
    if not isinstance(x, _Packed):
        return format_scalar(to_float(x) if mode == "float" else x)
    data = map(to_float, x._data) if mode == "float" else x._data
    return type(x)(x.n, list(map(format_scalar, data)))


def _coords(y) -> str:
    return ",".join(str(format_scalar(v)) for v in y)


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _write(text: str) -> None:
    """Write and flush text to stdout. When the reader has closed the pipe,
    point stdout's descriptor at os.devnull, so the exit flush succeeds."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


# ----------------------------------------------------------------------------
# the one handler and its bodies: a body takes the parsed arguments and the
# form and returns (fields, text, passed)

def _command(body, command, args):
    """The handler of every subcommand (module docstring): its exit code is
    1 when the body's verdict `passed` is False, else 0."""
    form = _load_form(args)
    fields, text, passed = body(args, form)
    doc = {"schemaVersion": SCHEMA_VERSION, "command": command,
           "form": _form_echo(form), **fields}
    _write(text if args.text else render_json(doc))
    return 1 if passed is False else 0


def _per_point(body, points=_points_for, echo=()):
    """Body that runs body(args, form, point) -> (entry, line, passed) at
    each point of points(args, form). The fields echo the options named in
    `echo`; they have an "overall" verdict, and the text an "overall:" line,
    when the body checks something (passed is not None)."""
    def run(args, form):
        results = [body(args, form, p) for p in points(args, form)]
        fields = {key: getattr(args, key) for key in echo}
        fields["points"] = [entry for entry, _, _ in results]
        text = "".join(line + "\n" for _, line, _ in results)
        verdicts = [passed for _, _, passed in results]
        if None in verdicts:
            return fields, text, None
        passed = all(verdicts)
        fields["overall"] = _verdict(passed)
        return fields, text + f"overall: {fields['overall']}\n", passed
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
    ij, n = _integer_jet(form, y), form.n
    doc = functools.partial(_doc, mode=args.mode)
    entry = {"y": doc(y), "g": doc(ij.g), "gInv": doc(ij.ginv)}
    if args.mode == "exact":
        # _integer_jet proved M, a positive multiple of g, positive definite
        entry["inertia"] = [n, 0, 0]
    return entry, f"y={entry['y']}: g={entry['g'].rows()}", None


def _curvature_point(args, form, y):
    rep = curvature_report(form, y, convention=args.convention)
    doc = functools.partial(_doc, mode=args.mode)
    lhs = doc(rep.lhs)
    entry = {"y": doc(y), "normFunction": doc(rep.potential_arg),
             "yukawa": doc(rep.yukawa), "christoffel": doc(rep.christoffel),
             "lhs": lhs, "rhs": lhs if rep.rhs == rep.lhs else doc(rep.rhs),
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
    xs = (_parse_points(args.x, form.n) if args.x
          else [(0,) * form.n] * len(points))
    if len(xs) != len(points):
        raise KahlerConeError("--x must give one group per point")
    lam = _parse_lambda(args.lam)
    return [(tuple(map(Complex, x, y)), lam) for y, x in zip(points, xs)]


def _cone_metric_point(args, form, point):
    t, lam = point
    tm = build_tilde_metric(form, t, lam)
    inv = tilde_inverse_check(tm)
    chris = tilde_christoffel_check(tm)
    # membership proved F > 0 and M positive definite; B's Schur complement
    # of 4F is -M / F, so B (and gtilde) has inertia (1, n, 0) by Haynsworth
    sig = (1, form.n, 0)
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


def _validate(args, form):
    count = len(form.monomials)
    return ({"monomialCount": count}, f"valid homogeneous cubic: "
            f"{form.to_text()}  (n={form.n}, {count} monomials)\n", None)


def _verify(args, form):
    """verify_identity at the points, timed for --timing; the fields echo n
    and the options that shape the report, and the seed when it sampled
    the points."""
    points = _points_for(args, form)
    start = time.perf_counter()
    summary = verify_identity(form, points, mode=args.mode,
                              convention=args.convention)
    ms = int((time.perf_counter() - start) * 1000)
    entries = []
    lines = [f"form: {form.to_text()}   (n={form.n}, mode={args.mode}, "
             f"convention={args.convention})"]
    for p in summary.points:
        entry = {"y": _doc(p.y), "verdict": p.verdict,
                 "maxAbsResidual": _doc(p.max_abs_residual)}
        rel = ""
        if p.max_rel_residual is not None:
            entry["maxRelResidual"] = p.max_rel_residual
            rel = f"  rel={p.max_rel_residual:.3e}"
        entries.append(entry)
        lines.append(f"  y={format_point(p.y)}: {p.verdict}  "
                     f"max|residual|={entry['maxAbsResidual']}{rel}")
    fields = {"n": form.n, "mode": args.mode, "convention": args.convention}
    if not args.points:                         # the points were sampled
        fields["seed"] = args.seed
    fields.update(points=entries, overall=summary.overall)
    timing = ""
    if args.timing:
        fields["timingMs"] = ms
        timing = f"   [{ms} ms]"
    lines.append(f"overall: {summary.overall}{timing}")
    return fields, "\n".join(lines) + "\n", summary.overall == "PASS"


def _identity_n8f(args, form):
    res = norm_identity_check(form)
    fields = {"holds": res.holds}
    if not res.holds:
        exp, got, want = res.counterexample
        fields["counterexample"] = {"exponents": list(exp), "got": _doc(got),
                                    "expected": _doc(want)}
    return (fields, f"norm function equals 8*f: "
                    f"{'HOLDS' if res.holds else 'FAILS'}\n", res.holds)


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

# (words, help, arguments beyond _FORM_ARGS, body); a row without a body
# groups the subcommands whose words extend its own
COMMANDS = (
    (("validate",), "parse and echo a form", (), _validate),
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
     _verify),
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
     _identity_n8f),
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
    for words, help_text, specs, body in COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        if body is None:
            groups[words] = p.add_subparsers(
                dest="_".join(words + ("command",)), required=True)
            continue
        for flags, kwargs in _FORM_ARGS + specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=functools.partial(_command, body,
                                              "-".join(words)))
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        # argparse wrote --help itself; flush it here, where a closed
        # stdout keeps the exit code, not at interpreter exit
        _write("")
        raise
    try:
        return args.func(args)
    except KahlerConeError as exc:
        doc = {"schemaVersion": SCHEMA_VERSION,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        _write(f"error: {type(exc).__name__}: {exc}\n"
               if getattr(args, "text", False) else render_json(doc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
