"""CLI outputs and option tables pinned byte for byte by their sha256.

A refactor of membership, the jet, the curvature sides, the reports or the
CLI must not change any exact value, the report layout, an exit code or an
option. Float mode is pinned as well: every mode computes exactly, and a
float-mode report is the exact report with each value rounded once to
binary64, so it is deterministic. The float-mode contract tests check that
rounding against the exact-mode report of the same command line, at the
pinned float lines and at sampled points of the suite forms.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercone import cone_sample
from kahlercone.cli import build_parser, main

from _util import suite_forms

FORM4 = "1/2*y1*y2*y3 + 2/3*y4^3"
# every cubic monomial in three variables, with fractional coefficients
FORM3 = ("1/2*y1^3 + 3*y1^2*y2 - 1/3*y1^2*y3 + 2/5*y1*y2^2 + 7/4*y1*y2*y3"
         " - 2/3*y1*y3^2 + 1/6*y2^3 + 5/2*y2^2*y3 - 3/7*y2*y3^2 + 4/3*y3^3")
# every cubic monomial in three variables, integer coefficients but 1/6
FORM_SIXTH = ("1/6*y1^3 + 3*y1^2*y2 - y1^2*y3 + 2*y1*y2^2 + 7*y1*y2*y3"
              " - 2*y1*y3^2 + y2^3 + 5*y2^2*y3 - 3*y2*y3^2 + 4*y3^3")
FORM6 = "y1*y2*y3 + y4^3 + y5^3 + y6^3"
POINT6 = "16,2,3,-3/7,-1/2,-10/7"      # cone_sample(FORM6, 1, seed=1)

# (argv, exit code, sha256 of stdout)
PINNED = [
    (["curvature", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1"], 0,
     "c087faafdd5b69194790c8feed673571d7656ee28ad07ecdd2946217991599b9"),
    # a dense form at a point with distinct coordinates: no curvature
    # entry vanishes by sparsity, under either sign convention
    (["curvature", "--form", FORM3, "--points", "2,1/2,-1"], 0,
     "56efc697a1a39050f3998a214dd80deb7d0a476b484087bb13f7e02e861e9494"),
    (["curvature", "--form", FORM3, "--points", "2,1/2,-1",
      "--convention", "negated"], 0,
     "b16088ca00ab98274f0e513e25995eb69bb47393a60c9f5a0334cbf3cba905a5"),
    (["cone-metric", "--form", "y1*y2^2", "--points", "1,1", "--lam", "1/2"],
     0, "a09a087228daa7373eca6b817bad36fcebcdc088d3247a6234dc28f9b529d8cb"),
    (["metric", "--form", "y1*y2^2", "--points", "1,1"], 0,
     "d26f422c2cb7739acd811cc8337940321933772b42bb182550c47b52b8b36199"),
    (["verify", "--form", "y1*y2^2", "--samples", "4", "--seed", "12"], 0,
     "b3a0acce97d9aec8b9f485e0bd7353b354c9c02f34f8496c050a633c44898c20"),
    (["affine-verify", "--form", "y1*y2*y3", "--points", "1,1,1;2,1,1"], 0,
     "a7b77a2f20eefbb668b7e44608bab6858ff6c493f902a7a9701409657efbaa7c"),
    # one Interior, one Boundary and one Outside point, and a hint-free
    # sample, on a form with fractional coefficients
    (["cone", "check", "--form", FORM4,
      "--points", "4,2,1/2,-1;1/3,2,2,-1;1,1,1,2"], 0,
     "3cd7b0da465aab949f959804e81b15ddada436666908b9c41921a1800b771bd2"),
    (["cone", "check", "--text", "--form", FORM4,
      "--points", "4,2,1/2,-1;1/3,2,2,-1;1,1,1,2"], 0,
     "b22ff16b515078b181f21f71be9958faea7ed52ad84ecf5bda1db49546f91b49"),
    (["cone", "sample", "--form", FORM4, "--samples", "6", "--seed", "5"], 0,
     "8340a906bc37b4e20e6f07d42e3ea9a9504e359a20b1a75ae12f068f32985d01"),
    # the text renderings
    (["metric", "--text", "--form", "y1*y2^2", "--points", "1,1;1,2"], 0,
     "ddfb572e24d4208e92ab87a78acebbdc7fc8084af681e7fe4d97d03a6b60533a"),
    (["curvature", "--text", "--form", "y1*y2*y3 + y4^3",
      "--points", "2,2,2,-1"], 0,
     "2a02bb610a350dfeed64c5548e9277487a67db7000ab3d2ebbc0504bfe5a34bc"),
    (["affine-verify", "--text", "--form", "y1*y2*y3",
      "--points", "1,1,1;2,1,1"], 0,
     "f982a03ac23558ec526b98474fee3eeed8bd1998c1c0e42b39c0a53e7ec88226"),
    (["cone-metric", "--text", "--form", "y1*y2^2", "--points", "1,1",
      "--lam", "1/2"], 0,
     "1b88a654df03af1a1cf2e57735d0b06d005c333346031401249dba8d175b9201"),
    (["validate", "--text", "--form", FORM4], 0,
     "c09b5b4e2f1bcef57217d455c946b3238f950799d88c5537ec96f4bc897518bf"),
    (["identity-n8f", "--text", "--form", FORM4], 0,
     "2bf8b73cae17d6d7be6cb558a110fdbff565fe1baacd7ee47c3d5681ec4221d3"),
    (["cone", "sample", "--text", "--form", FORM4, "--samples", "6",
      "--seed", "5"], 0,
     "24068a7abec45d7d47aaf4b7d2c4cf679b9340961c219e3045b4f25bcacb74a5"),
    # no wall-clock time without --timing
    (["verify", "--text", "--form", "y1*y2^2", "--samples", "4",
      "--seed", "12"], 0,
     "e8e9adfd130fa07d350dd69d835fadc3abea2c42eaae02dd99aa0cdd3c1c6057"),
    # a failed check (the stated inverse breaks for non-real lambda) and a
    # domain error, in JSON and in text
    (["cone-metric", "--form", "y1*y2^2", "--points", "1,1", "--lam", "1+2i"],
     1, "ac1c41dc9a93329927e5f958a6a997bc3125791ef26829b069ff9f98cde85fde"),
    (["metric", "--form", "y1^3", "--points", "-1"], 2,
     "fe8232aa9cddf9bdd291308a72094a08a196e5887ab2a44549204f5fa89c429e"),
    (["metric", "--text", "--form", "y1^3", "--points", "-1"], 2,
     "b36cb32884ecb04ec1d0334fb961ef3223c3ec4aaca03e50c01dc7fbeab9871a"),
    # a failed identity: the negated convention leaves a nonzero residual,
    # whose maximum entry is reported exactly
    (["verify", "--form", FORM3, "--points", "2,1/2,-1",
      "--convention", "negated"], 1,
     "df1effd1ee451d461348dec22d4113e06efd30e27b4e9476dbc02de31e509e42"),
    (["verify", "--text", "--form", FORM3, "--points", "2,1/2,-1",
      "--convention", "negated"], 1,
     "1a5b933e4bc73efa5c62b0a35583190aa3c2868aefe5dd8368f06c55e1f7a792"),
    (["verify", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1",
      "--convention", "negated"], 1,
     "fd98e10e7232afe6f71a8cffceba8e23c5a0d61a4f016cbabbd3f0b0f2a7abbb"),
    # a dense cubic whose only fractional coefficient is 1/6, at a point
    # with an odd first coordinate once cleared: an integer gradient from
    # f3 scaled by anything less than 6c would be rounded here
    (["verify", "--form", FORM_SIXTH, "--points", "1/4,-5/2,9/5"], 0,
     "1a9d6f88609af6244ab148fd1b2ec398d05172031e5d0699e8a4dd977074c5ef"),
    (["curvature", "--form", FORM_SIXTH, "--points", "1/4,-5/2,9/5"], 0,
     "94d1f053c50c394873516bd2b4c1022922f6f7e10710b819e3e2f7f7ced267a7"),
    (["metric", "--form", FORM_SIXTH, "--points", "1/4,-5/2,9/5"], 0,
     "a9e76f3f59c9cbbacd0f7c778e640b39584a599f11be39b9f8ca9358d3663792"),
    # float mode: the exact values above, each rounded once to binary64
    (["metric", "--mode", "float", "--form", FORM_SIXTH,
      "--points", "1/4,-5/2,9/5"], 0,
     "1e2cb196ee8d5131fd814012f3d4b42beb7917c859cdef6174ee4e4f22b075e8"),
    (["curvature", "--mode", "float", "--form", FORM3,
      "--points", "2,1/2,-1"], 0,
     "562db1eef05407ba4f4a0404054f3fd9ae135e8d7f0fff2039ed1126211003b9"),
    (["verify", "--mode", "float", "--form", FORM3, "--points", "2,1/2,-1",
      "--convention", "negated"], 1,
     "1b7992ea74138497f981ac0ea8277fe01b33fe2651efa8e10738b8e4a05b83e1"),
    (["verify", "--mode", "float", "--text", "--form", FORM3,
      "--points", "2,1/2,-1", "--convention", "negated"], 1,
     "fcfba4bfed420c1305622023a36db063d520c408896d14a3989a61acabb14efc"),
    # the tensor renderings at a larger n, in both modes; the negated
    # convention's nonzero residual at n = 4; the float metric at n = 4
    (["curvature", "--form", FORM6, "--points", POINT6], 0,
     "b479f64706bf79263234773eba73732e0e12975f84aa5c908c50597226ef1809"),
    (["curvature", "--mode", "float", "--form", FORM6, "--points", POINT6], 0,
     "456911655811345d7b10a652611a76ab5b4e729d6647b00c3c701363580585f0"),
    (["curvature", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1",
      "--convention", "negated"], 0,
     "0dd2c02dc70e6b00c578c89634e24fc0e2043a12f8cab3ace2676ab0ab702ee5"),
    (["metric", "--mode", "float", "--form", "y1*y2*y3 + y4^3",
      "--points", "2,2,2,-1"], 0,
     "e56a2d57c38f22d61f533962dd1711f949cbedb006e304df967aadf915493eb4"),
    # the fibre checks above n = 2, at a nonzero Re t: a real lambda
    # passes; a non-real and a purely imaginary one fail the inverse alone
    (["cone-metric", "--form", FORM3, "--points", "2,1/2,-1",
      "--x", "1,-1,1/3", "--lam", "3/2"], 0,
     "14200fee6df4b9a5d3d99116c76af9bf0b31eed72dd914f7868b0d57d9390788"),
    (["cone-metric", "--form", FORM3, "--points", "2,1/2,-1",
      "--x", "1,-1,1/3", "--lam", "1/2+1i"], 1,
     "0f095945890a17148b1fb53362dca496d1090476082b5bb8d811f4ee8ba02f43"),
    (["cone-metric", "--form", FORM3, "--points", "2,1/2,-1",
      "--x", "1,-1,1/3", "--lam", "0+2i"], 1,
     "3dd0d9473cf7b1c7bb945f4298241e47a395031e3f25092d1177e72ddd62aeb5"),
    (["cone-metric", "--text", "--form", FORM3, "--points", "2,1/2,-1",
      "--x", "1,-1,1/3", "--lam", "1/2+1i"], 1,
     "15ed4f6cbc2027ede685eb52a33a4b908a5600a76f903e1412f4ae4d6b633376"),
    (["cone-metric", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1",
      "--x", "1,0,-1/2,0", "--lam", "3/2"], 0,
     "8aa400a5c295d2837ce8729abaa811a5d0b8d3b08609c008f3fde68af0580ec2"),
    (["cone-metric", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1",
      "--x", "1,0,-1/2,0", "--lam", "1/2+1i"], 1,
     "fc3b4d17ed1c4568b964859221fe39bd22d313f8fcd24528a493d896e34f707b"),
    (["cone-metric", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1",
      "--x", "1,0,-1/2,0", "--lam", "0+2i"], 1,
     "69e465779e08022adfe17c5f77ad5ec05f5d7d145dedffdb3117ff4d227fb844"),
]

# sha256 of each parser level's option table (see _option_table), keyed by
# the subcommand words; print json.dumps(_option_table(p)) to see one
PINNED_OPTIONS = {
    "": "dd7def3159406e01cb656dd9cc2bb511555b4a2806962baca9a426a65414b6aa",
    "validate":
        "308423a8f5bbb235a747c3367390de4cd68e48cb5dc5fe65af523cc02384b2d8",
    "cone": "5326c56845af005166a4c611dd78933ac23f4c9013cb00eeb9fa4d8d6e8f12f8",
    "cone check":
        "c1a93e9241d7f8ef3255c70a79b0a28d2584fc7f0026dc59094b19e592af2b3a",
    "cone sample":
        "af34611d84c39a6e986702325f90fdb72f2db791e407810d9f54c541948f53a4",
    "metric":
        "ce75c35286b6fd8b225775380a7462f8b2929534470ae2f2d04195da10fdccf1",
    "curvature":
        "ab7dbfaac76db975f3149d949637830c9a0c404fb73f159a77837eec220b9c4f",
    "verify":
        "ff9a065cfdd0000e480c4caa49a8163e9b85b373e0e19b422b58eb6a4c82f498",
    "affine-verify":
        "c7dabe76e6422a98a5b41e92b302ec94c02e2a847c93123d0f04259ac9c97381",
    "cone-metric":
        "ac69d22310589885de9341b45069cf6f3752e8cedd12d37c7bbf3c5f10e6b058",
    "identity-n8f":
        "b8778a34a946fe148cdd7f966c1a8afbc90d920d5d193f96666adc322efb20dc",
}


def _test_id(argv, code=0):
    """The subcommand words, plus "text" under --text, "float" in float
    mode, "negated" under the negated convention and the exit code when it
    is not 0: "cone-check-text", "metric-text-exit2", "curvature-negated"."""
    words = [w for w in argv[:2] if not w.startswith("-")]
    return "-".join(words + ["text"] * ("--text" in argv)
                    + ["float"] * ("float" in argv)
                    + ["negated"] * ("negated" in argv)
                    + [f"exit{code}"] * (code != 0))


def _numbered(names):
    """The names, a repeated one with its count: "curvature-2"."""
    seen = {}
    ids = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


def _test_ids(cases):
    """_test_id of each case, numbered."""
    return _numbered(_test_id(argv, code) for argv, code, _ in cases)


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=_test_ids(PINNED))
def test_exact_output_is_pinned(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_one_parser_serves_every_call(capsys):
    # two subcommands through the one cached parser, with a usage error
    # between them, give the pinned bytes
    assert build_parser() is build_parser()
    for argv, code, digest in (PINNED[5], PINNED[8]):
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--form", "y1^3", "--points"])
        assert exc.value.code == 2


# a Complex as `scalars.format_complex` writes it (real part, then the
# imaginary part with its sign, then "i"), and an exact rational
_NUMBER = r"-?[\d./]+(?:e[+-]\d+)?"
_COMPLEX = re.compile(rf"({_NUMBER})\+?({_NUMBER})i")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def _assert_rounded(fl, ex, path=()):
    """Every number in the float-mode document fl is the exact-mode string
    at the same place in ex rounded once, float(Fraction(s)); so is each
    part of a complex entry, and no reported value stays a rational string.
    Everything else is equal, except the echoed mode, float mode's relative
    residuals (checked by the caller) and the metric inertia, which only
    exact mode reports."""
    if isinstance(fl, dict):
        assert set(ex) - set(fl) <= {"inertia"}, path
        for key, value in fl.items():
            if key == "mode":
                assert (value, ex[key]) == ("float", "exact"), path
            elif key != "maxRelResidual":
                _assert_rounded(value, ex[key], path + (key,))
    elif isinstance(fl, list):
        assert isinstance(ex, list) and len(fl) == len(ex), path
        for i, (a, b) in enumerate(zip(fl, ex)):
            _assert_rounded(a, b, path + (i,))
    elif isinstance(fl, float):
        assert fl == float(Fraction(ex)), path
    elif path[:1] == ("form",) or not isinstance(ex, str):
        assert fl == ex, path
    else:
        assert not _RATIONAL.fullmatch(ex), path
        parts = _COMPLEX.fullmatch(fl), _COMPLEX.fullmatch(ex)
        if parts[1] is None:
            assert fl == ex, path
        else:
            assert parts[0] is not None, path
            assert [float(v) for v in parts[0].groups()] == \
                [float(Fraction(v)) for v in parts[1].groups()], path


def _run(argv):
    """(exit code, JSON document) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _assert_float_contract(argv):
    """The float-mode report of argv is its exact-mode report rounded once,
    with the same exit code, which it returns; a verify point has a numeric
    maxRelResidual, greater than 0 exactly when it fails."""
    exact = [a for a in argv if a not in ("--mode", "float")]
    code_ex, doc_ex = _run(exact)
    code_fl, doc_fl = _run(exact + ["--mode", "float"])
    assert code_fl == code_ex, argv
    _assert_rounded(doc_fl, doc_ex)
    if argv[0] == "verify":
        for p in doc_fl["points"]:
            rel = p["maxRelResidual"]
            assert type(rel) is float and (rel > 0) == (p["verdict"] == "FAIL")
    return code_fl


# the JSON float pins; a text pin's JSON twin is among them
FLOAT_PINS = [argv for argv, _, _ in PINNED
              if "float" in argv and "--text" not in argv]


@pytest.mark.parametrize("argv", FLOAT_PINS,
                         ids=_numbered(argv[0] for argv in FLOAT_PINS))
def test_float_pins_round_the_exact_output(argv):
    _assert_float_contract(argv)


SUITE = suite_forms()


@settings(max_examples=10)
@given(st.sampled_from(range(len(SUITE))), st.integers(0, 10**6))
def test_float_mode_rounds_the_exact_report(which, seed):
    form, hint = SUITE[which]
    points = ";".join(",".join(map(str, y)) for y in
                      cone_sample(form, 2, seed=seed, hint=hint))
    base = ["--form", form.to_text(), "--points", points]
    assert _assert_float_contract(["metric"] + base) == 0
    for convention in ("standard", "negated"):
        for command in ("curvature", "verify"):
            code = _assert_float_contract([command, "--convention",
                                           convention] + base)
            # only the negated identity fails (exit 1)
            assert code == (command == "verify" and convention == "negated")


def _parsers(parser, words=()):
    """(subcommand words, parser) for the parser and all its subparsers."""
    yield " ".join(words), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, words + (name,))


def _option_table(parser):
    """Prog, description and, for each option and subcommand, its flags,
    destination, default, choices, type, action, requiredness and help."""
    rows = [parser.prog, parser.description]
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            rows.append([a.dest, a.required,
                         [[c.dest, c.help] for c in a._choices_actions]])
        else:
            rows.append([a.option_strings, a.dest, repr(a.default),
                         list(a.choices) if a.choices else None,
                         getattr(a.type, "__name__", None), type(a).__name__,
                         a.required, a.help])
    return rows


def test_option_tables_are_pinned():
    tables = {words: json.dumps(_option_table(p))
              for words, p in _parsers(build_parser())}
    assert {words: hashlib.sha256(t.encode("utf-8")).hexdigest()
            for words, t in tables.items()} == PINNED_OPTIONS
