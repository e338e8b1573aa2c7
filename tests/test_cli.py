"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import re

import pytest
from decimal import Decimal
from fractions import Fraction as F

import kahlercone.cli
from kahlercone import SymMatrix, build_tilde_metric
from kahlercone.cli import main
from kahlercone.poly import Poly

from _util import run_cli, run_python


def run_inproc(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_exact_univariate(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1^3",
                           "--points", "1,2,1/3", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["overall"] == "PASS"
    assert [p["maxAbsResidual"] for p in doc["points"]] == ["0", "0", "0"]
    assert [p["y"] for p in doc["points"]] == [["1"], ["2"], ["1/3"]]


def test_cone_check_outside_still_exits_zero(capsys):
    code, out = run_inproc(capsys, "cone", "check", "--form", "y1^3+y2^3",
                           "--point", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"][0]["verdict"] == "Outside"
    assert doc["points"][0]["hessianInertia"] == [2, 0, 0]


def test_validate_rejects_inhomogeneous(capsys):
    code, out = run_inproc(capsys, "validate", "--form", "y1^2")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotHomogeneousCubic"


def test_validate_echoes_canonical_form(capsys):
    code, out = run_inproc(capsys, "validate", "--form", "y2^3 + y1*y2^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["form"]["text"] == "y1*y2^2 + y2^3"
    assert doc["form"]["n"] == 2


def test_verify_negated_convention_fails(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1^3", "--points", "1",
                           "--convention", "negated")
    assert code == 1
    assert json.loads(out)["overall"] == "FAIL"


def test_sampling_exhausted_maps_to_exit_2(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1^3", "--n", "2",
                           "--samples", "3")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SamplingExhausted"


def test_sampling_exhausted_reports_distinct_candidates(capsys):
    # y1^3 has one interior grid value per positive rational on the grid,
    # so 200 distinct points cannot be found however long it samples
    grid = {F(p, q) for p in range(-16, 17) for q in range(1, 9)} - {0}
    positive = sum(v > 0 for v in grid)
    code, out = run_inproc(capsys, "cone", "sample", "--form", "y1^3",
                           "--samples", "200")
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith(
        f"found {positive}/200 interior points among {len(grid)} distinct "
        f"candidates in 100000 attempts; ")


# runs cli.main on each argv of the JSON list argv[1] and prints the exit
# codes and the top-level modules it loaded that are not the standard
# library's (sys.stdlib_module_names, Python 3.10+) or kahlercone
_RUNTIME_MODULES = """
import sys
before = set(sys.modules)
import contextlib, io, json
from kahlercone.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([codes, sorted(loaded - sys.stdlib_module_names
                                - {"kahlercone"})]))
"""


def test_runtime_loads_only_the_standard_library():
    argvs = [["verify", "--form", "y1*y2*y3", "--samples", "2",
              "--hint", "1,1,1"],
             # the stated inverse breaks for non-real lambda: exit 1
             ["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
              "--lam", "1/2+1i"],
             ["identity-n8f", "--form", "y1*y2^2"]]
    proc = run_python("-c", _RUNTIME_MODULES, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 1, 0], []]


@pytest.mark.parametrize("unbuffered", ["1", None],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,code", [
    (["verify", "--form", "y1*y2^2", "--points", "1,1"], 0),
    (["verify", "--convention", "negated", "--form", "y1^3",
      "--points", "3,7"], 1),
    (["verify", "--form", "y1^3+y2^3", "--points", "4,-8"], 2),
    (["--help"], 0),
    (["verify", "--help"], 0),
], ids=["pass", "fail", "input-error", "help", "command-help"])
def test_a_closed_stdout_keeps_the_exit_code(argv, code, unbuffered):
    # the reader of stdout has gone before the report is written: the exit
    # code is still the command's own, and nothing reaches stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python("-m", "kahlercone.cli", *argv, stdout=write,
                          env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_lambda_parts_read_as_points_read_rationals(capsys):
    for written, exact in (("1.5+2i", "3/2+2i"), ("1e-2+3i", "1/100+3i"),
                           ("1-2.5e-1i", "1-1/4i")):
        argv = ["cone-metric", "--form", "y1*y2^2", "--points", "1,1"]
        got = run_inproc(capsys, *argv, "--lam", written)
        assert got == run_inproc(capsys, *argv, "--lam", exact), written
        assert json.loads(got[1])["points"][0]["lambda"] == exact, written


def test_values_may_start_with_minus_and_digit(capsys):
    # each option value as its own argument and joined by "="
    for argv, code, key, value in (
            (["verify", "--form", "y1^3+y2^3", "--points", "-1,2"], 0,
             "points", [{"y": ["-1", "2"], "verdict": "PASS",
                         "maxAbsResidual": "0"}]),
            (["cone", "sample", "--form", "y1^3+y2^3", "--samples", "2",
              "--hint", "-1/2,1"], 0,
             "points", [["-8/7", "16/7"], ["-9/20", "2/3"]]),
            (["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
              "--x", "-1,0"], 0, "t", ["-1+1i", "0+1i"]),
            (["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
              "--lam", "-1/2+1i"], 1, "lambda", "-1/2+1i")):
        got = run_inproc(capsys, *argv)
        assert got == run_inproc(capsys, *argv[:-2],
                                 f"{argv[-2]}={argv[-1]}"), argv
        assert got[0] == code, argv
        doc = json.loads(got[1])
        entry = doc if key == "points" else doc["points"][0]
        assert entry[key] == value, argv


def test_point_outside_cone_maps_to_exit_2(capsys):
    code, out = run_inproc(capsys, "metric", "--form", "y1^3",
                           "--points", "-1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "NotInCone"
    assert error["message"] == "point (-1) is not interior"
    assert "Fraction(" not in error["message"]


def test_float_mode_decides_membership_exactly(capsys):
    # f = 2 > 0 at (1, 1), but Hess f is positive definite: outside the cone
    for command in ("verify", "metric"):
        code, out = run_inproc(capsys, command, "--mode", "float", "--form",
                               "y1^3+y2^3", "--points", "1,1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotInCone"


def test_float_mode_range_exits_2(capsys):
    # float mode rounds the exact report once: a coordinate beyond the float
    # range, or a metric entry (about 1e-400) that rounds to 0.0, exits 2
    for command, form, points in (
            ("verify", "y1^3", "1e400"), ("metric", "y1^3", "1e400"),
            ("curvature", "y1^3", "1e400"),
            ("metric", "y1*y2^2", "1e200,1e200")):
        argv = [command, "--form", form, "--points", points]
        code, out = run_inproc(capsys, *argv, "--mode", "float")
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "KahlerConeError", argv
        assert "Traceback" not in out and "NaN" not in out, argv
        code, out = run_inproc(capsys, *argv)
        assert code == 0, argv
        if command == "verify":
            assert json.loads(out)["overall"] == "PASS", argv
    # f(y) near the float range's ends: the residual is exactly zero and
    # every reported value is a float, so both modes pass
    for points in ("1e-200,1e-200", "1e200,1e200", "1e-100,1e50"):
        argv = ["verify", "--form", "y1*y2^2", "--points", points]
        for mode in ("exact", "float"):
            code, out = run_inproc(capsys, *argv, "--mode", mode)
            assert code == 0, (argv, mode)
            assert json.loads(out)["overall"] == "PASS", (argv, mode)


def test_nonpositive_sample_count_exits_2(capsys):
    for argv in (["verify", "--form", "y1*y2^2", "--samples", "-1"],
                 ["cone", "sample", "--form", "y1*y2^2", "--samples", "-1"],
                 ["cone", "sample", "--form", "y1*y2^2", "--samples", "0"]):
        code, out = run_inproc(capsys, *argv)
        assert code == 2
        assert "--samples" in json.loads(out)["error"]["message"]


def test_hint_must_be_one_point(capsys):
    code, out = run_inproc(capsys, "cone", "sample", "--form", "y1^3",
                           "--hint", "1,2")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "KahlerConeError"


def test_empty_point_list_exits_2(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1*y2^2",
                           "--points", ";")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "KahlerConeError"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--points", "1"], "one of --form or --form-file is required"),
    (["verify", "--form", "y1*y2^2", "--points", "1,2,3"],
     "point group '1,2,3' has 3 coordinates, expected 2"),
    (["verify", "--form", "y1^3"],
     "no points given: pass --points or --samples"),
    (["cone-metric", "--form", "y1*y2^2", "--points", "1,1;1,2",
      "--x", "1,0"], "--x must give one group per point"),
])
def test_missing_or_mismatched_inputs_exit_2(capsys, argv, message):
    code, out = run_inproc(capsys, *argv)
    assert code == 2 and "Traceback" not in out
    assert json.loads(out)["error"] == {"type": "KahlerConeError",
                                        "message": message}


def test_verify_with_sampled_points(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1*y2^2",
                           "--samples", "5", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS" and len(doc["points"]) == 5


def test_float_mode_emits_numbers(capsys):
    code, out = run_inproc(capsys, "verify", "--form", "y1^3",
                           "--points", "1", "--mode", "float")
    assert code == 0
    doc = json.loads(out)
    point = doc["points"][0]
    assert isinstance(point["y"][0], float)
    assert isinstance(point["maxAbsResidual"], float)
    assert point["maxRelResidual"] < 1e-9


def test_exact_mode_emits_only_rational_strings(capsys):
    code, out = run_inproc(capsys, "metric", "--form", "y1*y2^2",
                           "--points", "1,2")
    assert code == 0
    doc = json.loads(out)
    g = doc["points"][0]["g"]
    assert all(isinstance(v, str) for row in g for v in row)


def test_curvature_report_payload(capsys):
    code, out = run_inproc(capsys, "curvature", "--form", "y1^3",
                           "--points", "1")
    assert code == 0
    doc = json.loads(out)
    entry = doc["points"][0]
    assert entry["normFunction"] == "8"
    assert entry["lhs"][0][0][0][0] == "3/8"
    assert entry["rhs"][0][0][0][0] == "3/8"
    assert entry["residual"][0][0][0][0] == "0"
    assert entry["yukawa"][0][0][0] == "3"
    assert entry["christoffel"][0][0][0] == "0+1i"


def test_cone_metric_checks(capsys):
    code, out = run_inproc(capsys, "cone-metric", "--form", "y1^3",
                           "--points", "1", "--lam", "1")
    assert code == 0
    doc = json.loads(out)
    entry = doc["points"][0]
    assert entry["gTilde"] == [["8+0i", "0-12i"], ["0+12i", "12+0i"]]
    assert entry["inverseCheck"] is True
    assert entry["inertia"] == [1, 1, 0]
    assert entry["christoffelCheck"]["passed"] is True


@pytest.mark.parametrize("form,point", [
    ("y1^3", "1"), ("y1*y2^2", "1,1"), ("y1*y2*y3 + y4^3", "2,2,2,-1")])
def test_a_wrong_bordered_hessian_fails_cone_metric(capsys, monkeypatch,
                                                    form, point):
    # B with its edge 2a halved: the connection verdicts fixed by how B is
    # built guard nothing, so the decided ones and the inverse check must
    def build(*args):
        tm = build_tilde_metric(*args)
        (corner, *edge), *rest = tm.bordered.rows()
        return tm._replace(bordered=SymMatrix.from_rows(
            [[corner, *(v // 2 for v in edge)]]
            + [[r[0] // 2, *r[1:]] for r in rest]))

    monkeypatch.setattr(kahlercone.cli, "build_tilde_metric", build)
    code, out = run_inproc(capsys, "cone-metric", "--form", form,
                           "--points", point)
    entry = json.loads(out)["points"][0]
    assert (code, entry["christoffelCheck"]["passed"],
            entry["inverseCheck"]) == (1, False, False)


def test_affine_verify(capsys):
    code, out = run_inproc(capsys, "affine-verify", "--form", "y1*y2*y3",
                           "--points", "1,1,1;2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS"
    assert all(p["kappa"] == "-4" for p in doc["points"])


def test_identity_n8f(capsys):
    code, out = run_inproc(capsys, "identity-n8f", "--form", "y1*y2^2")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_identity_n8f_failure_exits_1_with_counterexample(capsys,
                                                         monkeypatch):
    # a broken N: with conj the identity, N is 0 and 8 f(Im t) is not
    monkeypatch.setattr(Poly, "conj", lambda self: self)
    code, out = run_inproc(capsys, "identity-n8f", "--form", "y1*y2^2")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    bad = doc["counterexample"]
    assert len(bad["exponents"]) == 4 and sum(bad["exponents"]) == 3
    assert F(bad["got"]) != F(bad["expected"])


def _coeff_doc(number):
    """The form file of number * y1^3, with the number as written."""
    return '{"n": 1, "monomials": [{"exp": [3], "coeff": %s}]}' % number


def test_form_file_input(tmp_path, capsys):
    doc = {"n": 2, "monomials": [{"exp": [1, 2], "coeff": "1"},
                                 {"exp": [0, 3], "coeff": "2"}]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    code, out = run_inproc(capsys, "validate", "--form-file", str(path))
    assert code == 0
    assert json.loads(out)["form"]["text"] == "y1*y2^2 + 2*y2^3"
    # monomials with the same exponents add up, as in the text grammar
    doc = {"n": 1, "monomials": [{"exp": [3], "coeff": "1"},
                                 {"exp": [3], "coeff": "2"}]}
    path.write_text(json.dumps(doc))
    code, out = run_inproc(capsys, "validate", "--form-file", str(path))
    assert code == 0
    assert json.loads(out)["form"]["text"] == "3*y1^3"
    # a JSON number is read as the decimal written, like "0.1" and
    # --points 0.1, never through a binary float: no rounding, no overflow
    # to a traceback, no underflow to the zero form
    for number, text in (("0.1", "1/10*y1^3"), ("-2.5E-1", "-1/4*y1^3"),
                         ("1e400", f"{10**400}*y1^3"),
                         ("1e-400", f"1/{10**400}*y1^3")):
        path.write_text(_coeff_doc(number))
        code, out = run_inproc(capsys, "validate", "--form-file", str(path),
                               "--text")
        assert (code, out) == (0, f"valid homogeneous cubic: {text}  "
                                  "(n=1, 1 monomials)\n"), number


def test_byte_identical_reports_across_runs():
    argv = ["verify", "--form", "y1*y2^2", "--samples", "4", "--seed", "12"]
    code1, out1 = run_cli(*argv)
    code2, out2 = run_cli(*argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_sampling():
    argv = ["cone", "sample", "--form", "y1*y2*y3", "--hint", "1,1,1",
            "--samples", "6", "--seed", "8"]
    _, out1 = run_cli(*argv)
    _, out2 = run_cli(*argv)
    assert out1 == out2


def test_bad_inputs_exit_2(capsys, tmp_path):
    code, out = run_inproc(capsys, "verify", "--form", "y1^3",
                           "--points", "abc")
    assert code == 2 and "bad rational" in json.loads(out)["error"]["message"]
    code, out = run_inproc(capsys, "validate", "--form-file", "/nonexistent")
    assert code == 2
    code, out = run_inproc(capsys, "cone-metric", "--form", "y1^3",
                           "--points", "1", "--lam", "zz")
    assert code == 2
    # zero denominators and malformed form files: a JSON error, no traceback
    zero_coeff = tmp_path / "zero_coeff.json"
    zero_coeff.write_text('{"n": 1, "monomials": '
                          '[{"exp": [3], "coeff": "1/0"}]}')
    not_a_dict = tmp_path / "not_a_dict.json"
    not_a_dict.write_text("[1]")
    # nesting past the recursion limit, where json.load raises
    # RecursionError, at the top and under "monomials"
    deep = [tmp_path / "deep.json", tmp_path / "deep_monomials.json"]
    deep[0].write_text("[" * 100000)
    deep[1].write_text('{"n": 1, "monomials": ' + "[" * 100000)
    # "n" and every exponent must be JSON integers, never truncated: a
    # degree-4 monomial [1.5, 1.5, 1] was once read as y1*y2*y3, and
    # booleans, which Python counts as ints, were read as 0 and 1; no
    # coefficient may be a boolean either
    non_integers = []
    for i, doc in enumerate((
            {"n": 3, "monomials": [{"exp": [1.5, 1.5, 1], "coeff": "1"}]},
            {"n": 2.7, "monomials": [{"exp": [3, 0], "coeff": "1"}]},
            {"n": 3, "monomials": [{"exp": ["1", 1, 1], "coeff": "1"}]},
            {"n": 3, "monomials": [{"exp": [True, True, True],
                                    "coeff": "1"}]},
            {"n": True, "monomials": [{"exp": [3], "coeff": "1"}]},
            {"n": True, "monomials": []},
            # a boolean coefficient, which Fraction reads as 0 or 1
            {"n": 1, "monomials": [{"exp": [3], "coeff": True}]},
            # a bad exponent vector equal to an earlier good one as a key
            {"n": 3, "monomials": [{"exp": [1, 1, 1], "coeff": "1"},
                                   {"exp": [True, True, True],
                                    "coeff": "1"}]},
            {"n": 1, "monomials": [{"exp": [3], "coeff": "1"},
                                   {"exp": [3.0], "coeff": "1"}]})):
        non_integers.append(tmp_path / f"non_integer_{i}.json")
        non_integers[-1].write_text(json.dumps(doc))
    for argv in (("verify", "--form", "y1^3", "--points", "1/0"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--lam", "1/0"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--lam", "1+1/0i"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--x", "1/0"),
                 ("cone", "check", "--form", "y1^3", "--point", "1/0"),
                 ("cone", "sample", "--form", "y1^3", "--hint", "1/0"),
                 ("validate", "--form-file", str(zero_coeff)),
                 ("validate", "--form-file", str(not_a_dict)),
                 ("validate", "--form-file", str(deep[0])),
                 ("validate", "--form-file", str(deep[1]))):
        code, out = run_inproc(capsys, *argv)
        assert code == 2, argv
        assert "error" in json.loads(out), argv
        assert "Traceback" not in out, argv
    # NaN, the infinities and a coefficient whose exponent is past the
    # int-string limit are no rationals: exit 2, at once
    for number in ("NaN", "Infinity", "-Infinity", "1e999999999", "1e-5000"):
        non_integers.append(tmp_path / f"{number}.json")
        non_integers[-1].write_text(_coeff_doc(number))
    # so are such exponents in a string coefficient, read as --points reads
    # a number, and the message names the monomial
    for number in ("1e5000", "1e-5000"):
        non_integers.append(tmp_path / f"string_{number}.json")
        non_integers[-1].write_text(_coeff_doc(f'"{number}"'))
    for doc in ('{"n": 1e0, "monomials": [{"exp": [3], "coeff": "1"}]}',
                '{"n": 1, "monomials": [{"exp": [3e0], "coeff": "1"}]}'):
        non_integers.append(tmp_path / f"float_{len(non_integers)}.json")
        non_integers[-1].write_text(doc)
    for path in non_integers:
        code, out = run_inproc(capsys, "validate", "--form-file", str(path))
        assert code == 2, path
        error = json.loads(out)["error"]
        assert error["type"] == "KahlerConeError", path
        assert error["message"].startswith("cannot load form file: "), path
        if path.name.startswith("string_"):
            assert error["message"].startswith(
                "cannot load form file: monomial with exponents [3]: "
                "exponent of '1e"), path
    # a decimal exponent obeys the int-string limit as a digit run does:
    # every option that reads a number exits 2 at once
    for argv in (("verify", "--form", "y1^3", "--points", "1e5000"),
                 ("verify", "--form", "y1^3", "--points", "1e-999999999"),
                 ("cone", "sample", "--form", "y1^3", "--hint", "1E5000"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--x", "1e5000"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--lam", "1e999999999"),
                 ("cone-metric", "--form", "y1^3", "--points", "1",
                  "--lam", "1+1e5000i")):
        code, out = run_inproc(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "KahlerConeError", argv
    # y0 is named by the parser, not read as a dimension of 0
    for form in ("y0^3", "y0*y2^2"):
        code, out = run_inproc(capsys, "validate", "--form", form)
        assert code == 2, form
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError", form
        assert "variable y0 out of range" in error["message"], form
    for n in ("0", "-1"):
        code, out = run_inproc(capsys, "verify", "--form", "y1^3", "--n", n,
                               "--points", "1")
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"--n must be at least 1, got {n}")
    # the zero-denominator message names the monomial and its coefficient
    code, out = run_inproc(capsys, "validate", "--form-file", str(zero_coeff))
    assert code == 2 and "Traceback" not in out
    assert json.loads(out)["error"]["message"] == (
        "cannot load form file: monomial with exponents [3] has a zero "
        "denominator in its coefficient '1/0'")
    # so does a malformed exponent's, which names the text as written
    bad_exponent = tmp_path / "bad_exponent.json"
    bad_exponent.write_text(_coeff_doc('"1e"'))
    code, out = run_inproc(capsys, "validate", "--form-file",
                           str(bad_exponent))
    message = json.loads(out)["error"]["message"]
    assert code == 2 and "'1e'" in message
    assert message.startswith(
        "cannot load form file: monomial with exponents [3]: ")


def _exact(text):
    """The rational "p" or "p/q" of a report, read through `decimal`, which,
    unlike `int`, reads digit runs past Python's int-string limit."""
    p, _, q = text.partition("/")
    return F(int(Decimal(p)), int(Decimal(q or "1")))


def test_integers_past_the_int_string_limit():
    """Form text with an integer past Python's int-string limit (4300 digits
    by default) exits 2 with a ParseError; an exact value of any length is
    printed exactly. No case prints a traceback (`run_cli` checks stderr)."""
    ones, sevens, nines = "1" * 5000, "7" * 1500, "9" * 4300
    for argv, position in ((("--form", f"{ones}*y1^3"), 0),
                           (("--form", f"y{ones}^3"), 0),
                           (("--n", "1", "--form", f"y1^{ones}"), 3)):
        code, out = run_cli("validate", *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == {
            "type": "ParseError", "message": "integer of 5000 digits exceeds "
            f"Python's int-string limit (at position {position})"}, argv
    y, big = int(sevens), 2 * int(nines)        # big has 4301 digits
    code, out = run_cli("curvature", "--form", "y1^3", "--points", sevens)
    assert code == 0
    point = json.loads(out)["points"][0]
    assert _exact(point["normFunction"]) == 8 * y**3
    assert _exact(point["lhs"][0][0][0][0]) == F(3, 8 * y**4)
    code, out = run_cli("cone", "check", "--form", "y1^3", "--points", sevens)
    assert code == 0
    assert _exact(json.loads(out)["points"][0]["f"]) == y**3
    code, out = run_cli("validate", "--form", f"{nines}*y1^3 + {nines}*y1^3")
    assert code == 0
    form = json.loads(out)["form"]
    assert _exact(form["monomials"][0]["coeff"]) == big
    assert form["text"] == f"{form['monomials'][0]['coeff']}*y1^3"
    code, out = run_cli("validate", "--form", f"y1^{nines}*y1^{nines}")
    assert code == 2
    error = json.loads(out)["error"]
    digits = str(Decimal(big))
    assert error == {"type": "NotHomogeneousCubic", "message": f"monomial "
                     f"({digits},) has degree {digits}, expected 3"}


def test_oversized_dimension_exits_2(capsys, tmp_path):
    # each dimension above MAX_VARIABLES = 32 is refused before anything of
    # its size is allocated
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**20, "monomials": [
        {"exp": [3], "coeff": "1"}]}))
    for argv in (("--form", "y99999999999999999999^3"),
                 ("--form", "y1^3", "--n", "99999999999999999999"),
                 ("--form-file", str(huge)),
                 ("--form", "y1^3", "--n", "33")):
        code, out = run_inproc(capsys, "validate", *argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "DimensionMismatch", argv
        assert error["message"].endswith("1 to 32 are supported"), argv
    code, out = run_inproc(capsys, "validate", "--form", "y1^3", "--n", "32")
    assert code == 0 and json.loads(out)["form"]["n"] == 32


def test_text_mode_renders(capsys):
    argv = ["verify", "--form", "y1^3", "--points", "1", "--text"]
    code, out = run_inproc(capsys, *argv)
    assert code == 0
    assert "overall: PASS" in out
    # the wall time is printed only on request
    assert out.splitlines()[-1] == "overall: PASS"
    code, out = run_inproc(capsys, *argv, "--timing")
    assert code == 0
    assert re.fullmatch(r"overall: PASS   \[\d+ ms\]", out.splitlines()[-1])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_timing_is_the_last_key(capsys, mode):
    argv = ["verify", "--form", "y1*y2^2", "--points", "1,1;1,2",
            "--mode", mode]
    code, out = run_inproc(capsys, *argv)
    timed_code, timed_out = run_inproc(capsys, *argv, "--timing")
    assert code == timed_code == 0
    timed = json.loads(timed_out)
    assert list(timed)[-1] == "timingMs"
    ms = timed.pop("timingMs")
    assert type(ms) is int and ms >= 0
    assert timed == json.loads(out)


def test_verify_echoes_the_seed_only_when_it_sampled(capsys):
    head = ["verify", "--form", "y1*y2^2"]
    for extra, seed in ((["--points", "1,1"], None),
                        (["--points", "1,1", "--samples", "2", "--seed", "5"],
                         None),
                        (["--samples", "2", "--seed", "5"], 5),
                        (["--samples", "2"], 0)):
        code, out = run_inproc(capsys, *head, *extra)
        doc = json.loads(out)
        assert (code, doc.get("seed")) == (0, seed), extra
        assert list(doc)[-2:] == ["points", "overall"], extra


# a passing input of every subcommand, the failing identity and fibre
# inverse, and an input error of every subcommand that has one
EXIT_CASES = [
    (0, ["validate", "--form", "y1*y2^2"]),
    (0, ["identity-n8f", "--form", "y1*y2^2"]),
    (0, ["cone", "check", "--form", "y1*y2^2", "--points", "1,1"]),
    (0, ["cone", "sample", "--form", "y1*y2^2", "--samples", "2"]),
    (0, ["metric", "--form", "y1*y2^2", "--points", "1,1"]),
    (0, ["curvature", "--form", "y1*y2^2", "--points", "1,1"]),
    (0, ["verify", "--form", "y1*y2^2", "--points", "1,1"]),
    (0, ["affine-verify", "--form", "y1*y2*y3", "--points", "1,1,1"]),
    (0, ["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
         "--lam", "1/2"]),
    (1, ["verify", "--form", "y1*y2^2", "--points", "1,1",
         "--convention", "negated"]),
    (1, ["cone-metric", "--form", "y1*y2^2", "--points", "1,1",
         "--lam", "1+2i"]),
    (2, ["validate", "--form", "y1^2"]),
    (2, ["identity-n8f", "--form", "y1^2"]),
    (2, ["cone", "check", "--form", "y1^3", "--points", "1/0"]),
    (2, ["cone", "sample", "--form", "y1^3", "--samples", "0"]),
    (2, ["metric", "--form", "y1^3", "--points", "-1"]),
    (2, ["curvature", "--form", "y1^3", "--points", "-1"]),
    (2, ["verify", "--form", "y1^3", "--points", "-1"]),
    (2, ["affine-verify", "--form", "y1*y2*y3", "--points", "0,0,1"]),
    (2, ["cone-metric", "--form", "y1^3", "--points", "1", "--lam", "0"]),
]


@pytest.mark.parametrize("code,argv", EXIT_CASES, ids=[
    "-".join([w for w in argv[:2] if not w.startswith("-")]
             + [f"exit{code}"]) for code, argv in EXIT_CASES])
def test_text_keeps_the_exit_code(capsys, code, argv):
    assert run_inproc(capsys, *argv)[0] == code
    assert run_inproc(capsys, *argv, "--text")[0] == code
