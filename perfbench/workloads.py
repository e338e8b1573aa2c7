"""The three benchmark workloads.

Each workload is built from a seed by `setup(name, seed)`, which imports
kahlercone afresh, parses the forms and generates every input. `op(i)` runs
the i-th operation through the public API only and returns its raw result;
`check(i, result)` compares that result with a known answer computed by the
oracles in `oracle.py`, never by kahlercone itself.

Operations are numbered 0, 1, 2, ... without end, each input a function of
the seed and the number. The untraced run stops only after a whole `round`
of operations, so that each input kind is weighted alike; the traced run
makes passes over operations 0..block-1.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
from fractions import Fraction

import oracle

F = Fraction

SPARSE_TEXT = "y1*y2*y3 + y4^3 + y5^3"
SPARSE = {(1, 1, 1, 0, 0): F(1), (0, 0, 0, 3, 0): F(1), (0, 0, 0, 0, 3): F(1)}
SPARSE_HINT = (F(2), F(2), F(2), F(-1), F(-1))

# A fixed unimodular matrix: y -> f(A y) has all 35 cubic monomials, and as
# A^-1 is an integer matrix the image points A^-1 y keep the denominators of
# y. About 4.6% of the sampler's random grid candidates fall inside the
# pullback's index cone. Across random unimodular matrices with entries in
# [-3, 3] that share ranges from 0.1% to 18% (median 2.1%), and it sets the
# cost of sample-thin-n5, so A is fixed rather than drawn from the seed.
# Each returned point costs a geometric number of candidates, so the spread
# of a run's time over seeds shrinks as the square root of the points it
# samples; 4.6% rather than 2% halves the sampling work per point and
# makes the seed-to-seed spread about a third smaller.
DENSE_A = ((2, 2, 1, 1, 0),
           (-2, 1, -3, 1, 2),
           (1, -1, 1, -1, -1),
           (0, -2, 0, -2, -1),
           (0, -2, 2, -1, -1))

# verify-n5: interior points sampled per seed; a run cycles through them.
# Their cost differs by point, so the mean over the pool differs by seed,
# and it takes some 24 points to make that small next to the host's noise.
POOL = 24
# sample-thin-n5: points returned per cone_sample call. Each point costs a
# geometric number of candidates, so an op's cost spreads as about
# 1/sqrt(SAMPLE_COUNT); 16 keeps op_tail_ms steady over seeds.
SAMPLE_COUNT = 16


def fresh_import():
    """Import kahlercone as a cold process would (stdlib modules stay cached)."""
    for key in [k for k in sys.modules
                if k == "kahlercone" or k.startswith("kahlercone.")]:
        del sys.modules[key]
    kc = importlib.import_module("kahlercone")
    importlib.import_module("kahlercone.cli")
    return kc


def _dense_classify(y):
    """Whether y is interior for the pullback f(A y), decided from f(A y)
    and A^T Hess f(A y) A. y is first scaled to an integer vector: a
    positive scaling keeps the sign of f and the inertia of the Hessian."""
    den = math.lcm(*(F(v).denominator for v in y))
    x = oracle.mat_vec(DENSE_A, [int(F(v) * den) for v in y])
    h = [[int(v) for v in row] for row in oracle.hessian(SPARSE, x)]
    h = oracle.mat_mul(oracle.transpose(DENSE_A), oracle.mat_mul(h, DENSE_A))
    return (oracle.evaluate(SPARSE, x) > 0
            and oracle.inertia(h) == (1, len(y) - 1, 0))


class VerifyN5:
    """verify_identity, exact mode, at one point on the sparse form and at
    its image point on the dense pullback."""

    block, round = POOL, 1

    def __init__(self, kc, seed):
        self.kc = kc
        self.sparse = kc.parse_text(SPARSE_TEXT, 5)
        self.dense = self.sparse.pullback(DENSE_A)
        self.points = kc.cone_sample(self.sparse, POOL, seed=seed,
                                     hint=SPARSE_HINT)
        self.images = [tuple(oracle.solve(DENSE_A, y)) for y in self.points]

    def pair(self, i):
        return self.points[i % POOL], self.images[i % POOL]

    def op(self, i):
        y, z = self.pair(i)
        return (self.kc.verify_identity(self.sparse, [y], mode="exact"),
                self.kc.verify_identity(self.dense, [z], mode="exact"))

    def check(self, i, result):
        y, z = self.pair(i)
        for summary in result:
            if summary.overall != "PASS" or len(summary.points) != 1:
                return False
            res = summary.points[0].max_abs_residual
            if summary.points[0].verdict != "PASS" or isinstance(res, float) \
                    or res != 0:
                return False
        dense_f = oracle.evaluate(self.dense.monomials, z)
        return (oracle.classify(SPARSE, y) == "Interior"
                and dense_f == oracle.evaluate(SPARSE, y) and _dense_classify(z))


class SampleThinN5:
    """cone_sample without a hint on the dense pullback: most candidates are
    rejected by the exact membership test."""

    # The sampler's luck makes the cost of a run vary over seeds as about
    # 1/sqrt(points sampled), so every op samples with a fresh seed: a 30 s
    # run makes some 100 ops and tests some 30000 candidates.
    block, round = 12, 1

    def __init__(self, kc, seed):
        self.kc = kc
        self.dense = kc.parse_text(SPARSE_TEXT, 5).pullback(DENSE_A)
        self.dense.third_tensor          # built lazily on first use
        self.seed = seed

    def op(self, i):
        return self.kc.cone_sample(self.dense, SAMPLE_COUNT,
                                   seed=self.seed * 1_000_000 + i)

    def check(self, i, result):
        return (len(result) == SAMPLE_COUNT == len(set(result))
                and all(_dense_classify(y) for y in result))


# ----------------------------------------------------------------------------
# cli-mix

SUITE = {
    "y1^3": {(3,): F(1)},
    "5*y1^3": {(3,): F(5)},
    "y1*y2^2": {(1, 2): F(1)},
    "y1*y2*y3": {(1, 1, 1): F(1)},
    "y1*y2*y3 + y4^3": {(1, 1, 1, 0): F(1), (0, 0, 0, 3): F(1)},
}
N4_TEXT = "y1*y2*y3 + y4^3"
ROTATIONS = 8      # rounds in one pass of the traced run
N4_HINT = (F(2), F(2), F(2), F(-1))


def _pts(*points):
    return ";".join(",".join(str(v) for v in p) for p in points)


def _doc(out):
    return json.loads(out)


def _all_zero(tensor):
    return all(v == "0" for a in tensor for b in a for c in b for v in c)


def _is_identity(rows, tol=None):
    n = len(rows)
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            got = rows[i][j]
            if tol is None and got != want:
                return False
            if tol is not None and abs(got - want) > tol:
                return False
    return True


class CliMix:
    """A seeded rotation of `kahlercone.cli.main` invocations, each with the
    exit code and JSON (or text) verdict it must produce."""

    def __init__(self, kc, seed):
        self.cli = sys.modules["kahlercone.cli"]
        self.round = len(_CLI_BUILDERS)
        self.block = ROTATIONS * self.round
        self.seed = seed
        self.rounds = {}

    def case(self, i):
        """The i-th invocation: each round holds one of every kind, with
        fresh arguments, in a shuffled order."""
        r, k = divmod(i, self.round)
        if r not in self.rounds:
            rng = random.Random(f"{self.seed}:{r}")
            cases = [builder(rng) for builder in _CLI_BUILDERS]
            rng.shuffle(cases)
            self.rounds = {r: cases}
        return self.rounds[r][k]

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def op(self, i):
        return self.run(self.case(i)[0])

    def check(self, i, result):
        return _matches(self.case(i), result)

    def probe(self):
        """Run the known-defect case once, outside the measured rotation."""
        argv, code, _ = KNOWN_DEFECT_PROBE
        got = self.run(argv)
        verdict = "ok" if _matches(KNOWN_DEFECT_PROBE, got) else "WRONG"
        return (f"known-defect probe (not an op): {' '.join(argv)} -> exit "
                f"{got[0]}, expected {code}: {verdict}")


def _matches(case, result):
    """Whether (exit code, stdout) is the known answer of a CLI case."""
    _, expect_code, expect = case
    code, out = result
    try:
        return code == expect_code and expect(out)
    except (ValueError, KeyError, TypeError, IndexError):
        return False        # malformed output is a wrong answer


def _rat(rng, lo=1, hi=9, den=5):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _interior_n4(rng):
    while True:
        y = tuple(h * _rat(rng) + F(rng.randint(-1, 1), rng.randint(4, 8))
                  for h in N4_HINT)
        if oracle.classify(SUITE[N4_TEXT], y) == "Interior":
            return y


def _cli_validate(rng):
    text = rng.choice(sorted(SUITE))

    def expect(out):
        form = _doc(out)["form"]
        return {tuple(m["exp"]): F(m["coeff"])
                for m in form["monomials"]} == SUITE[text]
    return ["validate", "--form", text], 0, expect


def _cli_cone_check(rng):
    a, b, c = _rat(rng), _rat(rng), _rat(rng)
    points = [tuple(_rat(rng) * h for h in N4_HINT),
              (F(0), a, b, F(0)), (a, b, -c, F(0))]
    monos = SUITE[N4_TEXT]

    def expect(out):
        got = _doc(out)["points"]
        return len(got) == 3 and all(
            g["verdict"] == oracle.classify(monos, y)
            and tuple(g["hessianInertia"]) == oracle.inertia(
                oracle.hessian(monos, y))
            and F(g["f"]) == oracle.evaluate(monos, y)
            for g, y in zip(got, points))
    return ["cone", "check", "--form", N4_TEXT, "--points", _pts(*points)], \
        0, expect


def _cli_cone_sample(rng):
    seed = rng.randint(0, 10**6)

    def expect(out):
        pts = [tuple(F(v) for v in p) for p in _doc(out)["points"]]
        return len(pts) == 6 == len(set(pts)) and all(
            oracle.classify(SUITE["y1*y2*y3"], y) == "Interior" for y in pts)
    return ["cone", "sample", "--form", "y1*y2*y3", "--hint", "1,1,1",
            "--samples", "6", "--seed", str(seed)], 0, expect


def _cli_metric_exact(rng):
    y = (_rat(rng), _rat(rng) * rng.choice((1, -1)))

    def expect(out):
        (pt,) = _doc(out)["points"]
        g = [[F(v) for v in row] for row in pt["g"]]
        ginv = [[F(v) for v in row] for row in pt["gInv"]]
        return (oracle.inertia(g) == (2, 0, 0)
                and _is_identity(oracle.mat_mul(ginv, g)))
    return ["metric", "--form", "y1*y2^2", "--points", _pts(y)], 0, expect


def _cli_metric_float(rng):
    y = (_rat(rng), _rat(rng), _rat(rng))

    def expect(out):
        (pt,) = _doc(out)["points"]
        return _is_identity(oracle.mat_mul(pt["gInv"], pt["g"]), tol=1e-9)
    return ["metric", "--mode", "float", "--form", "y1*y2*y3",
            "--points", _pts(y)], 0, expect


def _cli_curvature(rng):
    y = _interior_n4(rng)

    def expect(out):
        (pt,) = _doc(out)["points"]
        return pt["maxAbsResidual"] == "0" and _all_zero(pt["residual"])
    return ["curvature", "--form", N4_TEXT, "--points", _pts(y)], 0, expect


def _verify_samples(text, hint):
    def build(rng):
        seed = rng.randint(0, 10**6)

        def expect(out):
            doc = _doc(out)
            return (doc["overall"] == "PASS" and len(doc["points"]) == 3
                    and all(p["verdict"] == "PASS"
                            and p["maxAbsResidual"] == "0"
                            and oracle.classify(
                                SUITE[text], tuple(F(v) for v in p["y"]))
                            == "Interior"
                            for p in doc["points"]))
        return ["verify", "--form", text, "--samples", "3", "--hint", hint,
                "--seed", str(seed)], 0, expect
    return build


def _cli_verify_float(rng):
    y = (_rat(rng), _rat(rng), _rat(rng))

    def expect(out):
        doc = _doc(out)
        return doc["overall"] == "PASS" and all(
            p["maxRelResidual"] < 1e-9 for p in doc["points"])
    return ["verify", "--mode", "float", "--form", "y1*y2*y3",
            "--points", _pts(y)], 0, expect


def _cli_verify_negated(rng):
    points = f"{_rat(rng)},{_rat(rng)}"
    return (["verify", "--convention", "negated", "--form", "y1^3",
             "--points", points, "--text"], 1,
            lambda out: out.rstrip().splitlines()[-1].startswith(
                "overall: FAIL"))


def _cli_affine(rng):
    points = _pts((_rat(rng), _rat(rng), _rat(rng)),
                  (_rat(rng), _rat(rng), _rat(rng)))

    def expect(out):
        doc = _doc(out)
        return doc["overall"] == "PASS" and all(
            p["passed"] and p["kappa"] == "-4" for p in doc["points"])
    return ["affine-verify", "--form", "y1*y2*y3", "--points", points], \
        0, expect


def _cli_cone_metric(rng):
    y = (_rat(rng), _rat(rng) * rng.choice((1, -1)))

    def expect(out):
        doc = _doc(out)
        (pt,) = doc["points"]
        return (doc["overall"] == "PASS" and pt["inverseCheck"]
                and pt["christoffelCheck"]["passed"]
                and tuple(pt["inertia"]) == (1, 2, 0))
    return ["cone-metric", "--form", "y1*y2^2", "--points", _pts(y),
            "--lam", str(_rat(rng))], 0, expect


def _cli_identity(rng):
    return ["identity-n8f", "--form", N4_TEXT], 0, \
        lambda out: _doc(out)["holds"] is True


def _error_is(kind):
    return lambda out: _doc(out).get("error", {}).get("type") == kind


def _cli_outside_point(rng):
    a = _rat(rng)
    point = _pts((a, -(a + _rat(rng))))         # f = a^3 - (a+b)^3 < 0
    return ["verify", "--form", "y1^3+y2^3", "--points", point], 2, \
        _error_is("NotInCone")


def _cli_not_cubic(rng):
    return ["validate", "--form", "y1^2"], 2, _error_is("NotHomogeneousCubic")


_CLI_BUILDERS = (
    _cli_validate, _cli_cone_check, _cli_cone_sample, _cli_metric_exact,
    _cli_metric_float, _cli_curvature, _verify_samples("y1*y2*y3", "1,1,1"),
    _verify_samples("y1*y2^2", "1,1"), _cli_verify_float, _cli_verify_negated,
    _cli_affine, _cli_cone_metric, _cli_identity, _cli_outside_point,
    _cli_not_cubic,
)

# A float-mode verify at a point outside the cone: exit 2 is the right
# answer, but float mode only checks f > 0 and reports PASS (ROADMAP item 4).
KNOWN_DEFECT_PROBE = (["verify", "--mode", "float", "--form", "y1^3+y2^3",
                       "--points", "1,1"], 2, _error_is("NotInCone"))


WORKLOADS = {"verify-n5": VerifyN5, "sample-thin-n5": SampleThinN5,
             "cli-mix": CliMix}


def setup(name, seed):
    return WORKLOADS[name](fresh_import(), seed)
