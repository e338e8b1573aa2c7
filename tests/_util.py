"""Shared generators for the test suite (seeded, exact)."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import kahlercone
from kahlercone import (CubicForm, Membership, SamplingExhausted,
                        cone_contains, cone_sample)


def run_python(*args, stdout=subprocess.PIPE, env=()):
    """The finished `python *args` child process, which imports the same
    package as the tests, with or without PYTHONPATH, and writes stdout to
    `stdout`; `env` sets environment variables, a None value unsets one."""
    src = os.path.dirname(os.path.dirname(kahlercone.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **dict(env), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env={k: v for k, v in env.items() if v is not None})


def run_cli(*argv):
    """(exit code, stdout) of `python -m kahlercone.cli` in a child process,
    whose stderr must stay empty: the CLI reports every error on stdout, so
    anything there, such as a traceback, fails the caller."""
    proc = run_python("-m", "kahlercone.cli", *argv)
    assert not proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


def counting(calls, name, fn):
    """fn, with each call counted in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def mat_vec(a, v):
    """The product of the matrix a, given as rows, with the vector v."""
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def random_fraction(rng, num_bound=6, den_bound=4, nonzero=False):
    while True:
        f = Fraction(rng.randint(-num_bound, num_bound),
                     rng.randint(1, den_bound))
        if f != 0 or not nonzero:
            return f


def random_cubic(rng, n, num_bound=3, den_bound=3):
    """A random nonzero homogeneous cubic in n variables."""
    exps = [e for e in itertools.product(range(4), repeat=n) if sum(e) == 3]
    while True:
        monos = {e: random_fraction(rng, num_bound, den_bound) for e in exps
                 if rng.random() < 0.7}
        monos = {e: c for e, c in monos.items() if c != 0}
        if monos:
            return CubicForm(n, monos)


def random_invertible(rng, n, num_bound=3):
    """Random invertible rational matrix: unit triangulars with a shuffle."""
    lower = [[Fraction(1) if i == j
              else (random_fraction(rng, num_bound, 2) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j
              else (random_fraction(rng, num_bound, 2) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return [prod[p] for p in perm]


def random_symmetric(rng, n, num_bound=5):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = random_fraction(rng, num_bound, 3)
    return rows


def random_cubic_with_cone(rng, n, points_needed=25, tries=60):
    """A random cubic whose index cone admits `points_needed` sample points."""
    for _ in range(tries):
        form = random_cubic(rng, n)
        try:
            points = cone_sample(form, points_needed, seed=rng.randint(0, 10**6),
                                 budget=20_000)
            return form, points
        except SamplingExhausted:
            continue
    raise AssertionError(f"could not find an n={n} cubic with a workable cone")


SUITE_HINTS = {
    "y1^3": (Fraction(1),),
    "5*y1^3": (Fraction(1),),
    "y1*y2^2": (Fraction(1), Fraction(1)),
    "y1*y2*y3": (Fraction(1), Fraction(1), Fraction(1)),
    "y1*y2*y3 + y4^3": (Fraction(2), Fraction(2), Fraction(2), Fraction(-1)),
}


def suite_forms():
    """The fixed verification suite: named forms with known interior hints."""
    from kahlercone import parse_text
    out = []
    for text, hint in SUITE_HINTS.items():
        form = parse_text(text, len(hint))
        assert cone_contains(form, hint) is Membership.INTERIOR
        out.append((form, hint))
    return out
