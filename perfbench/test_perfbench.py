"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle                                    # noqa: E402
from kahlercone import SymMatrix, inertia        # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run([os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_verify_n5_trace_counts_four_jets_per_op():
    proc = _run([os.path.join(HERE, "run.py"), "--workload", "verify-n5",
                 "--seed", "5", "--seconds", "1", "--trace", "1"])
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["geometry.kahler_metric.calls_per_op"]["value"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "verify-n5", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _random_symmetric(rng, n, rank):
    """B D B^T with B n x rank and D a nonzero diagonal: rank <= `rank`."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    b = [[q() for _ in range(rank)] for _ in range(n)]
    d = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
         for _ in range(rank)]
    return [[sum(b[i][k] * d[k] * b[j][k] for k in range(rank))
             for j in range(n)] for i in range(n)]


def test_descartes_oracle_agrees_with_linalg_inertia():
    rng = random.Random(1007)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        rank = n if trial % 3 else rng.randint(0, n - 1)
        rows = _random_symmetric(rng, n, rank)
        want = inertia(SymMatrix.from_rows(rows))
        assert oracle.inertia(rows) == want, rows
        assert sum(want) == n
        singular += want[2] > 0
    assert singular >= 50


def test_charpoly_of_a_diagonal_matrix():
    # det(x I - diag(2, -3, 0)) = x^3 + x^2 - 6x
    m = [[2, 0, 0], [0, -3, 0], [0, 0, 0]]
    assert oracle.charpoly(m) == [0, -6, 1, 1]
    assert oracle.inertia([[Fraction(v, 3) for v in row] for row in m]) == \
        (1, 1, 1)
