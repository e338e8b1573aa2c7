"""Exact-mode CLI outputs pinned byte for byte by their sha256.

A refactor of membership, the jet, the curvature sides or the reports must
not change any exact value or the report layout. Float mode is not pinned:
summing in another order may change a float in its last bit.
"""

import hashlib

import pytest

from kahlercone.cli import main

PINNED = [
    (["curvature", "--form", "y1*y2*y3 + y4^3", "--points", "2,2,2,-1"],
     "c087faafdd5b69194790c8feed673571d7656ee28ad07ecdd2946217991599b9"),
    (["cone-metric", "--form", "y1*y2^2", "--points", "1,1", "--lam", "1/2"],
     "a09a087228daa7373eca6b817bad36fcebcdc088d3247a6234dc28f9b529d8cb"),
    (["metric", "--form", "y1*y2^2", "--points", "1,1"],
     "d26f422c2cb7739acd811cc8337940321933772b42bb182550c47b52b8b36199"),
    (["verify", "--form", "y1*y2^2", "--samples", "4", "--seed", "12"],
     "b3a0acce97d9aec8b9f485e0bd7353b354c9c02f34f8496c050a633c44898c20"),
    (["affine-verify", "--form", "y1*y2*y3", "--points", "1,1,1;2,1,1"],
     "a7b77a2f20eefbb668b7e44608bab6858ff6c493f902a7a9701409657efbaa7c"),
    # one Interior, one Boundary and one Outside point, and a hint-free
    # sample, on a form with fractional coefficients
    (["cone", "check", "--form", "1/2*y1*y2*y3 + 2/3*y4^3",
      "--points", "4,2,1/2,-1;1/3,2,2,-1;1,1,1,2"],
     "3cd7b0da465aab949f959804e81b15ddada436666908b9c41921a1800b771bd2"),
    (["cone", "check", "--text", "--form", "1/2*y1*y2*y3 + 2/3*y4^3",
      "--points", "4,2,1/2,-1;1/3,2,2,-1;1,1,1,2"],
     "b22ff16b515078b181f21f71be9958faea7ed52ad84ecf5bda1db49546f91b49"),
    (["cone", "sample", "--form", "1/2*y1*y2*y3 + 2/3*y4^3",
      "--samples", "6", "--seed", "5"],
     "8340a906bc37b4e20e6f07d42e3ea9a9504e359a20b1a75ae12f068f32985d01"),
]


def _test_id(argv):
    """The subcommand words, plus "text" under --text: "cone-check-text"."""
    words = [w for w in argv[:2] if not w.startswith("-")]
    return "-".join(words + ["text"] * ("--text" in argv))


@pytest.mark.parametrize("argv,digest", PINNED,
                         ids=[_test_id(a) for a, _ in PINNED])
def test_exact_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
