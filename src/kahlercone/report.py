"""Machine-readable verification reports.

JSON is the primary output format, versioned via "schemaVersion". In exact
mode every number serializes as a decimal-free rational string ("p/q" or
"p"); exact-mode residuals of passing points are the literal string "0".
Float mode emits each exact value rounded once to binary64
(`scalars.to_float`) as a plain JSON number (shortest round-trip decimal),
so a float-mode residual of 0.0 is an exact zero. Reports contain no
wall-clock data unless explicitly requested, so a fixed command line and
seed give byte-identical output: `render_json` writes the bytes of
json.dumps(indent=2, ensure_ascii=False), without the encoder indent forces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Optional, Sequence

from .scalars import format_point, format_scalar

SCHEMA_VERSION = 1

__all__ = ["PointResult", "VerificationSummary", "render_json", "render_text"]


@dataclass(frozen=True)
class PointResult:
    y: tuple
    verdict: str
    max_abs_residual: object
    max_rel_residual: Optional[float] = None


@dataclass(frozen=True)
class VerificationSummary:
    form_text: str
    n: int
    mode: str
    convention: str
    seed: Optional[int]
    points: Sequence[PointResult]
    overall: str
    timing_ms: int

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "schemaVersion": SCHEMA_VERSION,
            "form": self.form_text,
            "n": self.n,
            "mode": self.mode,
            "convention": self.convention,
            "seed": self.seed,
            "points": [
                {
                    "y": [format_scalar(v) for v in p.y],
                    "verdict": p.verdict,
                    "maxAbsResidual": format_scalar(p.max_abs_residual),
                    **({"maxRelResidual": p.max_rel_residual}
                       if p.max_rel_residual is not None else {}),
                }
                for p in self.points
            ],
            "overall": self.overall,
        }
        if include_timing:
            doc["timingMs"] = self.timing_ms
        return doc


def _dump(x, pad: str) -> str:
    """x at indentation pad, each list of scalars in one join."""
    inner, sep = pad + "  ", ",\n  " + pad
    if isinstance(x, (list, tuple)) and x:
        if (kinds := set(map(type, x))) == {str}:
            items = map(encode_basestring, x)
        elif kinds <= {int, float, bool, type(None)}:
            # json's own items: with no str among them, none holds a ", "
            items = json.dumps(x)[1:-1].split(", ")
        else:
            items = [_dump(v, inner) for v in x]
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    if isinstance(x, dict) and x:
        items = [encode_basestring(k) + ": " + _dump(v, inner)
                 for k, v in x.items()]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    return encode_basestring(x) if type(x) is str else json.dumps(x)


def render_json(doc: dict) -> str:
    """The JSON text of doc, whose keys are str (module docstring)."""
    return _dump(doc, "") + "\n"


def render_text(summary: VerificationSummary,
                include_timing: bool = False) -> str:
    lines = [
        f"form: {summary.form_text}   (n={summary.n}, mode={summary.mode}, "
        f"convention={summary.convention})",
    ]
    for p in summary.points:
        extra = (f"  rel={p.max_rel_residual:.3e}"
                 if p.max_rel_residual is not None else "")
        lines.append(f"  y={format_point(p.y)}: {p.verdict}  "
                     f"max|residual|={format_scalar(p.max_abs_residual)}{extra}")
    timing = f"   [{summary.timing_ms} ms]" if include_timing else ""
    lines.append(f"overall: {summary.overall}{timing}")
    return "\n".join(lines) + "\n"
