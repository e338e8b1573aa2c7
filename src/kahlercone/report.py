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

`_dump` appends the pieces of the text to one list, which `render_json`
joins once, so a large array is not copied again at each enclosing level;
each list of scalars is one piece, from one join. A packed container
(`linalg.SymMatrix`, `Sym3Tensor` or `CurvTensor`) whose stored entries are
JSON scalars is written as its dense n^rank array: each stored entry is
encoded once, and a skeleton of the nested array, built for (n, rank,
indentation) with one "%s" per leaf, is filled by one `%` in the
container's leaf order (`linalg._leaf_order`); the skeleton costs
microseconds and is built per write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Optional, Sequence

from .linalg import _leaf_order, _Packed
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


def _skeleton(n: int, rank: int, pad: str) -> str:
    """The text of a dense n^rank array at indentation pad, "%s" per leaf."""
    if rank == 0:
        return "%s"
    inner = pad + "  "
    item = _skeleton(n, rank - 1, inner)
    return f"[\n{inner}" + f",\n{inner}".join([item] * n) + f"\n{pad}]"


def _scalar_texts(x):
    """json.dumps's text of each item of the list x, from one encoder call,
    when the items are all str or all non-str scalars; else None."""
    if (kinds := set(map(type, x))) == {str}:
        return list(map(encode_basestring, x))
    if kinds <= {int, float, bool, type(None)}:
        # json's own items: with no str among them, none holds a ", "
        return json.dumps(x)[1:-1].split(", ")
    return None


def _dump(x, pad: str, out: list) -> None:
    """Append the text of x at indentation pad to out (module docstring)."""
    inner, sep = pad + "  ", ",\n  " + pad
    if isinstance(x, _Packed):
        texts = _scalar_texts(x._data)
        out.append(_skeleton(x.n, x._RANK, pad)
                   % tuple(map(texts.__getitem__, _leaf_order(type(x), x.n))))
    elif (isinstance(x, (list, tuple)) and x
          and (texts := _scalar_texts(x)) is not None):
        out.append(f"[\n{inner}{sep.join(texts)}\n{pad}]")
    elif isinstance(x, (list, tuple, dict)) and x:
        keyed = isinstance(x, dict)
        items = ([(encode_basestring(k) + ": ", v) for k, v in x.items()]
                 if keyed else [("", v) for v in x])
        out.append("{" if keyed else "[")
        for k, (head, v) in enumerate(items):
            out.append((sep if k else "\n" + inner) + head)
            _dump(v, inner, out)
        out.append(f"\n{pad}" + ("}" if keyed else "]"))
    else:
        out.append(encode_basestring(x) if type(x) is str else json.dumps(x))


def render_json(doc: dict) -> str:
    """The JSON text of doc, whose keys are str (module docstring)."""
    out = []
    _dump(doc, "", out)
    out.append("\n")
    return "".join(out)


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
