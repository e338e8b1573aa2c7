"""The JSON writer of the CLI's reports, versioned via "schemaVersion".

`render_json` writes the bytes of json.dumps(indent=2, ensure_ascii=False)
without the encoder indent forces. `_dump` appends the pieces of the text
to one list, which `render_json` joins once, so a large array is not copied
again at each enclosing level; each list of scalars is one piece, from one
join. A packed container (`linalg.SymMatrix`, `Sym3Tensor` or `CurvTensor`)
whose stored entries are JSON scalars is written as its dense n^rank array:
each stored entry is encoded once, and a skeleton of the nested array, built
for (n, rank, indentation) with one "%s" per leaf, is filled by one `%` in
the container's leaf order (`linalg._leaf_order`); the skeleton costs
microseconds and is built per write.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

from .linalg import _leaf_order, _Packed

SCHEMA_VERSION = 1

__all__ = ["render_json"]


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

