"""JSON encoding for report dataclasses.

Rationals are serialized as {"num": ..., "den": ...}; dataclasses become
objects in field order; dict keys go through str; tuples become arrays.
Output is deterministic for a given report, which is what makes seeded CLI
runs byte-identical.

dumps writes the bytes of json.dumps(obj, indent=2) + "\n" for the value
tree above, but walks the report once and builds the text directly: no
copy of the report is made first, and no token passes through json's
pure-Python indenting encoder (the C encoder serves only indent=None).
An array whose items are all exactly int, such as good ranks or a vertex
set, is one str.join, and an array of such arrays, such as the pair family
P of a (1,2) witness, is one %-format.  On a 2-vCPU VM with Python 3.11,
fastest of 5: an exhaustive-extraction report of the benchmark went from
0.6-11 ms to 0.04-0.7 ms, and a sampled (1,2) report at n = 44-60 from
8-17 ms to 0.7-0.8 ms.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "


def dumps(obj) -> str:
    """obj as indented JSON text, ending in a newline."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """obj as JSON; nl is a newline plus the indent of the line obj starts on.
    A Fraction or dataclass that is also a dict, array or scalar is written
    as the Fraction or dataclass."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Fraction):
        return _fraction(obj, nl)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _object({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, nl)
    if isinstance(obj, dict):
        return _object(obj, nl)
    if isinstance(obj, (list, tuple)):
        return _array(obj, nl)
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _array(seq, nl: str) -> str:
    if not seq:
        return "[]"
    inner = nl + _INDENT
    kinds = set(map(type, seq))
    if kinds == {int}:
        return "[" + inner + ("," + inner).join(map(int.__repr__, seq)) + nl + "]"
    if kinds <= {tuple, list}:
        flat = tuple(itertools.chain.from_iterable(seq))
        if set(map(type, flat)) <= {int}:
            return _int_arrays(seq, flat, nl)
    items = [_encode(item, inner) for item in seq]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _int_arrays(seq, flat: tuple, nl: str) -> str:
    """A nonempty array of arrays of exact ints; flat holds the ints in
    order.  One %d template per item length, then one % over all of them."""
    inner = nl + _INDENT
    deeper = inner + _INDENT
    lengths = list(map(len, seq))
    template = {k: "[" + deeper + ("," + deeper).join(["%d"] * k) + inner + "]" for k in set(lengths)}
    template[0] = "[]"
    text = ("," + inner).join(map(template.__getitem__, lengths))
    return "[" + inner + text % flat + nl + "]"


def _fraction(q: Fraction, nl: str) -> str:
    inner = nl + _INDENT
    num, den = int.__repr__(q.numerator), int.__repr__(q.denominator)
    return f'{{{inner}"num": {num},{inner}"den": {den}{nl}}}'


def _object(mapping: dict, nl: str) -> str:
    # str(k) first, so keys that print alike collide as they would in a dict
    mapping = {str(k): v for k, v in mapping.items()}
    if not mapping:
        return "{}"
    inner = nl + _INDENT
    items = [_string(k) + ": " + _encode(v, inner) for k, v in mapping.items()]
    return "{" + inner + ("," + inner).join(items) + nl + "}"
