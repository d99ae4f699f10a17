"""Deterministic seeding, rational parsing, and canonical JSON helpers."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .errors import SpecInvalid


def split_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``seed`` and a stage label.

    Stable across platforms and Python versions (sha256, not ``hash``),
    so every consumer of randomness in a scenario draws from a named,
    reproducible stream.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_fraction_hash(seed: int, payload: str, modulus: int = 1_000_000) -> int:
    """Map (seed, payload) to [0, modulus) reproducibly."""
    digest = hashlib.sha256(f"{seed}|{payload}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % modulus


def parse_fraction(text) -> Fraction:
    """Parse "3/20", "0.15"-free exact strings, or ints into a Fraction.
    A bool is no rational, though Python counts it an int."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise TypeError(f"cannot parse fraction from {text!r}")


def json_int(value, what: str, least=None) -> int:
    """``value`` when it is a JSON integer (not a bool) of at least
    ``least``; otherwise SpecInvalid, since a float, bool or string
    coerced to an integer would run another input than the one given."""
    wrong_type = isinstance(value, bool) or not isinstance(value, int)
    if wrong_type or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise SpecInvalid(f"{what} must be an integer{bound}, got {value!r}")
    return value


def fraction_str(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


_string = json.encoder.encode_basestring_ascii


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    """A dict key as ``json`` writes it."""
    if isinstance(key, str):
        return _string(key)
    if key is True or key is False or key is None:
        return {True: '"true"', False: '"false"', None: '"null"'}[key]
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    if isinstance(key, float):
        return f'"{_float(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(value, out: list, newline: str) -> None:
    """Append ``value``'s JSON to ``out``, a nested container's lines
    opening with ``newline`` and two more spaces."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        before = "[" + inner
        for item in value:
            out.append(before)
            _write(item, out, inner)
            before = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        before = "{" + inner
        for key, item in sorted(value.items()):
            out.append(before + _key(key) + ": ")
            _write(item, out, inner)
            before = "," + inner
        out.append(newline + "}")
    else:
        _write(_json_default(value), out, newline)


def canonical_json(data) -> str:
    """Serialize with sorted keys and exact rationals; byte-stable.  The
    text is ``json.dumps(data, sort_keys=True, indent=2,
    default=_json_default)``, written directly: with an indent,
    ``json`` goes through its pure-Python generator encoder."""
    out: list = []
    _write(data, out, "\n")
    return "".join(out)
