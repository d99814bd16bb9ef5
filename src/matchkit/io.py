"""JSON file formats for markets, matchings, and roadmaps.

Market files carry a top-level ``kind`` ("tu" or "discrete").  Rationals
are JSON integers or strings in any form ``Fraction(str)`` accepts: "6" and
"-3/2", but also "1.5", "1e3" and " 7 ".  While CPython's int-to-decimal
digit limit is on, an exponent larger than the limit in magnitude, or a
numerator or denominator with more digits than the limit, is a
``MarketFormatError``.  Worker sets are arrays,
order-insensitive and deduplicated on parse.  Serialization is canonical
(sorted keys, sorted set members, rationals as ``str(Fraction)``) so
identical values produce identical bytes.

``load_json`` reads each file once, so the SHA-256 it records describes the
bytes parsed.  ``to_json`` writes ``json.dumps(obj, indent=2)``'s bytes
without the pure-Python encoder that ``json.dumps`` uses when indenting; a
list item that is exactly a ``str`` or an ``int`` is written in place,
with no recursive call.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

from .errors import MarketFormatError, MatchkitError
from .model import (
    DiscreteMarket,
    DiscreteMatching,
    Market,
    TuMarket,
    TuMatching,
)
from .roadmap import Roadmap


# CPython's own wording, whose advice the CLI rewrites for its users.
_PAST_LIMIT = (
    "Exceeds the limit ({} digits) for integer string conversion{}; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def _exponent(value: str) -> int:
    """The exponent of ``value`` written as ``1.5e3``, or 0."""
    _, e, exp = value.lower().rpartition("e")
    try:
        return int(exp) if e else 0
    except ValueError:  # not an exponent: Fraction reports the bad literal
        return 0


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise MarketFormatError(f"{where}: rationals must be strings or integers")
    try:
        if isinstance(value, str) and value.isascii():
            # -?[0-9]+(/[0-9]+)? skips Fraction's regex, unless D is 0.
            num, slash, den = value.partition("/")
            digits = num.removeprefix("-")
            if digits.isdigit() and (den.isdigit() or not slash):
                n, d = int(digits), int(den or 1)
                if d:
                    return Fraction(-n if num[0] == "-" else n, d)
        # Under CPython's int-to-decimal digit limit, a value that could not
        # be written back is an input error, and an exponent past it is
        # refused before Fraction computes 10**exponent.
        limit = sys.get_int_max_str_digits()
        exp = _exponent(value) if limit and isinstance(value, str) else 0
        if abs(exp) > limit:
            raise ValueError(_PAST_LIMIT.format(limit, f": exponent is {exp}"))
        q = Fraction(value)
        big = max(abs(q.numerator), q.denominator)
        # More than ``limit`` digits take more than 3 * limit bits.
        if limit and big.bit_length() > 3 * limit and big >= 10**limit:
            raise ValueError(_PAST_LIMIT.format(limit, ""))
        return q
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise MarketFormatError(f"{where}: bad rational {value!r} ({e})")


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MarketFormatError(f"{where}: expected an array of strings")
    return value


def parse_market(data) -> Market:
    if not isinstance(data, dict):
        raise MarketFormatError("market file must be a JSON object")
    kind = data.get("kind")
    if kind not in ("tu", "discrete"):
        raise MarketFormatError(f"unknown market kind {kind!r}")
    firms = data.get("firms")
    workers = data.get("workers")
    if not isinstance(firms, dict) or not isinstance(workers, dict):
        raise MarketFormatError('"firms" and "workers" must be objects')
    if kind == "tu":
        firm_valuations = {}
        for f, entries in firms.items():
            if not isinstance(entries, list):
                raise MarketFormatError(f"firm {f}: expected an array of valuations")
            vals = {}
            for entry in entries:
                if not isinstance(entry, dict) or "set" not in entry or "value" not in entry:
                    raise MarketFormatError(
                        f'firm {f}: each valuation needs "set" and "value"'
                    )
                s = frozenset(_string_list(entry["set"], f"firm {f} set"))
                if s in vals:
                    raise MarketFormatError(f"firm {f}: set {sorted(s)} valued twice")
                vals[s] = _rational(entry["value"], f"firm {f} value")
            firm_valuations[f] = vals
        worker_valuations = {}
        for w, entries in workers.items():
            if not isinstance(entries, dict):
                raise MarketFormatError(f"worker {w}: expected an object firm->value")
            worker_valuations[w] = {
                f: _rational(v, f"worker {w} value for {f}")
                for f, v in entries.items()
            }
        return TuMarket(
            firms=frozenset(firms),
            workers=frozenset(workers),
            firm_valuations=firm_valuations,
            worker_valuations=worker_valuations,
        )
    firm_prefs = {}
    for f, entries in firms.items():
        if not isinstance(entries, list):
            raise MarketFormatError(f"firm {f}: expected an array of worker sets")
        firm_prefs[f] = tuple(
            frozenset(_string_list(s, f"firm {f} set")) for s in entries
        )
    worker_prefs = {}
    for w, entries in workers.items():
        worker_prefs[w] = tuple(_string_list(entries, f"worker {w} preferences"))
    return DiscreteMarket(
        firms=frozenset(firms),
        workers=frozenset(workers),
        firm_prefs=firm_prefs,
        worker_prefs=worker_prefs,
    )


def serialize_market(m: Market) -> dict:
    if isinstance(m, TuMarket):
        return {
            "kind": "tu",
            "firms": {
                f: [
                    {"set": sorted(s), "value": str(v)}
                    for s, v in sorted(
                        m.firm_valuations.get(f, {}).items(),
                        key=lambda kv: sorted(kv[0]),
                    )
                ]
                for f in sorted(m.firms)
            },
            "workers": {
                w: {
                    f: str(v)
                    for f, v in sorted(m.worker_valuations.get(w, {}).items())
                }
                for w in sorted(m.workers)
            },
        }
    return {
        "kind": "discrete",
        "firms": {
            f: [sorted(s) for s in m.firm_prefs.get(f, ())] for f in sorted(m.firms)
        },
        "workers": {w: list(m.worker_prefs.get(w, ())) for w in sorted(m.workers)},
    }


def parse_matching(data, kind: str) -> TuMatching | DiscreteMatching:
    if not isinstance(data, dict) or not isinstance(data.get("assignment"), dict):
        raise MarketFormatError('matching file needs an "assignment" object')
    assignment = data["assignment"]
    for w, f in assignment.items():
        if not isinstance(f, str):
            raise MarketFormatError(f"assignment for {w} must name a firm")
    if kind == "tu":
        prices = data.get("prices", {})
        if not isinstance(prices, dict):
            raise MarketFormatError('matching file "prices" must be an object')
        prices = {w: _rational(v, f"price for {w}") for w, v in prices.items()}
        return TuMatching(assignment=dict(assignment), prices=prices)
    return DiscreteMatching(assignment=dict(assignment))


def serialize_matching(mu: TuMatching | DiscreteMatching) -> dict:
    out = {"assignment": dict(sorted(mu.assignment.items()))}
    if isinstance(mu, TuMatching):
        out["prices"] = {w: str(p) for w, p in sorted(mu.prices.items())}
    return out


def parse_roadmap(data) -> Roadmap:
    if not isinstance(data, dict) or not isinstance(data.get("technologies"), dict):
        raise MarketFormatError('roadmap file needs a "technologies" object')
    demanded = {
        v: frozenset(_string_list(ws, f"technology {v}"))
        for v, ws in data["technologies"].items()
    }
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise MarketFormatError('roadmap "edges" must be an array')
    edges = []
    for e in raw_edges:
        pair = _string_list(e, "edge")
        if len(pair) != 2:
            raise MarketFormatError(f"edge {e!r} must have exactly two endpoints")
        edges.append((pair[0], pair[1]))
    return Roadmap(
        technologies=frozenset(demanded),
        edges=tuple(edges),
        demanded=demanded,
    )


def serialize_roadmap(r: Roadmap) -> dict:
    return {
        "technologies": {
            v: sorted(r.demanded.get(v, ())) for v in sorted(r.technologies)
        },
        "edges": sorted([a, b] for a, b in r.edges),
    }


_escape = json.encoder.encode_basestring_ascii  # TypeError on a non-str
_CONSTANTS = {None: "null", True: "true", False: "false"}
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(obj, out: list, nl: str, sort_keys: bool) -> None:
    """Append the pieces of ``obj`` to ``out``; ``nl`` is a newline plus the
    current indentation."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        r = float.__repr__(obj)
        out.append(_FLOATS.get(r, r))
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            # Exact types only: bools and subclasses take the general path.
            if type(item) is str:
                out.append(_escape(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write(item, out, inner, sort_keys)
        out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            out.append(sep + _escape(key) + ": ")
            sep = "," + inner
            _write(value, out, inner, sort_keys)
        out.append(nl + "}" if obj else "{}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_json(obj, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)`` for dicts with
    string keys, lists, tuples, strings, ints, floats, bools and None;
    anything else raises TypeError."""
    out: list[str] = []
    _write(obj, out, "\n", sort_keys)
    return "".join(out)


def to_canonical_json(obj) -> str:
    return to_json(obj, sort_keys=True) + "\n"


def load_json(path: str | os.PathLike, inputs: dict | None = None):
    """Parse the JSON file at ``path``, read once.  With ``inputs``, record
    ``inputs[path]`` = the SHA-256 of the bytes parsed."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise MarketFormatError(f"cannot read {path}: {e}")
    if inputs is not None:
        inputs[path] = hashlib.sha256(raw).hexdigest()
    if "\r" in text:  # universal newlines, as a text-mode read gives
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    # ValueError: JSONDecodeError, or an integer past the digit limit;
    # RecursionError: arrays or objects nested too deep.
    except (ValueError, RecursionError) as e:
        raise MarketFormatError(f"{path}: invalid JSON ({e})")


def write_json(path: str | os.PathLike, obj) -> None:
    """Write ``obj`` as canonical JSON; an unwritable path raises
    MatchkitError, as an unreadable one does in ``load_json``."""
    text = to_canonical_json(obj)
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise MatchkitError(f"cannot write {path}: {e}")


def load_market(path: str | os.PathLike, inputs: dict | None = None) -> Market:
    return parse_market(load_json(path, inputs))


def load_roadmap(path: str | os.PathLike, inputs: dict | None = None) -> Roadmap:
    return parse_roadmap(load_json(path, inputs))
