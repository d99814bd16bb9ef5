"""JSON file formats for markets, matchings, and roadmaps.

Market files carry a top-level ``kind`` ("tu" or "discrete").  Rationals
are decimal-free strings ("6", "-3/2"); plain JSON integers are accepted on
input.  Worker sets are arrays, order-insensitive and deduplicated on
parse.  Serialization is canonical (sorted keys, sorted set members) so
identical values produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import MarketFormatError, MatchkitError
from .model import (
    DiscreteMarket,
    DiscreteMatching,
    Market,
    TuMarket,
    TuMatching,
)
from .roadmap import Roadmap


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise MarketFormatError(f"{where}: rationals must be strings or integers")
    try:
        return Fraction(value)
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
        prices = {
            w: _rational(v, f"price for {w}")
            for w, v in data.get("prices", {}).items()
        }
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


def to_canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise MarketFormatError(f"cannot read {path}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MarketFormatError(f"{path}: invalid JSON ({e})")


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as canonical JSON; an unwritable path raises
    MatchkitError, as an unreadable one does in ``load_json``."""
    try:
        Path(path).write_text(to_canonical_json(obj), encoding="utf-8")
    except OSError as e:
        raise MatchkitError(f"cannot write {path}: {e}")


def load_market(path: str | Path) -> Market:
    return parse_market(load_json(path))


def load_roadmap(path: str | Path) -> Roadmap:
    return parse_roadmap(load_json(path))
