"""Correctness gate: every operation's exit code must agree with its verdict,
and every output is re-verified with matchkit's own checkers.

- ``balance``/``roadmap``/``analyze`` witnesses: ``is_cycle`` and
  ``is_nontrivial_odd`` on the market's hypergraph.
- ``solve-tu``: ``check_stable_tu`` on the emitted matching and prices, the
  certificate value equal to the LP value and to the sum of the LP primal,
  unit coverage by the certificate weights.
- ``solve-discrete``: ``check_stable_discrete`` on every enumerated matching
  and on the state where the blocking dynamics stopped.
- ``analyze``: |det| = 2 on the cycle certificate, the reported unimodularity
  violation recomputed from the reported demand vectors.
- Across the operations on one market: a balanced hypergraph must have a
  stable matching (Theorems 1 and 2), and a hypergraph whose edges all have
  two vertices is a bipartite graph, hence balanced.

An operation that exits 2 (size guard) or 3 (work budget) counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

EXPECTED_EXIT = {True: 0, False: 1}


def canonical(facts: dict) -> str:
    """The canonical text of a report's facts (no timing, no file paths)."""
    return json.dumps(facts, sort_keys=True, separators=(",", ":"))


def facts_key(text: str) -> str:
    """SHA-256 of a report's canonical facts text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(keys: list[str]) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class Gate:
    """Checks one pass's outputs in operation order; cross-operation facts
    (balanced or not) are remembered per market instance.  Markets are read
    back from the files the program was given."""

    def __init__(self, mk):
        self.mk = mk
        self.balanced: dict[str, bool] = {}
        self.markets: dict[str, object] = {}

    def market(self, op):
        if op.market_path not in self.markets:
            self.markets[op.market_path] = self.mk.io.load_market(op.market_path)
        return self.markets[op.market_path]

    def check(self, op, rc: int | None, facts: dict | None) -> list[str]:
        """``facts`` is the report's facts, None where the output held no
        JSON report."""
        if rc is None:
            return ["raised an exception"]
        if rc in (2, 3):
            return [f"exit {rc}"]
        if facts is None:
            return [f"exit {rc} without a JSON report"]
        checker = getattr(self, "_" + op.check.replace("-", "_"))
        try:
            return checker(op, rc, facts)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return [f"malformed report: {type(e).__name__}: {e}"]

    def check_probe(self, op, rc: int | None, facts: dict | None) -> list[str]:
        """The budget probe may exit 3 (budget exhausted, never a wrong
        verdict) or answer; an answer must be right."""
        if rc == 3:
            return []
        return self.check(op, rc, facts)

    # -- per command ---------------------------------------------------

    def _verdict(self, rc: int, positive: bool, what: str) -> list[str]:
        if rc != EXPECTED_EXIT[positive]:
            return [f"exit {rc} but {what} is {positive}"]
        return []

    def _witness(self, market, w: dict) -> list[str]:
        hg = self.mk.hypergraph
        h = hg.build_hypergraph(market)
        c = hg.HyperCycle(vertices=tuple(w["vertices"]), edges=tuple(w["edges"]))
        if not hg.is_cycle(h, c):
            return ["witness is not a cycle of the hypergraph"]
        problems = []
        if not hg.is_nontrivial_odd(h, c):
            problems.append("witness is not a nontrivial odd cycle")
        if [sorted(h.edge_members(i)) for i in c.edges] != w["edge_members"]:
            problems.append("witness edge members differ from the hypergraph")
        if len(c) != w["length"]:
            problems.append("witness length is wrong")
        return problems

    def _balance(self, op, rc, f) -> list[str]:
        market = self.market(op)
        problems = self._verdict(rc, f["balanced"], "balanced")
        h = self.mk.hypergraph.build_hypergraph(market)
        if f["edge_count"] != len(h.edges):
            problems.append("edge count differs from the hypergraph")
        if f["balanced"]:
            if f["witness"] is not None:
                problems.append("balanced verdict carries a witness")
        elif all(len(h.edge_members(i)) == 2 for i in range(len(h.edges))):
            problems.append("a bipartite graph reported unbalanced")
        else:
            problems += self._witness(market, f["witness"])
        self.balanced[op.instance] = f["balanced"]
        return problems

    def _solve_tu(self, op, rc, f) -> list[str]:
        mk = self.mk
        market = self.market(op)
        stable = f["stable"]
        problems = self._verdict(rc, stable, "stable")
        lp = Fraction(f["lp_value"])
        partition = Fraction(f["partition_value"])
        if partition > lp:
            problems.append("partition value exceeds the LP value")
        if stable != (lp == partition):
            problems.append("verdict disagrees with LP value vs partition value")
        if self.balanced.get(op.instance) and not stable:
            problems.append("balanced market without a stable matching (Theorem 1)")
        cert = f.get("certificate")
        if cert is not None:
            if Fraction(cert["value"]) != lp:
                problems.append("certificate value differs from the LP value")
            coverage = dict.fromkeys(market.firms | market.workers, Fraction(0))
            for entry in cert["weights"]:
                weight = Fraction(entry["weight"])
                if weight < 0:
                    problems.append("negative certificate weight")
                for agent in entry["coalition"]:
                    coverage[agent] += weight
            if any(v != 1 for v in coverage.values()):
                problems.append("certificate does not cover every agent exactly once")
        elif not stable:
            problems.append("unstable verdict without a certificate")
        primal = f.get("lp_primal")
        if primal is not None and sum(map(Fraction, primal.values())) != lp:
            problems.append("LP primal sum differs from the LP value")
        if stable:
            matching = mk.io.parse_matching(f["matching"], "tu")
            if not mk.tu_solver.check_stable_tu(market, matching).stable:
                problems.append("emitted matching and prices are not stable")
            utilities = mk.model.tu_utilities(market, matching)
            if {a: Fraction(v) for a, v in f["utilities"].items()} != utilities:
                problems.append("reported utilities differ from the matching's")
            if primal is not None and {a: Fraction(v) for a, v in primal.items()} != utilities:
                problems.append("stable payoffs differ from the LP primal")
        return problems

    def _enumerate(self, op, rc, f) -> list[str]:
        mk = self.mk
        found = f["stable_matchings"]
        problems = self._verdict(rc, bool(found), "stable set non-empty")
        if f["stable_count"] != len(found) or not f["complete"]:
            problems.append("stable count or completeness flag is wrong")
        keys = [sorted(m.items()) for m in found]
        if keys != sorted(keys) or len({tuple(k) for k in keys}) != len(keys):
            problems.append("stable matchings are not sorted and distinct")
        for m in found:
            mu = mk.model.DiscreteMatching(assignment=m)
            if not mk.discrete_solver.check_stable_discrete(self.market(op), mu).stable:
                problems.append(f"enumerated matching {m} is not stable")
        if self.balanced.get(op.instance) and not found:
            problems.append("balanced market without a stable matching (Theorem 2)")
        return problems

    def _dynamics(self, op, rc, f) -> list[str]:
        mk = self.mk
        outcome = f["outcome"]
        states = f["states"]
        problems = self._verdict(rc, outcome == "stable", "dynamics reached a stable state")
        if len(states) != len(f["moves"]) + 1 or states[0] != {}:
            problems.append("state and move counts disagree")
        if outcome == "stable":
            last = mk.model.DiscreteMatching(assignment=states[-1])
            if f["stable_at"] != len(states) - 1:
                problems.append("stable_at is not the last state")
            if not mk.discrete_solver.check_stable_discrete(self.market(op), last).stable:
                problems.append("dynamics stopped at an unstable state")
        elif outcome == "cycle":
            i, j = f["revisit"]
            if states[i] != states[j] or j != len(states) - 1:
                problems.append("reported revisit is not a repeated state")
        elif outcome != "budget":
            problems.append(f"unknown outcome {outcome!r}")
        return problems

    def _analyze(self, op, rc, f) -> list[str]:
        analysis = self.mk.analysis
        problems = [] if rc == 0 else [f"analyze exit {rc}"]
        prop1 = f["prop1"]
        cert = f["certificate"]
        if prop1["guaranteed"]:
            if prop1["witness"] is not None or cert is not None:
                problems.append("guaranteed verdict carries a witness or certificate")
        else:
            problems += self._witness(self.market(op), prop1["witness"])
            entries = cert["entries"]
            if len(entries) != len(entries[0]) or len(cert["cols"]) != len(entries):
                problems.append("certificate matrix is not square")
            elif abs(analysis.bareiss_determinant(entries)) != 2:
                problems.append("certificate determinant is not +-2")
        tu = f["tu_check"]
        vectors = f["demand_type"]["vectors"]
        if tu["totally_unimodular"]:
            if tu["determinant"] is not None:
                problems.append("unimodular verdict carries a determinant")
            if not prop1["guaranteed"]:
                problems.append("unimodular demand type with a qualifying cycle (Proposition 2)")
        else:
            sub = [[vectors[j][i] for j in tu["cols"]] for i in tu["rows"]]
            det = analysis.bareiss_determinant(sub)
            if det != tu["determinant"] or det in (-1, 0, 1):
                problems.append("reported unimodularity violation does not hold")
        return problems

    def _roadmap(self, op, rc, f) -> list[str]:
        holds = f["specialists"] and f["specialized"] and f["balanced"]
        problems = self._verdict(rc, holds, "Theorem 3 conclusion")
        # Generated instances satisfy both hypotheses by construction.
        if not (f["specialists"] and f["specialized"]):
            problems.append("generated roadmap instance lost a hypothesis")
        if f["falsification"] or not f["balanced"]:
            problems.append("Theorem 3 falsified")
        if f["witness"] is not None:
            problems += self._witness(self.market(op), f["witness"])
        return problems
