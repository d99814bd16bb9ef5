import json
import random
from itertools import product

import pytest

from matchkit import (
    DiscreteMarket,
    Roadmap,
    check_specialized,
    is_specialist,
    theorem3_report,
    validate_roadmap,
    worker_subgraph,
)
from matchkit import cli
from matchkit.errors import SizeGuardExceeded, WorkBudgetExceeded
from matchkit.generator import GenParams, gen_roadmap_instance
from matchkit.model import DEFAULT_BUDGET, SizeGuard
from matchkit.roadmap import TechnologyPath, _covering_paths, _disjoint_covers, technology_paths

from golden import SUITE_PARAMS

fs = frozenset


def iter_specializations(m, r, budget=DEFAULT_BUDGET):
    """Every collection of vertex-disjoint technology paths covering the
    firms' acceptable sets, in the order ``check_specialized`` searches
    them, as a firm -> path dict."""
    return _disjoint_covers(_covering_paths(m, r), budget)


def specialization_oracle(m, r):
    """Every specialization by brute force: itertools.product over the
    covering paths of each firm with acceptable sets, keeping the pairwise
    vertex-disjoint combinations in product order."""
    firms = [f for f in sorted(m.firms) if m.acceptable_sets(f)]
    covering = [
        [
            p
            for p in technology_paths(r)
            if set(m.acceptable_sets(f)) <= {r.demanded[v] for v in p.vertices}
        ]
        for f in firms
    ]
    out = []
    for combo in product(*covering):
        vertices = [v for p in combo for v in p.vertices]
        if len(vertices) == len(set(vertices)):
            out.append(dict(zip(firms, combo)))
    return out


def walked_technology_paths(r):
    """The paths as the recursive walk found them, before paths were built
    by extension: every directed path from each vertex, then one sort."""
    out_edges = {v: [] for v in r.technologies}
    for a, b in r.edges:
        out_edges[a].append(b)
    paths = [TechnologyPath(vertices=(v,), edges=()) for v in sorted(r.technologies)]

    def walk(chain):
        for nxt in sorted(out_edges[chain[-1]]):
            chain.append(nxt)
            paths.append(
                TechnologyPath(
                    vertices=tuple(chain),
                    edges=tuple((chain[i], chain[i + 1]) for i in range(len(chain) - 1)),
                )
            )
            walk(chain)
            chain.pop()

    for v in sorted(r.technologies):
        walk([v])
    paths.sort(key=lambda p: (len(p.vertices), p.vertices))
    return paths


def random_oriented_tree(rng, n):
    """A random tree on n vertices, each edge oriented by a coin flip; the
    names are drawn so that sorted order is not attachment order."""
    names = rng.sample([f"t{i:02d}" for i in range(30)], n)
    edges = []
    for i in range(1, n):
        other = names[rng.randrange(i)]
        edges.append((other, names[i]) if rng.random() < 0.5 else (names[i], other))
    rng.shuffle(edges)
    return Roadmap(technologies=names, edges=edges, demanded={v: {"w"} for v in names})


def chain_files(tmp_path, n):
    """A chain of n technologies, each demanding w1, and a one-firm market
    wanting w1: every worker a specialist, the firm specialized."""
    names = [f"v{i:04d}" for i in range(n)]
    roadmap = tmp_path / f"chain{n}.json"
    roadmap.write_text(json.dumps({
        "edges": [[a, b] for a, b in zip(names, names[1:])],
        "technologies": {v: ["w1"] for v in names},
    }))
    market = tmp_path / "one_firm.json"
    market.write_text(json.dumps(
        {"kind": "discrete", "firms": {"f1": [["w1"]]}, "workers": {"w1": ["f1"]}}
    ))
    return str(roadmap), str(market)


@pytest.fixture
def cycle_companion_market(market1):
    return market1


class TestValidate:
    def test_example4_valid(self, roadmap_example4, profile13):
        assert validate_roadmap(roadmap_example4, profile13) == []

    def test_two_vertex_chain(self):
        r = Roadmap(
            technologies={"v1", "v2"},
            edges=(("v1", "v2"),),
            demanded={"v1": fs({"w"}), "v2": fs({"w"})},
        )
        assert validate_roadmap(r) == []

    def test_undirected_cycle_rejected(self):
        r = Roadmap(
            technologies={"v1", "v2", "v3"},
            edges=(("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
            demanded={v: fs({"w"}) for v in ("v1", "v2", "v3")},
        )
        assert any("tree" in p for p in validate_roadmap(r))

    def test_disconnected_rejected(self):
        r = Roadmap(
            technologies={"v1", "v2", "v3", "v4"},
            edges=(("v1", "v2"), ("v3", "v4")),
            demanded={v: fs({"w"}) for v in ("v1", "v2", "v3", "v4")},
        )
        problems = validate_roadmap(r)
        assert problems  # wrong edge count for a tree

    def test_empty_demand_rejected(self):
        r = Roadmap(
            technologies={"v1"}, edges=(), demanded={"v1": fs()}
        )
        assert any("demands no workers" in p for p in validate_roadmap(r))

    @pytest.mark.parametrize(
        "technologies,edges,demanded,message",
        [
            (set(), (), {}, "roadmap has no technologies"),
            (
                {"v1"},
                (("v1", "v2"),),
                {"v1": fs({"w"})},
                "edge (v1,v2) references unknown technology",
            ),
            ({"v1"}, (("v1", "v1"),), {"v1": fs({"w"})}, "self-loop at v1"),
            (
                {"v1", "v2"},
                (("v1", "v2"), ("v2", "v1")),
                {"v1": fs({"w"}), "v2": fs({"w"})},
                "duplicate edge between v2 and v1",
            ),
            (
                {"v1", "v2", "v3", "v4"},
                (("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
                {v: fs({"w"}) for v in ("v1", "v2", "v3", "v4")},
                "underlying graph is disconnected",
            ),
            (
                {"v1"},
                (),
                {"v1": fs({"w"}), "v9": fs({"w"})},
                "demanded set for unknown technology v9",
            ),
        ],
    )
    def test_violation_messages(self, technologies, edges, demanded, message):
        r = Roadmap(technologies=technologies, edges=edges, demanded=demanded)
        assert validate_roadmap(r) == [message]

    def test_unknown_worker_with_market(self, market1):
        r = Roadmap(
            technologies={"v1"}, edges=(), demanded={"v1": fs({"ghost"})}
        )
        assert any("unknown workers" in p for p in validate_roadmap(r, market1))


class TestWorkerSubgraph:
    def test_example4_w1(self, roadmap_example4):
        vertices, edges = worker_subgraph(roadmap_example4, "w1")
        assert vertices == fs({"v1", "v3", "v5"})
        assert edges == fs({("v1", "v3"), ("v3", "v5")})

    def test_unengaged_worker(self, roadmap_example4):
        vertices, edges = worker_subgraph(roadmap_example4, "w9")
        assert vertices == fs() and edges == fs()

    def test_counter_roadmap_isolated_pair(self, counter_roadmap_1):
        vertices, edges = worker_subgraph(counter_roadmap_1, "w1")
        assert vertices == fs({"v1", "v3"})
        assert edges == fs()

    def test_roundtrip_against_demanded(self, roadmap_example4):
        for w in ("w1", "w2", "w3", "w4", "w5"):
            vertices, _ = worker_subgraph(roadmap_example4, w)
            assert vertices == fs(
                v
                for v in roadmap_example4.technologies
                if w in roadmap_example4.demanded[v]
            )


class TestIsSpecialist:
    def test_example4_all_specialists(self, roadmap_example4):
        for w in ("w1", "w2", "w3", "w4", "w5"):
            assert is_specialist(roadmap_example4, w)

    def test_counter_roadmap_w1_not(self, counter_roadmap_1):
        assert not is_specialist(counter_roadmap_1, "w1")
        assert is_specialist(counter_roadmap_1, "w2")

    def test_single_technology_worker(self, roadmap_example4):
        assert is_specialist(roadmap_example4, "w4")  # only v4

    def test_unengaged_worker_vacuously(self, roadmap_example4):
        assert is_specialist(roadmap_example4, "w9")

    def test_invariant_under_relabeling(self, roadmap_example4):
        rename = {v: f"tech_{v}" for v in roadmap_example4.technologies}
        relabeled = Roadmap(
            technologies={rename[v] for v in roadmap_example4.technologies},
            edges=tuple((rename[a], rename[b]) for a, b in roadmap_example4.edges),
            demanded={rename[v]: s for v, s in roadmap_example4.demanded.items()},
        )
        for w in ("w1", "w2", "w3", "w4", "w5"):
            assert is_specialist(relabeled, w) == is_specialist(roadmap_example4, w)


class TestCheckSpecialized:
    def test_profile13_witness(self, profile13, roadmap_example4):
        result = check_specialized(profile13, roadmap_example4)
        assert result.specialized
        assert {f: p.vertices for f, p in result.firm_paths.items()} == {
            "f1": ("v1", "v3", "v4"),
            "f2": ("v2",),
            "f3": ("v6", "v5"),
        }

    def test_single_set_on_duplicate_chain(self):
        # Two technologies demand the same set; either single vertex works
        # and both witnesses are enumerable.
        r = Roadmap(
            technologies={"v1", "v2"},
            edges=(("v1", "v2"),),
            demanded={"v1": fs({"w"}), "v2": fs({"w"})},
        )
        m = DiscreteMarket(
            firms={"f"}, workers={"w"},
            firm_prefs={"f": (fs({"w"}),)}, worker_prefs={"w": ("f",)},
        )
        result = check_specialized(m, r)
        assert result.specialized
        assert result.firm_paths["f"].vertices == ("v1",)
        witnesses = list(iter_specializations(m, r))
        assert len(witnesses) >= 2

    def test_counter_roadmap_2_not_specialized(self, counter_roadmap_2, market1):
        result = check_specialized(market1, counter_roadmap_2)
        assert not result.specialized
        assert "disjoint" in result.reason

    def test_witnesses_satisfy_both_clauses(self, profile13, roadmap_example4):
        for witness in iter_specializations(profile13, roadmap_example4):
            used = set()
            for f, path in witness.items():
                assert not (set(path.vertices) & used)
                used |= set(path.vertices)
                for s in profile13.acceptable_sets(f):
                    assert any(
                        roadmap_example4.demanded[v] == s for v in path.vertices
                    )

    def test_budget(self, profile13, roadmap_example4):
        with pytest.raises(WorkBudgetExceeded, match="specialization search"):
            check_specialized(profile13, roadmap_example4, budget=1)
        with pytest.raises(WorkBudgetExceeded):
            theorem3_report(profile13, roadmap_example4, budget=1)

    def test_agrees_with_product_oracle(self):
        for kind in ("tu", "discrete"):
            instances = []
            for seed in range(150):
                params = GenParams(seed=seed, **SUITE_PARAMS)
                try:
                    instances.append(gen_roadmap_instance(params, kind=kind))
                except ValueError:
                    continue
            assert len(instances) >= 60
            # Each roadmap with its own market, and with the next instance's
            # market, which often leaves a firm uncovered or the covers clashing.
            for (rm, m), (_, other) in zip(instances, instances[1:] + instances[:1]):
                for market in (m, other):
                    got = list(iter_specializations(market, rm))
                    assert got == specialization_oracle(market, rm)

    def test_firm_without_acceptable_sets_unconstrained(self, roadmap_example4):
        m = DiscreteMarket(
            firms={"f1", "f2"}, workers={"w1", "w2", "w3", "w4", "w5"},
            firm_prefs={"f1": (fs({"w1"}),), "f2": ()},
            worker_prefs={"w1": ("f1",)},
        )
        result = check_specialized(m, roadmap_example4)
        assert result.specialized
        assert "f2" not in result.firm_paths


class TestTechnologyPaths:
    def test_counts_on_chain(self):
        r = Roadmap(
            technologies={"a", "b", "c"},
            edges=(("a", "b"), ("b", "c")),
            demanded={v: fs({"w"}) for v in ("a", "b", "c")},
        )
        paths = technology_paths(r)
        as_tuples = {p.vertices for p in paths}
        assert as_tuples == {
            ("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")
        }

    def test_direction_respected(self, counter_roadmap_1):
        paths = {p.vertices for p in technology_paths(counter_roadmap_1)}
        assert ("v1", "v2", "v3") in paths
        assert ("v3", "v2", "v1") not in paths

    def test_agrees_with_recursive_walk_on_suite_roadmaps(self):
        generated = 0
        for seed in range(500):
            try:
                r, _ = gen_roadmap_instance(GenParams(seed=seed, **SUITE_PARAMS))
            except ValueError:
                continue
            generated += 1
            assert technology_paths(r) == walked_technology_paths(r)
        assert generated >= 200

    def test_agrees_with_recursive_walk_on_random_oriented_trees(self):
        rng = random.Random(20)
        for k in range(1200):
            r = random_oriented_tree(rng, 1 + k % 12)
            assert technology_paths(r) == walked_technology_paths(r)


class TestPathGuard:
    def test_directed_cycle_is_refused(self):
        r = Roadmap(
            technologies={"a", "b", "c"},
            edges=(("a", "b"), ("b", "c"), ("c", "a")),
            demanded={v: {"w"} for v in "abc"},
        )
        with pytest.raises(SizeGuardExceeded, match="technology path vertices > guard"):
            technology_paths(r)

    def test_guard_bounds_all_path_vertices(self, monkeypatch):
        # A chain of n vertices has n(n+1)(n+2)/6 path vertices: 10 for n = 3.
        r = Roadmap(technologies={"a", "b", "c"}, edges=(("a", "b"), ("b", "c")), demanded={})
        monkeypatch.setattr("matchkit.roadmap.DEFAULT_GUARD", SizeGuard(max_path_vertices=10))
        assert sum(len(p.vertices) for p in technology_paths(r)) == 10
        monkeypatch.setattr("matchkit.roadmap.DEFAULT_GUARD", SizeGuard(max_path_vertices=9))
        with pytest.raises(SizeGuardExceeded, match="^10 technology path vertices > guard 9$"):
            technology_paths(r)

    def test_long_chain_exits_2_without_traceback(self, tmp_path, capsys):
        roadmap, market = chain_files(tmp_path, 1500)
        assert cli.main(["roadmap", roadmap, market]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "technology path vertices > guard 2000000" in err
        assert "Traceback" not in err

    def test_chain_inside_the_guard_keeps_its_facts(self, tmp_path, capsys):
        roadmap, market = chain_files(tmp_path, 200)
        assert cli.main(["roadmap", roadmap, market, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["facts"] == {
            "specialists": True,
            "non_specialists": [],
            "specialized": True,
            "firm_paths": {"f1": ["v0000"]},
            "reason": None,
            "balanced": True,
            "witness": None,
            "falsification": False,
        }


class TestTheorem3Report:
    def test_profile13_all_hold(self, profile13, roadmap_example4):
        rep = theorem3_report(profile13, roadmap_example4)
        assert rep.all_specialists
        assert rep.specialization.specialized
        assert rep.balance.balanced
        assert not rep.falsification
        assert rep.all_hold

    def test_counter_roadmap_1(self, counter_roadmap_1, market1):
        rep = theorem3_report(market1, counter_roadmap_1)
        assert not rep.all_specialists
        assert rep.non_specialists == ("w1",)
        assert not rep.balance.balanced
        assert not rep.falsification  # hypothesis (i) fails, no contradiction

    def test_counter_roadmap_2(self, counter_roadmap_2, market1):
        rep = theorem3_report(market1, counter_roadmap_2)
        assert rep.all_specialists
        assert not rep.specialization.specialized
        assert not rep.balance.balanced
        assert not rep.falsification

    def test_empty_market_single_vertex(self):
        r = Roadmap(technologies={"v"}, edges=(), demanded={"v": fs({"w"})})
        m = DiscreteMarket(
            firms=set(), workers={"w"}, firm_prefs={}, worker_prefs={"w": ()}
        )
        rep = theorem3_report(m, r)
        assert rep.all_hold
