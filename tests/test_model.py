import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import matchkit
from matchkit import (
    Coalition,
    DiscreteMarket,
    TuMarket,
    TuMatching,
    choice,
    satisfactory_sets,
    tu_utilities,
    validate_market,
)
from matchkit.errors import InvalidMarketError, WorkBudgetExceeded
from matchkit.generator import GenParams, gen_discrete_market
from matchkit.model import _Budget, iter_disjoint_assignments, set_key

from lp_oracles import coalition_value

fs = frozenset


class TestValidateMarket:
    def test_market1_valid(self, market1):
        assert validate_market(market1) == []

    def test_intro_tu_valid(self, intro_tu):
        assert validate_market(intro_tu) == []

    def test_empty_market_valid(self):
        m = DiscreteMarket(firms=set(), workers=set(), firm_prefs={}, worker_prefs={})
        assert validate_market(m) == []

    def test_duplicate_set_in_pref_list(self):
        with pytest.raises(InvalidMarketError, match=r"^firm 'f' ranks \('w',\) twice$"):
            DiscreteMarket(
                firms={"f"},
                workers={"w"},
                firm_prefs={"f": (fs({"w"}), fs({"w"}))},
                worker_prefs={"w": ("f",)},
            )

    def test_unknown_worker_in_set(self):
        with pytest.raises(InvalidMarketError, match=r"references unknown workers \['ghost'\]"):
            TuMarket(
                firms={"f"},
                workers={"w"},
                firm_valuations={"f": {fs({"w", "ghost"}): 1}},
                worker_valuations={"w": {}},
            )

    def test_overlapping_namespaces(self):
        with pytest.raises(InvalidMarketError, match="both firm and worker"):
            DiscreteMarket(firms={"a"}, workers={"a"}, firm_prefs={}, worker_prefs={})

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidMarketError, match="empty set"):
            DiscreteMarket(
                firms={"f"},
                workers={"w"},
                firm_prefs={"f": (fs(),)},
                worker_prefs={},
            )

    def test_duplicate_firm_in_worker_list(self):
        with pytest.raises(InvalidMarketError, match="^worker 'w' lists a firm twice$"):
            DiscreteMarket(
                firms={"f"},
                workers={"w"},
                firm_prefs={},
                worker_prefs={"w": ("f", "f")},
            )

    @pytest.mark.parametrize(
        "make,message",
        [
            (
                lambda: TuMarket({"f"}, {"w"}, {"g": {fs({"w"}): 1}}, {}),
                "valuation for unknown firm 'g'",
            ),
            (
                lambda: TuMarket({"f"}, {"w"}, {}, {"v": {"f": 1}}),
                "valuation for unknown worker 'v'",
            ),
            (
                lambda: TuMarket({"f"}, {"w"}, {"f": {fs(): 1}}, {}),
                "firm 'f' lists the empty set as acceptable",
            ),
            (
                lambda: DiscreteMarket({"f"}, {"w"}, {"g": (fs({"w"}),)}, {}),
                "preferences for unknown firm 'g'",
            ),
            (
                lambda: DiscreteMarket({"f"}, {"w"}, {}, {"v": ("f",)}),
                "preferences for unknown worker 'v'",
            ),
            (
                lambda: DiscreteMarket({"f"}, {"w"}, {"f": (fs({"w", "ghost"}),)}, {}),
                "firm 'f' set ('ghost', 'w') references unknown workers ['ghost']",
            ),
            (
                lambda: DiscreteMarket({"f"}, {"w"}, {}, {"w": ("g",)}),
                "worker 'w' ranks unknown firm 'g'",
            ),
        ],
    )
    def test_violation_messages(self, make, message):
        with pytest.raises(InvalidMarketError) as e:
            make()
        assert str(e.value) == message


class TestChoice:
    def test_market1_f2_pair(self, market1):
        assert choice(market1, "f2", {"w1", "w2"}) == fs({"w1"})

    def test_empty_offer(self, market1):
        assert choice(market1, "f1", set()) == fs()

    def test_example3_f2_takes_both(self, example3_discrete):
        assert choice(example3_discrete, "f2", {"w1", "w2"}) == fs({"w1", "w2"})

    def test_unknown_firm(self, market1):
        with pytest.raises(KeyError):
            choice(market1, "nope", set())

    def test_choice_is_argmax_over_subsets(self):
        # Full subset scan: the choice must weakly beat every acceptable
        # subset of the offer, and the empty set.
        for seed in range(40):
            m = gen_discrete_market(
                GenParams(seed=seed, firm_count=3, worker_count=5,
                          max_acceptable_sets_per_firm=4, max_set_size=3)
            )
            workers = sorted(m.workers)
            for f in sorted(m.firms):
                for mask in range(1 << len(workers)):
                    offer = fs(w for i, w in enumerate(workers) if mask >> i & 1)
                    picked = choice(m, f, offer)
                    assert picked <= offer
                    rank = m.set_rank(f, picked)
                    assert rank <= m.set_rank(f, fs())
                    for s in m.firm_prefs[f]:
                        if s <= offer:
                            assert rank <= m.set_rank(f, s)


class TestSatisfactorySets:
    def test_acceptable_but_not_satisfactory(self):
        m = DiscreteMarket(
            firms={"f"},
            workers={"w", "x"},
            firm_prefs={"f": (fs({"w"}), fs({"w", "x"}))},
            worker_prefs={},
        )
        assert satisfactory_sets(m, "f") == (fs({"w"}),)

    def test_both_satisfactory(self):
        m = DiscreteMarket(
            firms={"f"},
            workers={"w1", "w2"},
            firm_prefs={"f": (fs({"w1", "w2"}), fs({"w1"}))},
            worker_prefs={},
        )
        assert set(satisfactory_sets(m, "f")) == {fs({"w1", "w2"}), fs({"w1"})}

    def test_empty_pref_list(self):
        m = DiscreteMarket(
            firms={"f"}, workers={"w"}, firm_prefs={"f": ()}, worker_prefs={}
        )
        assert satisfactory_sets(m, "f") == ()

    def test_subset_of_acceptable(self):
        for seed in range(30):
            m = gen_discrete_market(GenParams(seed=seed))
            for f in sorted(m.firms):
                assert set(satisfactory_sets(m, f)) <= set(m.firm_prefs[f])


class TestCoalitionValue:
    def test_intro_pair(self, intro_tu):
        c = Coalition.of("f1", {"w1", "w2"})
        assert coalition_value(intro_tu, c) == 6

    def test_singletons_are_zero(self, intro_tu):
        assert coalition_value(intro_tu, Coalition.singleton("f1", is_firm=True)) == 0
        assert coalition_value(intro_tu, Coalition.singleton("w1", is_firm=False)) == 0

    def test_example1_f2_w1(self, example1_tu):
        assert coalition_value(example1_tu, Coalition.of("f2", {"w1"})) == 2

    def test_outside_family_rejected(self, intro_tu):
        with pytest.raises(ValueError):
            coalition_value(intro_tu, Coalition.of("f1", {"w1"}))

    def test_worker_acceptability_required(self):
        m = TuMarket(
            firms={"f"},
            workers={"w"},
            firm_valuations={"f": {fs({"w"}): 3}},
            worker_valuations={"w": {}},
        )
        with pytest.raises(ValueError):
            coalition_value(m, Coalition.of("f", {"w"}))

    def test_additive_in_worker_valuations(self, example1_tu):
        # Bumping v_w(f) by delta moves V({f} u S) by delta exactly when
        # w is a member.
        delta = Fraction(7, 3)
        bumped = TuMarket(
            firms=example1_tu.firms,
            workers=example1_tu.workers,
            firm_valuations=example1_tu.firm_valuations,
            worker_valuations={
                w: {
                    f: v + (delta if (w, f) == ("w1", "f2") else 0)
                    for f, v in vals.items()
                }
                for w, vals in example1_tu.worker_valuations.items()
            },
        )
        with_w1 = Coalition.of("f2", {"w1"})
        without_w1 = Coalition.of("f2", {"w3"})
        assert coalition_value(bumped, with_w1) == coalition_value(example1_tu, with_w1) + delta
        assert coalition_value(bumped, without_w1) == coalition_value(example1_tu, without_w1)


class TestTuUtilities:
    def test_example1_partial_matching(self, example1_tu):
        mu = TuMatching(assignment={"w1": "f2"}, prices={"w1": 2})
        u = tu_utilities(example1_tu, mu)
        assert u["f2"] == 0
        assert u["w1"] == 2

    def test_all_unmatched_zero(self, example1_tu):
        u = tu_utilities(example1_tu, TuMatching(assignment={}))
        assert all(v == 0 for v in u.values())

    def test_intro_split_of_six(self, intro_tu):
        mu = TuMatching(
            assignment={"w1": "f1", "w2": "f1"}, prices={"w1": 3, "w2": 3}
        )
        u = tu_utilities(intro_tu, mu)
        assert u["f1"] == 0
        assert u["w1"] == 3 and u["w2"] == 3

    def test_unacceptable_pairing_rejected(self, intro_tu):
        mu = TuMatching(assignment={"w1": "f2", "w2": "f2"})
        with pytest.raises(ValueError):
            tu_utilities(intro_tu, mu)


    def test_the_lowest_id_offender_is_named_under_every_hash_seed(self):
        # Three firms, each matched to a set it does not value: the agent
        # sets are frozensets, so only checking in id order names f1 under
        # every hash seed.
        code = (
            "from matchkit import TuMarket, TuMatching, tu_utilities\n"
            "firms, workers = ['f1', 'f2', 'f3'], ['w1', 'w2', 'w3']\n"
            "vals = {f: {frozenset({w}): 1} for f, w in zip(firms, workers)}\n"
            "m = TuMarket(firms=set(firms), workers=set(workers), firm_valuations=vals,\n"
            "             worker_valuations={})\n"
            "mu = TuMatching(assignment={'w1': 'f2', 'w2': 'f3', 'w3': 'f1'})\n"
            "try:\n"
            "    tu_utilities(m, mu)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(matchkit.__file__).parents[1])
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-B", "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
                timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == "firm 'f1' matched to unacceptable set ('w3',)\n", seed


def test_set_key_sorts_members():
    assert set_key({"b", "a"}) == ("a", "b")


def test_matchings_expose_induced_sets():
    mu = TuMatching(assignment={"w1": "f1", "w2": "f1"}, prices={"w1": 1})
    assert mu.workers_of("f1") == fs({"w1", "w2"})
    assert mu.firm_of("w3") is None
    assert mu.price("w2") == 0


class TestDisjointAssignments:
    def test_depth_first_order_last_slot_fastest(self):
        options = [
            [(fs(), "a0"), (fs({"x"}), "a1")],
            [(fs(), "b0"), (fs({"x"}), "b1"), (fs({"y"}), "b2")],
        ]
        got = list(iter_disjoint_assignments(options, _Budget(100, "test")))
        # (a1, b1) is left out: both take x.
        assert got == [
            ("a0", "b0"),
            ("a0", "b1"),
            ("a0", "b2"),
            ("a1", "b0"),
            ("a1", "b2"),
        ]

    def test_no_slots_yield_one_empty_choice(self):
        assert list(iter_disjoint_assignments([], _Budget(0, "test"))) == [()]

    def test_empty_slot_yields_nothing(self):
        options = [[(fs(), "a0")], []]
        assert list(iter_disjoint_assignments(options, _Budget(100, "test"))) == []

    def test_one_budget_step_per_option_placed(self):
        options = [[(fs(), 0), (fs({"x"}), 1)], [(fs(), 0), (fs({"x"}), 1)]]
        budget = _Budget(100, "test")
        assert len(list(iter_disjoint_assignments(options, budget))) == 3
        # Two first-slot placements, three second-slot ones.
        assert budget.left == 100 - 5

    def test_budget_exhaustion_raises(self):
        options = [[(fs(), 0), (fs({"x"}), 1)]] * 3
        with pytest.raises(WorkBudgetExceeded, match="test budget exhausted"):
            list(iter_disjoint_assignments(options, _Budget(4, "test")))

    OPTIONS = [
        [(fs(), "a0"), (fs({"x"}), "a1")],
        [(fs(), "b0"), (fs({"x"}), "b1"), (fs({"y"}), "b2")],
        [(fs(), "c0"), (fs({"y"}), "c1")],
    ]

    def search(self, prune):
        budget = _Budget(100, "test")
        got = list(iter_disjoint_assignments(self.OPTIONS, budget, prune))
        return got, 100 - budget.left

    def test_no_hook_and_a_hook_that_never_prunes_agree(self):
        calls = []

        def never(i, picked):
            calls.append((i, tuple(picked[: i + 1])))
            return False

        got, steps = self.search(None)
        assert self.search(never) == (got, steps)
        assert got == [
            ("a0", "b0", "c0"),
            ("a0", "b0", "c1"),
            ("a0", "b1", "c0"),
            ("a0", "b1", "c1"),
            ("a0", "b2", "c0"),
            ("a1", "b0", "c0"),
            ("a1", "b0", "c1"),
            ("a1", "b2", "c0"),
        ]
        # 2 first-slot, 5 second-slot and 8 third-slot placements; the hook
        # sees each one, with the prefix placed so far.
        assert steps == 15
        assert len(calls) == steps
        assert calls[:3] == [(0, ("a0",)), (1, ("a0", "b0")), (2, ("a0", "b0", "c0"))]

    def test_pruned_prefix_spends_no_further_steps(self):
        got, steps = self.search(lambda i, picked: i == 1 and picked[1] == "b0")
        # Every choice through b0 is gone; the rest keep their DFS order.
        assert got == [
            ("a0", "b1", "c0"),
            ("a0", "b1", "c1"),
            ("a0", "b2", "c0"),
            ("a1", "b2", "c0"),
        ]
        # The two b0 placements are spent, their four leaves are not.
        assert steps == 15 - 4

    def test_pruning_the_first_slot_skips_its_whole_subtree(self):
        got, steps = self.search(lambda i, picked: picked[0] == "a0")
        assert got == [("a1", "b0", "c0"), ("a1", "b0", "c1"), ("a1", "b2", "c0")]
        assert steps == 2 + 2 + 3

    def test_rejecting_at_the_last_slot_drops_exactly_that_leaf(self):
        full, steps = self.search(None)
        leaf = ("a0", "b1", "c1")
        got, pruned_steps = self.search(
            lambda i, picked: i == 2 and tuple(picked) == leaf
        )
        assert got == [c for c in full if c != leaf]
        assert pruned_steps == steps
