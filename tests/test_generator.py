import hashlib
from fractions import Fraction

import pytest

from matchkit import io
from matchkit import (
    build_hypergraph,
    check_balanced,
    check_specialized,
    is_specialist,
    validate_market,
    validate_roadmap,
)
from matchkit.generator import (
    GenParams,
    SplitMix64,
    gen_discrete_market,
    gen_roadmap_instance,
    gen_tu_market,
    validate_params,
)

F = Fraction

SUITE_PARAMS = dict(
    firm_count=4,
    worker_count=6,
    max_acceptable_sets_per_firm=3,
    max_set_size=3,
    value_range=(F(0), F(10)),
    acceptability_density=0.85,
)


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        # Reference stream of the published splitmix64 recurrence.
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_known_answer_other_seed(self):
        g = SplitMix64(1234567)
        assert [g.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_randint_bounds(self):
        g = SplitMix64(5)
        draws = [g.randint(2, 7) for _ in range(200)]
        assert set(draws) <= set(range(2, 8))
        assert len(set(draws)) == 6

    def test_chance_extremes(self):
        g = SplitMix64(5)
        assert not any(g.chance(0.0) for _ in range(50))
        assert all(g.chance(1.0) for _ in range(50))

    def test_fraction_respects_range_and_denominator(self):
        g = SplitMix64(5)
        for _ in range(100):
            v = g.fraction(F(-2), F(3))
            assert F(-2) <= v <= F(3)
            assert v.denominator <= 8


class TestDeterminism:
    def test_tu_same_seed_same_market(self):
        p = GenParams(seed=1)
        assert gen_tu_market(p) == gen_tu_market(p)

    def test_discrete_same_seed_same_market(self):
        p = GenParams(seed=1)
        assert gen_discrete_market(p) == gen_discrete_market(p)

    def test_roadmap_same_seed_same_instance(self):
        p = GenParams(seed=11, firm_count=2, worker_count=5)
        assert gen_roadmap_instance(p) == gen_roadmap_instance(p)

    def test_different_seeds_differ(self):
        assert gen_discrete_market(GenParams(seed=1)) != gen_discrete_market(
            GenParams(seed=2)
        )


class TestValidity:
    def test_generated_markets_always_validate(self):
        for seed in range(300):
            assert validate_market(gen_discrete_market(GenParams(seed=seed))) == []
            assert validate_market(gen_tu_market(GenParams(seed=seed))) == []

    def test_density_zero_means_no_acceptances(self):
        m = gen_tu_market(GenParams(seed=4, acceptability_density=0.0))
        assert all(not vals for vals in m.worker_valuations.values())
        d = gen_discrete_market(GenParams(seed=4, acceptability_density=0.0))
        assert all(prefs == () for prefs in d.worker_prefs.values())

    def test_marriage_mode_only_singletons(self):
        m = gen_discrete_market(GenParams(seed=9, max_set_size=1,
                                          max_acceptable_sets_per_firm=4))
        for prefs in m.firm_prefs.values():
            assert all(len(s) == 1 for s in prefs)

    def test_values_within_range(self):
        lo, hi = F(-3), F(5)
        m = gen_tu_market(GenParams(seed=12, value_range=(lo, hi)))
        for vals in m.firm_valuations.values():
            for v in vals.values():
                assert lo <= v <= hi


class TestParams:
    def test_set_size_beyond_workers_rejected(self):
        with pytest.raises(ValueError):
            validate_params(GenParams(seed=0, worker_count=2, max_set_size=3))

    def test_guard_sizes_rejected(self):
        with pytest.raises(ValueError):
            validate_params(GenParams(seed=0, worker_count=50, max_set_size=2))
        with pytest.raises(ValueError):
            validate_params(GenParams(seed=0, firm_count=50))

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            validate_params(GenParams(seed=0, acceptability_density=1.5))

    def test_roadmap_needs_enough_workers(self):
        with pytest.raises(ValueError):
            gen_roadmap_instance(GenParams(seed=0, firm_count=5, worker_count=4,
                                           max_set_size=2))


class TestRoadmapInstances:
    def test_outputs_satisfy_both_hypotheses_and_validate(self):
        produced = 0
        for seed in range(80):
            params = GenParams(seed=seed, firm_count=2, worker_count=5,
                               max_acceptable_sets_per_firm=3, max_set_size=3)
            try:
                rm, market = gen_roadmap_instance(
                    params, kind="tu" if seed % 2 else "discrete"
                )
            except ValueError:
                continue
            produced += 1
            assert validate_market(market) == []
            assert validate_roadmap(rm, market) == []
            for w in market.workers:
                assert is_specialist(rm, w)
            assert check_specialized(market, rm).specialized
            assert check_balanced(build_hypergraph(market)).balanced
        assert produced >= 50


def _digest(*documents) -> str:
    text = "".join(io.to_canonical_json(d) for d in documents)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestKnownAnswers:
    """Generated corpora pinned bit for bit: SHA-256 of the canonical JSON
    of each instance (roadmap first, then market, where there is one)."""

    @pytest.mark.parametrize(
        "seed, params, digest",
        [
            (0, SUITE_PARAMS, "8923adc3cc12d16a340103a6fbb4133f02ed576c7cfdf44adcdd4568067ee6c6"),
            (1, SUITE_PARAMS, "8f454f5877eb0173acc33f644212e5f301831c6ce3cc9dd2c4859b0946d03d63"),
            (2, SUITE_PARAMS, "52b454f7c3c71f309812a5eedeb5076457a7f4534abea773fb845ce6c6eebaf6"),
            (5, {}, "fc5fb0936a2e1e2dd20ebdc3f95f6a58f112b960ce0be2c8b08434569fc9c2f5"),
        ],
    )
    def test_tu_market(self, seed, params, digest):
        m = gen_tu_market(GenParams(seed=seed, **params))
        assert _digest(io.serialize_market(m)) == digest

    @pytest.mark.parametrize(
        "seed, params, digest",
        [
            (0, SUITE_PARAMS, "36d6163d00b880350a21c7b7c4dad61ad73ec8154fd23c6374627e35017c45ba"),
            (1, SUITE_PARAMS, "28eef7c20e72c38239e5239aed8c6f1f33abad0c793a50ba62bb032c03a92f07"),
            (3, SUITE_PARAMS, "26b6fc2fcfb49de5078ea695d741aa9f44ef26479f21eefa87007dc562ab3e85"),
            (5, {}, "a01ffb6e46f6305ae31a389618f72e90e87fde934c690f925b935859dc59f1ab"),
        ],
    )
    def test_discrete_market(self, seed, params, digest):
        m = gen_discrete_market(GenParams(seed=seed, **params))
        assert _digest(io.serialize_market(m)) == digest

    @pytest.mark.parametrize(
        "seed, kind, params, digest",
        [
            (0, "tu", SUITE_PARAMS, "f8f0f378eaf3de7a0605200b3e81c9cf6770275d9d44788d64d6bedc5b2adf7d"),
            (0, "discrete", SUITE_PARAMS, "f9dd69f81f777141910f2a7f7c686808011ff56bf10ed78feec8731eeab72e09"),
            (2, "discrete", SUITE_PARAMS, "222c547cff92c5a78b98293955e322b1cccf179569a45f67624d9236d41a81b6"),
            (7, "tu", SUITE_PARAMS, "c6aebc3a4ecc7db7ba59eae925013758f1a7d8198a492e68ddd4214281768da8"),
            (
                11,
                "tu",
                dict(firm_count=2, worker_count=5),
                "b9b026db859de470cb126e14c25528f7302d00b00ed0b81b7579d59a6156dcb3",
            ),
        ],
    )
    def test_roadmap_instance(self, seed, kind, params, digest):
        rm, m = gen_roadmap_instance(GenParams(seed=seed, **params), kind=kind)
        assert _digest(io.serialize_roadmap(rm), io.serialize_market(m)) == digest

    def test_roadmap_retry_failure(self):
        with pytest.raises(ValueError, match="no disjoint path found for f4"):
            gen_roadmap_instance(GenParams(seed=1, **SUITE_PARAMS), kind="tu")
