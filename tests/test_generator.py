import functools
import hashlib
import math
from fractions import Fraction

import pytest

from matchkit import generator, io
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
    _denominators,
    _names,
    _sample_sets,
    _value,
    gen_discrete_market,
    gen_roadmap_instance,
    gen_tu_market,
    validate_params,
)
from matchkit.model import DiscreteMarket, TuMarket
from matchkit.roadmap import Roadmap, TechnologyPath, technology_paths

from golden import SUITE_PARAMS

F = Fraction


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
            v = _value(g, _denominators(F(-2), F(3)))
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


def _canonical(*documents) -> str:
    return "".join(io.to_canonical_json(d) for d in documents)


def _digest(*documents) -> str:
    return hashlib.sha256(_canonical(*documents).encode("utf-8")).hexdigest()


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


# The generator as it was before the value table and the early retry exit:
# the reference that the current one must match draw for draw.


@functools.lru_cache(maxsize=64)
def reference_denominators(lo, hi, max_den):
    return tuple(
        d for d in range(1, max_den + 1) if math.ceil(lo * d) <= math.floor(hi * d)
    )


def reference_fraction(rng, lo, hi, max_den=8):
    feasible = reference_denominators(lo, hi, max_den)
    if not feasible:
        raise ValueError(f"no rational with denominator <= {max_den} in [{lo}, {hi}]")
    d = rng.choice(feasible)
    n = rng.randint(math.ceil(lo * d), math.floor(hi * d))
    return Fraction(n, d)


def reference_market(rng, kind, firms, workers, p, sets_for):
    lo, hi = p.value_range
    density = p.acceptability_density
    if kind == "tu":
        firm_valuations = {
            f: {s: reference_fraction(rng, lo, hi) for s in sets_for(f)} for f in firms
        }
        worker_valuations = {
            w: {f: reference_fraction(rng, lo, hi) for f in firms if rng.chance(density)}
            for w in workers
        }
        return TuMarket(
            firms=frozenset(firms),
            workers=frozenset(workers),
            firm_valuations=firm_valuations,
            worker_valuations=worker_valuations,
        )
    firm_prefs = {}
    for f in firms:
        sets = list(sets_for(f))
        rng.shuffle(sets)
        firm_prefs[f] = tuple(sets)
    worker_prefs = {}
    for w in workers:
        accepted = [f for f in firms if rng.chance(density)]
        rng.shuffle(accepted)
        worker_prefs[w] = tuple(accepted)
    return DiscreteMarket(
        firms=frozenset(firms),
        workers=frozenset(workers),
        firm_prefs=firm_prefs,
        worker_prefs=worker_prefs,
    )


def reference_random_market(p, kind):
    validate_params(p)
    rng = SplitMix64(p.seed)
    workers = _names("w", p.worker_count)
    firms = _names("f", p.firm_count)
    return reference_market(
        rng, kind, firms, workers, p, lambda f: _sample_sets(rng, workers, p)
    )


def reference_roadmap_instance(p, kind="discrete", max_attempts=200):
    validate_params(p)
    if p.worker_count < 1:
        raise ValueError("roadmap instances need at least one worker")
    if p.firm_count > p.worker_count:
        raise ValueError(
            "roadmap instances need firm_count <= worker_count for disjoint paths"
        )
    rng = SplitMix64(p.seed)
    firms = _names("f", p.firm_count)
    workers = _names("w", p.worker_count)
    n_v = rng.randint(max(1, p.firm_count), p.worker_count)
    vertices = _names("v", n_v)
    edges = []
    for i in range(1, n_v):
        other = vertices[rng.randint(0, i - 1)]
        if rng.chance(0.5):
            edges.append((other, vertices[i]))
        else:
            edges.append((vertices[i], other))
    skeleton = Roadmap(
        technologies=frozenset(vertices),
        edges=tuple(edges),
        demanded={v: frozenset({"placeholder"}) for v in vertices},
    )
    paths = technology_paths(skeleton)
    demanded = {v: set() for v in vertices}
    for i, w in enumerate(workers):
        if i < n_v:
            path = TechnologyPath(vertices=(vertices[i],), edges=())
        else:
            path = rng.choice(paths)
        for v in path.vertices:
            demanded[v].add(w)
    used = set()
    firm_paths = {}
    for f in firms:
        for _ in range(max_attempts):
            cand = rng.choice(paths)
            if not (set(cand.vertices) & used):
                firm_paths[f] = cand
                used |= set(cand.vertices)
                break
        else:
            raise ValueError(f"no disjoint path found for {f} within retry budget")
    roadmap = Roadmap(
        technologies=frozenset(vertices),
        edges=tuple(edges),
        demanded={v: frozenset(s) for v, s in demanded.items()},
    )
    acceptable = {}
    for f in firms:
        pool = []
        for v in firm_paths[f].vertices:
            s = roadmap.demanded[v]
            if s not in pool:
                pool.append(s)
        k = rng.randint(1, min(max(1, p.max_acceptable_sets_per_firm), len(pool)))
        acceptable[f] = rng.sample(pool, k)
    return roadmap, reference_market(rng, kind, firms, workers, p, lambda f: acceptable[f])


def _document(make):
    """Canonical JSON of what ``make()`` returns, or the text of its
    ``ValueError``."""
    try:
        made = make()
    except ValueError as e:
        return f"ValueError: {e}"
    if isinstance(made[0], Roadmap):  # a (roadmap, market) instance
        return _canonical(io.serialize_roadmap(made[0]), io.serialize_market(made[1]))
    return _canonical(io.serialize_market(made))


def _random(params, kind):
    return gen_tu_market(params) if kind == "tu" else gen_discrete_market(params)


SHAPES = {
    "suite": SUITE_PARAMS,
    "defaults": {},
    "8x12": dict(firm_count=8, worker_count=12, max_acceptable_sets_per_firm=8,
                 max_set_size=4),
}


class TestAgainstReferenceGenerator:
    """Every generator matches the reference byte for byte, errors included."""

    def _check(self, params, monkeypatch):
        for kind in ("tu", "discrete"):
            assert _document(lambda: _random(params, kind)) == _document(
                lambda: reference_random_market(params, kind)
            )
            for attempts in (1, 2, 5, 200):
                monkeypatch.setattr(generator, "MAX_ATTEMPTS", attempts)
                assert _document(
                    lambda: gen_roadmap_instance(params, kind)
                ) == _document(lambda: reference_roadmap_instance(params, kind, attempts))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_seeds(self, shape, monkeypatch):
        for seed in range(300):
            self._check(GenParams(seed=seed, **SHAPES[shape]), monkeypatch)

    def test_benchmark_stream_seeds(self, monkeypatch):
        # The generator seeds perfbench draws for its benchmark seed 7.
        for j in range(450):
            self._check(GenParams(seed=7 * 100_000 + j, **SUITE_PARAMS), monkeypatch)

    def test_fraction_stream(self):
        a, b = SplitMix64(3), SplitMix64(3)
        for lo, hi in ((F(0), F(10)), (F(-1, 2), F(7, 3)), (F(1, 3), F(1, 3))):
            for _ in range(50):
                assert _value(a, _denominators(lo, hi)) == reference_fraction(b, lo, hi)
        assert a.next_u64() == b.next_u64()


def test_impossible_retries_draw_nothing(monkeypatch):
    calls = [0]
    step = SplitMix64.next_u64

    def counted(self):
        calls[0] += 1
        return step(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    params = GenParams(seed=1, **SUITE_PARAMS)
    with pytest.raises(ValueError, match="no disjoint path found for f4"):
        reference_roadmap_instance(params, kind="tu")
    # The reference spends its 200 retry draws on f4 before raising.
    before_f4 = calls[0] - 200
    calls[0] = 0
    with pytest.raises(ValueError, match="no disjoint path found for f4"):
        gen_roadmap_instance(params, kind="tu")
    assert calls[0] == before_f4
