"""Tests for the RUBiS workload model, profiles and client emulator."""

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import SimKernel
from repro.simulation.rng import RngStreams
from repro.workload.calibration import DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator
from repro.workload.profiles import ConstantProfile, PiecewiseProfile, RampProfile
from repro.workload.rubis import (
    CLIENT_BLOCK,
    INTERACTIONS,
    MarkovNavigator,
    MixNavigator,
    RubisModel,
    block_draws,
    interaction,
    transition_table,
)


class TestInteractionTable:
    def test_exactly_26_interactions(self):
        assert len(INTERACTIONS) == 26

    def test_mix_weights_sum_to_one(self):
        assert sum(i.mix_weight for i in INTERACTIONS) == pytest.approx(1.0)

    def test_write_fraction_matches_calibration(self):
        writes = sum(i.mix_weight for i in INTERACTIONS if i.is_write)
        assert writes == pytest.approx(DEFAULT_CALIBRATION.write_fraction)

    def test_app_factor_weighted_mean_is_one(self):
        mean = sum(i.mix_weight * i.app_factor for i in INTERACTIONS)
        assert mean == pytest.approx(1.0)

    def test_db_factor_weighted_means_are_one(self):
        wf = DEFAULT_CALIBRATION.write_fraction
        reads = sum(
            i.mix_weight * i.db_factor for i in INTERACTIONS if not i.is_write
        ) / (1 - wf)
        writes = sum(
            i.mix_weight * i.db_factor for i in INTERACTIONS if i.is_write
        ) / wf
        assert reads == pytest.approx(1.0)
        assert writes == pytest.approx(1.0)

    def test_known_write_interactions(self):
        writers = {i.name for i in INTERACTIONS if i.is_write}
        assert writers == {
            "RegisterUser",
            "StoreBuyNow",
            "StoreBid",
            "StoreComment",
            "RegisterItem",
        }

    def test_lookup(self):
        assert interaction("ViewItem").name == "ViewItem"
        with pytest.raises(KeyError):
            interaction("Ghost")


#: ``(mix_weight, app_factor, db_factor)`` of every interaction, as
#: ``float.hex()``: the calibration constants every discrete demand is
#: drawn from.  Built with left-to-right sums, they must not move with
#: the interpreter (Python 3.12's compensated ``sum()`` moved
#: ``app_mean`` by two units in the last place).
INTERACTION_HEX = {
    "Home": ("0x1.cd6ab7d395e60p-5", "0x1.bac4dd241fca9p-2", "0x1.088ab58bbaa55p-2"),
    "Register": ("0x1.92b0eae733b17p-7", "0x1.14bb0a3693deap-1", "0x1.3d734041465ffp-2"),
    "RegisterUser": ("0x1.6872b020c49bap-7", "0x1.14bb0a3693deap+0", "0x1.0000000000001p+0"),
    "Browse": ("0x1.7985dc38c0766p-5", "0x1.f21d78c8a3c3ep-2", "0x1.3d734041465ffp-2"),
    "BrowseCategories": (
        "0x1.cd6ab7d395e60p-5", "0x1.836c417f9bd13p-1", "0x1.a74455ac5dd55p-1",
    ),
    "SearchItemsInCategory": (
        "0x1.f75d25a1009ddp-4", "0x1.4c13a5db17d7fp+0", "0x1.a74455ac5dd55p+0",
    ),
    "BrowseRegions": (
        "0x1.f75d25a1009ddp-6", "0x1.836c417f9bd13p-1", "0x1.a74455ac5dd55p-1",
    ),
    "BrowseCategoriesInRegion": (
        "0x1.f75d25a1009ddp-6", "0x1.bac4dd241fca9p-1", "0x1.dc2ce061e98ffp-1",
    ),
    "SearchItemsInRegion": (
        "0x1.f75d25a1009ddp-5", "0x1.4c13a5db17d7fp+0", "0x1.9a0a32fefae6ap+0",
    ),
    "ViewItem": ("0x1.062b2e43dafcep-3", "0x1.30675808d5db5p+0", "0x1.15c4d8391d93fp+0"),
    "ViewUserInfo": ("0x1.4f936e6b55be9p-5", "0x1.14bb0a3693deap+0", "0x1.088ab58bbaa55p+0"),
    "ViewBidHistory": (
        "0x1.f75d25a1009ddp-6", "0x1.30675808d5db5p+0", "0x1.4aad62eea94eap+0",
    ),
    "BuyNowAuth": ("0x1.f75d25a1009ddp-7", "0x1.4c13a5db17d7fp-1", "0x1.725bcaf6d21a9p-2"),
    "BuyNow": ("0x1.d5ce676311a46p-7", "0x1.14bb0a3693deap+0", "0x1.dc2ce061e98ffp-1"),
    "StoreBuyNow": ("0x1.0624dd2f1a9fbp-6", "0x1.14bb0a3693deap+0", "0x1.0000000000001p+0"),
    "PutBidAuth": ("0x1.14d9a17ef38a0p-5", "0x1.4c13a5db17d7fp-1", "0x1.725bcaf6d21a9p-2"),
    "PutBid": ("0x1.0c75f1ef77cbap-5", "0x1.30675808d5db5p+0", "0x1.15c4d8391d93fp+0"),
    "StoreBid": ("0x1.2f1a9fbe76c8ap-4", "0x1.14bb0a3693deap+0", "0x1.0000000000001p+0"),
    "PutCommentAuth": (
        "0x1.4f936e6b55be9p-7", "0x1.4c13a5db17d7fp-1", "0x1.725bcaf6d21a9p-2",
    ),
    "PutComment": ("0x1.2e04b02d66c52p-7", "0x1.14bb0a3693deap+0", "0x1.dc2ce061e98ffp-1"),
    "StoreComment": ("0x1.cac083126e977p-7", "0x1.14bb0a3693deap+0", "0x1.0000000000001p+0"),
    "Sell": ("0x1.2e04b02d66c52p-6", "0x1.14bb0a3693deap-1", "0x1.3d734041465ffp-2"),
    "SelectCategoryToSellItem": (
        "0x1.0c75f1ef77cbap-6", "0x1.4c13a5db17d7fp-1", "0x1.dc2ce061e98ffp-2",
    ),
    "SellItemForm": ("0x1.1d3d510e6f486p-6", "0x1.4c13a5db17d7fp-1", "0x1.a74455ac5dd55p-2"),
    "RegisterItem": ("0x1.1eb851eb851ebp-5", "0x1.14bb0a3693deap+0", "0x1.0000000000001p+0"),
    "AboutMe": ("0x1.0c75f1ef77cbap-4", "0x1.4c13a5db17d7fp+0", "0x1.725bcaf6d21a9p+0"),
}


def test_interaction_constants_are_pinned_to_the_bit():
    observed = {
        i.name: (i.mix_weight.hex(), i.app_factor.hex(), i.db_factor.hex())
        for i in INTERACTIONS
    }
    assert observed == INTERACTION_HEX


class TestTransitionTable:
    def test_all_states_present(self):
        table = transition_table()
        names = {i.name for i in INTERACTIONS}
        assert set(table) == names

    def test_all_successors_valid(self):
        names = {i.name for i in INTERACTIONS}
        for state, successors in transition_table().items():
            for nxt, weight in successors:
                assert nxt in names, f"{state} -> {nxt}"
                assert weight > 0

    def test_markov_reaches_every_interaction(self):
        nav = MarkovNavigator(np.random.default_rng(0))
        seen = {nav.next_interaction().name for _ in range(20_000)}
        assert seen == {i.name for i in INTERACTIONS}

    def test_markov_write_fraction_plausible(self):
        nav = MarkovNavigator(np.random.default_rng(0))
        writes = sum(nav.next_interaction().is_write for _ in range(30_000))
        assert 0.05 < writes / 30_000 < 0.30

    def test_markov_reset(self):
        nav = MarkovNavigator(np.random.default_rng(0))
        for _ in range(5):
            nav.next_interaction()
        nav.reset()
        assert nav.next_interaction().name == "Home"


class TestMixNavigator:
    def test_matches_mix_distribution(self):
        nav = MixNavigator(np.random.default_rng(0))
        counts = {}
        n = 50_000
        for _ in range(n):
            name = nav.next_interaction().name
            counts[name] = counts.get(name, 0) + 1
        for inter in INTERACTIONS:
            if inter.mix_weight > 0.02:
                observed = counts.get(inter.name, 0) / n
                assert observed == pytest.approx(inter.mix_weight, rel=0.2)


class TestCdfDrawBitIdentity:
    """The navigators' cached-CDF draw must reproduce ``rng.choice(p=...)``
    exactly: same index sequence, same stream consumption."""

    SEEDS = (0, 1, 2, 7, 12345)
    DRAWS = 20_000

    def test_mix_navigator_matches_rng_choice(self):
        names = [i.name for i in INTERACTIONS]
        weights = np.asarray([i.mix_weight for i in INTERACTIONS])
        p = weights / weights.sum()
        for seed in self.SEEDS:
            ref = np.random.default_rng(seed)
            nav = MixNavigator(np.random.default_rng(seed))
            expected = [names[int(ref.choice(len(p), p=p))] for _ in range(self.DRAWS)]
            got = [nav.next_interaction().name for _ in range(self.DRAWS)]
            assert got == expected, f"seed {seed}"
            assert nav.rng.random() == ref.random()  # same stream position

    def test_markov_navigator_matches_rng_choice(self):
        table = {
            state: (
                [n for n, _ in succ],
                np.asarray([w for _, w in succ]) / sum(w for _, w in succ),
            )
            for state, succ in transition_table().items()
        }
        for seed in self.SEEDS:
            ref = np.random.default_rng(seed)
            nav = MarkovNavigator(np.random.default_rng(seed))
            state, expected = "Home", []
            for _ in range(self.DRAWS):
                expected.append(state)
                names, probs = table[state]
                state = names[int(ref.choice(len(names), p=probs))]
            got = [nav.next_interaction().name for _ in range(self.DRAWS)]
            assert got == expected, f"seed {seed}"
            assert nav.state == state
            assert nav.rng.random() == ref.random()


class TestBlockDraws:
    """Values drawn in blocks equal the scalar draws they replace, and
    the emulator's request streams are those of the scalar draws."""

    SEEDS = (0, 1, 2, 7, 12345)
    DRAWS = 20_000

    def test_gamma_blocks_match_scalar_draws(self, kernel):
        # 0.0 draws nothing; the rest are calibrated per-interaction means
        means = (0.0123, 0.0, 0.0041, 0.031)
        for seed in self.SEEDS:
            block = RubisModel(kernel, rng=np.random.default_rng(seed), unit_weight=True)
            scalar = RubisModel(kernel, rng=np.random.default_rng(seed))
            assert block._gammas is not None and scalar._gammas is None
            got = [block._vary(means[i % 4]) for i in range(self.DRAWS)]
            expected = [scalar._vary(means[i % 4]) for i in range(self.DRAWS)]
            assert got == expected, f"seed {seed}"

    def test_exponential_blocks_match_scalar_draws(self):
        from functools import partial

        for seed in self.SEEDS:
            ref = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            draw = block_draws(partial(rng.exponential, 6.5), CLIENT_BLOCK)
            got = [next(draw) for _ in range(self.DRAWS)]
            assert got == [float(ref.exponential(6.5)) for _ in range(self.DRAWS)]

    def test_uniform_blocks_match_scalar_draws(self):
        for seed in self.SEEDS:
            ref = np.random.default_rng(seed)
            draw = block_draws(np.random.default_rng(seed).random, CLIENT_BLOCK)
            got = [next(draw) for _ in range(self.DRAWS)]
            assert got == [ref.random() for _ in range(self.DRAWS)]

    def test_unit_weight_model_rejects_batched_draws(self, kernel):
        model = RubisModel(kernel, unit_weight=True)
        with pytest.raises(ValueError):
            model._vary(0.01, 3)

    #: sha256 of each request stream below, recorded with scalar draws
    STREAMS = {
        (1, 0.0): (524, "e3d096113367ceccec31e958e3b8ba0872be823879e469035a69a07ed6c8405c"),
        (3, 0.0): (178, "83050cfd1e4771202db336f7c6eb4917f0da09d435ee31a3523d836cae701cad"),
        (1, 0.4): (556, "521858f819b8b4748dc4b62579c323d74400596e1a6563499dd182a59a7ff073"),
        (3, 0.4): (176, "f983ab2ede28e114d0f5c126fbbece6bd79e65d0df9c6d240b061d464177b35f"),
    }

    @pytest.mark.parametrize("cohort,static_fraction", sorted(STREAMS))
    def test_request_streams_unchanged(self, cohort, static_fraction):
        """Per-client (blocks), cohort (scalar demands) and three-tier
        (scalar thinks) emulators issue the requests they issued with
        scalar draws only, demand for demand."""
        import hashlib
        from dataclasses import replace

        calibration = replace(
            DEFAULT_CALIBRATION, static_fraction=static_fraction, static_demand_s=0.030
        ) if static_fraction else DEFAULT_CALIBRATION
        kernel = SimKernel()
        log = []

        def entry(req):
            log.append((
                kernel.now, req.client_id, req.weight, req.interaction,
                req.app_demand_pre, req.app_demand_post, req.db_demand,
                req.static_demand,
            ))
            kernel.schedule(0.05, req.complete, kernel)

        profile = RampProfile(
            base=6, peak=30, step_clients=6, step_period_s=20.0,
            warmup_s=20.0, cooldown_s=20.0,
        )
        emulator = ClientEmulator(
            kernel, entry, profile, MetricsCollector(), RngStreams(5),
            calibration=calibration, cohort=cohort,
        )
        emulator.start()
        kernel.run(until=profile.duration_s)
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert (len(log), digest) == self.STREAMS[cohort, static_fraction]


class TestRubisModel:
    def test_demands_scale_with_factors(self, kernel):
        from dataclasses import replace

        cal = replace(DEFAULT_CALIBRATION, demand_gamma_shape=0.0)  # deterministic
        model = RubisModel(kernel, cal)
        search = model.make_request(interaction("SearchItemsInCategory"))
        home = model.make_request(interaction("Home"))
        assert search.db_demand > home.db_demand
        assert search.app_demand_pre > home.app_demand_pre

    def test_write_flag_propagates(self, kernel):
        model = RubisModel(kernel)
        req = model.make_request(interaction("StoreBid"))
        assert req.is_write

    def test_mean_demand_matches_calibration(self, kernel):
        model = RubisModel(kernel, rng=np.random.default_rng(0))
        nav = MixNavigator(np.random.default_rng(1))
        db, app = [], []
        for _ in range(20_000):
            req = model.make_request(nav.next_interaction())
            app.append(req.app_demand_pre + req.app_demand_post)
            if not req.is_write:
                db.append(req.db_demand)
        cal = DEFAULT_CALIBRATION
        assert np.mean(app) == pytest.approx(cal.app_demand_total(), rel=0.05)
        assert np.mean(db) == pytest.approx(cal.db_read_demand_s, rel=0.05)

    def test_gamma_variability(self, kernel):
        model = RubisModel(kernel, rng=np.random.default_rng(0))
        demands = [
            model.make_request(interaction("ViewItem")).db_demand
            for _ in range(2000)
        ]
        cv = np.std(demands) / np.mean(demands)
        assert cv == pytest.approx(0.5, rel=0.15)  # gamma shape 4 => CV 0.5


class TestProfiles:
    def test_constant(self):
        p = ConstantProfile(80, 100.0)
        assert p.clients_at(0.0) == 80
        assert p.clients_at(100.0) == 80
        assert p.clients_at(101.0) == 0
        assert p.peak() == 80
        assert p.duration_s == 100.0

    def test_ramp_matches_paper_shape(self):
        p = RampProfile()  # defaults: 80 -> 500 -> 80, +21/min
        assert p.clients_at(0.0) == 80
        assert p.clients_at(299.0) == 80        # warmup
        assert p.clients_at(301.0) == 101       # first step
        assert p.clients_at(300.0 + 18 * 60.0 + 1) == 479
        assert p.clients_at(300.0 + 19 * 60.0 + 1) == 500
        assert p.clients_at(p.warmup_s + p.ramp_s + 59.0) == 500  # mirror
        assert p.clients_at(p.warmup_s + p.ramp_s + 61.0) == 479
        assert p.clients_at(p.duration_s - 1.0) == 80
        assert p.peak() == 500
        assert p.duration_s == 3000.0  # 300 + 1200 + 1200 + 300

    def test_ramp_symmetry(self):
        p = RampProfile()
        mid = p.warmup_s + p.ramp_s
        for dt in (30.0, 300.0, 600.0):
            assert p.clients_at(mid - dt) == p.clients_at(mid + dt - 1e-9)

    def test_ramp_with_hold(self):
        p = RampProfile(hold_s=600.0)
        mid = p.warmup_s + p.ramp_s
        assert p.clients_at(mid + 300.0) == 500
        assert p.duration_s == 3600.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            RampProfile(base=100, peak=50)
        with pytest.raises(ValueError):
            RampProfile(step_clients=0)

    def test_piecewise(self):
        p = PiecewiseProfile([(0.0, 10), (50.0, 30), (80.0, 5)], duration_s=100.0)
        assert p.clients_at(10.0) == 10
        assert p.clients_at(60.0) == 30
        assert p.clients_at(90.0) == 5
        assert p.clients_at(150.0) == 0

    def test_piecewise_requires_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseProfile([], duration_s=10.0)

    def test_ramp_with_zero_duration_ramp_segment(self):
        # peak == base: the staircase degenerates to nothing and the
        # profile is flat end to end.
        p = RampProfile(base=80, peak=80, warmup_s=100.0, cooldown_s=100.0)
        assert p.steps == 0
        assert p.ramp_s == 0.0
        assert p.duration_s == 200.0
        for t in (0.0, 50.0, 100.0, 150.0, 199.0):
            assert p.clients_at(t) == 80
        assert p.peak() == 80

    def test_ramp_with_zero_warmup_and_cooldown(self):
        p = RampProfile(
            base=80, peak=122, step_clients=21, step_period_s=60.0,
            warmup_s=0.0, cooldown_s=0.0,
        )
        # The first step applies immediately; the descent ends the profile.
        assert p.clients_at(0.0) == 101
        assert p.clients_at(61.0) == 122
        assert p.duration_s == 2 * p.ramp_s
        assert p.clients_at(p.duration_s - 1.0) == 101

    def test_piecewise_zero_duration_segment(self):
        # Two breakpoints at the same instant: breakpoints are sorted, so
        # the one ordering last at that time wins and zero time is spent
        # at the other — the population never dips through it.
        p = PiecewiseProfile(
            [(0.0, 10), (50.0, 99), (50.0, 30), (80.0, 5)], duration_s=100.0
        )
        assert p.clients_at(49.9) == 10
        assert p.clients_at(50.0) == 99
        assert p.clients_at(79.9) == 99
        assert p.clients_at(80.0) == 5

    def test_single_client_profile(self):
        p = ConstantProfile(1, 60.0)
        assert p.peak() == 1
        assert p.clients_at(30.0) == 1


class CountingEntry:
    """Entry point that completes every request after a fixed delay."""

    def __init__(self, kernel, delay=0.05):
        self.kernel = kernel
        self.delay = delay
        self.count = 0

    def __call__(self, request):
        self.count += 1
        self.kernel.schedule(self.delay, request.complete, self.kernel)


class TestClientEmulator:
    def make(self, kernel, profile):
        entry = CountingEntry(kernel)
        collector = MetricsCollector()
        emulator = ClientEmulator(
            kernel,
            entry=entry,
            profile=profile,
            collector=collector,
            streams=RngStreams(3),
        )
        return emulator, entry, collector

    def test_population_follows_constant_profile(self, kernel):
        emulator, entry, _ = self.make(kernel, ConstantProfile(25, 60.0))
        emulator.start()
        kernel.run(until=30.0)
        assert emulator.active_clients == 25

    def test_throughput_matches_interactive_law(self, kernel):
        """X = N / (Z + R): 50 clients, Z = 6.5 s, R = 0.05 s -> ~7.6 req/s."""
        emulator, entry, collector = self.make(kernel, ConstantProfile(50, 600.0))
        emulator.start()
        kernel.run(until=600.0)
        x = collector.throughput(100.0, 600.0)
        assert x == pytest.approx(50 / 6.55, rel=0.1)

    def test_population_ramps_up_and_down(self, kernel):
        profile = PiecewiseProfile([(0.0, 5), (50.0, 20), (100.0, 3)], 200.0)
        emulator, *_ = self.make(kernel, profile)
        emulator.start()
        kernel.run(until=40.0)
        assert emulator.active_clients == 5
        kernel.run(until=90.0)
        assert emulator.active_clients == 20
        kernel.run(until=140.0)
        assert emulator.active_clients == 3

    def test_latencies_recorded(self, kernel):
        emulator, entry, collector = self.make(kernel, ConstantProfile(10, 120.0))
        emulator.start()
        kernel.run(until=120.0)
        assert collector.completed_requests == entry.count
        assert collector.latencies.values.mean() == pytest.approx(0.05, abs=1e-6)

    def test_single_client_session(self, kernel):
        """The degenerate one-client population still behaves: exactly one
        session, think-time gaps between requests, everything completes."""
        emulator, entry, collector = self.make(kernel, ConstantProfile(1, 300.0))
        emulator.start()
        kernel.run(until=150.0)
        assert emulator.active_clients == 1
        kernel.run(until=300.0)
        assert entry.count > 1
        assert collector.completed_requests == entry.count
        assert collector.failed_requests == 0
        # The interactive law X = 1 / (Z + R) holds only in expectation —
        # a single client's think times leave a wide variance band.
        assert 0.5 * (1 / 6.55) < collector.throughput(50.0, 300.0) < 2 * (1 / 6.55)

    def test_failures_recorded_and_clients_continue(self, kernel):
        class FailingEntry:
            def __init__(self, kernel):
                self.kernel = kernel
                self.count = 0

            def __call__(self, request):
                self.count += 1
                request.fail(self.kernel, "boom")

        collector = MetricsCollector()
        emulator = ClientEmulator(
            kernel,
            entry=FailingEntry(kernel),
            profile=ConstantProfile(5, 120.0),
            collector=collector,
            streams=RngStreams(3),
        )
        emulator.start()
        kernel.run(until=120.0)
        assert collector.failed_requests > 5  # clients kept going after errors
        assert collector.completed_requests == 0

    def test_stop_deactivates_everyone(self, kernel):
        emulator, *_ = self.make(kernel, ConstantProfile(10, 1000.0))
        emulator.start()
        kernel.run(until=20.0)
        emulator.stop()
        kernel.run(until=100.0)
        assert emulator.active_clients == 0

    def test_deterministic_with_seed(self):
        def run_once():
            kernel = SimKernel()
            entry = CountingEntry(kernel)
            collector = MetricsCollector()
            emulator = ClientEmulator(
                kernel,
                entry=entry,
                profile=ConstantProfile(20, 100.0),
                collector=collector,
                streams=RngStreams(11),
            )
            emulator.start()
            kernel.run(until=100.0)
            return entry.count, tuple(collector.latencies.times[:20])

        assert run_once() == run_once()


class TestAbandonment:
    def make_slow_entry(self, kernel, delay):
        class SlowEntry:
            def __init__(self):
                self.count = 0

            def __call__(self, request):
                self.count += 1
                kernel.schedule(delay, request.complete, kernel)

        return SlowEntry()

    def test_clients_abandon_slow_requests(self, kernel):
        from repro.workload.clients import ClientEmulator
        from repro.simulation.rng import RngStreams
        from repro.metrics.collector import MetricsCollector

        entry = self.make_slow_entry(kernel, delay=10.0)
        collector = MetricsCollector()
        emulator = ClientEmulator(
            kernel,
            entry=entry,
            profile=ConstantProfile(10, 300.0),
            collector=collector,
            streams=RngStreams(3),
            request_timeout_s=2.0,
        )
        emulator.start()
        kernel.run(until=300.0)
        assert emulator.abandoned > 0
        assert collector.failed_requests == emulator.abandoned
        assert collector.completed_requests == 0

    def test_fast_requests_not_abandoned(self, kernel):
        from repro.workload.clients import ClientEmulator
        from repro.simulation.rng import RngStreams
        from repro.metrics.collector import MetricsCollector

        entry = self.make_slow_entry(kernel, delay=0.05)
        collector = MetricsCollector()
        emulator = ClientEmulator(
            kernel,
            entry=entry,
            profile=ConstantProfile(10, 200.0),
            collector=collector,
            streams=RngStreams(3),
            request_timeout_s=2.0,
        )
        emulator.start()
        kernel.run(until=200.0)
        assert emulator.abandoned == 0
        assert collector.failed_requests == 0
        assert collector.completed_requests == entry.count

    def test_abandoning_client_continues_session(self, kernel):
        from repro.workload.clients import ClientEmulator
        from repro.simulation.rng import RngStreams
        from repro.metrics.collector import MetricsCollector

        entry = self.make_slow_entry(kernel, delay=10.0)
        collector = MetricsCollector()
        emulator = ClientEmulator(
            kernel,
            entry=entry,
            profile=ConstantProfile(1, 500.0),
            collector=collector,
            streams=RngStreams(3),
            request_timeout_s=1.0,
        )
        emulator.start()
        kernel.run(until=500.0)
        # One client kept issuing requests despite every one timing out.
        assert entry.count > 10
