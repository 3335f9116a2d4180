"""Golden regression tests for the experiment runner on the ``small``
profile.

The scenario generator, the measurement campaign and every sweep are
seeded, so these key scalar outputs are exact, reproducible constants.
Perf refactors of the propagation engine (parallelism, caching, fast
paths) must not change a single one of them; if a *deliberate* model
change shifts them, the goldens below are the one place to update.

Marked ``slow`` (two full §4 pipeline builds, ~20 s): ``make test-fast``
skips this module, the tier-1 suite and CI run it.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig2_reachability, fig7_10_leaks, table1_top20
from repro.experiments.context import build_context
from repro.netgen import companion_2015

pytestmark = pytest.mark.slow

LEAKS_PER_CONFIG = 20
BASELINE = {"baseline_origins": 6, "baseline_leakers": 6}

#: Table 1 (2020): (rank, ASN, hierarchy-free reachability) of the top 10.
GOLDEN_TABLE1_TOP10 = [
    (1, 6939, 613),
    (2, 8075, 581),
    (3, 15169, 572),
    (4, 36351, 502),
    (5, 3356, 491),
    (6, 16509, 425),
    (7, 174, 418),
    (8, 2914, 409),
    (9, 3257, 388),
    (10, 9002, 369),
]
GOLDEN_CLOUD_RANKS_2020 = {"Google": 3, "Microsoft": 2, "IBM": 4, "Amazon": 6}
GOLDEN_CLOUD_RANKS_2015 = {"Google": 4, "Microsoft": 28, "IBM": 8, "Amazon": 15}

#: Fig. 2: (full, provider-free, tier1-free, hierarchy-free) per cloud.
GOLDEN_FIG2_CLOUDS = {
    "Google": (693, 687, 675, 572),
    "Microsoft": (693, 664, 662, 581),
    "IBM": (693, 638, 590, 502),
    "Amazon": (693, 519, 519, 425),
}
GOLDEN_FIG2_TOTAL = 694

#: Fig. 7/8: mean detoured-AS fraction per origin and configuration.
GOLDEN_FIG7_MEANS = {
    "Google": {
        "announce_all": 0.074783,
        "announce_all_t1_lock": 0.060188,
        "announce_all_t1t2_lock": 0.012139,
        "announce_all_global_lock": 0.002601,
        "announce_hierarchy_only": 0.212283,
    },
    "Microsoft": {
        "announce_all": 0.030130,
        "announce_all_t1_lock": 0.029335,
        "announce_all_t1t2_lock": 0.011199,
        "announce_all_global_lock": 0.004986,
        "announce_hierarchy_only": 0.049494,
    },
    "IBM": {
        "announce_all": 0.021965,
        "announce_all_t1_lock": 0.022038,
        "announce_all_t1t2_lock": 0.011705,
        "announce_all_global_lock": 0.005564,
        "announce_hierarchy_only": 0.033815,
    },
    "Amazon": {
        "announce_all": 0.011055,
        "announce_all_t1_lock": 0.011055,
        "announce_all_t1t2_lock": 0.009971,
        "announce_all_global_lock": 0.001951,
        "announce_hierarchy_only": 0.012283,
    },
    "Facebook": {
        "announce_all": 0.275867,
        "announce_all_t1_lock": 0.275867,
        "announce_all_t1t2_lock": 0.079841,
        "announce_all_global_lock": 0.064740,
        "announce_hierarchy_only": 0.321676,
    },
}
GOLDEN_AVG_RESILIENCE_MEAN = 0.246106
GOLDEN_AVG_RESILIENCE_N = 36


@pytest.fixture(scope="module")
def ctx():
    return build_context("small")


@pytest.fixture(scope="module")
def ctx2015():
    return build_context(companion_2015("small"))


class TestTable1Golden:
    def test_top10(self, ctx, ctx2015):
        result = table1_top20.run(ctx, ctx2015)
        top10 = [
            (e.rank, e.asn, e.reachability) for e in result.entries_2020[:10]
        ]
        assert top10 == GOLDEN_TABLE1_TOP10
        assert result.cloud_ranks_2020 == GOLDEN_CLOUD_RANKS_2020
        assert result.cloud_ranks_2015 == GOLDEN_CLOUD_RANKS_2015


class TestFig2Golden:
    def test_cloud_reachability(self, ctx):
        result = fig2_reachability.run(ctx)
        rows = {
            r.name: (
                r.report.full,
                r.report.provider_free,
                r.report.tier1_free,
                r.report.hierarchy_free,
            )
            for r in result.cloud_rows()
        }
        assert rows == GOLDEN_FIG2_CLOUDS
        assert result.total_ases == GOLDEN_FIG2_TOTAL


class TestFig7Golden:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig7_10_leaks.run(
            ctx, leaks_per_config=LEAKS_PER_CONFIG, **BASELINE
        )

    def test_leak_resilience_means(self, result):
        means = {
            origin.name: {
                configuration: origin.mean(configuration)
                for configuration in origin.curves
            }
            for origin in result.origins
        }
        assert means.keys() == GOLDEN_FIG7_MEANS.keys()
        for name, golden in GOLDEN_FIG7_MEANS.items():
            for configuration, value in golden.items():
                assert means[name][configuration] == pytest.approx(
                    value, abs=5e-7
                ), f"{name}/{configuration}"

    def test_average_resilience(self, result):
        assert len(result.average_resilience) == GOLDEN_AVG_RESILIENCE_N
        assert result.average_mean == pytest.approx(
            GOLDEN_AVG_RESILIENCE_MEAN, abs=5e-7
        )
