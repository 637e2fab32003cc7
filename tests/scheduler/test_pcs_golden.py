"""Golden pins of PCS scheduling decisions.

Each case pins what Algorithm 1 decides: the migrations it enforces, in
order, as ``(component, origin, destination)``, and the predicted overall
latency before and after.  Those compare exactly.  A migration's
``predicted_gain_s`` is an ``L`` entry, which can move in the last ulp
when a group sum is reordered, so it compares at rtol 1e-10.

Cases:

- Fig. 7 instances (``make_instance`` at seed 0) at 40x8, 160x32 and
  640x128, and one hierarchical decision at 1280x128, with the oracle
  predictor and the Fig. 7 scheduler config (static 1 ms threshold);
- the PCS runner on nutch-search, fanout-feed, mixed-frontend and
  branchy-api: its ``metrics_dict()`` and every decision it makes.
  These cover replica groups, several component classes, stage DAGs
  and a request-class mix.

Captured before the performance matrix was batched into one kernel.
"""

import numpy as np
import pytest

from repro.baselines.policies import PCSPolicy
from repro.experiments.fig7 import _oracle, make_instance
from repro.scenarios import get_scenario
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import StaticThreshold
from repro.sim.runner import ExperimentRunner
from repro.units import ms

FIG7_CONFIG = SchedulerConfig(threshold=StaticThreshold(ms(1)))

#: Runner overrides per scenario: loads high enough that every scenario
#: migrates at the 1 ms threshold.
RUNNER_OVERRIDES = {
    "nutch-search": dict(arrival_rate=300.0),
    "fanout-feed": dict(arrival_rate=300.0, scale=0.2),
    "mixed-frontend": dict(arrival_rate=400.0),
    "branchy-api": dict(arrival_rate=400.0),
}

FLAT_GOLDEN = {
    (40, 8): {
        "migrations": [
            (2, 7, 2), (6, 0, 2), (14, 7, 2), (15, 7, 2), (21, 1, 2),
            (13, 3, 2), (8, 0, 2), (5, 1, 2), (3, 1, 6), (39, 4, 6),
            (11, 1, 6), (16, 4, 6),
        ],
        "gains": [
            0.01389243500901241, 0.004691354782520071, 0.003735202574218756,
            0.008119297627398228, 0.00165402400333272, 0.0015243159092799274,
            0.003553312827806236, 0.0010977638124501157, 0.0010284500961649096,
            0.001010113661627253, 0.0011364301710263744, 0.001485764875291895,
        ],
        "initial": 0.07634604163309211,
        "final": 0.03341757628296321,
    },
    (160, 32): {
        "migrations": [
            (9, 5, 17), (84, 5, 30), (35, 13, 17), (104, 5, 17), (13, 27, 17),
            (21, 25, 17), (44, 27, 17), (137, 13, 17), (119, 5, 17),
            (126, 27, 17), (10, 25, 17), (20, 2, 17),
        ],
        "gains": [
            0.03444481226223141, 0.016545559629865703, 0.005170493928975159,
            0.008039435577923415, 0.005216976591897182, 0.0043852846897365905,
            0.0038656655440319626, 0.0010487031664558194, 0.013261977132196227,
            0.001426494096650778, 0.0014905091844528706, 0.0023120233839028226,
        ],
        "initial": 0.15439357528401576,
        "final": 0.05718564009569582,
    },
    (640, 128): {
        "migrations": [
            (78, 125, 94), (630, 63, 94), (504, 125, 94), (534, 97, 94),
            (429, 55, 94), (435, 42, 94), (531, 67, 94), (478, 82, 94),
            (156, 10, 94), (64, 55, 94),
        ],
        "gains": [
            0.0509898056620538, 0.020409594608802373, 0.035152525102098986,
            0.005226027099936248, 0.009806765533646289, 0.0037565254184453167,
            0.005066068251031092, 0.006929867650028759, 0.002601621616384775,
            0.007603084253889558,
        ],
        "initial": 0.3285071489658652,
        "final": 0.180965263769548,
    },
}

HIERARCHICAL_GOLDEN = {
    "migrations": [
        (59, 32, 4), (638, 104, 4), (612, 63, 4), (490, 103, 4), (41, 104, 28),
        (414, 15, 28), (352, 36, 28), (405, 43, 28), (360, 116, 28),
        (532, 32, 28), (457, 36, 28), (913, 32, 96), (1268, 42, 96),
        (792, 40, 119), (768, 103, 119), (919, 63, 96), (1263, 104, 96),
        (1212, 107, 96), (1176, 45, 96), (1023, 15, 96), (1186, 15, 8),
        (1004, 103, 8), (1205, 63, 8), (1133, 43, 8), (973, 42, 8),
        (874, 120, 8), (889, 125, 8), (961, 123, 8), (838, 116, 96),
        (1111, 69, 96), (1167, 36, 96), (732, 107, 96), (654, 32, 96),
    ],
    "gains": [
        0.8091129778606434, 0.12320830747880107, 0.6982262906581774,
        0.1352208981076552, 0.016022955404380923, 0.012328760347129708,
        0.011976837001609342, 0.03320339925749033, 0.09402935441849569,
        0.02635240545062567, 0.042263046409100224, 0.8062085881594423,
        0.08228199039620582, 0.015545159835123723, 0.00871196157765508,
        0.006398347731343679, 0.01592605879122161, 0.013256642258910017,
        0.012602706370257954, 0.04222475437722001, 0.003925172328186455,
        0.005760607668436751, 0.00310179198874988, 0.010762250344043267,
        0.0027446013632106414, 0.003819329667770849, 0.0035986819070535636,
        0.0023991969224619325, 0.0021624791288112066, 0.0015679537138212352,
        0.001214150702708916, 0.0032697786439295495, 0.017426961511866207,
    ],
    "initial": 2.1999269526011362,
    "final": 0.10730121612333665,
}

RUNNER_GOLDEN = {
    "nutch-search": {
        "decisions": [
            {
                "migrations": [
                    (55, 13, 28), (58, 11, 27), (106, 25, 28), (75, 13, 28),
                    (48, 25, 28), (6, 10, 28), (96, 10, 4), (94, 22, 27),
                    (107, 10, 14), (18, 7, 4),
                ],
                "gains": [
                    0.023758727577556343, 0.010675329686421486,
                    0.006116728055456683, 0.060055374845636264,
                    0.03980310166827184, 0.010771713816595495,
                    0.004564664245246222, 0.002450058765865293,
                    0.0012106566719972262, 0.0011108056409199901,
                ],
                "initial": 0.18243867372936906,
                "final": 0.03546194195599097,
            },
            {
                "migrations": [
                    (7, 23, 19), (5, 11, 20), (71, 12, 20), (15, 8, 19),
                ],
                "gains": [
                    0.004727171417517634, 0.004727171417517634,
                    0.006604449055091086, 0.001231256710758695,
                ],
                "initial": 0.04171804344361495,
                "final": 0.03001932002579633,
            },
        ],
        "metrics": {
            "arrival_rate": 300.0,
            "component_latency": {
                "max": 0.7871178747672818,
                "mean": 0.026609396121100682,
                "n": 104104,
                "p50": 0.009276799912709589,
                "p95": 0.1111883841678464,
                "p99": 0.340615939681639,
            },
            "n_migrations": 14,
            "n_requests": 4732,
            "overall_latency": {
                "max": 0.7909022610433682,
                "mean": 0.21068551613466296,
                "n": 4732,
                "p50": 0.15576001258615946,
                "p95": 0.5551664317430333,
                "p99": 0.6807095132651155,
            },
            "per_interval_component_p99": [
                0.3899400881674779, 0.2662957128877431,
            ],
            "per_interval_overall_mean": [
                0.2508848551314594, 0.17201948525880562,
            ],
            "policy_name": "PCS",
        },
    },
    "fanout-feed": {
        "decisions": [
            {
                "migrations": [
                    (7, 18, 2), (8, 18, 14), (10, 17, 14), (16, 8, 16),
                ],
                "gains": [
                    0.0934823103150189, 0.006858668654261921,
                    0.008146955368959301, 0.006760254924812123,
                ],
                "initial": 0.1287909631904927,
                "final": 0.013542773927440466,
            },
            {
                "migrations": [(16, 16, 22), (2, 7, 15), (12, 0, 15)],
                "gains": [
                    0.12262744184516977, 0.0011861332125437385,
                    0.0027371184278325283,
                ],
                "initial": 0.13598565311848784,
                "final": 0.009434959632941808,
            },
        ],
        "metrics": {
            "arrival_rate": 300.0,
            "component_latency": {
                "max": 0.5042884467552,
                "mean": 0.02101190588641437,
                "n": 32508,
                "p50": 0.002248334082463562,
                "p95": 0.14487782519619566,
                "p99": 0.3951843001730988,
            },
            "n_migrations": 7,
            "n_requests": 4644,
            "overall_latency": {
                "max": 0.5692614236613,
                "mean": 0.13557498973644067,
                "n": 4644,
                "p50": 0.036055011212763444,
                "p95": 0.44898655679923266,
                "p99": 0.505027193356647,
            },
            "per_interval_component_p99": [
                0.4402044425124818, 0.02097731615685784,
            ],
            "per_interval_overall_mean": [
                0.25679931726928895, 0.013302008851232162,
            ],
            "policy_name": "PCS",
        },
    },
    "mixed-frontend": {
        "decisions": [
            {
                "migrations": [
                    (3, 0, 5), (5, 2, 3), (4, 1, 6), (12, 0, 1), (14, 3, 5),
                    (18, 2, 3), (0, 6, 5),
                ],
                "gains": [
                    0.01344280075178931, 0.007678259442191845,
                    0.0019012414339792116, 0.0014848153576466246,
                    0.001327447254094935, 0.0024823358452341314,
                    0.001189659094361941,
                ],
                "initial": 0.039474054393187734,
                "final": 0.01755692642469169,
            },
            {
                "migrations": [],
                "gains": [],
                "initial": 0.0161720463571243,
                "final": 0.0161720463571243,
            },
        ],
        "metrics": {
            "arrival_rate": 400.0,
            "component_latency": {
                "max": 0.29658226984657693,
                "mean": 0.01196371495850763,
                "n": 35366,
                "p50": 0.004786602490168765,
                "p95": 0.04513612698041618,
                "p99": 0.0996339919185623,
            },
            "n_migrations": 7,
            "n_requests": 6440,
            "overall_latency": {
                "max": 0.3016132426034704,
                "mean": 0.03612514275752853,
                "n": 6440,
                "p50": 0.026501162129482968,
                "p95": 0.10898247122094293,
                "p99": 0.18961158830142472,
            },
            "per_class": {
                "autocomplete": {
                    "max": 0.03857846422157134,
                    "mean": 0.006781805025200785,
                    "n": 1942,
                    "p50": 0.005658221632535736,
                    "p95": 0.01462908116013553,
                    "p99": 0.023914511278187844,
                },
                "image-heavy": {
                    "max": 0.3016132426034704,
                    "mean": 0.0577907625992057,
                    "n": 611,
                    "p50": 0.04816672661594738,
                    "p95": 0.135080233640879,
                    "p99": 0.20365691433264768,
                },
                "search": {
                    "max": 0.29283762780170514,
                    "mean": 0.04737985542871859,
                    "n": 3887,
                    "p50": 0.03664782817760265,
                    "p95": 0.1274666955551147,
                    "p99": 0.19571474160466953,
                },
            },
            "per_interval_component_p99": [
                0.10314303129802194, 0.0978808669862305,
            ],
            "per_interval_overall_mean": [
                0.037296805656151684, 0.03496506614220451,
            ],
            "policy_name": "PCS",
        },
    },
    "branchy-api": {
        "decisions": [
            {
                "migrations": [(9, 1, 3), (7, 6, 7), (12, 0, 5)],
                "gains": [
                    0.008057804860243139, 0.0011415940989712402,
                    0.0010667904468165817,
                ],
                "initial": 0.020364613600025037,
                "final": 0.015153444412731672,
            },
            {
                "migrations": [(7, 7, 6)],
                "gains": [0.0046783450167521695],
                "initial": 0.014945776561833187,
                "final": 0.010267431545081017,
            },
        ],
        "metrics": {
            "arrival_rate": 400.0,
            "component_latency": {
                "max": 0.11774492088959938,
                "mean": 0.005477118165946053,
                "n": 24751,
                "p50": 0.0020875652316149186,
                "p95": 0.0234166320898788,
                "p99": 0.04669937524318664,
            },
            "n_migrations": 4,
            "n_requests": 6435,
            "overall_latency": {
                "max": 0.11953201081802153,
                "mean": 0.016714182798433518,
                "n": 6435,
                "p50": 0.011924207392039088,
                "p95": 0.045336224830160095,
                "p99": 0.07192871569912705,
            },
            "per_interval_component_p99": [
                0.052619981766228195, 0.0394501337202326,
            ],
            "per_interval_overall_mean": [
                0.01839520773260762, 0.015014771654041885,
            ],
            "policy_name": "PCS",
        },
    },
}


def _assert_decision(outcome, golden):
    moves = [
        (mig.component_index, mig.origin, mig.destination)
        for mig in outcome.migrations
    ]
    assert moves == golden["migrations"]
    assert outcome.initial_overall_s == golden["initial"]
    assert outcome.final_overall_s == golden["final"]
    np.testing.assert_allclose(
        [m.predicted_gain_s for m in outcome.migrations],
        golden["gains"],
        rtol=1e-10,
        atol=0.0,
    )


@pytest.mark.parametrize("size", list(FLAT_GOLDEN), ids=lambda s: "%dx%d" % s)
def test_flat_fig7_decision(size):
    inputs = make_instance(*size, np.random.default_rng(0))
    outcome = PCSScheduler(_oracle(), FIG7_CONFIG).schedule(inputs)
    _assert_decision(outcome, FLAT_GOLDEN[size])


def test_hierarchical_fig7_decision():
    inputs = make_instance(1280, 128, np.random.default_rng(0))
    scheduler = HierarchicalScheduler(_oracle(), FIG7_CONFIG, group_size=640)
    _assert_decision(scheduler.schedule(inputs), HIERARCHICAL_GOLDEN)


@pytest.mark.parametrize("scenario", list(RUNNER_GOLDEN))
def test_runner_decisions_and_metrics(scenario, monkeypatch):
    outcomes = []
    schedule = PCSScheduler.schedule

    def recording(self, inputs):
        outcome = schedule(self, inputs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(PCSScheduler, "schedule", recording)
    spec = get_scenario(scenario)
    cfg = spec.runner_config(
        interval_s=8.0, n_intervals=3, warmup_intervals=1, seed=0,
        n_profiling_conditions=8, **RUNNER_OVERRIDES[scenario],
    )
    result = ExperimentRunner(cfg).run(PCSPolicy(scheduler_config=FIG7_CONFIG))
    golden = RUNNER_GOLDEN[scenario]
    assert len(outcomes) == len(golden["decisions"])
    for outcome, decision in zip(outcomes, golden["decisions"]):
        _assert_decision(outcome, decision)
    assert result.metrics_dict() == golden["metrics"]
