"""Pinned anomaly reports of the SMOKE isolation-ablation grid.

Each of the 18 ``isolation_points`` rows runs through ``run_spec`` (which
resets transaction ids, so the history and its cycle enumeration are
reproducible) and must report the same ``serializable_history`` verdict
and per-class anomaly counts.  Where cycle enumeration hits its cap the
counts are a lower bound, but a deterministic one: a change to the MVSG
build order or the enumeration shows up here.
"""

import pytest

from repro.analysis.serializability import zero_anomalies
from repro.bench.experiments import isolation_points
from repro.bench.harness import SMOKE, run_spec

#: (workload, system, level) -> non-zero anomaly counts; {} = serializable.
ANOMALY_PINS = {
    ("ycsb-rmw", "etcd", "serializable"): {},
    ("ycsb-rmw", "etcd", "snapshot"): {},
    ("ycsb-rmw", "etcd", "read_committed"):
        {"lost_update": 21, "write_skew": 9979},
    ("ycsb-rmw", "tikv", "serializable"): {},
    ("ycsb-rmw", "tikv", "snapshot"): {},
    ("ycsb-rmw", "tikv", "read_committed"):
        {"lost_update": 17, "write_skew": 9983},
    ("ycsb-rmw", "tidb", "serializable"): {},
    ("ycsb-rmw", "tidb", "snapshot"): {},
    ("ycsb-rmw", "tidb", "read_committed"):
        {"lost_update": 8, "write_skew": 9992},
    ("ycsb-rmw", "quorum", "serializable"): {},
    ("ycsb-rmw", "quorum", "snapshot"): {},
    ("ycsb-rmw", "quorum", "read_committed"):
        {"lost_update": 71, "write_skew": 9929},
    ("smallbank", "quorum", "serializable"): {},
    ("smallbank", "quorum", "snapshot"): {},
    ("smallbank", "quorum", "read_committed"):
        {"lost_update": 15, "write_skew": 9985},
    ("smallbank-mix", "etcd", "serializable"): {},
    ("smallbank-mix", "etcd", "snapshot"): {"write_skew": 7},
    ("smallbank-mix", "etcd", "read_committed"):
        {"lost_update": 10, "write_skew": 9990},
}

_SPECS = {spec.key: spec for spec in isolation_points(SMOKE)}


def test_pins_cover_the_grid():
    assert set(ANOMALY_PINS) == set(_SPECS)


@pytest.mark.parametrize("key", list(ANOMALY_PINS), ids="/".join)
def test_isolation_point_anomalies(key):
    payload = run_spec(_SPECS[key]).payload
    expected = ANOMALY_PINS[key]
    assert payload["serializable_history"] == (not expected)
    assert payload["anomalies"] == zero_anomalies() | expected
