"""Differential test: the adjacency-dict MVSG against a networkx build.

The reference below builds the MVSG as a ``networkx.DiGraph`` with one
node per stamped transaction and the ww/wr/rw edge rules of
:mod:`repro.analysis.serializability`, each edge carrying the set of
dependency kinds between its pair.  On random committed histories —
per-key stamps, transaction-wide commit versions, unstamped writers and
stale reads — the checker must agree with it on the verdict, the number
of distinct edges, the serial order, and every cycle and anomaly count.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HistoryChecker
from repro.analysis.serializability import _CYCLE_LENGTH_BOUND, \
    _CYCLE_LIMIT, zero_anomalies
from repro.txn import Op, OpType, Transaction

nx = pytest.importorskip("networkx")

KEYS = ("a", "b", "c", "d")

_txn = st.tuples(
    st.dictionaries(st.sampled_from(KEYS), st.integers(0, 8), max_size=3),
    st.lists(st.sampled_from(KEYS), unique=True, max_size=3),
    st.integers(0, 8),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(KEYS),
                                         st.integers(1, 8), max_size=3)),
)


def _history(specs):
    txns = []
    for txn_id, (reads, writes, version, per_key) in enumerate(specs, 1):
        txn = Transaction(ops=[Op(OpType.UPDATE, k, b"") for k in writes])
        txn.txn_id = txn_id
        txn.read_set = dict(reads)
        txn.write_set = {k: b"v" for k in writes}
        txn.commit_version = version
        txn.write_versions = per_key
        txn.mark_committed()
        txns.append(txn)
    return txns


def _unstamped(txn):
    return txn.write_set and txn.commit_version <= 0 \
        and not txn.write_versions


def _reference_graph(txns):
    graph = nx.DiGraph()
    writes, writer_of = {}, {}
    for txn in txns:
        if _unstamped(txn):
            continue
        graph.add_node(txn.txn_id)
        for key in txn.write_set:
            stamp = (txn.write_versions or {}).get(key, txn.commit_version)
            writes.setdefault(key, []).append((stamp, txn.txn_id))
            writer_of[(key, stamp)] = txn.txn_id
    for versions in writes.values():
        versions.sort()

    def add_edge(t1, t2, kind):
        if graph.has_edge(t1, t2):
            graph.edges[t1, t2]["kinds"].add(kind)
        else:
            graph.add_edge(t1, t2, kinds={kind})

    for versions in writes.values():
        for (_v1, t1), (_v2, t2) in zip(versions, versions[1:]):
            if t1 != t2:
                add_edge(t1, t2, "ww")
    for txn in txns:
        if _unstamped(txn):
            continue
        for key, seen in txn.read_set.items():
            writer = writer_of.get((key, seen))
            if writer is not None and writer != txn.txn_id:
                add_edge(writer, txn.txn_id, "wr")
            for version, later in writes.get(key, ()):
                if version > seen and later != txn.txn_id:
                    add_edge(txn.txn_id, later, "rw")
    return graph


def _reference_anomalies(graph, cycles):
    anomalies = zero_anomalies()
    for cycle in cycles:
        kinds = [graph.edges[u, v]["kinds"]
                 for u, v in zip(cycle, cycle[1:] + cycle[:1])]
        rw = ["rw" in ks for ks in kinds]
        n = len(kinds)
        if n == 2 and any(rw) and any("ww" in ks for ks in kinds):
            label = "lost_update"
        elif any(rw[i] and rw[(i + 1) % n] for i in range(n)):
            label = "write_skew"
        elif any(rw) and any("wr" in ks for ks in kinds):
            label = "fractured_read"
        else:
            label = "other"
        anomalies[label] += 1
    return anomalies


@settings(max_examples=300, deadline=None)
@given(st.lists(_txn, max_size=12))
def test_checker_matches_networkx_reference(specs):
    txns = _history(specs)
    checker = HistoryChecker()
    checker.observe_all(txns)
    report = checker.check()
    ref = _reference_graph(txns)

    assert report.serializable == nx.is_directed_acyclic_graph(ref)
    assert report.edge_count == ref.number_of_edges()
    assert report.txn_count == len(txns)
    if report.serializable:
        order = report.equivalent_order
        assert sorted(order) == sorted(ref.nodes)
        position = {node: i for i, node in enumerate(order)}
        assert all(position[u] < position[v] for u, v in ref.edges)
        assert order == list(nx.topological_sort(ref))
        assert report.cycles == [] and report.anomalies == zero_anomalies()
    else:
        cycles = [list(c) for c in islice(
            nx.simple_cycles(ref, length_bound=_CYCLE_LENGTH_BOUND),
            _CYCLE_LIMIT)] or [[u for u, _v in nx.find_cycle(ref)]]
        assert report.cycles == cycles
        assert report.cycle == cycles[0]
        assert report.anomalies == _reference_anomalies(ref, cycles)
