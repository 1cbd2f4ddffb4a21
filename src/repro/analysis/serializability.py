"""Serializability checking of committed histories.

Builds the multi-version serialization graph (MVSG) of a committed
execution from the transactions' read/write sets and version stamps, and
checks it for cycles — an independent, after-the-fact verification that
a system's concurrency control actually produced a serializable history
(the correctness side of the paper's Section 3.2 trade-off).

Nodes are committed transactions; edges:

* **wr** (reads-from): Ti wrote version v of x, Tj read v -> Ti -> Tj
* **ww** (version order): Ti wrote version v, Tj wrote v' > v -> Ti -> Tj
* **rw** (anti-dependency): Tj read version v of x, Ti wrote v' > v
  -> Tj -> Ti

Acyclicity of this graph is equivalent to (view) serializability for
histories with a total version order per key — which the versioned
stores in this library guarantee.

The graph is a plain adjacency dict ``{txn_id: {succ_id: kinds}}`` whose
``kinds`` is a bitmask of the dependencies (:data:`WW`, :data:`WR`,
:data:`RW`) between the pair, so ``edge_count`` counts distinct ordered
pairs.  A read's rw edges come from a bisect into the key's sorted
version list, and one Kahn pass — linear in transactions plus edges —
decides acyclicity and yields the equivalent serial order.

Beyond the yes/no check, :meth:`HistoryChecker.check` enumerates every
minimal (simple) cycle and classifies each into the classic weak-isolation
anomalies, so runs under ``extras["isolation"]`` report *which* hazards a
level admitted, not just that one exists.  Only this enumeration uses
networkx, imported when a history turns out cyclic:

* **lost update** — a 2-cycle carrying both an rw and a ww edge: two
  transactions read the same version of an item and both overwrote it.
* **write skew** — two consecutive rw (anti-dependency) edges somewhere
  in the cycle: the SI-only hazard (disjoint writes from a shared
  snapshot).
* **fractured read** — a cycle mixing rw with wr: a reader observed one
  transaction's write but missed another (non-repeatable / fractured
  visibility).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional

from ..txn.transaction import Transaction, TxnStatus

__all__ = ["ANOMALY_KINDS", "HistoryChecker", "SerializabilityReport"]

#: Anomaly classes reported per-cycle (plus a catch-all).
ANOMALY_KINDS = ("lost_update", "write_skew", "fractured_read", "other")

#: Dependency bits OR-ed into an MVSG edge's ``kinds`` mask.
WW, WR, RW = 1, 2, 4

#: ``txn_id -> {successor txn_id: kinds mask}``, in discovery order.
Graph = dict[int, dict[int, int]]

# Cycle enumeration bounds: anomalies manifest as short cycles (2-3 for
# the canonical hazards); the bound keeps simple_cycles polynomial on the
# dense graphs a contended run produces.
_CYCLE_LENGTH_BOUND = 6
_CYCLE_LIMIT = 10_000

_stamp_of = itemgetter(0)


def zero_anomalies() -> dict[str, int]:
    return {kind: 0 for kind in ANOMALY_KINDS}


@dataclass
class SerializabilityReport:
    """Outcome of a history check."""

    serializable: bool
    txn_count: int
    edge_count: int
    cycle: Optional[list[int]] = None
    equivalent_order: Optional[list[int]] = None
    notes: list[str] = field(default_factory=list)
    #: Every minimal cycle found (``cycle`` is the first, kept for
    #: callers that only want a witness).
    cycles: list[list[int]] = field(default_factory=list)
    #: Cycle count per anomaly class; all-zero when serializable.
    anomalies: dict[str, int] = field(default_factory=zero_anomalies)

    @property
    def anomaly_count(self) -> int:
        return sum(self.anomalies.values())


def topological_order(graph: Graph) -> Optional[list[int]]:
    """Kahn's algorithm: a serial order of ``graph``, or None if cyclic.

    Sources are taken first-in first-out in node order and successors in
    edge order, so the result equals ``networkx.topological_sort`` of a
    ``DiGraph`` built in the same order.
    """
    indegree = dict.fromkeys(graph, 0)
    for succ in graph.values():
        for v in succ:
            indegree[v] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for u in order:  # grows while iterated: the FIFO queue
        for v in graph[u]:
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    return order if len(order) == len(graph) else None


class HistoryChecker:
    """Accumulates committed transactions and verifies serializability."""

    def __init__(self):
        self._txns: list[Transaction] = []

    def observe(self, txn: Transaction) -> None:
        """Record one finished transaction (aborted ones are ignored)."""
        if txn.status is TxnStatus.COMMITTED:
            self._txns.append(txn)

    def observe_all(self, txns: Iterable[Transaction]) -> None:
        for txn in txns:
            self.observe(txn)

    @staticmethod
    def _write_stamp(txn: Transaction, key: str) -> int:
        """Version installed for ``key`` — per-key stamp when the system
        applied writes at distinct versions (tikv's per-raft-apply
        stamps), else the transaction-wide commit version."""
        per_key = txn.write_versions
        if per_key:
            return per_key.get(key, txn.commit_version)
        return txn.commit_version

    def _build_graph(self) -> tuple[Graph, list[str]]:
        graph: Graph = {}
        notes: list[str] = []
        # key -> sorted list of (version, txn_id) writes
        writes: dict[str, list[tuple[int, int]]] = {}
        writer_of: dict[tuple[str, int], int] = {}
        stamped = [txn for txn in self._txns
                   if not (txn.write_set and txn.commit_version <= 0
                           and not txn.write_versions)]
        for txn in stamped:
            graph.setdefault(txn.txn_id, {})
            for key in txn.write_set:
                stamp = self._write_stamp(txn, key)
                writes.setdefault(key, []).append((stamp, txn.txn_id))
                writer_of[(key, stamp)] = txn.txn_id
        skipped = len(self._txns) - len(stamped)
        if skipped:
            notes.append(f"skipped {skipped} txns without commit stamps")
        for versions in writes.values():
            versions.sort()

        # ww edges along each key's version chain
        for versions in writes.values():
            for (_v1, t1), (_v2, t2) in zip(versions, versions[1:]):
                if t1 != t2:
                    succ = graph[t1]
                    succ[t2] = succ.get(t2, 0) | WW
        # wr and rw edges from read sets
        for txn in stamped:
            reader = txn.txn_id
            out = graph[reader]
            for key, seen_version in txn.read_set.items():
                writer = writer_of.get((key, seen_version))
                if writer is not None and writer != reader:
                    succ = graph[writer]
                    succ[reader] = succ.get(reader, 0) | WR
                versions = writes.get(key)
                if not versions:
                    continue
                later = bisect_right(versions, seen_version, key=_stamp_of)
                for _version, later_writer in versions[later:]:
                    if later_writer != reader:
                        out[later_writer] = out.get(later_writer, 0) | RW
        return graph, notes

    @staticmethod
    def _classify_cycle(graph: Graph, cycle: list[int]) -> str:
        """Label one minimal MVSG cycle with its anomaly class."""
        masks = [graph[u][v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
        has_rw = [bool(mask & RW) for mask in masks]
        if len(cycle) == 2 and any(has_rw) \
                and any(mask & WW for mask in masks):
            return "lost_update"
        n = len(masks)
        if any(has_rw[i] and has_rw[(i + 1) % n] for i in range(n)):
            return "write_skew"
        if any(has_rw) and any(mask & WR for mask in masks):
            return "fractured_read"
        return "other"

    @staticmethod
    def _minimal_cycles(graph: Graph, notes: list[str]) -> list[list[int]]:
        """Enumerate the bounded simple cycles of a cyclic ``graph``.

        The ``DiGraph`` is built in the adjacency dict's node and edge
        order, which fixes the order networkx yields cycles in — and so
        which cycles a capped enumeration counts.
        """
        import networkx as nx

        digraph = nx.DiGraph()
        digraph.add_nodes_from(graph)
        digraph.add_edges_from(
            (u, v) for u, succ in graph.items() for v in succ)
        cycles = [list(c) for c in islice(
            nx.simple_cycles(digraph, length_bound=_CYCLE_LENGTH_BOUND),
            _CYCLE_LIMIT)]
        if len(cycles) == _CYCLE_LIMIT:
            notes.append(
                f"cycle enumeration capped at {_CYCLE_LIMIT}; "
                "anomaly counts are a lower bound")
        if not cycles:
            # Every cycle is longer than the bound; fall back to one
            # witness so the report still carries a concrete cycle.
            cycles = [[u for u, _v in nx.find_cycle(digraph)]]
            notes.append(
                f"no cycle within length {_CYCLE_LENGTH_BOUND}; "
                "reporting one unbounded witness")
        return cycles

    def check(self) -> SerializabilityReport:
        """Verify the observed history; includes a witness order or cycle.

        Non-serializable histories report *every* minimal cycle (up to a
        length bound — the canonical anomalies are 2-3 cycles — and an
        enumeration cap, noted when hit) with per-anomaly counts, so a
        run under weakened isolation quantifies exactly what it admitted.
        """
        graph, notes = self._build_graph()
        edge_count = sum(len(succ) for succ in graph.values())
        order = topological_order(graph)
        if order is not None:
            return SerializabilityReport(
                serializable=True,
                txn_count=len(self._txns),
                edge_count=edge_count,
                equivalent_order=order,
                notes=notes,
            )
        cycles = self._minimal_cycles(graph, notes)
        anomalies = zero_anomalies()
        for cyc in cycles:
            anomalies[self._classify_cycle(graph, cyc)] += 1
        return SerializabilityReport(
            serializable=False,
            txn_count=len(self._txns),
            edge_count=edge_count,
            cycle=cycles[0],
            cycles=cycles,
            anomalies=anomalies,
            notes=notes,
        )
