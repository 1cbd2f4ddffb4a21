"""Per-layer numbers for the traced run.

The layers are the packages of ``src/repro``; ``sim`` is split into its
kernel (``kernel.py`` and the timing wheel), its resources (``resources.py``
and the ``Node`` that holds them) and its network.  Modules that belong to
none of them (``bench``, ``core``, the rest of ``sim``) and the benchmark
itself make up ``other``.

Self time comes from ``cProfile``, switched on around each point's call
into the simulator.  A layer's self time is the time inside its own
functions, excluding their calls into other layers.  Time in a function
outside ``src/repro`` (``heapq``, ``hashlib``, ``networkx``, builtins)
counts toward the layer that called it.

Counts come from two places:

* the profile's call counts, for the events that have no counter in the
  program (schedules, grants, proposals, storage calls, digests and
  signatures);
* public attributes and return values, read after every point by
  :class:`Counters`: ``Network.messages_sent``/``bytes_sent``, the ADS
  trees' ``hashes_computed``, the MVSG report's ``edge_count``, AHL's
  ``cross_shard_txns``, ``ChaosResult.checks`` and the run statistics.
  These are read in the untraced and the traced pass, which must agree.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Optional

import repro
from repro.adt.btm import MerkleBTree
from repro.adt.mbt import MerkleBucketTree
from repro.adt.mpt import MerklePatriciaTrie
from repro.analysis.serializability import HistoryChecker
from repro.sim.network import Network

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

OTHER = "other"
LAYERS = ("sim.kernel", "sim.resources", "sim.network", "consensus",
          "storage", "adt", "crypto", "concurrency", "txn", "sharding",
          "systems", "workloads", "analysis", "chaos", OTHER)

_FILE_LAYER = {
    "sim/kernel.py": "sim.kernel", "sim/wheel.py": "sim.kernel",
    "sim/resources.py": "sim.resources", "sim/node.py": "sim.resources",
    "sim/network.py": "sim.network",
}
_PACKAGES = frozenset(LAYERS) - {OTHER}


def _module(filename: str) -> Optional[str]:
    """Path of a program module relative to ``src/repro``, else None."""
    if not filename.startswith(_SRC):
        return None
    return filename[len(_SRC):].replace(os.sep, "/")


def layer_of(filename: str) -> Optional[str]:
    """The layer a program file belongs to; None outside the program."""
    rel = _module(filename)
    if rel is None:
        return None
    if rel in _FILE_LAYER:
        return _FILE_LAYER[rel]
    package = rel.split("/", 1)[0]
    return package if package in _PACKAGES else OTHER


# ---------------------------------------------------------------------------
# Self time and call counts from the profile
# ---------------------------------------------------------------------------

class Profile:
    """A ``cProfile`` profile switched on only around calls into the program."""

    def __init__(self):
        self._profile = cProfile.Profile()

    def __enter__(self):
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()
        return False

    def dump(self, path) -> None:
        """Write the raw profile, for ``python -m pstats``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self._profile.dump_stats(str(path))

    def layers(self) -> tuple[dict, dict]:
        """``(self_s per layer, call-count metrics)`` over the whole profile."""
        stats = pstats.Stats(self._profile).stats
        return _self_times(stats), _call_counts(stats)


def _self_times(stats: dict) -> dict:
    origin_memo: dict = {}

    def origin(func, active: set) -> dict:
        """Share of ``func``'s calls made on behalf of each layer."""
        if func in origin_memo:
            return origin_memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4] if func in stats else {}
        if not callers or func in active:
            return {OTHER: 1.0}
        active.add(func)
        total = sum(edge[3] for edge in callers.values())
        shares: dict = defaultdict(float)
        for caller, edge in callers.items():
            weight = edge[3] / total if total else 1.0 / len(callers)
            for layer, share in origin(caller, active).items():
                shares[layer] += weight * share
        active.discard(func)
        origin_memo[func] = dict(shares)
        return origin_memo[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
        elif not callers:
            self_s[OTHER] += tt
        else:
            # a foreign function's own time goes to whoever called it
            for caller, edge in callers.items():
                for owner, share in origin(caller, set()).items():
                    self_s[owner] += edge[2] * share
    return self_s


def _call_counts(stats: dict) -> dict:
    counts = dict.fromkeys(("sim.kernel.schedules", "sim.resources.grants",
                            "consensus.proposals", "storage.ops",
                            "crypto.digests", "crypto.signatures"), 0)
    for (filename, _line, name), (_cc, nc, _tt, _ct, callers) in stats.items():
        rel = _module(filename)
        if rel is None:
            continue
        layer = layer_of(filename)
        # calls into this function from another layer
        crossing = sum(edge[1] for caller, edge in callers.items()
                       if layer_of(caller[0]) != layer)
        if rel == "sim/kernel.py" and name.startswith("_schedule"):
            counts["sim.kernel.schedules"] += nc
        elif rel == "sim/resources.py" and name == "_take_slot":
            counts["sim.resources.grants"] += nc
        elif rel.startswith("consensus/") and name == "propose":
            counts["consensus.proposals"] += nc
        elif layer == "storage":
            counts["storage.ops"] += crossing
        elif rel == "crypto/hashing.py":
            counts["crypto.digests"] += crossing
        elif rel == "crypto/signatures.py" and name in ("sign", "verify"):
            counts["crypto.signatures"] += nc
    return counts


# ---------------------------------------------------------------------------
# Counts from public attributes
# ---------------------------------------------------------------------------

_TREES = (MerklePatriciaTrie, MerkleBucketTree, MerkleBTree)


class Counters:
    """Reads the program's own counters after every point.

    While installed, the constructors of ``Network`` and of the ADS trees
    log each new instance, and ``HistoryChecker.check`` logs the size of
    the graph it built, so that the counters of every instance a point
    created can be summed when it ends.
    """

    def __init__(self):
        self._networks: list = []
        self._trees: list = []
        self._edges = 0
        self._saved: list = []

    def __enter__(self):
        for cls, log in [(Network, self._networks)] + \
                [(cls, self._trees) for cls in _TREES]:
            self._patch(cls, "__init__", _logging_init(cls.__init__, log))
        check = HistoryChecker.check

        def logged_check(checker):
            report = check(checker)
            self._edges += report.edge_count
            return report
        self._patch(HistoryChecker, "check", logged_check)
        return self

    def __exit__(self, *exc):
        for cls, name, value in reversed(self._saved):
            setattr(cls, name, value)
        self._saved.clear()
        return False

    def _patch(self, cls, name, value) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def take(self, run) -> dict:
        """The counts of the point that just ended; resets the logs."""
        counts = {
            "sim.network.messages":
                sum(net.messages_sent for net in self._networks),
            "sim.network.bytes": sum(net.bytes_sent for net in self._networks),
            "adt.hashes": sum(tree.hashes_computed for tree in self._trees),
            "analysis.mvsg_edges": self._edges,
            "sharding.cross_shard_txns":
                getattr(run.system, "cross_shard_txns", 0),
            "chaos.invariant_checks": run.checks,
            "committed": run.committed,
            "aborted": run.aborted,
        }
        self._networks.clear()
        self._trees.clear()
        self._edges = 0
        return counts


def _logging_init(init, log: list):
    def logged_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        log.append(self)
    return logged_init
