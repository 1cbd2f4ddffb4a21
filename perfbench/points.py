"""Frozen workload definitions and the per-point output checks.

Every workload is a fixed list of simulation points.  A point calls one
public entry point of the simulator (``run_point``,
``run_smallbank_point``, ``run_open_loop`` or ``run_chaos_point``) and
returns a :class:`PointRun`: its host-time split into set-up, simulation
and post-run checks, the simulated transactions it completed, a digest of
its simulated results, and the reason it failed, if it did.

The definitions are copied here, not read from the program, so that the
run length of a workload cannot change between two commits that are
compared.  Importing this module imports the simulator; ``run.py`` times
that import as part of ``setup_s``.

Why each workload, and which per-layer metric should move which
end-to-end metric on it (written before any optimisation is measured):

* ``chain``: ADS hashing (``adt``), BFT consensus and sharded BFT-2PC do
  their work here and nowhere in ``db`` or ``contended``.  ``adt`` and
  ``crypto`` move ``txns_per_s`` and ``setup_s`` here only; ``sharding``
  moves ``txns_per_s`` through the AHL point; ``sim.kernel`` and
  ``sim.resources`` move ``txns_per_s`` most through the fabric point.
  ``sim.network`` and ``consensus`` should not move the quorum point.
* ``db``: ``sim.network``, Raft ``consensus`` and ``storage`` are
  heaviest here, and the three points are sized to comparable host-time
  shares.  Those layers, and the kernel, move ``txns_per_s``; ``storage``
  also moves ``setup_s``.  The reads beside the writes expose a gain on
  one path that costs the other.  ``adt.hashes`` is 0.
* ``contended``: the only workload whose ``concurrency`` aborts and
  retries, and the only one that runs the ``analysis`` MVSG history check
  after the simulation.  ``concurrency`` moves ``txns_per_s``;
  ``analysis`` moves ``wall_s`` but not ``txns_per_s``.  ``adt.hashes``
  is 0.
* ``grid``: many short points over every pinned system, engine and
  isolation level, so ``setup_s`` and per-point fixed costs weigh most.
  The only cover of spanner, the hybrids, the WAL and ``chaos``;
  ``chaos`` moves ``wall_s`` only, ``sharding`` moves ``txns_per_s``
  through spanner.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

# The first history check imports ``repro.analysis`` (and networkx)
# lazily; importing it here puts that cost into the import like the rest.
import repro.analysis  # noqa: F401
import repro.bench.harness as harness
import repro.chaos.harness as chaos_harness
from repro.bench.fingerprints import CHAOS_SCENARIOS, expected_for_spec
from repro.bench.harness import (BENCH, SMOKE, PointSpec, run_point,
                                 run_smallbank_point)
from repro.chaos import run_chaos_point
from repro.core.builder import build_system
from repro.sim.kernel import Environment
from repro.systems.base import SystemConfig
from repro.workloads.openloop import OpenLoopConfig, run_open_loop
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

# Build the lazily constructed chaos scenarios now, so that their cost
# is part of the import rather than of the first chaos point.
CHAOS_SCENARIOS.keys()

perf_counter = time.perf_counter


@dataclass
class PointRun:
    """Outcome of one simulation point."""

    label: str
    setup_s: float = 0.0
    sim_s: float = 0.0
    post_s: float = 0.0
    committed: int = 0
    aborted: int = 0
    digest: str = ""
    failure: Optional[str] = None
    system: object = None          # the simulated cluster, for counters
    checks: int = 0                # chaos invariant checks
    counts: dict = field(default_factory=dict)   # traced runs only

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sim_s + self.post_s

    @property
    def txns(self) -> int:
        return self.committed + self.aborted


class _DriverClock:
    """Marks where a point's simulation starts and ends.

    ``run_point``, ``run_smallbank_point`` and ``run_chaos_point`` build
    the cluster, load it, call ``run_closed_loop`` and then run their
    post-run checks.  Wrapping the module-level ``run_closed_loop`` name
    in those two modules splits the host time of one call into the three
    phases without changing any program file.
    """

    def __init__(self):
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def reset(self) -> None:
        self.start = self.end = None

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            self.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end = perf_counter()
        return timed


CLOCK = _DriverClock()


def install_clock() -> None:
    """Wrap ``run_closed_loop`` where the public entry points call it."""
    for module in (harness, chaos_harness):
        module.run_closed_loop = CLOCK.wrap(module.run_closed_loop)


def _digest(*fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _split(out: PointRun, t0: float, t3: float) -> None:
    if CLOCK.start is None or CLOCK.end is None:
        raise RuntimeError("the point never entered run_closed_loop")
    out.setup_s = CLOCK.start - t0
    out.sim_s = CLOCK.end - CLOCK.start
    out.post_s = t3 - CLOCK.end


# ---------------------------------------------------------------------------
# Point kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedPoint:
    """A YCSB (``run_point``) or SmallBank (``run_smallbank_point``) point.

    ``seed`` pins the point to a fixed seed (the ``grid`` points, which
    must match the program's pins); otherwise the workload seed is used.
    """

    label: str
    system: str
    kwargs: tuple = ()
    runner: str = "ycsb"            # "ycsb" | "smallbank"
    scale: object = BENCH
    seed: Optional[int] = None
    pinned: bool = False

    def run(self, seed: int) -> PointRun:
        kwargs = dict(self.kwargs)
        kwargs["seed"] = self.seed if self.seed is not None else seed
        fn = run_point if self.runner == "ycsb" else run_smallbank_point
        out = PointRun(self.label)
        CLOCK.reset()
        t0 = perf_counter()
        res = fn(self.system, scale=self.scale, **kwargs)
        _split(out, t0, perf_counter())
        stats = res.stats
        out.committed, out.aborted = stats.committed, stats.aborted
        out.system = res.extras["system"]
        out.digest = _digest(repr(res.tps), repr(stats.latency.mean),
                             stats.committed, stats.aborted, res.timeouts)
        target = kwargs.get("measure_txns") or self.scale.measure_txns
        if res.extras.get("wall_hit"):
            out.failure = "hit the max_sim_time wall"
        elif res.measured != target:
            out.failure = f"measured {res.measured} of {target} txns"
        elif (dict(kwargs.get("extras") or {}).get("isolation")
              == "serializable" and not res.extras["serializable_history"]):
            out.failure = "serializable run admitted an anomaly"
        elif self.pinned:
            out.failure = self._check_pin(kwargs, {
                "tps": repr(res.tps), "measured": res.measured,
                "latency": repr(stats.latency.mean),
                "aborted": stats.aborted})
        return out

    def _check_pin(self, kwargs: dict, observed: dict) -> Optional[str]:
        spec = PointSpec(figure="perfbench", key=(self.label,),
                         system=self.system, scale=self.scale,
                         params=tuple(sorted(kwargs.items())))
        pin = expected_for_spec(spec)
        if pin is None:
            return "no pin covers this point"
        if pin[1] != observed:
            return f"differs from pin {pin[0]}: {observed} != {pin[1]}"
        return None


@dataclass(frozen=True)
class OpenLoopPoint:
    """etcd driven by a seeded Poisson arrival schedule (``run_open_loop``)."""

    label: str
    system: str
    rate: float
    duration: float
    warmup: float

    def run(self, seed: int) -> PointRun:
        out = PointRun(self.label)
        t0 = perf_counter()
        env = Environment()
        sys_obj = build_system(env, self.system,
                               SystemConfig(num_nodes=5, seed=seed))
        workload = YcsbWorkload(YcsbConfig(record_count=BENCH.record_count,
                                           record_size=1000, seed=seed + 1))
        sys_obj.load(workload.initial_records())
        cfg = OpenLoopConfig(
            rate=self.rate, duration=self.duration, warmup=self.warmup,
            arrival="poisson", seed=seed, txn_timeout=1.0,
            max_in_flight=256, admit_queue=2048, max_sim_time=30.0)
        t1 = perf_counter()
        res = run_open_loop(env, sys_obj, workload.next_update, cfg)
        t2 = perf_counter()
        out.setup_s, out.sim_s = t1 - t0, t2 - t1
        out.committed, out.aborted = res.committed, res.aborted
        out.system = sys_obj
        out.digest = res.result_digest()
        if res.extras.get("wall_hit") or res.unresolved:
            out.failure = f"{res.unresolved} arrivals without a fate"
        elif res.offered == 0 or res.dropped or res.timeouts:
            out.failure = (f"offered {res.offered}, dropped {res.dropped}, "
                           f"timed out {res.timeouts}")
        return out


@dataclass(frozen=True)
class ChaosPoint:
    """A pinned chaos scenario (``run_chaos_point``) at its pinned seed."""

    label: str
    seed: int = 11

    def run(self, seed: int) -> PointRun:
        entry = CHAOS_SCENARIOS[self.label]
        out = PointRun(self.label)
        CLOCK.reset()
        t0 = perf_counter()
        res = run_chaos_point(entry["system"], entry["scenario"],
                              seed=self.seed, **entry["kwargs"])
        out.digest = res.digest()
        _split(out, t0, perf_counter())
        stats = res.run.stats
        out.committed, out.aborted = stats.committed, stats.aborted
        out.system = res.extras["system"]
        out.checks = res.checks
        pin = expected_for_spec(PointSpec(
            figure="perfbench", key=(self.label,), runner="chaos",
            params=(("name", self.label), ("seed", self.seed))))
        if not res.ok:
            out.failure = f"invariant broken: {res.violations[:3]}"
        elif res.run.measured == 0:
            out.failure = "no transaction completed"
        elif pin is None:
            out.failure = "no pin covers this point"
        elif pin[1]["digest"] != out.digest:
            out.failure = f"digest {out.digest} != pin {pin[1]['digest']}"
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _kw(**kwargs) -> tuple:
    return tuple(sorted(kwargs.items()))


#: chain: ADS hashing, BFT consensus and sharded BFT-2PC run only here.
CHAIN = (
    ClosedPoint("quorum-ibft-mpt", "quorum",
                _kw(extras={"index": "lsm+mpt"},
                    system_kwargs={"consensus": "ibft"})),
    ClosedPoint("fabric", "fabric"),
    ClosedPoint("ahl-16shards-rmw", "ahl",
                _kw(num_nodes=48, mode="rmw", ops_per_txn=2)),
)

#: db: Percolator 2PC over multi-Raft, Raft reads, and open-loop writes.
DB = (
    ClosedPoint("tidb-2key-update", "tidb",
                _kw(ops_per_txn=2, measure_txns=500)),
    ClosedPoint("etcd-read", "etcd",
                _kw(mode="query", measure_txns=12_000)),
    OpenLoopPoint("etcd-openloop-poisson", "etcd", rate=10_000.0,
                  duration=0.5, warmup=0.25),
)

#: contended: serializable SmallBank on hot accounts, then the MVSG check.
CONTENDED = (
    ClosedPoint("quorum-smallbank", "quorum",
                _kw(num_accounts=200, theta=0.9,
                    extras={"isolation": "serializable"}),
                runner="smallbank"),
    ClosedPoint("tidb-smallbank", "tidb",
                _kw(num_accounts=1000, theta=0.9,
                    extras={"isolation": "serializable"}),
                runner="smallbank"),
)


def _pinned(label: str, system: str, seed: int = 11, **kwargs) -> ClosedPoint:
    return ClosedPoint(label, system, _kw(**kwargs), scale=SMOKE, seed=seed,
                       pinned=True)


#: grid: the 27 pinned SMOKE YCSB points and the 3 pinned chaos runs,
#: copied so that pins added to the program later do not lengthen it.
GRID = (
    _pinned("etcd", "etcd"),
    _pinned("etcd-seed23", "etcd", seed=23),
    _pinned("tikv", "tikv"),
    _pinned("tikv-seed23", "tikv", seed=23),
    _pinned("quorum", "quorum"),
    _pinned("quorum-ibft", "quorum", system_kwargs={"consensus": "ibft"}),
    _pinned("fabric", "fabric"),
    _pinned("tidb-skew", "tidb", theta=0.9, ops_per_txn=2),
    _pinned("tidb-skew-seed23", "tidb", seed=23, theta=0.9, ops_per_txn=2),
    _pinned("spanner", "spanner", num_nodes=6, ops_per_txn=2),
    _pinned("spanner-seed23", "spanner", seed=23, num_nodes=6,
            ops_per_txn=2),
    _pinned("veritas", "veritas"),
    _pinned("bigchaindb", "bigchaindb"),
    _pinned("bigchaindb-idleskip", "bigchaindb",
            system_kwargs={"spec": {"skip_empty_blocks": True}}),
    _pinned("quorum-lsm", "quorum", extras={"index": "lsm"}),
    _pinned("quorum-mpt", "quorum", extras={"index": "lsm+mpt"}),
    _pinned("fabric-mbt", "fabric", extras={"index": "lsm+mbt"}),
    _pinned("falcondb", "falcondb"),
    _pinned("etcd-wal", "etcd", extras={"wal": True}),
    _pinned("etcd-si", "etcd", mode="rmw", theta=0.9,
            extras={"isolation": "snapshot"}),
    _pinned("etcd-rc", "etcd", mode="rmw", theta=0.9,
            extras={"isolation": "read_committed"}),
    _pinned("tikv-si", "tikv", mode="rmw", theta=0.9,
            extras={"isolation": "snapshot"}),
    _pinned("tikv-rc", "tikv", mode="rmw", theta=0.9,
            extras={"isolation": "read_committed"}),
    _pinned("tidb-si", "tidb", mode="rmw", theta=0.9, ops_per_txn=2,
            extras={"isolation": "snapshot"}),
    _pinned("tidb-rc", "tidb", mode="rmw", theta=0.9, ops_per_txn=2,
            extras={"isolation": "read_committed"}),
    _pinned("quorum-si", "quorum", mode="rmw", theta=0.9,
            extras={"isolation": "snapshot"}),
    _pinned("quorum-rc", "quorum", mode="rmw", theta=0.9,
            extras={"isolation": "read_committed"}),
    ChaosPoint("etcd-churn"),
    ChaosPoint("etcd-storm"),
    ChaosPoint("quorum-censor"),
)

WORKLOADS = {"chain": CHAIN, "db": DB, "contended": CONTENDED, "grid": GRID}


def points_for(workload: str, seed: int) -> tuple:
    """The workload's points in run order.

    ``grid`` points run at their pinned seeds so the pins check them;
    there the workload seed only permutes the order they run in.
    """
    points = WORKLOADS[workload]
    if workload == "grid":
        points = list(points)
        random.Random(seed).shuffle(points)
    return tuple(points)


def run_one(point, seed: int) -> PointRun:
    """Run a point; an exception fails the point, not the benchmark."""
    try:
        return point.run(seed)
    except Exception as exc:  # noqa: BLE001 - every raise is a failed point
        traceback.print_exc()
        return PointRun(point.label, failure=f"raised {exc!r}")
