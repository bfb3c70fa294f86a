"""Process-sharded crowd serving (see ``docs/SHARDING.md``).

Partitions simulated members across worker *processes* on a
consistent-hash ring, with per-shard WAL journals, shared-memory closure
bitsets, and a single-threaded coordinator that owns query lifecycle and
merges per-shard support deltas — the layer that takes question
throughput past the GIL ceiling of the threaded runner.
"""

from .coordinator import VIRTUAL_MEMBER, ShardCoordinator
from .hashring import DEFAULT_REPLICAS, HashRing, split_quota
from .simulation import run_sharded_simulation

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "ShardCoordinator",
    "VIRTUAL_MEMBER",
    "run_sharded_simulation",
    "split_quota",
]
