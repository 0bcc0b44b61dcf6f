"""Sharded corpus execution with per-shard fault isolation.

One structuring schema, N corpus files, one
:class:`~repro.core.engine.FileQueryEngine` and persisted index per
shard.  :class:`ShardedEngine` plans each query once and scatter-gathers
it over the engine's one long-lived thread pool; every shard evaluates
under the existing budget/degradation machinery, wrapped in retry-with-backoff
(:mod:`repro.resilience.retry`) and a per-shard circuit breaker
(:mod:`repro.resilience.breaker`).  Unhealthy shards degrade into
structured warnings on a partial result — or, under ``fail_fast``, into
a typed :class:`~repro.errors.ShardFailedError`.

Layout on disk (see :mod:`repro.shard.manifest`)::

    <root>/manifest.json           kind="sharded" + per-shard fingerprints
    <root>/shards/<nnn>-<name>/    one crash-safe v2 index per shard

With replication (``save(..., replicas=N)``, :mod:`repro.shard.replica`)
each shard directory holds N complete sibling copies under
``replica-{i}/`` plus a ``kind="replicated"`` shard-level manifest; reads
route across the copies with per-replica circuit breakers, and the
scrubber (:mod:`repro.shard.scrub`) quarantines and repairs damaged
copies in the background.
"""

from repro.obs.stats import FAILED, OK, SKIPPED, ShardExecution
from repro.shard.engine import DEFAULT_MAX_PARALLEL, ShardedEngine
from repro.shard.manifest import (
    ShardEntry,
    ShardManifest,
    is_sharded_index,
    load_shard_manifest,
    save_shard_manifest,
    shard_slug,
)
from repro.shard.replica import ReplicaLoad, ReplicaLoadEvent, ReplicaSet
from repro.shard.scrub import (
    ScrubDaemon,
    ScrubFinding,
    ScrubRepair,
    ScrubReport,
    scrub_index,
)
from repro.shard.split import split_corpus

__all__ = [
    "DEFAULT_MAX_PARALLEL",
    "FAILED",
    "OK",
    "SKIPPED",
    "ReplicaLoad",
    "ReplicaLoadEvent",
    "ReplicaSet",
    "ScrubDaemon",
    "ScrubFinding",
    "ScrubRepair",
    "ScrubReport",
    "ShardEntry",
    "ShardExecution",
    "ShardManifest",
    "ShardedEngine",
    "is_sharded_index",
    "load_shard_manifest",
    "save_shard_manifest",
    "scrub_index",
    "shard_slug",
    "split_corpus",
]
