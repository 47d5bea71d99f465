"""Versioned registry shard map.

The federation partitions the governor role by *shard key*: every peer
belongs to exactly one shard (its testbed region, ``region:<name>``),
and each shard is owned by exactly one broker.  The map is an
immutable value with a monotonically increasing version:

* version 1 is built deterministically (sorted shard keys round-robin
  over sorted broker hostnames), so every broker and client starts
  from the same map without coordination;
* when gossip declares a broker dead, every surviving broker calls
  :meth:`ShardMap.without_broker` locally — the recomputation is a
  pure function of (current map, dead hostname), so all survivors
  converge on the same successor assignment without an election;
* clients carry their own (possibly stale) copy; a wrong-shard join is
  refused with a redirect carrying the refusing broker's fresher map
  (the stale-shard-map retry path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigError

__all__ = ["ShardMap", "build_shard_map", "region_shard_key"]


def region_shard_key(network, hostname: str) -> str:
    """The region shard key of a host (``region:<region name>``)."""
    return "region:" + network.host(hostname).spec.site.region.name


@dataclass(frozen=True)
class ShardMap:
    """One immutable shard→broker assignment at a version."""

    version: int
    #: ``(shard_key, owner hostname)`` pairs, sorted by shard key.
    assignment: Tuple[Tuple[str, str], ...]
    #: Live broker hostnames this version believes in, sorted.
    brokers: Tuple[str, ...]
    _index: Dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ConfigError(f"shard map version must be >= 1, got {self.version}")
        if not self.brokers:
            raise ConfigError("shard map needs at least one broker")
        index = dict(self.assignment)
        if len(index) != len(self.assignment):
            raise ConfigError("duplicate shard keys in assignment")
        object.__setattr__(self, "_index", index)

    def owner_of(self, shard_key: str) -> str:
        """Owning broker hostname for ``shard_key``."""
        try:
            return self._index[shard_key]
        except KeyError:
            raise ConfigError(f"no shard {shard_key!r} in map v{self.version}") from None

    def shards_of(self, broker_hostname: str) -> Tuple[str, ...]:
        """Shard keys owned by one broker, in map order."""
        return tuple(k for k, owner in self.assignment if owner == broker_hostname)

    def without_broker(self, dead_hostname: str) -> "ShardMap":
        """The successor map after one broker's death.

        Shards the dead broker owned move to the surviving brokers in
        deterministic round-robin order (by the shard's position among
        the orphaned shards); everything else is untouched.  Version
        increases by one.  A no-op death (unknown broker) still bumps
        the version so repeated observations stay idempotent to apply.
        """
        survivors = tuple(b for b in self.brokers if b != dead_hostname)
        if not survivors:
            raise ConfigError("cannot remove the last broker from the shard map")
        orphaned = [k for k, owner in self.assignment if owner == dead_hostname]
        successor = {
            key: survivors[i % len(survivors)] for i, key in enumerate(orphaned)
        }
        assignment = tuple(
            (key, successor.get(key, owner)) for key, owner in self.assignment
        )
        return ShardMap(
            version=self.version + 1,
            assignment=assignment,
            brokers=survivors,
        )

    def to_wire(self) -> Tuple[int, Tuple[Tuple[str, str], ...], Tuple[str, ...]]:
        """The (version, assignment, brokers) triple wire carriers use."""
        return (self.version, self.assignment, self.brokers)

    @classmethod
    def from_wire(
        cls,
        version: int,
        assignment: Tuple[Tuple[str, str], ...],
        brokers: Tuple[str, ...],
    ) -> "ShardMap":
        """Rebuild a map from its wire triple."""
        return cls(
            version=version,
            assignment=tuple((str(k), str(o)) for k, o in assignment),
            brokers=tuple(brokers),
        )


def build_shard_map(shard_keys, broker_hostnames, version: int = 1) -> ShardMap:
    """The deterministic initial map: sorted keys round-robin over
    sorted brokers."""
    brokers = tuple(sorted(broker_hostnames))
    if not brokers:
        raise ConfigError("need at least one broker hostname")
    keys = sorted(dict.fromkeys(shard_keys))
    assignment = tuple(
        (key, brokers[i % len(brokers)]) for i, key in enumerate(keys)
    )
    return ShardMap(version=version, assignment=assignment, brokers=brokers)
