"""JXTA-Overlay platform (Python reimplementation).

The paper (§3) names three modules: the **Broker**
(:class:`.broker.Broker` — network governor, registry, statistics,
discovery index), the **Primitives** (here the services every
:class:`.peer.PeerNode` carries: ``discovery``, ``transfers``,
``tasks``, ``sharing`` and instant messages) and the **Client** module
(:class:`.client.SimpleClient` / :class:`.client.Client`).
"""

from repro.overlay.advertisements import (
    DEFAULT_LIFETIME_S,
    Advertisement,
    PeerAdvertisement,
    ResourceAdvertisement,
)
from repro.overlay.broker import Broker, PeerRecord
from repro.overlay.client import Client, SimpleClient
from repro.overlay.discovery import DiscoveryService
from repro.overlay.filesharing import (
    FileNotShared,
    FileSharingService,
    SharedFile,
)
from repro.overlay.filetransfer import (
    FileTransferOutcome,
    FileTransferService,
    PartRecord,
    TransferHandle,
    split_even,
)
from repro.overlay.ids import IdFactory, PeerId, TaskId, TransferId
from repro.overlay.peer import PeerConfig, PeerNode, RequestTimeout
from repro.overlay.statistics import Counters, PeerStats, PerformanceHistory
from repro.overlay.taskexec import TaskExecutionService, TaskOutcome

__all__ = [
    "IdFactory",
    "PeerId",
    "TaskId",
    "TransferId",
    "Advertisement",
    "PeerAdvertisement",
    "ResourceAdvertisement",
    "DEFAULT_LIFETIME_S",
    "PeerNode",
    "PeerConfig",
    "RequestTimeout",
    "SimpleClient",
    "Client",
    "Broker",
    "PeerRecord",
    "PeerStats",
    "Counters",
    "PerformanceHistory",
    "FileTransferService",
    "FileTransferOutcome",
    "PartRecord",
    "TransferHandle",
    "split_even",
    "TaskExecutionService",
    "TaskOutcome",
    "DiscoveryService",
    "FileSharingService",
    "SharedFile",
    "FileNotShared",
]
