"""Online-service substrate: multi-stage, fan-out/fan-in services.

The paper's running example (Fig. 1) is a Nutch search engine whose
request processing has three sequential stages, the middle one
parallelised across ~100 *searching* components.  This subpackage models
the general shape:

- a :class:`~repro.service.component.Component` is a single-server FIFO
  queue hosted in its own VM (Resident protocol for the cluster);
- a :class:`~repro.service.topology.ReplicaGroup` is a set of
  interchangeable components (replicas of the same shard) — the unit
  request-redundancy and reissue policies act on;
- a :class:`~repro.service.topology.Stage` fans a request out to **all**
  of its groups and completes at the max (paper Eq. 3);
- a :class:`~repro.service.topology.ServiceTopology` chains stages
  sequentially (paper Eq. 4);
- :func:`~repro.service.nutch.build_nutch_service` builds the paper's
  Fig. 1 topology.
"""

from repro.service.component import Component, ComponentClass
from repro.service.nutch import NutchConfig, build_nutch_service
from repro.service.service import OnlineService
from repro.service.topology import ReplicaGroup, ServiceTopology, Stage

__all__ = [
    "Component",
    "ComponentClass",
    "ReplicaGroup",
    "Stage",
    "ServiceTopology",
    "OnlineService",
    "NutchConfig",
    "build_nutch_service",
]
