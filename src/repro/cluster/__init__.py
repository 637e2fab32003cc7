"""Cluster substrate: nodes, machines (VMs/LXCs) and shared resources.

Models the paper's experiment platform (§VI-A: 30 nodes, two 6-core Xeon
E5645 processors each, 1 GbE, Xen VMs) at the level of detail PCS
consumes: each node has capacities for the four shared-resource classes
of Table II (processing units, shared caches, disk bandwidth, network
bandwidth), hosts a bounded number of machines, and exposes, for every
resident program, the *contention vector* ``U`` imposed by its
co-runners plus the node's own hardware/software background activity
(§II-A).

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ResourceKind": "resources",
        "RESOURCE_KINDS": "resources",
        "ResourceVector": "resources",
        "Machine": "machine",
        "MachineKind": "machine",
        "Node": "node",
        "NodeCapacity": "node",
        "Cluster": "cluster",
        "round_robin_placement": "placement",
        "random_placement": "placement",
        "least_loaded_placement": "placement",
    },
)
