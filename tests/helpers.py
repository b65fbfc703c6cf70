"""Small constructors shared by the unit tests."""

from slosim.sim import Cluster, ClusterParams


def make_cluster(ready: int = 0, queue: float = 0.0, nodes: int = 2,
                 node_capacity: int = 8, **params) -> Cluster:
    """A cluster with `ready` pre-warmed replicas and a `queue` backlog."""
    cluster = Cluster(
        ClusterParams(initial_nodes=nodes, node_capacity=node_capacity, **params),
        initial_replicas=ready)
    cluster.state.queue_depth = queue
    cluster.state.cumulative_arrived = queue
    return cluster
