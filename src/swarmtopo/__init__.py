"""Coordinate-free topology recognition in dense random sensor networks.

Modules: geometry (region model and oracles), netgraph (unit disk graph),
simkernel (round driver and cost ledger), convergetree (leader election and
aggregation), boundary (recognition protocols), topo (higher-order
parameters), cli (experiment harness).
"""

__version__ = "0.1.0"
