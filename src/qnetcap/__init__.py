"""End-to-end capacities of quantum repeater chains and networks.

Exact single-path (widest-path) and multi-path (max-flow) capacities for
networks of distillable channels, closed-form repeater-chain figures of
merit, and a brute-force oracle certifying the route/cut dualities.
"""

from types import ModuleType as _ModuleType

from .chains import (
    ChainCapacity,
    asymptotic_loss_dominant,
    asymptotic_repeater_dominant,
    chain_capacity,
    equidistant_lossy_capacity,
    max_link_loss_for_rate,
    min_repeaters_for_rate,
    multiband_chain_capacity,
)
from .channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    amplifier,
    binary_entropy,
    capacity,
    db_to_transmissivity,
    dephasing,
    erasure,
    fiber_transmissivity,
    lossy,
    multiband_lossy,
    shannon_entropy,
    transmissivity_to_db,
)
from .errors import (
    InvalidParameter,
    NoRoute,
    ParseError,
    QnetcapError,
    TooLarge,
    UnknownEdge,
    ValidationError,
)
from .multi_path import FlowReport, max_flow, multi_path_capacity
from .network import (
    Cut,
    Edge,
    QNetwork,
    Route,
    cut_multi_edge_value,
    cut_single_edge_value,
    edge_capacity,
    is_connected,
    make_cut,
    parse_network,
    serialize_network,
)
from .oracle import (
    BruteForceSinglePath,
    brute_multi_path_capacity,
    brute_single_path_capacity,
)
from .single_path import (
    RouteReport,
    max_spanning_tree,
    min_single_edge_cut,
    tree_route_capacity,
    widest_path,
)

__version__ = "0.1.0"

#: Every name imported above, and no module: each public name is written once.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
