"""Exact two-terminal reliability for binary-state networks that grow in stages."""

from increl.connectivity import (
    LayerTrace,
    NodePartition,
    extend_partition,
    extend_partition_detail,
    is_connected,
    layered_search,
    partition_nodes,
    project_partition,
)
from increl.engine import (
    EngineState,
    RetainedSet,
    StageResult,
    TraceBlock,
    TraceRow,
    full_enumeration_counts,
    initial_stage,
    run,
    run_expansion,
)
from increl.enumeration import BitCursor, counting_vectors
from increl.model import (
    ArcSpec,
    Bits,
    CapExceededError,
    Expansion,
    ExpansionError,
    Network,
    ParseError,
    concat_bits,
    extend_network,
    mask_bits,
    vector_probability,
)
from increl.netfile import parse_expansion_specs, parse_network
from increl.oracle import brute_force_reliability

__version__ = "0.1.0"

__all__ = [
    "ArcSpec",
    "Bits",
    "BitCursor",
    "CapExceededError",
    "EngineState",
    "Expansion",
    "ExpansionError",
    "LayerTrace",
    "Network",
    "NodePartition",
    "ParseError",
    "RetainedSet",
    "StageResult",
    "TraceBlock",
    "TraceRow",
    "brute_force_reliability",
    "concat_bits",
    "counting_vectors",
    "extend_network",
    "extend_partition",
    "extend_partition_detail",
    "full_enumeration_counts",
    "initial_stage",
    "is_connected",
    "layered_search",
    "mask_bits",
    "parse_expansion_specs",
    "parse_network",
    "partition_nodes",
    "project_partition",
    "run",
    "run_expansion",
    "vector_probability",
    "__version__",
]
