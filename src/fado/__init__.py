"""Directive and floorplan co-optimization for multi-die FPGA designs."""

__version__ = "0.1.0"

from .model import (
    LIMIT_EPS,
    RESOURCE_KINDS,
    DesignGraph,
    DeviceModel,
    Group,
    ModelError,
    QoRLibrary,
    ResourceVector,
    baseline_configuration,
    design_from_dict,
    design_latency,
    device_from_dict,
    qor_from_dict,
)
from .floorplan import FloorplanError, balanced_initial, min_cut_initial
from .packer import PackState, offline_repack, online_pack
from .pipeliner import SllState, recompute_all
from .oracle import solve, verify_optimal
from .search import SearchResult, compute_lookahead_N, run

__all__ = [
    "LIMIT_EPS",
    "RESOURCE_KINDS",
    "DesignGraph",
    "DeviceModel",
    "FloorplanError",
    "Group",
    "ModelError",
    "PackState",
    "QoRLibrary",
    "ResourceVector",
    "SearchResult",
    "SllState",
    "balanced_initial",
    "baseline_configuration",
    "compute_lookahead_N",
    "design_from_dict",
    "design_latency",
    "device_from_dict",
    "min_cut_initial",
    "offline_repack",
    "online_pack",
    "qor_from_dict",
    "recompute_all",
    "run",
    "solve",
    "verify_optimal",
]
