"""Local directed bigraphs for modelling and statically checking
docker-compose container architectures."""

__version__ = "0.1.0"

from .interfaces import LocalInterface, EMPTY_INTERFACE, juxtapose
from .bigraph import (
    Bigraph, Control, Edge, InnerName, OuterName, Port, Root,
    Signature, Violation as WellFormednessViolation, validate,
)
from .algebra import compose, identity, is_isomorphic, relabel, tensor
from .containers import (
    ContainerSpec, VolumeMount, build_container, census, default_signature,
)
from .composefile import (
    ComposeModel, ServiceSpec, assemble, container_stub, environment_bigraph,
    parse_compose, stub_block,
)
from .analysis import (
    FlowGraph, FlowNode, SecurityOrder, Violation, build_flow_graph,
    check_links, check_security, find_leaks, parse_order_file,
    transitive_closure,
)
from .sorting import Occurrence, Pattern, check_sorting, find_matches, \
    verify_occurrence
from .serialize import bigraph_from_json, bigraph_to_json, dumps, loads, \
    patterns_from_json, to_dot
from . import errors

__all__ = [
    "LocalInterface", "EMPTY_INTERFACE", "juxtapose",
    "Bigraph", "Control", "Edge", "InnerName", "OuterName",
    "Port", "Root", "Signature", "WellFormednessViolation", "validate",
    "compose", "identity", "is_isomorphic", "relabel", "tensor",
    "ContainerSpec", "VolumeMount", "build_container", "census",
    "default_signature",
    "ComposeModel", "ServiceSpec", "assemble", "container_stub",
    "environment_bigraph", "parse_compose", "stub_block",
    "FlowGraph", "FlowNode", "SecurityOrder", "Violation", "build_flow_graph",
    "check_links", "check_security", "find_leaks", "parse_order_file",
    "transitive_closure",
    "Occurrence", "Pattern", "check_sorting", "find_matches",
    "verify_occurrence",
    "bigraph_from_json", "bigraph_to_json", "dumps", "loads",
    "patterns_from_json", "to_dot",
    "errors",
]
