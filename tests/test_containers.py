import random

import pytest

from ldbig import (
    EMPTY_INTERFACE, ContainerSpec, Control, OuterName, Port, ProcessSpec,
    VolumeMount, build_container, census, default_signature, validate,
)
from ldbig.errors import UnresolvedName
from genrandom import gen_container_spec


def reference_spec() -> ContainerSpec:
    """A container exposing three of its five offers, whose processes consume
    a network, a volume, a sibling's offer and a name from outside."""
    return ContainerSpec(
        name="C",
        processes=(
            ProcessSpec(offers=("p1", "s1"), consumes=("n1", "v")),
            ProcessSpec(offers=("p2", "s2"), consumes=("n2",)),
            ProcessSpec(offers=("p3",), consumes=("s1", "r1")),
        ),
        networks=("n1", "n2"),
        volumes=(VolumeMount("v", host_path="/srv/data"),),
        exposed_ports=("p1", "p2", "p3"),
    )


def test_default_signature_arities():
    sig = default_signature()
    assert sig.lookup("container") == Control("container", 0, 1)
    assert sig.lookup("network") == Control("network", 1, 1)
    assert sig.lookup("volume") == Control("volume", 1, 1)
    assert sig.lookup("request") == Control("request", 1, 1)
    assert "process" in sig.parametric
    assert sig.admits(Control("process", 2, 3))


def test_reference_container_interfaces():
    b = build_container(reference_spec())
    assert b.inner == EMPTY_INTERFACE
    assert b.outer.plus(1) == {"v", "r1", "n1", "n2"}
    assert b.outer.minus(1) == {"p1", "p2", "p3", "C"}
    assert validate(b) == []


def test_reference_container_structure():
    b = build_container(reference_spec())
    counts = census(b)
    assert counts == {"container": 1, "process": 3, "network": 2,
                      "volume": 1}
    (box,) = [v for v, c in b.nodes.items() if c.name == "container"]
    # the identity handle points at the container's only target port
    assert b.link[OuterName(1, "C")] == Port(box, 0)
    # all other nodes sit inside the container, and there is no site
    for v in b.nodes:
        if v != box:
            assert b.node_parent[v] == box
    assert b.site_parent == {}
    # a process has one source port per consumed name, one target per offer
    p1, _, p3 = sorted(v for v, c in b.nodes.items() if c.name == "process")
    assert b.nodes[p3] == Control("process", 2, 1)
    # a sibling's offer is a port of that sibling; anything else goes outside
    assert b.link[Port(p3, 0)] == Port(p1, 1)
    assert b.link[Port(p3, 1)] == OuterName(1, "r1")


def test_dropping_a_process_breaks_isomorphism():
    from ldbig import is_isomorphic

    full = build_container(reference_spec())
    spec = reference_spec()
    trimmed = ContainerSpec(**{**spec.__dict__,
                               "processes": spec.processes[:2],
                               "exposed_ports": ("p1", "p2")})
    smaller = build_container(trimmed)
    assert not is_isomorphic(full, smaller)


def test_minimal_container():
    b = build_container(ContainerSpec(name="lone"))
    assert census(b) == {"container": 1}
    assert b.inner.width == 0
    assert b.outer.plus(1) == set()
    assert b.outer.minus(1) == {"lone"}
    assert validate(b) == []


def test_exposed_port_must_be_offered():
    spec = ContainerSpec(name="c", exposed_ports=("p",))
    with pytest.raises(UnresolvedName):
        build_container(spec)


def test_duplicate_offers_rejected():
    spec = ContainerSpec(name="c", processes=(
        ProcessSpec(offers=("s",)), ProcessSpec(offers=("s",))))
    with pytest.raises(UnresolvedName):
        build_container(spec)


def test_volume_metadata_recorded():
    spec = ContainerSpec(name="c", volumes=(
        VolumeMount("data", host_path="/var/data", read_only=True),))
    b = build_container(spec)
    (vol,) = [v for v, c in b.nodes.items() if c.name == "volume"]
    assert b.attrs(vol) == {"name": "data", "read_only": True,
                            "host_path": "/var/data"}


def test_every_generated_spec_builds_well_formed():
    rng = random.Random(31)
    for _ in range(200):
        spec = gen_container_spec(rng)
        b = build_container(spec)
        assert validate(b) == [], (spec, validate(b))
        counts = census(b)
        assert counts.get("process", 0) == len(spec.processes)
        assert counts.get("network", 0) == len(spec.networks)
        assert counts.get("volume", 0) == len(spec.volumes)
        assert counts.get("container", 0) == 1
        assert b.inner == EMPTY_INTERFACE
