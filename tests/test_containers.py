import random
from dataclasses import replace

import pytest

from ldbig import (
    EMPTY_INTERFACE, ContainerSpec, Control, OuterName, Port, VolumeMount,
    build_container, census, default_signature, parse_compose, validate,
)
from ldbig.cli import main
from ldbig.composefile import _container_spec
from genrandom import gen_container_spec


def reference_spec() -> ContainerSpec:
    """A container on two networks with one volume, whose process consumes
    two names from outside and offers three."""
    return ContainerSpec(
        name="C",
        networks=("n1", "n2"),
        volumes=(VolumeMount("v", path="/srv/data"),),
        consumes=("r1", "r2"),
        offers=("p1", "p2", "p3"),
    )


def test_the_signature_is_built_once(data_dir, tmp_path):
    assert default_signature() is default_signature()
    golden = data_dir / "golden"
    for stage in ("environment", "stubs"):
        target = tmp_path / f"{stage}.json"
        assert main(["export", str(data_dir / "wordpress.yml"), "--format",
                     "json", "--stage", stage, "--output", str(target)]) == 0
        assert target.read_bytes() == (
            golden / f"wordpress.{stage}.json").read_bytes()


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
    assert b.outer.plus(1) == {"n_n1", "n_n2", "v_v", "l_r1", "l_r2"}
    assert b.outer.minus(1) == {"p_p1", "p_p2", "p_p3", "c_C"}
    assert validate(b) == []


def test_reference_container_structure():
    b = build_container(reference_spec())
    counts = census(b)
    assert counts == {"container": 1, "process": 1, "network": 2,
                      "volume": 1}
    (box,) = [v for v, c in b.nodes.items() if c.name == "container"]
    # the identity handle points at the container's only target port
    assert b.link[OuterName(1, "c_C")] == Port(box, 0)
    # all other nodes sit inside the container, and there is no site
    for v in b.nodes:
        if v != box:
            assert b.node_parent[v] == box
    assert b.site_parent == {}
    # the process has one source port per consumed name, one target per offer
    (proc,) = [v for v, c in b.nodes.items() if c.name == "process"]
    assert b.nodes[proc] == Control("process", 2, 3)
    assert b.link[Port(proc, 1)] == OuterName(1, "l_r2")
    assert b.link[OuterName(1, "p_p2")] == Port(proc, 1)


def test_dropping_an_offer_breaks_isomorphism():
    from ldbig import is_isomorphic

    full = build_container(reference_spec())
    spec = reference_spec()
    trimmed = replace(spec, offers=spec.offers[:2])
    smaller = build_container(trimmed)
    assert not is_isomorphic(full, smaller)


def test_minimal_container():
    b = build_container(ContainerSpec(name="lone"))
    assert census(b) == {"container": 1, "process": 1}
    assert b.inner.width == 0
    assert b.outer.plus(1) == set()
    assert b.outer.minus(1) == {"c_lone"}
    assert validate(b) == []


@pytest.mark.parametrize("stack, spec, names", [
    ("services: {a: {image: x, networks: [l_b], links: [b]}, b: {image: y}}\n"
     "networks: {l_b: }",
     ContainerSpec("a", networks=("l_b",), consumes=("b",)),
     ({"n_l_b", "l_b"}, {"c_a"})),
    ("services: {p_80: {image: x, expose: ['80']}}",
     ContainerSpec("p_80", networks=("default",), offers=("80",)),
     ({"n_default"}, {"p_80", "c_p_80"})),
    ("services: {a: {image: x, networks: [a]}}\nnetworks: {a: }",
     ContainerSpec("a", networks=("a",)),
     ({"n_a"}, {"c_a"})),
])
def test_clash_texts(stack, spec, names):
    """Stacks whose names once clashed parse, and their tagged names are
    distinct."""
    model = parse_compose(stack)
    assert _container_spec(spec.name, model.services[spec.name]) == spec
    assert spec.names() == names


def test_volume_metadata_recorded():
    spec = ContainerSpec(name="c", volumes=(
        VolumeMount("data", path="/var/data", read_only=True),))
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
        assert counts["process"] == counts["container"] == 1
        assert counts.get("network", 0) == len(spec.networks)
        assert counts.get("volume", 0) == len(spec.volumes)
        assert b.inner == EMPTY_INTERFACE
        assert (b.outer.plus(1), b.outer.minus(1)) == spec.names()
