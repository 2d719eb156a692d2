import pytest

from netbench.cp.safety import check_safety_cp
from netbench.cp.topology import DESK_SCALE, TopoSpec, generate_synthetic_topology


def test_desk_scale_counts():
    g = generate_synthetic_topology(DESK_SCALE, seed=0)
    types = {}
    for d in g.nodes.values():
        types[d["type"]] = types.get(d["type"], 0) + 1
    assert types["EK_JUPITER"] == 1
    assert types["EK_AGG_BLOCK"] == 4
    assert types["EK_CHASSIS"] == 8
    assert types["EK_PACKET_SWITCH"] == 32
    assert types["EK_PORT"] == 128
    assert len(types) == 10  # every device type appears


def test_generation_is_seed_deterministic():
    a = generate_synthetic_topology(DESK_SCALE, seed=9)
    b = generate_synthetic_topology(DESK_SCALE, seed=9)
    assert a.state_digest() == b.state_digest()
    assert a.state_digest() != generate_synthetic_topology(DESK_SCALE, seed=10).state_digest()


def test_generated_topology_passes_checker():
    assert check_safety_cp(generate_synthetic_topology(DESK_SCALE, seed=1)) == []


def test_spec_validation():
    with pytest.raises(ValueError):
        generate_synthetic_topology(TopoSpec(agg_blocks=0), seed=0)
