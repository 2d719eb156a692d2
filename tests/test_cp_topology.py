import pytest

from netbench.cp.safety import check_safety_cp
from netbench.cp.topology import DESK_SCALE, TopoSpec, generate_synthetic_topology, \
    load_topology, save_topology
from netbench.errors import InvariantViolation, ParseError


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


def test_save_load_round_trip(tmp_path):
    g = generate_synthetic_topology(TopoSpec(agg_blocks=2), seed=5)
    path = tmp_path / "topo.txt"
    save_topology(g, path)
    again = load_topology(path)
    assert again.state_digest() == g.state_digest()
    header = path.read_text().splitlines()[0]
    assert header == f"# nodes={len(g.nodes)} edges={len(g.edges)}"


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n")
    with pytest.raises(ParseError):
        load_topology(path)


def test_load_malformed_record_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node onlyname\n")
    with pytest.raises(ParseError):
        load_topology(path)


def test_load_unknown_record_kind_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex a EK_PORT\n")
    with pytest.raises(ParseError):
        load_topology(path)


def test_load_invalid_graph_rejected(tmp_path):
    path = tmp_path / "invalid.txt"
    path.write_text("node lonely EK_RACK\n")
    with pytest.raises(InvariantViolation) as err:
        load_topology(path)
    assert err.value.violations  # each violation is carried, not just the first


def test_load_non_finite_capacity_rejected(tmp_path):
    path = tmp_path / "nan.txt"
    for value in ("nan", "inf", "-inf", "Infinity"):
        path.write_text("node ju1 EK_JUPITER\nnode ju1.s1 EK_SPINE_BLOCK\nnode ju1.a1 EK_AGG_BLOCK\n"
                        "node sw1 EK_PACKET_SWITCH switch_loc=ju1.a1\n"
                        f"node sw1.p1 EK_PORT physical_capacity_bps={value}\n"
                        "edge ju1 ju1.s1 RK_CONTAINS\nedge ju1.s1 ju1.a1 RK_CONTAINS\n"
                        "edge ju1.a1 sw1 RK_CONTAINS\nedge sw1 sw1.p1 RK_CONTAINS\n")
        with pytest.raises(InvariantViolation) as err:
            load_topology(path)
        assert [(v.kind, v.subject) for v in err.value.violations] == [("MissingAttribute", "sw1.p1")]
        assert f"got {value!r}" in str(err.value.violations[0])
