"""Laws the routing interpreter obeys, as a Linux router does, on the broken states of
generated queries."""

from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.core.reactive import WRITE
from netbench.routing.commands import exec_command
from netbench.routing.generate import generate_routing_query, rebuild_states


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_each_listed_route_given_to_ip_route_del_removes_that_route(level, seed):
    """Re-entry: each line that ``ip route`` lists, given back to ``ip route del``, is a
    write that removes exactly the route the line lists, connected routes
    (``... proto kernel scope link src <ip>``) included."""
    _, truth = generate_routing_query(level, seed)
    state = rebuild_states(truth)[1]
    router = state.router_name
    lines = exec_command(state, router, "ip route").output.splitlines()
    assert len(lines) == len(state.routes)  # one line per route, in table order
    for i, line in enumerate(lines):
        deleted = exec_command(state, router, f"ip route del {line}")
        assert deleted.kind == WRITE, (line, deleted.output)
        assert deleted.state.routes == state.routes[:i] + state.routes[i + 1:], line


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_each_listed_route_deleted_then_added_back_restores_the_state(level, seed):
    """Re-entry: each line that ``ip route`` lists, on the healthy and on the broken state,
    given to ``ip route del`` and then to ``ip route add``, is a write each time, and the
    two leave the state with the digest it had, connected routes included."""
    _, truth = generate_routing_query(level, seed)
    for state in rebuild_states(truth):
        router, digest = state.router_name, state.state_digest()
        for line in exec_command(state, router, "ip route").output.splitlines():
            deleted = exec_command(state, router, f"ip route del {line}")
            added = exec_command(deleted.state, router, f"ip route add {line}")
            assert (deleted.kind, added.kind) == (WRITE, WRITE), (line, added.output)
            assert added.state.state_digest() == digest, line
