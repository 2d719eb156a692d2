import re

import pytest

from netbench.core.reactive import INVALID, inject, replay
from netbench.errors import CorruptGroundTruth
from netbench.routing.commands import delete_prohibit, delete_rule, exec_command, set_delay
from netbench.routing.inject import Write
from netbench.routing.state import FilterRule, build_topology

STATE = build_topology(2, 2)
ABSENT = [  # built-in writes that delete what the state lacks
    Write(delete_rule, (("rule", FilterRule("FORWARD", "DROP")),), "r0",
          "iptables -D FORWARD -j DROP"),
    Write(delete_prohibit, (("spec", "from all"),), "r0", "ip rule del prohibit from all"),
]
DELAY = Write(set_delay, (("iface", "r0-eth1"), ("ms", 20_000), ("exclusive", True)), "r0",
              "tc qdisc add dev r0-eth1 root netem delay 20000ms")


@pytest.mark.parametrize("write", ABSENT, ids=lambda w: w.command)
def test_replay_makes_a_rejected_write_the_invalid_turn_the_interpreter_makes(write):
    outcome = replay(STATE, write)
    assert outcome.kind == INVALID and outcome.state is STATE
    assert outcome == exec_command(STATE, *write.render())


@pytest.mark.parametrize("writes", [[ABSENT[0]], [ABSENT[1]], [DELAY, DELAY]],
                         ids=["absent rule", "absent prohibit", "delay added twice"])
def test_inject_raises_when_a_write_is_rejected(writes):
    message = f"not accepted as a write: {writes[-1].command!r}"
    with pytest.raises(CorruptGroundTruth, match=re.escape(message)):
        inject(STATE, writes)
