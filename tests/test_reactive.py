import pytest

from netbench.core.reactive import replay
from netbench.errors import CorruptGroundTruth
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import default_policies
from netbench.routing.commands import exec_command
from netbench.routing.state import build_topology


@pytest.mark.parametrize("command", ["ifconfig nosuch0 down", "ip route show", "vtysh"])
def test_replay_raises_when_a_routing_command_is_not_a_write(command):
    state = build_topology(2, 2)
    with pytest.raises(CorruptGroundTruth, match="not accepted as a write"):
        replay(state, [(state.router_name, command)], exec_command)


@pytest.mark.parametrize("command", ["kubectl delete networkpolicy nosuch",
                                     "kubectl get networkpolicy", "kubectl frobnicate"])
def test_replay_raises_when_a_kubectl_command_is_not_a_write(command):
    with pytest.raises(CorruptGroundTruth, match="not accepted as a write"):
        replay(default_policies(), [("master", command)],
               lambda policies, machine, command: exec_kubectl(policies, command))
