"""Every built-in injection that generation can make, for the tests that enumerate them."""

from netbench.core.types import ActionSpec
from netbench.errors import MethodOutOfRange
from netbench.k8spolicy.inject import TARGETS, build_mutation
from netbench.k8spolicy.model import SERVICES
from netbench.routing.inject import BAD_MASKS, FAMILY_METHODS, NEEDS_AUX, build_fault, \
    fault_action


def routing_faults(state):
    """Every fault that generation can sample on ``state``."""
    subnets = range(1, state.num_switches + 1)
    for family, methods in FAMILY_METHODS.items():
        for method in range(1, methods + 1):
            for subnet in subnets:
                if (family, method) in NEEDS_AUX:
                    auxes = [s for s in subnets if s != subnet]
                else:
                    auxes = range(len(BAD_MASKS)) if (family, method) == ("RI", 3) else [0]
                for aux in auxes:
                    yield build_fault(state, fault_action(family, method, subnet, aux))


def k8s_mutations() -> list:
    """Every mutation ``build_mutation`` can make."""
    mutations = []
    for family, targets in TARGETS.items():
        for target in targets:
            for param in [*SERVICES, ""]:
                try:
                    mutations.append(build_mutation(ActionSpec(family, (target, param))))
                except MethodOutOfRange:
                    continue
    return mutations
