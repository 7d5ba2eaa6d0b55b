"""The timed phases of the collective scenarios measure one collective each."""

import pytest

from repro.scenarios import _collective_phases
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def phases_with(doubles: int, hierarchical: bool) -> dict:
    system = VSCCSystem(num_devices=1, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    phases = {}
    system.run(
        lambda comm: _collective_phases(
            comm, phases, doubles=doubles,
            group_size=system.num_ranks, hierarchical=hierarchical,
        )
    )
    return phases


@pytest.mark.parametrize("hierarchical", [False, True])
def test_barrier_time_does_not_depend_on_the_allreduce_payload(hierarchical):
    """The ranks a timed barrier releases first must not start the next
    timed phase while rank 0 is still releasing: its traffic would
    lengthen the barrier by an amount that grows with the payload."""
    small = phases_with(1, hierarchical)
    large = phases_with(64, hierarchical)
    assert small["barrier_ns"] == large["barrier_ns"]
    assert small["allreduce_ns"] < large["allreduce_ns"]
