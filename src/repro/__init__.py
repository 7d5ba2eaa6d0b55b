"""vSCC reproduction: effective communication for a system of
cluster-on-a-chip processors (Reble et al., PMAM'15).

The package layers exactly like the paper's system:

* :mod:`repro.sim`   — discrete-event kernel everything runs on,
* :mod:`repro.scc`   — the simulated Intel SCC device,
* :mod:`repro.host`  — PCIe, driver, and the communication task,
* :mod:`repro.rcce`  — the RCCE communication library,
* :mod:`repro.ircce` — iRCCE non-blocking / pipelined extensions,
* :mod:`repro.vscc`  — the multi-device vSCC system and its schemes,
* :mod:`repro.apps`  — ping-pong, NPB BT, traffic analysis,
* :mod:`repro.obs`   — metrics registry and Chrome-trace export,
* :mod:`repro.bench` — harness regenerating the paper's figures.

Quickstart::

    from repro import VSCCSystem, CommScheme

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"hello vSCC", dest=48)
        elif comm.rank == 48:
            print(bytes((yield from comm.recv(10, src=0))))

    VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA).run(program)
"""

from .host import Host, HostParams, PCIeParams
from .rcce import RankLayout, Rcce, RcceOptions, SccConfigFile
from .scc import CACHE_LINE, MpbAddr, SCCDevice, SCCParams
from .sim import Simulator
from .vscc import CommScheme, RunResult, VSCCSystem, VsccTopology

__version__ = "1.2.0"

__all__ = [
    "CACHE_LINE",
    "CommScheme",
    "Host",
    "HostParams",
    "MpbAddr",
    "PCIeParams",
    "RankLayout",
    "Rcce",
    "RcceOptions",
    "RunResult",
    "SCCDevice",
    "SCCParams",
    "SccConfigFile",
    "Simulator",
    "VSCCSystem",
    "VsccTopology",
    "__version__",
]
