#!/usr/bin/env python
"""Low-level tour: the gory one-sided API and the raw vDMA controller.

Two demonstrations below the send/recv abstraction:

1. **gory layer** — one-sided put/get plus flag synchronization between
   two cores of one device, the style of "applications where a high
   predictability is essential" (§2.2).
2. **vDMA controller** — programming the host's virtual DMA engine
   directly through its three memory-mapped registers (address, count,
   control; §3.3 / Fig 5) to move a buffer between two devices while
   the core spins on its completion flag.

Run:  python examples/gory_vdma.py
"""

import numpy as np

from repro import CommScheme, VSCCSystem
from repro.host.mmio import REG_VDMA_ADDR, REG_VDMA_COUNT, REG_VDMA_CTRL
from repro.host.vdma import VdmaCommand
from repro.rcce import RcceOptions
from repro.rcce.flags import SLOT_APP0
from repro.scc.mpb import MpbAddr


def gory_demo(system: VSCCSystem) -> None:
    print("=== gory one-sided API (on-chip) ===")
    got = {}

    def program(comm):
        # RCCE_malloc is collective and symmetric: both ranks perform
        # the same allocation sequence, so the offsets line up.
        flag_off = comm.gory.flag_alloc()
        buf_off = comm.malloc(256)
        if comm.rank == 0:
            yield from comm.gory.put(b"one-sided payload".ljust(256), 1, buf_off)
            yield from comm.gory.flag_write(1, flag_off, 1)
        elif comm.rank == 1:
            yield from comm.gory.wait_until(flag_off, 1)
            data = yield from comm.gory.get(1, buf_off, 17)
            got["data"] = bytes(data)

    system.run(program, ranks=[0, 1])
    print(f"rank 1 pulled via gory get: {got['data']!r}")
    assert got["data"] == b"one-sided payload"


def vdma_demo(system: VSCCSystem) -> None:
    print("\n=== raw vDMA programming (cross-device) ===")
    params = system.params
    payload = (np.arange(2048) % 251).astype(np.uint8)
    state = {}

    def sender(comm):
        env = comm.env
        # 1. local put: stage the payload in my own MPB
        yield from env.mpb_write(env.local_addr(0), payload)
        # 2. program the vDMA controller: three registers in one
        #    32 B-aligned block, fused by the WCB into one transaction
        done_flag = comm.flags.misc(comm.rank, SLOT_APP0)
        command = VdmaCommand(
            dst=MpbAddr(1, 0, 0),
            completion_flag=done_flag,
            completion_value=7,
        )
        yield from env.device.fabric.mmio_write(
            env,
            [(REG_VDMA_ADDR, 0), (REG_VDMA_COUNT, len(payload)), (REG_VDMA_CTRL, command)],
            fused=True,
        )
        # 3. spin on the completion flag in my own on-chip memory (§3.3)
        t0 = env.sim.now
        yield from env.wait_flag(done_flag, 7)
        state["spin_us"] = (env.sim.now - t0) / 1000.0

    system2 = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    system2.run(sender, ranks=[0])
    copied = system2.devices[1].mpb.read(MpbAddr(1, 0, 0), len(payload))
    print(f"2048 B copied device 0 -> device 1 by the vDMA engine: "
          f"intact={bool((copied == payload).all())}")
    print(f"sender spun on its completion flag for {state['spin_us']:.1f} us")
    assert (copied == payload).all()


def main() -> None:
    system = VSCCSystem(
        num_devices=2,
        scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        options=RcceOptions(user_mpb_bytes=512),
    )
    gory_demo(system)
    vdma_demo(system)


if __name__ == "__main__":
    main()
