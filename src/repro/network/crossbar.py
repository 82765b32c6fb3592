"""Event-delivery crossbar (paper Section IV-E).

"The processor-to-queue network is a 16x16 crossbar with 16 processors
multiplexed into one crossbar port."  Events are fixed-size, dataflow is
unidirectional, and delays from conflicts are tolerated — exactly the
situation the next-free-cycle model captures: each input port accepts
one event per cycle (the multiplexer), each output port delivers one
event per cycle, and a transfer pays a fixed traversal latency on top.

:meth:`Crossbar.send_many` routes a batch whose send cycles are all
known: the input ports' chains depend only on the send cycles and the
output ports' only on the input starts, so the batch runs as two
:meth:`Resource.acquire_many` calls, each in call order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..obs import probe
from ..obs import trace as obs_trace
from ..sim.kernel import Resource
from ..sim.stats import StatSet

__all__ = ["Crossbar"]


class Crossbar:
    """``num_ports`` x ``num_ports`` crossbar with port multiplexing."""

    def __init__(
        self,
        name: str,
        *,
        num_ports: int = 16,
        sources_per_port: int = 16,
        traversal_cycles: int = 2,
    ):
        if num_ports < 1:
            raise ValueError("num_ports must be >= 1")
        if sources_per_port < 1:
            raise ValueError("sources_per_port must be >= 1")
        self.name = name
        self.num_ports = num_ports
        self.sources_per_port = sources_per_port
        self.traversal_cycles = traversal_cycles
        self._inputs: List[Resource] = [
            Resource(f"{name}.in{p}") for p in range(num_ports)
        ]
        self._outputs: List[Resource] = [
            Resource(f"{name}.out{p}") for p in range(num_ports)
        ]
        self.stats = StatSet(name)

    def input_port_of(self, source: int) -> int:
        """Input port a source (e.g. generation stream) is muxed onto."""
        return (source // self.sources_per_port) % self.num_ports

    def send(self, source: int, dest_port: int, at: int) -> int:
        """Send one event; returns delivery cycle at the destination.

        The event serializes on its muxed input port, traverses the
        switch, then serializes on the destination output port.
        """
        if not 0 <= dest_port < self.num_ports:
            raise ValueError(f"dest_port {dest_port} out of range")
        in_start = self._inputs[self.input_port_of(source)].acquire(at, 1)
        arrival = in_start + self.traversal_cycles
        out_start = self._outputs[dest_port].acquire(arrival, 1)
        self.stats.add("events")
        wait = (in_start - at) + (out_start - arrival)
        self.stats.add("wait_cycles", wait)
        if obs_trace.ACTIVE is not None:
            probe.xbar_send(
                self.name, source, dest_port, in_start, out_start + 1, wait=wait
            )
        return out_start + 1

    def send_many(
        self, sources: np.ndarray, dest_ports: np.ndarray, at: np.ndarray
    ) -> np.ndarray:
        """:meth:`send` for int64 columns, in call order.

        Returns the delivery cycles.  Ports, port statistics and the
        crossbar's ``events``/``wait_cycles`` end as after the scalar
        sends.  No probes are emitted: a traced caller uses :meth:`send`.
        """
        if not len(at):
            return np.zeros(0, dtype=np.int64)
        if not (
            0 <= int(dest_ports.min()) and int(dest_ports.max()) < self.num_ports
        ):
            raise ValueError("dest_port out of range")
        in_ports = (sources // self.sources_per_port) % self.num_ports
        in_start = Resource.acquire_many(self._inputs, in_ports, at, 1)
        arrival = in_start + self.traversal_cycles
        out_start = Resource.acquire_many(self._outputs, dest_ports, arrival, 1)
        self.stats.add("events", len(at))
        self.stats.add(
            "wait_cycles", int((in_start - at).sum() + (out_start - arrival).sum())
        )
        return out_start + 1

    def output_utilization(self, horizon: int) -> float:
        """Mean output-port busy fraction over ``horizon`` cycles."""
        if horizon <= 0:
            return 0.0
        busy = sum(p.stats.get("busy_cycles") for p in self._outputs)
        return min(busy / (horizon * self.num_ports), 1.0)
