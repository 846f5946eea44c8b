"""DES host NIC: RIG Units + concatenators + (de)packetization.

Mirrors Figure 4: client RIG Units generate read PRs for remote idxs
(sharing the node's Idx Filter), a destination solver maps each idx to
its owner node, a delay-queue concatenator packs same-destination PRs,
and the Tx side pushes packets onto the host uplink.  The Rx side
deconcatenates arriving packets, steering read PRs to the server unit
and response PRs to the requesting client unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config import NetSparseConfig
from repro.core.concat import DelayQueueConcatenator
from repro.core.rig import ReadPR, ResponsePR, RigClientUnit, RigServerUnit
from repro.dessim.components import NetPacket, SerialLink
from repro.sim import Simulator, Store

__all__ = ["DesHostNic"]


class DesHostNic:
    """One node's SmartNIC with NetSparse extensions."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        col_owner: np.ndarray,
        payload_bytes: int,
        config: NetSparseConfig,
        n_client_units: int = 1,
        concat_delay: Optional[float] = None,
        enable_concat: bool = True,
    ):
        self.sim = sim
        self.node = node
        self.col_owner = col_owner
        self.payload_bytes = payload_bytes
        self.config = config
        self.rx = Store(sim, name=f"nic{node}.rx")       # fed by the ToR link
        self.uplink: Optional[SerialLink] = None          # set by the cluster

        self.idx_filter = set()
        self._client_tx = Store(sim, name=f"nic{node}.ctx")
        self._server_rx = Store(sim, name=f"nic{node}.srx")
        self._server_tx = Store(sim, name=f"nic{node}.stx")
        self.clients: List[RigClientUnit] = []
        self._client_rx: Dict[int, Store] = {}
        for u in range(n_client_units):
            rx = Store(sim, name=f"nic{node}.crx{u}")
            unit = RigClientUnit(
                sim,
                unit_id=u,
                node=node,
                tx_queue=self._client_tx,
                rx_queue=rx,
                idx_filter=self.idx_filter,
                freq=config.snic_freq,
                pending_entries=config.pending_pr_entries,
                dma_latency=config.pcie_latency,
            )
            self.clients.append(unit)
            self._client_rx[u] = rx
        self.server = RigServerUnit(
            sim,
            unit_id=1000 + node,
            node=node,
            rx_queue=self._server_rx,
            tx_queue=self._server_tx,
            payload_bytes=payload_bytes,
            freq=config.snic_freq,
        )

        if concat_delay is None:
            concat_delay = config.concat_delay_cycles_nic / config.snic_freq
        max_read = config.max_prs_per_packet(0) if enable_concat else 1
        max_resp = (
            config.max_prs_per_packet(payload_bytes) if enable_concat else 1
        )
        self._concat_read = DelayQueueConcatenator(
            sim, max_read, concat_delay, self._emit_read
        )
        self._concat_resp = DelayQueueConcatenator(
            sim, max_resp, concat_delay, self._emit_response
        )
        sim.process(self._tx_client_loop(), name=f"nic{node}.ctxloop")
        sim.process(self._tx_server_loop(), name=f"nic{node}.stxloop")
        sim.process(self._rx_loop(), name=f"nic{node}.rxloop")

    # -- Tx path -------------------------------------------------------

    def _tx_client_loop(self):
        while True:
            pr: ReadPR = yield self._client_tx.get()
            dest = int(self.col_owner[pr.idx])   # the Destination Solver
            self._concat_read.push(pr, dest, "read")

    def _tx_server_loop(self):
        while True:
            pr: ResponsePR = yield self._server_tx.get()
            self._concat_resp.push(pr, pr.dst_node, "response")

    def _emit_read(self, prs, dest, pr_type):
        self._inject(NetPacket("read", self.node, dest, list(prs), 0))

    def _emit_response(self, prs, dest, pr_type):
        self._inject(
            NetPacket("response", self.node, dest, list(prs),
                      self.payload_bytes)
        )

    def _inject(self, packet: NetPacket):
        if self.uplink is None:
            raise RuntimeError("NIC not wired to a ToR uplink")
        self.sim.process(self._send(packet))

    def _send(self, packet: NetPacket):
        yield self.uplink.send(packet)

    # -- Rx path -------------------------------------------------------

    def _rx_loop(self):
        while True:
            packet: NetPacket = yield self.rx.get()
            for pr in packet.prs:   # deconcatenation
                if packet.pr_type == "read":
                    yield self._server_rx.put(pr)
                else:
                    rx = self._client_rx.get(pr.dst_tid)
                    if rx is None:
                        raise RuntimeError(
                            f"response for unknown unit {pr.dst_tid} "
                            f"at node {self.node}"
                        )
                    yield rx.put(pr)

    # -- driving ---------------------------------------------------------

    def execute_gather(self, idxs) -> List:
        """Launch the node's remote gather, round-robin over client units.

        Returns the completion events (one per unit).
        """
        if self.uplink is None:
            raise RuntimeError("NIC not wired to a ToR uplink")
        idxs = list(idxs)
        n = len(self.clients)
        chunks = [idxs[i::n] for i in range(n)]
        return [
            unit.execute(chunk)
            for unit, chunk in zip(self.clients, chunks)
            if chunk
        ]

    def flush(self):
        self._concat_read.flush()
        self._concat_resp.flush()

    @property
    def received_idxs(self) -> List[int]:
        out = []
        for unit in self.clients:
            out.extend(unit.received_idxs)
        return out

    @property
    def stats_issued(self) -> int:
        return sum(u.stats_issued for u in self.clients)

    @property
    def stats_dropped(self) -> int:
        return sum(u.stats_filtered + u.stats_coalesced for u in self.clients)
