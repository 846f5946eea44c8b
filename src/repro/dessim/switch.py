"""DES switches: NetSparse ToR with middle pipes, and plain spines.

The ToR implements the §6.2.1 packet algorithm exactly:

- an arriving **read** packet is deconcatenated and every PR looks up
  the Property Cache; a hit turns the PR into a response PR whose
  destination is the original requester; hits and misses alike then go
  through a concatenation step toward their (possibly new) output.
- an arriving **response** packet is deconcatenated and every PR
  deposits its property in the cache unless already present, then
  re-concatenates toward its destination.

Spines are plain crossbars (no NetSparse extensions — Table 5:
"NetSparse extensions only in ToR switches").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import NetSparseConfig
from repro.core.concat import DelayQueueConcatenator
from repro.core.pcache import PropertyCache
from repro.core.rig import ResponsePR
from repro.dessim.components import NetPacket, SerialLink
from repro.network.topology import SWITCH_LATENCY_S
from repro.sim import Simulator, Store

__all__ = ["DesToR", "DesSpine"]


class DesToR:
    """A NetSparse Top-of-Rack switch for one rack of hosts."""

    def __init__(
        self,
        sim: Simulator,
        rack: int,
        hosts: List[int],
        payload_bytes: int,
        config: NetSparseConfig,
        rack_of: Callable[[int], int],
        enable_cache: bool = True,
        enable_concat: bool = True,
        concat_delay: Optional[float] = None,
        cache_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.rack = rack
        self.hosts = list(hosts)
        self.payload_bytes = payload_bytes
        self.config = config
        self.rack_of = rack_of
        self.rx = Store(sim, name=f"tor{rack}.rx")
        #: dst host -> downlink; spine choice -> uplink (set by cluster)
        self.host_links: Dict[int, SerialLink] = {}
        self.spine_links: List[SerialLink] = []

        self.enable_cache = enable_cache
        self.cache: Optional[PropertyCache] = None
        if enable_cache:
            self.cache = PropertyCache(
                capacity_bytes=(
                    cache_bytes if cache_bytes is not None
                    else config.pcache_bytes
                ),
                ways=config.pcache_ways,
                n_segments=config.pcache_segments,
                segment_bytes=config.pcache_min_line,
            )
            self.cache.configure(max(payload_bytes, 1))

        if concat_delay is None:
            concat_delay = (
                config.concat_delay_cycles_switch / config.switch_freq
            )
        max_read = config.max_prs_per_packet(0) if enable_concat else 1
        max_resp = (
            config.max_prs_per_packet(payload_bytes) if enable_concat else 1
        )
        self._concat = {
            "read": DelayQueueConcatenator(sim, max_read, concat_delay,
                                           self._emit),
            "response": DelayQueueConcatenator(sim, max_resp, concat_delay,
                                               self._emit),
        }
        self.stats_turnaround = 0      # read PRs answered from the cache
        sim.process(self._run(), name=f"tor{rack}")

    # -- middle pipe ------------------------------------------------------

    def _run(self):
        while True:
            packet: NetPacket = yield self.rx.get()
            yield self.sim.timeout(SWITCH_LATENCY_S)
            if packet.pr_type == "read":
                self._handle_read(packet)
            else:
                self._handle_response(packet)

    def _handle_read(self, packet: NetPacket):
        for pr in packet.prs:          # deconcatenate
            if self.cache is not None and self.cache.lookup(pr.idx):
                # Hit: the read becomes a response to its requester.
                resp = ResponsePR(
                    idx=pr.idx,
                    dst_node=pr.src_node,
                    dst_tid=pr.src_tid,
                    request_id=pr.request_id,
                    payload_bytes=self.payload_bytes,
                )
                self.stats_turnaround += 1
                self._concat["response"].push(resp, resp.dst_node, "response")
            else:
                self._concat["read"].push(pr, packet.dst_node, "read")

    def _handle_response(self, packet: NetPacket):
        for pr in packet.prs:
            if self.cache is not None and not self.cache.contains(pr.idx):
                self.cache.insert(pr.idx)
            self._concat["response"].push(pr, packet.dst_node, "response")

    # -- egress ------------------------------------------------------------

    def _emit(self, prs, dest, pr_type):
        payload = self.payload_bytes if pr_type == "response" else 0
        packet = NetPacket(pr_type, -1, dest, list(prs), payload)
        self.sim.process(self._route(packet))

    def _route(self, packet: NetPacket):
        if self.rack_of(packet.dst_node) == self.rack:
            link = self.host_links[packet.dst_node]
        else:
            spine = packet.dst_node % max(len(self.spine_links), 1)
            link = self.spine_links[spine]
        yield link.send(packet)

    def flush(self):
        for cq in self._concat.values():
            cq.flush()


class DesSpine:
    """A spine switch: forwards packets to the destination rack's ToR."""

    def __init__(
        self,
        sim: Simulator,
        spine_id: int,
        rack_of: Callable[[int], int],
    ):
        self.sim = sim
        self.spine_id = spine_id
        self.rack_of = rack_of
        self.rx = Store(sim, name=f"spine{spine_id}.rx")
        self.tor_links: Dict[int, SerialLink] = {}   # rack -> downlink
        sim.process(self._run(), name=f"spine{spine_id}")

    def _run(self):
        while True:
            packet: NetPacket = yield self.rx.get()
            yield self.sim.timeout(SWITCH_LATENCY_S)
            rack = self.rack_of(packet.dst_node)
            yield self.tor_links[rack].send(packet)
