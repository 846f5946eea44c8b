"""Network topologies with deterministic routing (Table 5, §9.6).

The paper's default machine is a 128-node leaf-spine network: 8 racks
of 16 nodes, every node attached to a Top-of-Rack (ToR) switch, ToRs
fully connected to a layer of spine switches (Figure 11).  §9.6 also
evaluates a 4x4x2 HyperX and a 4-group Dragonfly with the same
bisection bandwidth.

All topologies expose the same interface:

- ``route(src, dst)``   — the deterministic sequence of link ids a
  packet traverses between two *hosts*.
- ``rack_of``           — the ToR/group a host hangs off (the property
  cache domain).
- ``flow_loads``        — per-link byte loads of a list of
  (pair, bytes) flows.
- ``one_way_latency``   — zero-load latency along a route, from the
  paper's 450 ns/link + 300 ns/switch model (giving the quoted
  2.4 µs intra-rack and 5.4 µs inter-rack RTTs on leaf-spine).

Latency units are seconds; bandwidth is bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["Link", "Topology", "LeafSpine", "HyperX", "Dragonfly"]

#: Table 5 constants.
LINK_BANDWIDTH_BPS = 400e9               # 400 Gbps per link
LINK_BANDWIDTH_BYTES = LINK_BANDWIDTH_BPS / 8
LINK_LATENCY_S = 450e-9                  # one-way per network link
SWITCH_LATENCY_S = 300e-9                # per switch traversal


@dataclass
class Link:
    """A directed link in the fabric."""

    link_id: int
    src: str
    dst: str
    kind: str                     # "host" | "tor" | "spine" | "local" | "global"
    bandwidth: float = LINK_BANDWIDTH_BYTES
    latency: float = LINK_LATENCY_S


class Topology:
    """Base class: host attachment, link table, routing, load accounting."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.links: List[Link] = []
        self._link_index: Dict[Tuple[str, str], int] = {}
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self._pair_link_cache: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}

    # -- construction helpers -----------------------------------------

    def _add_link(self, src: str, dst: str, kind: str,
                  bandwidth: float = LINK_BANDWIDTH_BYTES) -> int:
        key = (src, dst)
        if key in self._link_index:
            return self._link_index[key]
        link = Link(len(self.links), src, dst, kind, bandwidth)
        self.links.append(link)
        self._link_index[key] = link.link_id
        return link.link_id

    def _add_bidir(self, a: str, b: str, kind: str,
                   bandwidth: float = LINK_BANDWIDTH_BYTES) -> None:
        self._add_link(a, b, kind, bandwidth)
        self._add_link(b, a, kind, bandwidth)

    def _link(self, src: str, dst: str) -> int:
        try:
            return self._link_index[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst} in {type(self).__name__}") from None

    # -- interface ------------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.links)

    def rack_of(self, node: int) -> int:
        """The cache/sharing domain (ToR switch or group) of a host."""
        raise NotImplementedError

    def _route_uncached(self, src: int, dst: int) -> List[int]:
        raise NotImplementedError

    def route(self, src: int, dst: int) -> List[int]:
        """Link ids traversed from host ``src`` to host ``dst``."""
        if src == dst:
            return []
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"host out of range: {src}, {dst}")
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self._route_uncached(src, dst)
            self._route_cache[key] = cached
        return cached

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def one_way_latency(self, src: int, dst: int) -> float:
        """Zero-load latency: per-link wire time + per-switch time.

        Every link except the last terminates at a switch.
        """
        hops = self.hop_count(src, dst)
        if hops == 0:
            return 0.0
        return hops * LINK_LATENCY_S + (hops - 1) * SWITCH_LATENCY_S

    def rtt(self, src: int, dst: int) -> float:
        return self.one_way_latency(src, dst) + self.one_way_latency(dst, src)

    def pair_links(self, pairs: np.ndarray,
                   fabric_only: bool = False) -> np.ndarray:
        """The links of each host pair ``src * n_nodes + dst`` in
        ``pairs``: one row per pair, in route order, padded with -1.

        ``fabric_only`` drops each route's first and last link, the two
        host links.  Like the route cache, the per-instance table behind
        this fills a pair's row on first use, so a fabric pays only for
        the pairs its traffic uses.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        table, known = self._pair_link_cache.get(fabric_only, (None, None))
        if table is None:
            # The narrowest signed type that holds every link id and -1.
            dtype = np.min_scalar_type(-self.n_links)
            table = np.full((self.n_nodes ** 2, 0), -1, dtype=dtype)
            known = np.zeros(self.n_nodes ** 2, dtype=bool)
        new = np.unique(pairs[~known[pairs]])
        if new.size:
            routes = [self.route(*divmod(p, self.n_nodes))
                      for p in new.tolist()]
            if fabric_only:
                routes = [r[1:-1] for r in routes]
            # Fill a copy and publish it whole, so a concurrent reader
            # never sees a row marked known before it is written.
            width = max(table.shape[1], *map(len, routes))
            grown = np.full((known.size, width), -1, dtype=table.dtype)
            grown[:, :table.shape[1]] = table
            for p, route in zip(new.tolist(), routes):
                grown[p, :len(route)] = route
            known = known.copy()
            known[new] = True
            table = grown
            self._pair_link_cache[fabric_only] = (table, known)
        return table[pairs]

    def flow_loads(self, pairs: np.ndarray, nbytes: np.ndarray,
                   fabric_only: bool = False) -> np.ndarray:
        """Per-link byte loads of flows ``pairs`` (``src * n_nodes +
        dst``) carrying ``nbytes`` each.

        Each link's load is summed in flow order, then route order —
        the order of a loop that adds every flow onto its route's links
        — so the float sums match that loop bit for bit.
        """
        rows = self.pair_links(pairs, fabric_only)
        on_route = rows >= 0
        nbytes = np.broadcast_to(np.asarray(nbytes)[:, None], rows.shape)
        # (bincount returns ints for no input, weights or not.)
        return np.bincount(rows[on_route], weights=nbytes[on_route],
                           minlength=self.n_links).astype(float, copy=False)

    def diameter_hops(self) -> int:
        """Maximum host-to-host hop count (sampled exactly: all pairs)."""
        worst = 0
        for s in range(self.n_nodes):
            for d in range(self.n_nodes):
                if s != d:
                    worst = max(worst, self.hop_count(s, d))
        return worst

    def to_networkx(self):
        """Undirected graph view for structural validation in tests."""
        import networkx as nx

        g = nx.Graph()
        for link in self.links:
            g.add_edge(link.src, link.dst, kind=link.kind)
        return g


class LeafSpine(Topology):
    """The paper's default: racks of hosts under ToRs, ToRs x spines.

    Deterministic routing picks the spine by a (src, dst) hash —
    the fixed per-flow ECMP choice real fabrics make.
    """

    def __init__(
        self,
        n_racks: int = 8,
        nodes_per_rack: int = 16,
        n_spines: int = 8,
        link_bandwidth: float = LINK_BANDWIDTH_BYTES,
    ):
        super().__init__(n_racks * nodes_per_rack)
        self.n_racks = n_racks
        self.nodes_per_rack = nodes_per_rack
        self.n_spines = n_spines
        for node in range(self.n_nodes):
            tor = f"tor{node // nodes_per_rack}"
            self._add_bidir(f"h{node}", tor, "host", link_bandwidth)
        for r in range(n_racks):
            for s in range(n_spines):
                self._add_bidir(f"tor{r}", f"spine{s}", "spine", link_bandwidth)

    def rack_of(self, node: int) -> int:
        return node // self.nodes_per_rack

    def tor_name(self, rack: int) -> str:
        return f"tor{rack}"

    def _route_uncached(self, src: int, dst: int) -> List[int]:
        src_rack, dst_rack = self.rack_of(src), self.rack_of(dst)
        if src_rack == dst_rack:
            return [
                self._link(f"h{src}", f"tor{src_rack}"),
                self._link(f"tor{src_rack}", f"h{dst}"),
            ]
        spine = (src * 131 + dst * 31) % self.n_spines
        return [
            self._link(f"h{src}", f"tor{src_rack}"),
            self._link(f"tor{src_rack}", f"spine{spine}"),
            self._link(f"spine{spine}", f"tor{dst_rack}"),
            self._link(f"tor{dst_rack}", f"h{dst}"),
        ]


class HyperX(Topology):
    """HyperX: switches on a grid, all-to-all connected per dimension.

    §9.6 uses a 3D 4x4x2 arrangement (32 switches), 4 hosts per switch
    and a trunking width of 4 links per switch pair in every dimension;
    we model trunking as a bandwidth multiplier on the cross-switch
    links.  Routing is dimension-ordered (one hop corrects one
    coordinate, since each dimension is fully connected).
    """

    def __init__(
        self,
        shape: Sequence[int] = (4, 4, 2),
        hosts_per_switch: int = 4,
        width: int = 4,
        link_bandwidth: float = LINK_BANDWIDTH_BYTES,
    ):
        self.shape = tuple(shape)
        self.hosts_per_switch = hosts_per_switch
        n_switches = int(np.prod(self.shape))
        super().__init__(n_switches * hosts_per_switch)
        self.n_switches = n_switches
        trunk_bw = link_bandwidth * width

        coords = [
            tuple(idx)
            for idx in np.ndindex(*self.shape)  # lexicographic switch order
        ]
        self._coords = coords
        self._switch_of_coord = {c: i for i, c in enumerate(coords)}

        for node in range(self.n_nodes):
            sw = node // hosts_per_switch
            self._add_bidir(f"h{node}", f"sw{sw}", "host", link_bandwidth)
        for dim in range(len(self.shape)):
            for i, ci in enumerate(coords):
                for j, cj in enumerate(coords):
                    if i < j and self._differ_only_in(ci, cj, dim):
                        self._add_bidir(f"sw{i}", f"sw{j}", "local", trunk_bw)

    @staticmethod
    def _differ_only_in(a: Tuple[int, ...], b: Tuple[int, ...], dim: int) -> bool:
        return a[dim] != b[dim] and all(
            x == y for k, (x, y) in enumerate(zip(a, b)) if k != dim
        )

    def switch_of(self, node: int) -> int:
        return node // self.hosts_per_switch

    def rack_of(self, node: int) -> int:
        return self.switch_of(node)

    def _route_uncached(self, src: int, dst: int) -> List[int]:
        s_sw, d_sw = self.switch_of(src), self.switch_of(dst)
        links = [self._link(f"h{src}", f"sw{s_sw}")]
        cur = list(self._coords[s_sw])
        target = self._coords[d_sw]
        for dim in range(len(self.shape)):
            if cur[dim] != target[dim]:
                nxt = list(cur)
                nxt[dim] = target[dim]
                a = self._switch_of_coord[tuple(cur)]
                b = self._switch_of_coord[tuple(nxt)]
                links.append(self._link(f"sw{a}", f"sw{b}"))
                cur = nxt
        links.append(self._link(f"sw{d_sw}", f"h{dst}"))
        return links


class Dragonfly(Topology):
    """Dragonfly with minimal routing (§9.6).

    Groups of switches are internally all-to-all; each ordered group
    pair is joined by ``global_link_count`` parallel global links,
    spread over distinct switches of the group.  Minimal routing:
    local hop to the gateway switch, one global hop, local hop to the
    destination switch.
    """

    def __init__(
        self,
        n_groups: int = 4,
        switches_per_group: int = 8,
        hosts_per_switch: int = 4,
        global_link_count: int = 4,
        link_bandwidth: float = LINK_BANDWIDTH_BYTES,
    ):
        n_switches = n_groups * switches_per_group
        super().__init__(n_switches * hosts_per_switch)
        self.n_groups = n_groups
        self.switches_per_group = switches_per_group
        self.hosts_per_switch = hosts_per_switch
        self.global_link_count = global_link_count

        for node in range(self.n_nodes):
            sw = node // hosts_per_switch
            self._add_bidir(f"h{node}", f"sw{sw}", "host", link_bandwidth)
        for g in range(n_groups):
            base = g * switches_per_group
            for a in range(switches_per_group):
                for b in range(a + 1, switches_per_group):
                    self._add_bidir(f"sw{base+a}", f"sw{base+b}", "local",
                                    link_bandwidth)
        # Gateways: the k-th global link between groups (g1, g2) lands on
        # switch (g2 + k) % S of g1 and (g1 + k) % S of g2.
        self._gateway: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        for g1 in range(n_groups):
            for g2 in range(g1 + 1, n_groups):
                for k in range(global_link_count):
                    sw1 = g1 * switches_per_group + (g2 + k) % switches_per_group
                    sw2 = g2 * switches_per_group + (g1 + k) % switches_per_group
                    self._add_bidir(f"sw{sw1}", f"sw{sw2}", "global",
                                    link_bandwidth)
                    self._gateway[(g1, g2, k)] = (sw1, sw2)
                    self._gateway[(g2, g1, k)] = (sw2, sw1)

    def switch_of(self, node: int) -> int:
        return node // self.hosts_per_switch

    def group_of(self, node: int) -> int:
        return self.switch_of(node) // self.switches_per_group

    def rack_of(self, node: int) -> int:
        """The sharing domain of a dragonfly host is its *group*."""
        return self.group_of(node)

    def _route_uncached(self, src: int, dst: int) -> List[int]:
        s_sw, d_sw = self.switch_of(src), self.switch_of(dst)
        links = [self._link(f"h{src}", f"sw{s_sw}")]
        g1, g2 = self.group_of(src), self.group_of(dst)
        if g1 == g2:
            if s_sw != d_sw:
                links.append(self._link(f"sw{s_sw}", f"sw{d_sw}"))
        else:
            k = (src * 131 + dst * 31) % self.global_link_count
            gw1, gw2 = self._gateway[(g1, g2, k)]
            if s_sw != gw1:
                links.append(self._link(f"sw{s_sw}", f"sw{gw1}"))
            links.append(self._link(f"sw{gw1}", f"sw{gw2}"))
            if gw2 != d_sw:
                links.append(self._link(f"sw{gw2}", f"sw{d_sw}"))
        links.append(self._link(f"sw{d_sw}", f"h{dst}"))
        return links
