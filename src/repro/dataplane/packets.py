"""Structure-of-arrays packet simulator: per-link ring buffers, no objects.

Every directed link owns a fixed-capacity FIFO ring buffer; a packet is a
*row slice* across four parallel ``(links, capacity)`` arrays (injecting
source, remaining TTL, birth slot, hops so far) — never a Python object.
One simulated slot transmits up to ``link_capacity`` packets from the head
of every live queue, delivers arrivals at the destination, decrements TTLs,
and re-enqueues the rest on their receiver's current next-hop link, all as
vectorised numpy batch operations.  A million packets per run is the design
point (see ``benchmarks/bench_dataplane.py``).

The simulator knows nothing about link reversal: forwarding reads a plain
``next_hop_link`` array that the owner (:class:`~repro.dataplane.run.
DataPlaneRun`) patches incrementally as the control plane rewrites the DAG.
That separation is what lets reversals, failures and packets interleave
mid-run while the conservation invariant

    injected == delivered + dropped + in_flight

holds after every slot, with ``dropped`` split by cause (queue-tail
overflow, TTL expiry, no current route, link failure flush).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


class PacketSimulator:
    """Slotted packet forwarding over per-directed-link ring buffers.

    Parameters
    ----------
    link_from, link_to:
        Parallel sequences defining the directed links by node id.
    n_nodes, destination:
        Node-id space and the (single) traffic sink.
    rates:
        Mean Poisson arrivals per node per slot (destination forced to 0).
    undirected_distance:
        Per-node undirected hop distance to the destination (``-1`` =
        unreachable); used for per-packet stretch at delivery time.
    queue_capacity:
        Ring-buffer depth per directed link; arrivals beyond it tail-drop.
    link_capacity:
        Packets transmitted per link per slot.
    ttl:
        Initial per-packet TTL in hops; expiry drops count separately so
        transient routing loops are visible even when packets escape them.
    burst_on:
        Per-slot Bernoulli gate probability for bursty arrivals (1.0 =
        always on); while on, nodes inject at ``rate / burst_on``.
    """

    def __init__(
        self,
        link_from: Sequence[int],
        link_to: Sequence[int],
        n_nodes: int,
        destination: int,
        rates: Sequence[float],
        undirected_distance: Sequence[int],
        queue_capacity: int = 64,
        link_capacity: int = 1,
        ttl: int = 64,
        burst_on: float = 1.0,
        seed: int = 0,
    ):
        if queue_capacity <= 0 or link_capacity <= 0 or ttl <= 0:
            raise ValueError("queue_capacity, link_capacity and ttl must be positive")
        self.link_from = np.asarray(link_from, dtype=np.int64)
        self.link_to = np.asarray(link_to, dtype=np.int64)
        self.n_links = int(self.link_from.shape[0])
        self.n_nodes = int(n_nodes)
        self.destination = int(destination)
        self.queue_capacity = int(queue_capacity)
        self.link_capacity = int(link_capacity)
        self.ttl = int(ttl)
        self.burst_on = float(burst_on)

        rates = np.asarray(rates, dtype=np.float64).copy()
        rates[self.destination] = 0.0
        self._rates = rates
        self._on_rates = rates / self.burst_on
        self._dist = np.asarray(undirected_distance, dtype=np.int64)
        self._rng = np.random.default_rng(seed)

        shape = (self.n_links, self.queue_capacity)
        self.q_src = np.zeros(shape, dtype=np.int64)
        self.q_ttl = np.zeros(shape, dtype=np.int64)
        self.q_birth = np.zeros(shape, dtype=np.int64)
        self.q_hops = np.zeros(shape, dtype=np.int64)
        self.q_head = np.zeros(self.n_links, dtype=np.int64)
        self.q_len = np.zeros(self.n_links, dtype=np.int64)
        self.link_alive = np.ones(self.n_links, dtype=bool)
        #: per node: directed link id of the current next hop, -1 when the
        #: node has no downhill neighbour.  Patched by the owner, read here.
        self.next_hop_link = np.full(self.n_nodes, -1, dtype=np.int64)

        self.now = 0
        self.injected = 0
        self.delivered = 0
        self.forwarded = 0
        self.drop_tail = 0
        self.drop_ttl = 0
        self.drop_no_route = 0
        self.drop_link_down = 0
        self.loop_bounces = 0
        self.peak_queue_depth = 0
        self.latency_total = 0.0
        self.latency_min = float("inf")
        self.latency_max = float("-inf")
        self.hops_total = 0
        self.stretch_total = 0.0
        self.stretch_count = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link."""
        return int(self.q_len.sum())

    @property
    def dropped_total(self) -> int:
        """All drops across causes."""
        return (
            self.drop_tail + self.drop_ttl + self.drop_no_route + self.drop_link_down
        )

    def conservation_ok(self) -> bool:
        """``injected == delivered + dropped + in_flight`` — must always hold."""
        return self.injected == self.delivered + self.dropped_total + self.in_flight

    # ------------------------------------------------------------------
    def set_next_hop_link(self, node: int, link_id: int) -> None:
        """Point ``node``'s forwarding at directed link ``link_id`` (-1 = none)."""
        self.next_hop_link[node] = link_id

    def kill_links(self, link_ids: Sequence[int]) -> int:
        """Mark directed links dead and flush their queues as failure drops."""
        ids = np.asarray(link_ids, dtype=np.int64)
        ids = ids[self.link_alive[ids]]
        if not ids.size:
            return 0
        flushed = int(self.q_len[ids].sum())
        self.drop_link_down += flushed
        self.q_len[ids] = 0
        self.q_head[ids] = 0
        self.link_alive[ids] = False
        return flushed

    # ------------------------------------------------------------------
    def inject_slot(self) -> int:
        """Draw this slot's Poisson arrivals and enqueue them at their sources."""
        if self.burst_on < 1.0:
            gate = self._rng.random(self.n_nodes) < self.burst_on
            lam = np.where(gate, self._on_rates, 0.0)
        else:
            lam = self._rates
        counts = self._rng.poisson(lam)
        total = int(counts.sum())
        if total == 0:
            return 0
        self.injected += total
        sources = np.repeat(np.arange(self.n_nodes, dtype=np.int64), counts)
        links = self.next_hop_link[sources]
        routed = links >= 0
        unrouted = total - int(routed.sum())
        if unrouted:
            self.drop_no_route += unrouted
        if routed.any():
            k = int(routed.sum())
            self._enqueue(
                links[routed],
                sources[routed],
                np.full(k, self.ttl, dtype=np.int64),
                np.full(k, self.now, dtype=np.int64),
                np.zeros(k, dtype=np.int64),
            )
        return total

    def step(self) -> int:
        """One slot: transmit up to ``link_capacity`` per link, process arrivals.

        Returns the number of packets transmitted this slot.
        """
        k = np.minimum(self.q_len, self.link_capacity)
        active = np.flatnonzero(k)
        sent = 0
        if active.size:
            k_active = k[active]
            parts_l = []
            parts_s = []
            for c in range(int(k_active.max())):
                lids = active[k_active > c]
                parts_l.append(lids)
                parts_s.append((self.q_head[lids] + c) % self.queue_capacity)
            l_all = np.concatenate(parts_l)
            s_all = np.concatenate(parts_s)
            self.q_head[active] = (self.q_head[active] + k_active) % self.queue_capacity
            self.q_len[active] -= k_active
            sent = int(l_all.size)
            self.forwarded += sent
            self._arrivals(l_all, s_all)
        self.now += 1
        if self.n_links:
            depth = int(self.q_len.max())
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
        return sent

    # ------------------------------------------------------------------
    def _arrivals(self, l_all, s_all) -> None:
        node = self.link_to[l_all]
        prev = self.link_from[l_all]
        src = self.q_src[l_all, s_all]
        ttl = self.q_ttl[l_all, s_all] - 1
        birth = self.q_birth[l_all, s_all]
        hops = self.q_hops[l_all, s_all] + 1

        at_dest = node == self.destination
        n_delivered = int(at_dest.sum())
        if n_delivered:
            self.delivered += n_delivered
            latency = self.now - birth[at_dest] + 1
            self.latency_total += float(latency.sum())
            lat_min = float(latency.min())
            lat_max = float(latency.max())
            if lat_min < self.latency_min:
                self.latency_min = lat_min
            if lat_max > self.latency_max:
                self.latency_max = lat_max
            delivered_hops = hops[at_dest]
            self.hops_total += int(delivered_hops.sum())
            dist = self._dist[src[at_dest]]
            valid = dist > 0
            n_valid = int(valid.sum())
            if n_valid:
                self.stretch_total += float(
                    (delivered_hops[valid] / dist[valid]).sum()
                )
                self.stretch_count += n_valid

        onward = ~at_dest
        expired = onward & (ttl <= 0)
        n_expired = int(expired.sum())
        if n_expired:
            self.drop_ttl += n_expired
        live = onward & (ttl > 0)
        if live.any():
            next_links = self.next_hop_link[node[live]]
            routed = next_links >= 0
            n_unrouted = int((~routed).sum())
            if n_unrouted:
                self.drop_no_route += n_unrouted
            if routed.any():
                fwd_links = next_links[routed]
                # A forward straight back over the link it arrived on means
                # the DAG flipped under the packet mid-cascade: count it as
                # a transient-loop bounce (the TTL is the escape hatch).
                bounced = self.link_to[fwd_links] == prev[live][routed]
                self.loop_bounces += int(bounced.sum())
                self._enqueue(
                    fwd_links,
                    src[live][routed],
                    ttl[live][routed],
                    birth[live][routed],
                    hops[live][routed],
                )

    def _enqueue(self, links, src, ttl, birth, hops) -> None:
        alive = self.link_alive[links]
        if not alive.all():
            dead = int((~alive).sum())
            self.drop_link_down += dead
            links = links[alive]
            src = src[alive]
            ttl = ttl[alive]
            birth = birth[alive]
            hops = hops[alive]
            if not links.size:
                return
        order = np.argsort(links, kind="stable")
        links = links[order]
        uniq, start, counts = np.unique(links, return_index=True, return_counts=True)
        rank = np.arange(links.size, dtype=np.int64) - np.repeat(start, counts)
        space = self.queue_capacity - self.q_len[links]
        accept = rank < space
        n_dropped = int(links.size - accept.sum())
        if n_dropped:
            self.drop_tail += n_dropped
        if not accept.any():
            return
        links_a = links[accept]
        slots = (
            self.q_head[links_a] + self.q_len[links_a] + rank[accept]
        ) % self.queue_capacity
        src_o = src[order][accept]
        self.q_src[links_a, slots] = src_o
        self.q_ttl[links_a, slots] = ttl[order][accept]
        self.q_birth[links_a, slots] = birth[order][accept]
        self.q_hops[links_a, slots] = hops[order][accept]
        self.q_len[uniq] += np.minimum(counts, self.queue_capacity - self.q_len[uniq])

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Cumulative tallies plus derived latency/stretch summaries."""
        delivered = self.delivered
        return {
            "slots": self.now,
            "packets_injected": self.injected,
            "packets_delivered": delivered,
            "packets_dropped": self.dropped_total,
            "packets_in_flight": self.in_flight,
            "packets_forwarded": self.forwarded,
            "drop_tail": self.drop_tail,
            "drop_ttl": self.drop_ttl,
            "drop_no_route": self.drop_no_route,
            "drop_link_down": self.drop_link_down,
            "transient_loops": self.loop_bounces,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_latency_slots": (
                self.latency_total / delivered if delivered else None
            ),
            "max_latency_slots": (
                self.latency_max if delivered else None
            ),
            "mean_hops": (self.hops_total / delivered if delivered else None),
            "mean_stretch": (
                self.stretch_total / self.stretch_count
                if self.stretch_count
                else None
            ),
        }
