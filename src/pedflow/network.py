"""Sidewalk network model: nodes, paired directional links, demand, time grid.

A sidewalk segment is represented by two directed links that point at each
other through the `opposite` field and share the physical attributes of the
segment (length, width, jam density, wave speed).  One-way links simply leave
`opposite` unset.  Networks, demand profiles and time grids are immutable
after loading and safe to share across workers.

File formats (versioned, delimited text):

    pedflow-net v1
    node,<id>,<x>,<y>,<kind>
    link,<id>,<from>,<to>,<length_m>,<width_m>,<vf_mps>,<kjam_pm2>,<omega_mps>,<cap_pps|->,<opposite_id|->

    pedflow-dem v1
    od,<origin>,<destination>,<depart_s>,<rate_pps>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .fd import default_capacity

NET_HEADER = "pedflow-net v1"
DEM_HEADER = "pedflow-dem v1"

NODE_KINDS = ("plain", "origin-centroid", "destination-centroid")


class NetworkFormatError(ValueError):
    """Raised when a network or demand file cannot be parsed."""


@dataclass(frozen=True)
class Node:
    id: int
    x: float = 0.0
    y: float = 0.0
    kind: str = "plain"

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    @property
    def is_centroid(self) -> bool:
        return self.kind != "plain"


@dataclass(frozen=True)
class Link:
    """Directed walking link with the attributes of its physical segment."""

    id: int
    from_node: int
    to_node: int
    length: float
    width: float
    v_f: float
    k_jam: float
    omega: float
    capacity: float
    opposite: int | None = None

    @property
    def free_flow_time(self) -> float:
        return self.length / self.v_f


@dataclass(frozen=True)
class TimeGrid:
    """Uniform simulation clock: step dt seconds over a fixed horizon."""

    dt: float
    horizon: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        n = self.horizon / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"horizon {self.horizon} is not an integer multiple of dt {self.dt}"
            )

    @property
    def n_bins(self) -> int:
        return int(round(self.horizon / self.dt))

    def bin_of(self, t: float) -> int:
        """Grid bin containing instant t; t must sit on the grid within 1e-9."""
        b = t / self.dt
        if abs(b - round(b)) > 1e-9:
            raise ValueError(f"instant {t} is not on the {self.dt}-second grid")
        return int(round(b))


@dataclass(frozen=True)
class DemandEntry:
    origin: int
    destination: int
    depart_s: float
    rate: float  # ped/s released during [depart_s, depart_s + dt)


@dataclass
class DemandProfile:
    entries: list[DemandEntry] = field(default_factory=list)

    def add(self, origin: int, destination: int, depart_s: float, rate: float) -> None:
        self.entries.append(DemandEntry(origin, destination, depart_s, rate))

    def od_pairs(self) -> list[tuple[int, int]]:
        return list(dict.fromkeys((e.origin, e.destination) for e in self.entries))

    def destinations(self) -> list[int]:
        return sorted({e.destination for e in self.entries})


@dataclass(frozen=True)
class Path:
    """Loop-free chain of links from an origin to a destination."""

    od: tuple[int, int]
    link_ids: tuple[int, ...]

    def nodes(self, network: "Network") -> tuple[int, ...]:
        seq = [network.links[self.link_ids[0]].from_node]
        for lid in self.link_ids:
            seq.append(network.links[lid].to_node)
        return tuple(seq)

    def free_flow_time(self, network: "Network") -> float:  # summed left to right, on every Python version
        return float(np.cumsum([network.links[lid].free_flow_time for lid in self.link_ids])[-1])


class Network:
    """Immutable directed sidewalk graph with bidirectional pairing."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]):
        self.nodes: dict[int, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id}")
            self.nodes[n.id] = n
        self.links: dict[int, Link] = {}
        for l in links:
            if l.id in self.links:
                raise ValueError(f"duplicate link id {l.id}")
            self.links[l.id] = l
        self.out_links: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        self.in_links: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for _, l in sorted(self.links.items()):  # so each node's lists ascend by link id
            if l.from_node in self.out_links:
                self.out_links[l.from_node].append(l.id)
            if l.to_node in self.in_links:
                self.in_links[l.to_node].append(l.id)

    def sorted_link_ids(self) -> list[int]:
        return sorted(self.links)

    @cached_property
    def arrays(self) -> "LinkArrays":
        """Per-link attribute arrays, built on first use and kept."""
        return LinkArrays(self)

    def link_between(self, from_node: int, to_node: int) -> Link | None:
        for lid in self.out_links.get(from_node, []):
            if self.links[lid].to_node == to_node:
                return self.links[lid]
        return None

    def path_from_nodes(self, node_seq: Sequence[int]) -> Path:
        """Resolve a node sequence like (1, 2, 3, 6, 9) into a Path."""
        if len(node_seq) < 2:
            raise ValueError("a path needs at least two nodes")
        link_ids = []
        for a, b in zip(node_seq, node_seq[1:]):
            link = self.link_between(a, b)
            if link is None:
                raise ValueError(f"no link from node {a} to node {b}")
            link_ids.append(link.id)
        return Path(od=(node_seq[0], node_seq[-1]), link_ids=tuple(link_ids))


class LinkArrays:
    """Link attributes as arrays, one row per link in sorted link id order.

    `twin[i]` is the row of link i's opposite direction, -1 for a one-way link.
    """

    def __init__(self, network: Network):
        self.order = network.sorted_link_ids()
        self.index = {lid: i for i, lid in enumerate(self.order)}
        links = [network.links[lid] for lid in self.order]
        self.length = np.array([l.length for l in links])
        self.width = np.array([l.width for l in links])
        self.v_f = np.array([l.v_f for l in links])
        self.k_jam = np.array([l.k_jam for l in links])
        self.omega = np.array([l.omega for l in links])
        self.capacity = np.array([l.capacity for l in links])
        self.twin = np.array(
            [-1 if l.opposite is None else self.index[l.opposite] for l in links], dtype=int
        )
        self.area = self.length * self.width
        self.free_flow = self.length / self.v_f  # free-flow time, s
        self.storage = self.k_jam * self.area  # persons held at jam
        # Nodes in sorted id order; tail/head are each link's end nodes as node positions.
        self.nodes = sorted(network.nodes)
        self.node_index = {nid: i for i, nid in enumerate(self.nodes)}
        self.tail = np.array([self.node_index[l.from_node] for l in links], dtype=np.intp)
        self.head = np.array([self.node_index[l.to_node] for l in links], dtype=np.intp)
        n_nodes, rows = len(self.nodes), np.arange(len(links))
        # Reverse CSR: the rows of node i's incoming links are in_arcs[in_ptr[i]:in_ptr[i + 1]].
        self.in_arcs = np.argsort(self.head, kind="stable")
        self.in_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.head, minlength=n_nodes))))
        # Outgoing links grouped by tail node, each group in the successor tie-break
        # order (next node id, then link id); out_starts[j] opens out_nodes[j]'s group.
        self.out_arcs = np.lexsort((rows, self.head, self.tail))
        out_degree = np.bincount(self.tail, minlength=n_nodes)
        self.out_nodes = np.flatnonzero(out_degree)
        self.out_starts = (np.cumsum(out_degree) - out_degree)[self.out_nodes]


def validate_network(network: Network) -> list[str]:
    """Every invariant violation found, as human-readable strings.

    An empty list means the network is loadable.
    """
    violations: list[str] = []
    for l in network.links.values():
        if l.from_node not in network.nodes:
            violations.append(f"link {l.id}: unknown from-node {l.from_node}")
        if l.to_node not in network.nodes:
            violations.append(f"link {l.id}: unknown to-node {l.to_node}")
        if l.from_node == l.to_node:
            violations.append(f"link {l.id}: self-loop at node {l.from_node}")
        for attr in ("length", "width", "v_f", "k_jam", "omega", "capacity"):
            value = getattr(l, attr)
            if not 0.0 < value < math.inf:
                if attr == "capacity" and math.isnan(value) and l.v_f + l.omega == 0:
                    continue  # derived over speeds that sum to zero, which their own lines report
                kind = "nonpositive" if value <= 0 else "non-finite"
                violations.append(f"link {l.id}: {kind} {attr} ({value})")
        if l.opposite is not None:
            opp = network.links.get(l.opposite)
            if opp is None:
                violations.append(f"link {l.id}: dangling opposite {l.opposite}")
                continue
            if opp.id == l.id:
                violations.append(f"link {l.id}: opposite points to itself")
                continue
            if opp.opposite != l.id:
                violations.append(
                    f"link {l.id}: pairing not symmetric (opposite {opp.id} points to {opp.opposite})"
                )
            if not (opp.from_node == l.to_node and opp.to_node == l.from_node):
                violations.append(f"link {l.id}: opposite {opp.id} does not reverse its endpoints")
            for attr in ("length", "width", "k_jam", "omega"):
                if getattr(l, attr) != getattr(opp, attr):
                    violations.append(
                        f"link {l.id}: {attr} differs from paired link {opp.id} "
                        f"({getattr(l, attr)} vs {getattr(opp, attr)})"
                    )
    return violations


def validate_time_grid(network: Network, grid: TimeGrid) -> list[str]:
    """Step-size violations: dt must not exceed any link's L / max(v_f, omega).

    Links whose speeds validate_network rejects are left to its report.
    """
    violations = []
    for l in sorted(network.links.values(), key=lambda x: x.id):
        if not (0 < l.v_f < math.inf and 0 < l.omega < math.inf):
            continue
        limit = l.length / max(l.v_f, l.omega)
        if grid.dt > limit + 1e-12:
            violations.append(
                f"link {l.id}: dt {grid.dt} exceeds stability limit {limit:.6g} "
                f"(length {l.length}, v_f {l.v_f}, omega {l.omega})"
            )
    return violations


def validate_demand(network: Network, demand: DemandProfile, grid: TimeGrid | None = None) -> list[str]:
    violations = []
    for i, e in enumerate(demand.entries):
        if not 0.0 <= e.rate < math.inf:
            kind = "negative" if e.rate < 0 else "non-finite"
            violations.append(f"demand entry {i}: {kind} rate {e.rate}")
        for role, nid in (("origin", e.origin), ("destination", e.destination)):
            node = network.nodes.get(nid)
            if node is None:
                violations.append(f"demand entry {i}: unknown {role} node {nid}")
            elif not node.is_centroid:
                violations.append(f"demand entry {i}: {role} node {nid} is not a centroid")
        if e.origin == e.destination:
            violations.append(f"demand entry {i}: origin equals destination ({e.origin})")
        if grid is not None:
            if e.depart_s < 0 or e.depart_s >= grid.horizon:
                violations.append(f"demand entry {i}: departure {e.depart_s}s outside horizon")
            else:
                try:
                    grid.bin_of(e.depart_s)
                except ValueError:
                    violations.append(f"demand entry {i}: departure {e.depart_s}s is off-grid")
    return violations


@dataclass(frozen=True)
class Trees:
    """Shortest-path trees, one column per (cost bin, destination) pair.

    Row c of `dist` and `succ` is the tree toward node id destinations[c], at
    node position dest_nodes[c], under the link costs of bin bins[c], one entry
    per node position.  dist is the minimal route time, inf where the
    destination cannot be reached; succ is the first link's row on the
    cheapest route, -1 at the destination and where it cannot be reached.
    """

    bins: np.ndarray
    destinations: np.ndarray
    dist: np.ndarray
    succ: np.ndarray
    dest_nodes: np.ndarray


def shortest_paths(network: Network, costs: np.ndarray, bins, destinations) -> Trees:
    """Trees toward destinations[c] under the costs costs[:, bins[c]], every column in one call.

    costs has one row per link in sorted link id order; the bins used must
    hold nonnegative costs (ValueError otherwise).  Every label is the exact
    fixed point dist[u] = min over links u->v of cost + dist[v].  A node's
    successor is, among its links within 1e-9 (relative) of that minimum, the
    one with the smallest next node id, then the smallest link id, so the
    implied paths are lexicographically smallest.
    """
    arrays = network.arrays
    bins = np.asarray(bins, dtype=np.intp)
    destinations = np.asarray(destinations, dtype=int)
    dest = np.array([arrays.node_index[d] for d in destinations.tolist()], dtype=np.intp)
    # sorted(set()), not np.unique: the first np.unique call adds 1.6 MB of resident memory
    used = np.array(sorted(set(bins.tolist())), dtype=np.intp)
    for b in used.tolist():
        bad = np.flatnonzero(~(costs[:, b] >= 0))
        if bad.size:
            raise ValueError(f"negative cost {costs[bad[0], b]} on link {arrays.order[bad[0]]} in bin {b}")
    n_cols, n_nodes = len(bins), len(arrays.nodes)
    dist = np.full((n_cols, n_nodes), np.inf)
    flat = dist.reshape(-1)
    cols = np.arange(n_cols)
    front = cols * n_nodes + dest
    flat[front] = 0.0
    improved = np.zeros(flat.size, dtype=bool)

    # Label-correcting rounds over flat (column, node) labels: each round relaxes
    # only the incoming links of the labels that improved in the round before.
    while front.size:
        col, node = np.divmod(front, n_nodes)
        lo = arrays.in_ptr[node]
        degree = arrays.in_ptr[node + 1] - lo
        # one entry per (label, incoming link): entry is the label's position in front
        entry = np.arange(front.size).repeat(degree)
        offset = (lo - (degree.cumsum() - degree)).repeat(degree)
        arc = arrays.in_arcs[np.arange(entry.size) + offset]
        col = col[entry]
        cand = flat[front][entry] + costs[arc, bins[col]]
        target = col * n_nodes + arrays.tail[arc]
        better = cand < flat[target]
        target = target[better]
        np.minimum.at(flat, target, cand[better])
        improved[target] = True
        front = improved.nonzero()[0]
        improved[front] = False

    # Tight links, one cost bin at a time: the first tight link of each node in
    # out_arcs order is its successor.
    succ = np.full((n_cols, n_nodes), -1, dtype=int)
    arcs = arrays.out_arcs
    if arcs.size:
        out_tail, out_head = arrays.tail[arcs], arrays.head[arcs]
        out_rows = np.append(arcs, -1)
        positions = np.arange(arcs.size)
        for b in used.tolist():
            rows = np.flatnonzero(bins == b)
            d = dist[rows]
            cand = costs[arcs, b] + d[:, out_head]
            d_tail = d[:, out_tail]
            tight = np.isfinite(cand) & (cand <= d_tail + 1e-9 * np.maximum(1.0, d_tail))
            first = np.minimum.reduceat(np.where(tight, positions, arcs.size), arrays.out_starts, axis=1)
            succ[rows[:, None], arrays.out_nodes] = out_rows[first]
        succ[cols, dest] = -1
    return Trees(bins, destinations, dist, succ, dest)


def enumerate_paths(
    network: Network,
    od: tuple[int, int],
    max_paths: int,
    detour: float = 1.0,
) -> list[Path]:
    """Loop-free paths for an OD pair, ordered by free-flow travel time.

    With the default detour factor of 1.0 only minimum-free-flow-time paths
    qualify (ties broken by lexicographic node sequence); larger factors admit
    paths up to detour times the minimum.  The list is truncated at max_paths.
    Returns an empty list when the OD pair is not connected.
    """
    r, s = od
    if r == s:
        raise ValueError(f"degenerate OD pair ({r}, {r})")
    if r not in network.nodes or s not in network.nodes:
        raise ValueError(f"OD pair ({r}, {s}) references unknown nodes")
    if max_paths <= 0:
        return []
    arrays = network.arrays
    trees = shortest_paths(network, arrays.free_flow[:, None], [0], [s])
    dist_to, index = trees.dist[0].tolist(), arrays.node_index
    best = dist_to[index[r]]
    if best == math.inf:
        return []
    bound = detour * best + 1e-9 * max(1.0, best)
    exact = detour == 1.0

    results: list[Path] = []
    budget = [200_000]  # expansion cap; generous for the sizes this is meant for

    def extend(node: int, time: float, links: list[int], visited: set[int]) -> bool:
        """Depth-first in ascending (next node, link id) order; returns False to stop."""
        if node == s:
            results.append(Path(od=(r, s), link_ids=tuple(links)))
            return not (exact and len(results) >= max_paths)
        branches = sorted(
            (network.links[lid].to_node, lid) for lid in network.out_links[node]
        )
        for to_node, lid in branches:
            if to_node in visited:
                continue
            t2 = time + network.links[lid].free_flow_time
            if t2 + dist_to[index[to_node]] > bound:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise RuntimeError(
                    "path enumeration budget exceeded; lower max_paths or the detour factor"
                )
            visited.add(to_node)
            links.append(lid)
            keep_going = extend(to_node, t2, links, visited)
            links.pop()
            visited.remove(to_node)
            if not keep_going:
                return False
        return True

    extend(r, 0.0, [], {r})
    if not exact:
        results.sort(
            key=lambda p: (round(p.free_flow_time(network) / 1e-9), p.nodes(network))
        )
    return results[:max_paths]


# ---------------------------------------------------------------------------
# file I/O


def write_table(path, header: str | None, chunks: Iterable[str]) -> None:
    """Write the header line, if any, then each chunk of one or more lines.

    A chunk is written as soon as it is produced, so a writer that yields a
    file piece by piece never holds all of it.
    """
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for chunk in chunks:
            fh.write(chunk + "\n")


def write_network(network: Network, path) -> None:
    nodes = (f"node,{n.id},{n.x:.10g},{n.y:.10g},{n.kind}" for _, n in sorted(network.nodes.items()))
    links = (
        f"link,{l.id},{l.from_node},{l.to_node},{l.length:.10g},{l.width:.10g},{l.v_f:.10g},"
        f"{l.k_jam:.10g},{l.omega:.10g},{l.capacity:.10g},{'-' if l.opposite is None else l.opposite}"
        for _, l in sorted(network.links.items())
    )
    write_table(path, NET_HEADER, chain(nodes, links))


def _read_records(path, header: str, parse) -> list:
    """parse(fields) of every record after the header; blank and # lines are skipped,
    and an error names the record's physical line."""
    with open(path) as fh:
        lines = [(i, line.strip()) for i, line in enumerate(fh, start=1)]
    lines = [(i, line) for i, line in lines if line and not line.startswith("#")]
    if not lines or lines[0][1] != header:
        raise NetworkFormatError(f"{path}: expected header {header!r}")
    records = []
    for i, line in lines[1:]:
        try:
            records.append(parse([p.strip() for p in line.split(",")]))
        except (ValueError, IndexError) as exc:
            raise NetworkFormatError(f"{path}:{i}: {exc}") from exc
    return records


def _network_record(parts: list[str]) -> Node | Link:
    if parts[0] == "node":
        if len(parts) != 5:
            raise ValueError("node record needs 5 fields")
        return Node(int(parts[1]), float(parts[2]), float(parts[3]), parts[4])
    if parts[0] != "link":
        raise ValueError(f"unknown record type {parts[0]!r}")
    if len(parts) != 11:
        raise ValueError("link record needs 11 fields")
    length, width = float(parts[4]), float(parts[5])
    v_f, k_jam, omega = float(parts[6]), float(parts[7]), float(parts[8])
    cap = default_capacity(width, v_f, k_jam, omega) if parts[9] == "-" else float(parts[9])
    opp = None if parts[10] == "-" else int(parts[10])
    return Link(int(parts[1]), int(parts[2]), int(parts[3]), length, width, v_f, k_jam, omega, cap, opp)


def load_network(path) -> Network:
    records = _read_records(path, NET_HEADER, _network_record)
    return Network([r for r in records if isinstance(r, Node)], [r for r in records if isinstance(r, Link)])


def write_demand(demand: DemandProfile, path) -> None:
    rows = (f"od,{e.origin},{e.destination},{e.depart_s:.10g},{e.rate:.10g}" for e in demand.entries)
    write_table(path, DEM_HEADER, rows)


def _demand_record(parts: list[str]) -> DemandEntry:
    if parts[0] != "od" or len(parts) != 5:
        raise ValueError("demand record must be od,<origin>,<destination>,<depart_s>,<rate_pps>")
    return DemandEntry(int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]))


def load_demand(path) -> DemandProfile:
    return DemandProfile(_read_records(path, DEM_HEADER, _demand_record))
