"""The turning-fraction build as it stood before the flat movement arrays, kept as a test reference.

`TurningFractions` is `nodemodel.TurningFractions` of that version with its
`movements` dict-of-dicts filled one `add_mass` call at a time, verbatim
except that the lazily built array table it also kept (and its array
lookup) are left out.  `paths_to_turning_fractions` is that version's
function, verbatim, calling `add_mass` once per (path, departure bin, link)
and once more for the sink.  `turning_fractions` is the dict lookup the
per-node loader made on it: one (destination, node, in key, bin) query
per call, in node and link ids; only its read of the successor tree, whose
entries are node positions and link rows, converts through `arrays`.
"""

from __future__ import annotations

import numpy as np

from pedflow.network import shortest_paths
from pedflow.nodemodel import ORIGIN, SINK


class TurningFractions:
    """Per-destination, per-node movement split over time, with a successor fallback.

    Movement mass comes from the route flows; where no mass exists for an
    incoming link at some instant, the split follows the destination's
    shortest-path successor in `trees` (`network.Trees`), so residual
    pedestrians route wherever the destination can be reached.
    """

    def __init__(self, n_bins: int, trees):
        self.n_bins = n_bins
        # movements[(dest, node, in_key)][out_key] -> mass per bin
        self.movements: dict[tuple[int, int, int], dict[int, np.ndarray]] = {}
        self.trees = trees
        # per destination and bin, the tree column of the latest tree bin at or
        # before it (its first tree before that)
        self._columns: dict[int, list[int]] = {}
        order = np.lexsort((trees.bins, trees.destinations))
        for dest in sorted(set(trees.destinations.tolist())):
            cols = order[trees.destinations[order] == dest]
            pos = np.searchsorted(trees.bins[cols], np.arange(n_bins), side="right") - 1
            self._columns[dest] = cols[np.maximum(pos, 0)].tolist()

    @property
    def destinations(self) -> list[int]:
        return sorted({key[0] for key in self.movements} | set(self._columns))

    def add_mass(self, dest: int, node: int, in_key: int, out_key: int, t_idx: int, mass: float) -> None:
        outs = self.movements.setdefault((dest, node, in_key), {})
        arr = outs.get(out_key)
        if arr is None:
            arr = outs[out_key] = np.zeros(self.n_bins)
        arr[min(t_idx, self.n_bins - 1)] += mass


def paths_to_turning_fractions(path_flows, network, grid, costs=None, trees=None) -> TurningFractions:
    """Convert route flows into per-destination turning fractions over time.

    path_flows is an iterable of (path, departure bin, flow in ped/s).  Each
    path's flow is projected forward through its nodes at the link costs
    frozen at the departure bin (costs: `(n_links, n_bins)`, rows in sorted
    link id order; free-flow times when None), and accumulated as movement
    mass per (destination, node, incoming, outgoing).  `trees`
    (`network.Trees`) supplies the successor fallback; when None, free-flow
    trees toward the paths' destinations are built.
    """
    arrays = network.arrays
    free_flow = (arrays.length / arrays.v_f)[:, None]
    costs = free_flow if costs is None else costs
    path_flows = [item for item in path_flows if item[2] > 0]
    if trees is None:
        dests = sorted({path.od[1] for path, _, _ in path_flows})
        trees = shortest_paths(network, free_flow, [0] * len(dests), dests)
    tf = TurningFractions(grid.n_bins, trees)
    dt, last = grid.dt, costs.shape[1] - 1
    for path, k_idx, flow in path_flows:
        dest = path.od[1]
        t = k_idx * dt
        in_key = ORIGIN
        for lid in path.link_ids:
            tf.add_mass(dest, network.links[lid].from_node, in_key, lid, int(t / dt + 1e-9), flow)
            t += float(costs[arrays.index[lid], min(k_idx, last)])
            in_key = lid
        tf.add_mass(dest, dest, in_key, SINK, int(t / dt + 1e-9), flow)
    return tf


def turning_fractions(tf, dest: int, node: int, in_key: int, t_idx: int, arrays) -> list[tuple[int, float]]:
    """Normalized split [(out_key, fraction), ...] for one incoming link.

    The movement mass at this instant decides; without any, residual
    pedestrians follow the shortest-path successor.  Empty only where the
    destination cannot be reached from the node (or has no tree column).
    """
    if node == dest:
        return [(SINK, 1.0)]
    t = min(t_idx, tf.n_bins - 1)
    outs = tf.movements.get((dest, node, in_key))
    if outs is not None:
        total = sum(arr[t] for arr in outs.values())
        if total > 1e-15:
            return [(key, arr[t] / total) for key, arr in sorted(outs.items()) if arr[t] > 0]
    cols = tf._columns.get(dest)
    row = -1 if cols is None else int(tf.trees.succ[cols[t], arrays.node_index[node]])
    lid = -1 if row < 0 else arrays.order[row]
    return [(lid, 1.0)] if lid >= 0 else []
