"""The run-directory writers as they stood before the block formatter, kept as a test reference.

`_write_matrix`, `_row_format`, `_write_link_table`, `_write_link_state` and
`_write_node_trace` are those of `pedflow.engine` in that version, verbatim:
each row is formatted by one bound `str.format` or f-string, a number at a
time.  `_fmt`, `write_table`, `effective_speed_profile` and the types they
use are the package's.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from pedflow.engine import TimeSpaceMatrix, _fmt
from pedflow.fd import effective_speed_profile
from pedflow.network import Network, write_table



def _write_matrix(ts: TimeSpaceMatrix, values: np.ndarray, path, network: Network) -> None:
    header = "segment,x_start_m,x_end_m," + ",".join(_fmt(b * ts.dt) for b in range(values.shape[1]))
    row = _row_format(values.shape[1] + 2)
    edges, links = ts.x_edges.tolist(), [network.links[lid] for lid in ts.link_ids]
    rows = (row(f"{l.from_node}-{l.to_node}", edges[s], edges[s + 1], *values[s].tolist())
            for s, l in enumerate(links))
    write_table(path, header, rows)


def _row_format(n_values: int):
    """Bound str.format for one CSV row: a key, then n_values numbers written as _fmt writes them."""
    return ("{}" + ",{:.10g}" * n_values).format


def _write_link_table(result, path, header: str, columns: list[np.ndarray]) -> None:
    """One row per link and instant of the (link row, instant) arrays in columns,
    formatted and written a link at a time, so the whole file is never held."""
    times = [b * result.grid.dt for b in range(columns[0].shape[1])]
    row = _row_format(len(columns) + 1)
    chunks = ("\n".join(map(row, repeat(lid), times, *(c[i].tolist() for c in columns)))
              for i, lid in enumerate(result.link_order))
    write_table(path, header, chunks)


def _write_link_state(result, path) -> None:
    arrays = result.network.arrays
    k, rho = result.densities()
    vhat = effective_speed_profile(arrays.v_f[:, None], rho, result.fd_variant, result.fd_gamma)
    q = np.diff(result.V, axis=1) / result.grid.dt / arrays.width[:, None]
    _write_link_table(result, path, "link,t,k,q,rho,vhat", [k, q, rho, vhat])


def _write_node_trace(result, path) -> None:
    nodes, order = result.network.arrays.nodes, result.network.arrays.order

    def row(node, t, in_key, out_key, s_ij, r_j, s_tilde, q_ij):  # node position, link rows (< 0: origin, sink)
        in_label = "origin" if in_key < 0 else str(order[in_key])
        out_label = "sink" if out_key < 0 else str(order[out_key])
        return f"{nodes[node]},{_fmt(t)},{in_label},{out_label},{_fmt(s_ij)},{_fmt(r_j)},{_fmt(s_tilde)},{_fmt(q_ij)}"

    # a step's records at a time, so the whole file is never held
    steps = groupby(result.node_trace, key=itemgetter(1))
    write_table(path, "node,t,in,out,S_ij,R_j,S_tilde_j,q_ij",
                ("\n".join(row(*rec) for rec in records) for _, records in steps))
