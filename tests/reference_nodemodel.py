"""The node transfer solver as it stood before its list-based rewrite, kept as a test reference.

`reference_solve_node`, `reference_equal_priority_shares` and
`reference_max_total_vertex` are `nodemodel.solve_node`,
`_equal_priority_shares` and `_max_total_vertex` of that version, verbatim
except for their names.  The supply helpers, the problem and solution types
and the pivot cap they use are the package's.
"""

from __future__ import annotations

import math

import numpy as np

from pedflow.nodemodel import (PIVOTS_PER_DIMENSION, NodeFlowProblem, NodeFlowSolution, available_supply,
                               supply_fits)


def reference_solve_node(problem: NodeFlowProblem) -> NodeFlowSolution:
    """Maximize the total transfer through a node.

    Flows scale each incoming link's oriented demands by a single factor
    (proportional movements), never exceed demand, and leave every outgoing
    link's reserved supply intact.  Demands that all fit pass whole.  If not,
    the max-min fair shares (equal priority, unused shares redistributed) are
    returned when their total is within 1e-9 (relative) of the simplex
    maximum, and otherwise the simplex's maximal-total vertex, unchanged.
    Negative reserved supply (reservation larger than the receiving flow)
    clamps to zero and is reported in `clamped`.
    """
    S = problem.demands
    n_in, n_out = S.shape
    available, clamped = available_supply(problem.supplies, problem.counterflow)
    clamped = tuple(np.flatnonzero(clamped).tolist())

    col_load = S.sum(axis=0)
    if supply_fits(col_load, available, max(1.0, float(col_load.max(initial=0.0)))).all():
        return NodeFlowSolution(S.copy(), np.ones(n_in), clamped)

    q_fair, theta_fair = reference_equal_priority_shares(S, available)
    q_max, theta_max = reference_max_total_vertex(S, available)
    if q_fair.sum() >= q_max.sum() - 1e-9 * max(1.0, q_max.sum()):
        return NodeFlowSolution(q_fair, theta_fair, clamped)
    return NodeFlowSolution(q_max, theta_max, clamped)


def reference_equal_priority_shares(S: np.ndarray, available: np.ndarray):
    """Equal-priority supply sharing with redistribution of unused shares.

    Every pass pins down at least one incoming link: either links whose whole
    demand fits their current shares, or the most constrained link at its
    bottleneck share.  Freed shares then flow back to the remaining
    competitors, so the result is the max-min fair transfer pattern.
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    theta = np.ones(n_in)
    q = np.zeros_like(S)
    remaining = available.astype(float).copy()
    active = [i for i in range(n_in) if row_tot[i] > 0]
    uses = {i: np.where(S[i] > 0)[0] for i in active}
    while active:
        competitors = {j: sum(1 for i in active if S[i, j] > 0) for j in range(n_out)}
        cand = {}
        for i in active:
            t_i = 1.0
            for j in uses[i]:
                share = remaining[j] / competitors[j]
                ratio = share / S[i, j]
                if ratio < t_i:
                    t_i = ratio
            cand[i] = max(t_i, 0.0)
        batch = [i for i in active if cand[i] >= 1.0 - 1e-15]
        if not batch:
            t_min = min(cand.values())
            batch = [i for i in active if cand[i] <= t_min + 1e-15]
        for i in batch:
            theta[i] = min(cand[i], 1.0)
            q[i] = theta[i] * S[i]
            remaining -= q[i]
        np.clip(remaining, 0.0, None, out=remaining)
        active = [i for i in active if i not in batch]
    return q, theta


def reference_max_total_vertex(S: np.ndarray, available: np.ndarray):
    """Exact maximum-total transfer via a small dense simplex (Bland's rule).

    Variables are the per-incoming-link totals; bounds are the demands and the
    turn-fraction-weighted supply constraints.  Small and deterministic.
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    act = [i for i in range(n_in) if row_tot[i] > 0]
    theta = np.ones(n_in)
    if not act:
        return np.zeros_like(S), theta
    phi = S[act] / row_tot[act][:, None]  # movement fractions of each active row
    sup_rows = [j for j in range(n_out) if math.isfinite(available[j])]
    n = len(act)
    m = n + len(sup_rows)
    T = np.zeros((m + 1, n + m + 1))
    T[:n, :n] = np.eye(n)
    T[:n, -1] = row_tot[act]
    for r, j in enumerate(sup_rows):
        T[n + r, :n] = phi[:, j]
        T[n + r, -1] = available[j]
    T[:m, n : n + m] = np.eye(m)
    T[m, :n] = -1.0
    basis = list(range(n, n + m))
    for _ in range(PIVOTS_PER_DIMENSION * (m + n)):
        enter = -1
        for col in range(n + m):
            if T[m, col] < -1e-12:
                enter = col
                break
        if enter < 0:
            break
        leave, best, best_bv = -1, math.inf, math.inf
        for row in range(m):
            coef = T[row, enter]
            if coef > 1e-12:
                ratio = T[row, -1] / coef
                if ratio < best - 1e-12 or (ratio < best + 1e-12 and basis[row] < best_bv):
                    leave, best, best_bv = row, ratio, basis[row]
        if leave < 0:
            raise RuntimeError("node transfer program is unbounded")  # cannot happen: demands bound it
        T[leave] /= T[leave, enter]
        for row in range(m + 1):
            if row != leave and T[row, enter] != 0.0:
                T[row] -= T[row, enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError(
            f"node transfer simplex hit its pivot cap ({PIVOTS_PER_DIMENSION * (m + n)}) before the optimum"
        )
    x = np.zeros(n)
    for row, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[row, -1]
    for pos, i in enumerate(act):
        theta[i] = min(max(x[pos] / row_tot[i], 0.0), 1.0)
    q = theta[:, None] * S
    return q, theta
