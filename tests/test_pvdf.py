from dataclasses import dataclass

import numpy as np
import pytest

from pedflow.network import Path
from pedflow.pvdf import (
    PvdfParams,
    experienced_route_times,
    instantaneous_route_time,
    link_cost,
    link_cost_profile,
)


@dataclass
class StubLink:
    free_flow_time: float
    capacity: float


LINK = StubLink(free_flow_time=10.0, capacity=8.0)
SYM = PvdfParams(alpha=0.5, beta=2.0)
ASYM = PvdfParams(alpha=0.5, beta=2.0, mode="asymmetric", mu=0.8,
                  eta_r=-4.0, lambda_r=0.5, eta_c=-4.0, lambda_c=0.5)


class TestLinkCost:
    def test_zero_flow_is_free_flow(self):
        assert link_cost(LINK, SYM, 0.0, 0.0) == 10.0

    def test_at_capacity(self):
        # u + u_opp = C with the test coefficients gives 1.5 tau
        assert link_cost(LINK, SYM, 5.0, 3.0) == pytest.approx(15.0, abs=1e-12)

    def test_mu_zero_reduces_to_symmetric(self):
        no_bump = PvdfParams(alpha=0.5, beta=2.0, mode="asymmetric", mu=0.0,
                             eta_r=-1.0, eta_c=-1.0)
        for u, u_opp in [(0, 0), (1, 2), (4, 4), (7, 0.5)]:
            assert link_cost(LINK, no_bump, u, u_opp) == pytest.approx(
                link_cost(LINK, SYM, u, u_opp), abs=1e-12
            )

    def test_symmetric_in_directions(self):
        rng = np.random.default_rng(5)
        for u, u_opp in rng.uniform(0, 10, size=(50, 2)):
            assert link_cost(LINK, SYM, u, u_opp) == pytest.approx(
                link_cost(LINK, SYM, u_opp, u), abs=1e-12
            )

    def test_monotone_in_total_flow(self):
        costs = [link_cost(LINK, SYM, u, 0.0) for u in np.linspace(0, 16, 100)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_bidirectional_bump_peaks_at_configured_ratios(self):
        # the extra term's gradient vanishes at (lambda_r, lambda_c) * capacity
        u0 = ASYM.lambda_r * LINK.capacity
        v0 = ASYM.lambda_c * LINK.capacity
        bump = lambda u, v: link_cost(LINK, ASYM, u, v) - link_cost(LINK, SYM, u, v)
        h = 1e-5
        du = (bump(u0 + h, v0) - bump(u0 - h, v0)) / (2 * h)
        dv = (bump(u0, v0 + h) - bump(u0, v0 - h)) / (2 * h)
        assert abs(du) < 1e-6 and abs(dv) < 1e-6
        assert bump(u0, v0) >= bump(u0 + 1.0, v0)
        assert bump(u0, v0) >= bump(u0, v0 + 1.0)
        assert bump(u0, v0) == pytest.approx(10.0 * ASYM.mu, abs=1e-12)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            link_cost(LINK, SYM, -1.0, 0.0)

    def test_positive_eta_rejected(self):
        with pytest.raises(ValueError):
            PvdfParams(mode="asymmetric", eta_r=1.0)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            PvdfParams(beta=0.5)


def out_of_place_profile(tau, capacity, params, u, u_opp):
    """Reference: the link cost profile as one out-of-place array expression."""
    tau = tau[:, None]
    capacity = capacity[:, None]
    cost = tau * (1.0 + params.alpha * ((u + u_opp) / capacity) ** params.beta)
    if params.mode == "asymmetric":
        exponent = params.eta_r * (u / capacity - params.lambda_r) ** 2 + params.eta_c * (
            u_opp / capacity - params.lambda_c
        ) ** 2
        cost = cost + tau * params.mu * np.exp(exponent)
    return cost


class TestLinkCostProfile:
    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5, 4.0])
    def test_bit_identical_to_out_of_place_expression(self, mode, beta):
        rng = np.random.default_rng(int(beta * 10) + len(mode))
        params = PvdfParams(alpha=rng.uniform(0.1, 2.0), beta=beta, mode=mode,
                            mu=rng.uniform(0.0, 1.5), eta_r=-rng.uniform(0.0, 6.0),
                            lambda_r=rng.uniform(0.0, 1.0), eta_c=-rng.uniform(0.0, 6.0),
                            lambda_c=rng.uniform(0.0, 1.0))
        tau = rng.uniform(0.5, 20.0, 37)
        capacity = rng.uniform(1.0, 12.0, 37)
        u = rng.uniform(0.0, 15.0, (37, 23))
        u_opp = rng.uniform(0.0, 15.0, (37, 23)) * (rng.random((37, 1)) < 0.8)
        got = link_cost_profile(tau, capacity, params, u, u_opp)
        assert np.array_equal(got, out_of_place_profile(tau, capacity, params, u, u_opp))


class TestInstantaneousRouteTime:
    def test_free_flow_sum(self):
        costs = np.array([[2.0], [3.0], [4.5]])
        assert instantaneous_route_time(np.array([0, 1, 2]), costs, 0) == pytest.approx(9.5)

    def test_singleton(self):
        assert instantaneous_route_time(np.array([0]), np.array([[3.25]]), 0) == 3.25

    def test_two_link_additivity(self):
        assert instantaneous_route_time(np.array([0, 1]), np.array([[1.5], [2.5]]), 0) == 4.0

    def test_reads_the_departure_bin_column(self):
        costs = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0]])
        assert instantaneous_route_time(np.array([2, 0]), costs, 0) == 5.0
        assert instantaneous_route_time(np.array([2, 0]), costs, 1) == 50.0

    def test_left_to_right_python_float_sum(self):
        costs = np.array([[0.1], [0.2], [0.3]])
        got = instantaneous_route_time(np.array([0, 1, 2]), costs, 0)
        assert got == (0.1 + 0.2) + 0.3
        assert type(got) is float


def experienced_route_time(path, fd_fn, k, horizon=None):
    """One trip of the array-form experienced_route_times over a scalar link
    time fd_fn(link id, t) (None for no time), None where incomplete.  The
    trip's link rows are its link ids."""

    def link_times(rows, t):
        assert len(rows) == len(t) == 1
        c = fd_fn(int(rows[0]), float(t[0]))
        return np.array([np.nan if c is None else c])

    got = experienced_route_times([np.array(path.link_ids)], [k], link_times, horizon)
    assert got.shape == (1,)
    return None if np.isnan(got[0]) else float(got[0])


class TestExperiencedRouteTime:
    def test_time_invariant_costs_match_instantaneous(self):
        path = Path(od=(1, 4), link_ids=(1, 2, 3))
        costs = {1: 2.0, 2: 3.0, 3: 4.0}
        fd_fn = lambda lid, t: costs[lid]
        cost_array = np.array([[costs[lid]] for lid in path.link_ids])
        for k in (0.0, 5.0, 17.0):
            assert experienced_route_time(path, fd_fn, k) == pytest.approx(
                instantaneous_route_time(np.arange(len(path.link_ids)), cost_array, 0)
            )

    def test_cost_rise_after_arrival_increases_experienced(self):
        # hand trace: leave at 0, first link takes 3, so the second link is
        # entered at t=3 where its time has doubled from 5 to 10
        path = Path(od=(1, 3), link_ids=(1, 2))

        def fd_fn(lid, t):
            if lid == 1:
                return 3.0
            return 10.0 if t >= 3.0 else 5.0

        experienced = experienced_route_time(path, fd_fn, 0.0)
        instantaneous = instantaneous_route_time(np.array([0, 1]), np.array([[3.0], [5.0]]), 0)
        assert experienced == pytest.approx(13.0)
        assert experienced > instantaneous

    def test_singleton_constant(self):
        path = Path(od=(1, 2), link_ids=(9,))
        fd_fn = lambda lid, t: 6.0
        for k in (0.0, 30.0, 99.0):
            assert experienced_route_time(path, fd_fn, k) == 6.0

    def test_exceeding_horizon_is_incomplete(self):
        path = Path(od=(1, 3), link_ids=(1, 2))
        fd_fn = lambda lid, t: 40.0
        assert experienced_route_time(path, fd_fn, 50.0, horizon=60.0) is None

    def test_arrival_at_the_horizon_completes(self):
        path = Path(od=(1, 3), link_ids=(1, 2))
        fd_fn = lambda lid, t: 5.0
        assert experienced_route_time(path, fd_fn, 50.0, horizon=60.0) == 10.0

    def test_infinite_link_time_is_incomplete_without_a_horizon(self):
        path = Path(od=(1, 3), link_ids=(1, 2))
        assert experienced_route_time(path, lambda lid, t: float("inf"), 0.0) is None

    def test_unresolvable_link_time_is_incomplete(self):
        path = Path(od=(1, 2), link_ids=(1,))
        assert experienced_route_time(path, lambda lid, t: None, 0.0) is None
