import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedflow.ltm import (
    _rank_positions,
    crossing_times,
    interp_at,
    receiving_flows_at,
    sending_flows_at,
    split_by_entry_order,
)
from pedflow.network import Link
from reference_route_times import _rank_position


def make_link(**kw):
    base = dict(id=1, from_node=1, to_node=2, length=2.0, width=1.0,
                v_f=1.5, k_jam=10.0, omega=0.5, capacity=100.0)
    base.update(kw)
    return Link(**base)


class TestInterpolation:
    def test_on_grid_and_between(self):
        arr = np.array([[0.0, 4.0, 8.0, 12.0]])
        assert interp_at(arr, np.array([2.0]), 1.0)[0] == 8.0
        assert interp_at(arr, np.array([2.0 / 3.0]), 1.0)[0] == pytest.approx(8.0 / 3.0)

    def test_before_start_reads_zero(self):
        arr = np.array([[0.0, 4.0, 8.0]])
        assert interp_at(arr, np.array([-0.5]), 1.0)[0] == 0.0

    def test_row_gather(self):
        arr = np.array([[0.0, 1.0, 2.0], [0.0, 10.0, 20.0]])
        got = interp_at(arr, np.array([1.5, 0.5]), 1.0, rows=np.array([1, 0]))
        assert got == pytest.approx([15.0, 0.5])


class Curves:
    """One link's cumulative curves as the single row of the kernels' arrays."""

    def __init__(self, n_bins):
        self.U = np.zeros((1, n_bins + 1))
        self.V = np.zeros((1, n_bins + 1))


def sending(link, curves, t, vhat):
    return sending_flows_at(
        curves.U, curves.V, t, 1.0, np.array([link.length]), np.array([vhat]),
        np.array([link.capacity]),
    )[0]


def receiving(link, curves, t, k_jam=None):
    storage = (link.k_jam if k_jam is None else k_jam) * link.length * link.width
    return receiving_flows_at(
        curves.V, curves.U, t, 1.0, np.array([link.length]), np.array([link.omega]),
        np.array([storage]), np.array([link.capacity]),
    )[0]


class TestSendingFlow:
    def test_empty_link(self):
        link = make_link()
        curves = Curves(10)
        assert sending(link, curves, 0, vhat=1.5) == 0.0

    def test_steady_inflow_hand_trace(self):
        # 2 m link at 1.5 m/s: the lookback is 4/3 s; with 4 ped/s entering
        # from t=0, the sending flow builds 0, 8/3, then holds at 4
        link = make_link()
        curves = Curves(10)
        curves.U[0] = 4.0 * np.arange(11)
        expected = {0: 0.0, 1: 8.0 / 3.0, 2: 4.0, 3: 4.0}
        for t in range(4):
            s = sending(link, curves, t, vhat=1.5)
            assert s == pytest.approx(expected[t], abs=1e-12)
            curves.V[0, t + 1] = curves.V[0, t] + s

    def test_capacity_clamp(self):
        link = make_link(capacity=4.0)
        curves = Curves(10)
        curves.U[0] = 6.0 * np.arange(11)
        curves.V[0, 1] = 0.0
        s1 = sending(link, curves, 1, vhat=1.5)
        assert s1 == pytest.approx(4.0)
        curves.V[0, 2] = curves.V[0, 1] + s1
        assert sending(link, curves, 2, vhat=1.5) == pytest.approx(4.0)


class TestReceivingFlow:
    def test_empty_link_offers_full_storage(self):
        link = make_link()  # storage 10 * 2 * 1 = 20
        curves = Curves(10)
        assert receiving(link, curves, 0) == pytest.approx(20.0)
        tight = make_link(capacity=4.0)
        assert receiving(tight, curves, 0) == pytest.approx(4.0)

    def test_jammed_link_offers_nothing(self):
        link = make_link()
        curves = Curves(10)
        curves.U[0] = 20.0  # storage-filling occupancy, exits frozen
        assert receiving(link, curves, 4) == pytest.approx(0.0)

    def test_recovery_lags_drain_by_wave_traversal(self):
        # wave lookback is L/omega = 4 s: a drain starting at t=0 only frees
        # upstream space from t=4 on
        link = make_link()
        curves = Curves(10)
        curves.U[0] = 20.0
        curves.V[0] = 2.0 * np.arange(11)  # draining at 2 ped/s
        assert receiving(link, curves, 3) == pytest.approx(0.0)
        assert receiving(link, curves, 4) == pytest.approx(2.0)
        assert receiving(link, curves, 5) == pytest.approx(4.0)

    def test_effective_jam_override(self):
        # a degraded (effective) jam density shrinks the storage term
        link = make_link()
        curves = Curves(10)
        assert receiving(link, curves, 0, k_jam=5.0) == pytest.approx(10.0)


def split_one(U, Ud, r0, r1, t):
    """split_by_entry_order on one link's curves (U: (n_bins + 1,), Ud: (n_dest, n_bins + 1))."""
    return split_by_entry_order(U[None, :], Ud[None, :, :], [r0], [r1], t)[0]


class TestEntryOrderSplit:
    def test_known_composition(self):
        # bin 0 loads one person to the first destination, bin 1 one to the second
        U = np.array([0.0, 1.0, 2.0, 2.0])
        Ud = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        split = split_one(U, Ud, 0.5, 1.5, 3)
        assert split == pytest.approx([0.5, 0.5])
        split = split_one(U, Ud, 0.0, 1.0, 3)
        assert split == pytest.approx([1.0, 0.0])

    def test_split_sums_to_requested_amount(self):
        rng = np.random.default_rng(2)
        U = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 2, 12))])
        shares = rng.uniform(0, 1, 12)
        inc = np.diff(U, prepend=0.0)[1:]
        Ud = np.zeros((2, 13))
        Ud[0, 1:] = np.cumsum(inc * shares)
        Ud[1, 1:] = np.cumsum(inc * (1 - shares))
        r0, r1 = 1.7, 9.3
        split = split_one(U, Ud, r0, r1, 12)
        assert split.sum() == pytest.approx(r1 - r0, abs=1e-12)
        assert (split >= 0).all()


@st.composite
def curves_and_ranks(draw):
    """Nondecreasing rows with plateaus, and ranks below, on, between and above their samples."""
    n_rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    steps = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n - 1, max_size=n - 1)
    head = np.array([np.concatenate(([0.0], np.cumsum(draw(steps)))) for _ in range(n_rows)])
    ranks = []
    for row in head:
        on_sample = st.sampled_from(row.tolist())
        ranks.append(draw(st.one_of(on_sample, st.floats(-1.0, float(row[-1]) + 1.0))))
    return head, np.array(ranks)


class TestRankPositions:
    @settings(max_examples=200, deadline=None)
    @given(curves_and_ranks())
    def test_rows_match_the_scalar_search(self, case):
        # counting the samples below the rank finds what searchsorted finds
        head, ranks = case
        b, frac = _rank_positions(head, ranks)
        for i in range(len(head)):
            assert (int(b[i]), float(frac[i])) == _rank_position(head[i], float(ranks[i]))


def crossing_time(arr, rank, dt, n_valid):
    """One query of the array-form crossing_times, None where the rank is never reached."""
    got = crossing_times(arr[None, :], np.array([rank]), dt, n_valid)
    assert got.shape == (1,)
    return None if np.isnan(got[0]) else float(got[0])


class TestCrossingTime:
    def test_interpolated_crossing(self):
        arr = np.array([0.0, 0.0, 4.0, 8.0])
        assert crossing_time(arr, 2.0, 1.0, 3) == pytest.approx(1.5)

    def test_unreached_rank_is_none(self):
        arr = np.array([0.0, 1.0, 2.0])
        assert crossing_time(arr, 5.0, 1.0, 2) is None

    def test_rank_zero(self):
        arr = np.array([0.0, 1.0])
        assert crossing_time(arr, 0.0, 1.0, 1) == 0.0

    def test_rank_within_slack_above_last_sample(self):
        arr = np.array([0.0, 1.0, 2.0])
        assert crossing_time(arr, 2.0 + 5e-13, 1.0, 2) == pytest.approx(2.0)
