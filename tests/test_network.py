"""Fluid network model: max-min fairness and flow completion times."""

import pytest

from repro.cluster.network import Flow, maxmin_rates, simulate_flows

BW = 100.0  # bytes/sec for readable arithmetic


def caps(machines, bw=BW):
    out = {}
    for m in machines:
        out[("out", m)] = bw
        out[("in", m)] = bw
    return out


class TestMaxminRates:
    def test_single_flow_gets_full_bandwidth(self):
        flows = [Flow(0, 1, 100)]
        assert maxmin_rates(flows, caps([0, 1])) == [BW]

    def test_shared_egress_split_equally(self):
        flows = [Flow(0, 1, 100), Flow(0, 2, 100)]
        assert maxmin_rates(flows, caps([0, 1, 2])) == [BW / 2, BW / 2]

    def test_unconstrained_flow_takes_leftover(self):
        # Flows 0->1 and 0->2 share machine 0 egress; flow 3->2 then shares
        # machine 2 ingress with flow 0->2 but can use the slack.
        flows = [Flow(0, 1, 100), Flow(0, 2, 100), Flow(3, 2, 100)]
        rates = maxmin_rates(flows, caps([0, 1, 2, 3]))
        assert rates[0] == pytest.approx(BW / 2)
        assert rates[1] == pytest.approx(BW / 2)
        assert rates[2] == pytest.approx(BW / 2)

    def test_incast_shares_ingress(self):
        flows = [Flow(m, 0, 100) for m in range(1, 5)]
        rates = maxmin_rates(flows, caps(range(5)))
        assert rates == [BW / 4] * 4

    def test_missing_capacity_raises(self):
        with pytest.raises(KeyError):
            maxmin_rates([Flow(0, 9, 10)], caps([0]))

    def test_zero_capacity_yields_zero_rates(self):
        """A dead NIC (explicit zero capacity) starves its flows without
        corrupting anyone else's share."""
        capacity = caps([0, 1, 2])
        capacity[("out", 0)] = 0.0
        rates = maxmin_rates([Flow(0, 1, 100), Flow(2, 1, 100)], capacity)
        assert rates[0] == 0.0
        # The frozen zero-rate flow consumes nothing, so the healthy
        # flow keeps the full ingress capacity at machine 1.
        assert rates[1] == pytest.approx(BW)

    def test_negative_capacity_clamped(self):
        """Float drift (or a hostile capacity map) below zero must not
        produce negative shares."""
        capacity = caps([0, 1])
        capacity[("out", 0)] = -1e-9
        rates = maxmin_rates([Flow(0, 1, 100)], capacity)
        assert rates == [0.0]

    def test_no_negative_residuals_under_drift(self):
        """Repeated subtraction of irrational shares stays clamped: every
        returned rate is non-negative and no resource is oversubscribed."""
        capacity = caps(range(6), bw=1.0 / 3.0)
        flows = [Flow(s, d, 10.0) for s in range(6) for d in range(6)
                 if s != d]
        rates = maxmin_rates(flows, capacity)
        assert all(r >= 0.0 for r in rates)
        for m in range(6):
            egress = sum(r for f, r in zip(flows, rates) if f.src == m)
            assert egress <= 1.0 / 3.0 + 1e-9


class TestSimulateFlows:
    def test_single_flow_time(self):
        assert simulate_flows([Flow(0, 1, 500)], BW) == pytest.approx(5.0)

    def test_intra_machine_free(self):
        assert simulate_flows([Flow(0, 0, 10 ** 9)], BW) == 0.0

    def test_empty(self):
        assert simulate_flows([], BW) == 0.0

    def test_two_equal_flows_one_bottleneck(self):
        flows = [Flow(0, 1, 100), Flow(0, 2, 100)]
        assert simulate_flows(flows, BW) == pytest.approx(2.0)

    def test_rates_recomputed_after_completion(self):
        """A short flow finishes, freeing bandwidth for the longer one."""
        flows = [Flow(0, 1, 100), Flow(0, 2, 300)]
        # Phase 1: both at 50 B/s until the short one ends at t=2 (300-flow
        # has 200 left).  Phase 2: 200 at full 100 B/s -> +2s.  Total 4.
        assert simulate_flows(flows, BW) == pytest.approx(4.0)

    def test_ps_hot_spot_asymmetry(self):
        """The paper's section 3.1 argument: a server machine egressing
        w(N-1) bytes finishes ~(N-1)x later than symmetric peers."""
        n, w = 5, 1000
        server_flows = [Flow(0, m, w) for m in range(1, n)]
        hot = simulate_flows(server_flows, BW)
        balanced = [Flow(m, (m + 1) % n, w) for m in range(n)]
        cool = simulate_flows(balanced, BW)
        assert hot == pytest.approx((n - 1) * w / BW)
        assert cool == pytest.approx(w / BW)
        assert hot / cool == pytest.approx(n - 1)

    def test_stages_are_barriers(self):
        flows = [Flow(0, 1, 100, stage=0), Flow(0, 1, 100, stage=1)]
        assert simulate_flows(flows, BW) == pytest.approx(2.0)

    def test_per_stage_latency(self):
        flows = [Flow(0, 1, 100, stage=s) for s in range(3)]
        total = simulate_flows(flows, BW, per_stage_latency=0.5)
        assert total == pytest.approx(3 * (1.0 + 0.5))

    def test_full_duplex(self):
        """Opposite directions between two machines don't contend."""
        flows = [Flow(0, 1, 100), Flow(1, 0, 100)]
        assert simulate_flows(flows, BW) == pytest.approx(1.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            simulate_flows([Flow(0, 1, 10)], 0.0)

    def test_explicit_capacity_map(self):
        capacity = caps([0, 1], bw=50.0)
        t = simulate_flows([Flow(0, 1, 100)], BW, capacity=capacity)
        assert t == pytest.approx(2.0)


class TestStalledFlows:
    """Regression: a zero-capacity path used to surface as the bare
    ``ValueError: min() arg is an empty sequence`` from deep inside the
    event loop.  The diagnostic must name the stalled transfers."""

    def test_stalled_flow_names_transfers(self):
        capacity = caps([0, 1, 2])
        capacity[("out", 0)] = 0.0
        flows = [Flow(0, 1, 100, tag="grad"), Flow(0, 2, 50)]
        with pytest.raises(ValueError) as err:
            simulate_flows(flows, BW, capacity=capacity)
        msg = str(err.value)
        assert "stalled" in msg
        assert "0->1" in msg and "0->2" in msg
        assert "grad" in msg and "untagged" in msg
        assert "min() arg" not in msg

    def test_healthy_flows_finish_before_stall_detected(self):
        """Flows that avoid the dead NIC complete; the stall names only
        the survivors that cross it."""
        capacity = caps([0, 1, 2])
        capacity[("in", 2)] = 0.0
        flows = [Flow(0, 1, 100), Flow(0, 2, 100, tag="dead")]
        with pytest.raises(ValueError) as err:
            simulate_flows(flows, BW, capacity=capacity)
        msg = str(err.value)
        assert "0->2" in msg and "dead" in msg
        assert "0->1" not in msg

    def test_stall_in_later_stage_reports_stage(self):
        capacity = caps([0, 1])
        capacity[("in", 1)] = 0.0
        flows = [Flow(0, 0, 10, stage=0), Flow(0, 1, 10, stage=3)]
        with pytest.raises(ValueError, match="stage 3 stalled"):
            simulate_flows(flows, BW, capacity=capacity)

    def test_termination_property(self):
        """Random flow sets either finish in finite non-negative time or
        raise the stalled-flow diagnostic -- never hang, never return a
        negative or infinite completion time."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        given, settings = hypothesis.given, hypothesis.settings

        flow_st = st.builds(
            Flow,
            src=st.integers(0, 4),
            dst=st.integers(0, 4),
            nbytes=st.floats(0.0, 1e6, allow_nan=False),
            stage=st.integers(0, 2),
        )
        cap_st = st.fixed_dictionaries({
            (kind, m): st.floats(0.0, 1e3, allow_nan=False)
            for kind in ("out", "in") for m in range(5)
        })

        @settings(max_examples=60, deadline=None)
        @given(flows=st.lists(flow_st, max_size=8), capacity=cap_st)
        def check(flows, capacity):
            try:
                t = simulate_flows(flows, BW, capacity=capacity)
            except ValueError as err:
                assert "stalled" in str(err)
            else:
                assert t >= 0.0
                assert t != float("inf")

        check()
