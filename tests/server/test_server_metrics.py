"""Unit coverage for the serving layer's accounting objects."""

import pytest

from repro.server.metrics import (
    ClientMetrics,
    ServerMetrics,
    TickMetrics,
)


def make_tick(index=0, physical=10, logical=40, **kw):
    kw.setdefault("start", index * 0.1)
    kw.setdefault("end", (index + 1) * 0.1)
    kw.setdefault("clients_served", 3)
    kw.setdefault("batched_pages", 8)
    kw.setdefault("piggybacked_reads", 5)
    kw.setdefault("updates_applied", 1)
    kw.setdefault("latency", 2.5)
    return TickMetrics(
        index=index, physical_reads=physical, logical_reads=logical, **kw
    )


class TestTickMetrics:
    def test_shared_hit_ratio(self):
        assert make_tick(physical=10, logical=40).shared_hit_ratio == 0.75

    def test_shared_hit_ratio_with_no_demand(self):
        # No logical reads this tick: nothing to share, ratio is 0 not NaN.
        assert make_tick(physical=0, logical=0).shared_hit_ratio == 0.0

    def test_all_physical_means_no_sharing(self):
        assert make_tick(physical=40, logical=40).shared_hit_ratio == 0.0

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            make_tick().physical_reads = 99


class TestClientMetrics:
    def test_counters_start_at_zero(self):
        c = ClientMetrics("c0")
        assert c.client_id == "c0"
        for name in (
            "ticks_served",
            "items_delivered",
            "logical_reads",
            "queue_peak",
            "dropped_results",
            "shed_events",
            "promote_events",
            "degraded_ticks",
        ):
            assert getattr(c, name) == 0


class TestServerMetrics:
    def test_record_tick_folds_aggregates(self):
        m = ServerMetrics()
        m.record_tick(make_tick(index=0, physical=10, logical=40))
        m.record_tick(make_tick(index=1, physical=30, logical=60))
        assert m.ticks == 2
        assert m.physical_reads == 40
        assert m.logical_reads == 100
        assert m.batched_pages == 16
        assert m.piggybacked_reads == 10
        assert m.updates_applied == 2
        assert m.total_latency == 5.0
        assert [t.index for t in m.tick_log] == [0, 1]

    def test_derived_ratios(self):
        m = ServerMetrics()
        m.record_tick(make_tick(physical=25, logical=100))
        assert m.shared_hit_ratio == 0.75
        assert m.reads_per_tick == 25.0
        assert m.mean_tick_latency == 2.5

    def test_zero_tick_guards(self):
        m = ServerMetrics()
        assert m.shared_hit_ratio == 0.0
        assert m.reads_per_tick == 0.0
        assert m.mean_tick_latency == 0.0

    def test_client_records_are_created_on_demand(self):
        m = ServerMetrics()
        first = m.client("a")
        first.shed_events += 1
        assert m.client("a") is first  # same record, not a fresh one
        assert m.client("a").shed_events == 1
        assert set(m.clients) == {"a"}

    def test_summary_reports_global_counters(self):
        m = ServerMetrics()
        m.admissions = 2
        m.shed_events = 3
        m.promote_events = 1
        m.record_tick(make_tick(physical=25, logical=100))
        text = m.summary()
        assert "shared hit ratio  : 75.0%" in text
        assert "shed events       : 3 (1 promoted back)" in text
        assert "2 admitted" in text

    def test_summary_lists_clients_sorted(self):
        m = ServerMetrics()
        for cid in ("zeta", "alpha"):
            record = m.client(cid)
            record.ticks_served = 4
            record.promote_events = 2
        text = m.summary()
        assert text.index("alpha") < text.index("zeta")
        assert "promoted=2" in text
