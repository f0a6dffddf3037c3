import pytest

from fbclab.errors import ConfigError, InputDomainError
from fbclab.pipeline import (
    SweepRow,
    TimelineEvent,
    TimingParams,
    async_delta_prime,
    async_latency,
    latency_reduction,
    latency_sweep,
    simulate_timeline,
    sync_forward_share,
    sync_latency,
)
from fbclab.results import emit_results, parse_results

P_REF = TimingParams(10, 4, 9)


def test_reference_point_values():
    assert sync_latency(P_REF) == 122
    assert async_latency(P_REF) == 69
    assert async_delta_prime(P_REF) == 3
    assert latency_reduction(P_REF) == pytest.approx(0.434426, abs=1e-6)
    assert sync_forward_share(P_REF) == pytest.approx(0.737705, abs=1e-6)


def test_floor_cases():
    p = TimingParams(10, 8, 9)
    assert async_delta_prime(p) == 1  # (10-8)/2 lands exactly on the floor
    assert async_latency(p) == 83
    assert sync_latency(p) == 154
    assert latency_reduction(p) == pytest.approx(0.46104, abs=1e-4)
    for delta, dt in [(4, 4), (5, 4), (6, 4), (3, 10)]:
        assert async_delta_prime(TimingParams(delta, dt, 9)) == 1


def test_degenerate_sync_cases():
    assert sync_latency(TimingParams(7, 0, 4)) == 28
    assert sync_latency(TimingParams(7, 3, 1)) == 7


def test_closed_forms_reject_a_zero_sync_total():
    idle = TimingParams(0, 0, 9)
    assert sync_latency(idle) == 0
    for closed_form in (latency_reduction, sync_forward_share):
        with pytest.raises(InputDomainError, match="^the lock-step total is 0 ms"):
            closed_form(idle)


def test_timing_bounds_name_the_field():
    with pytest.raises(ConfigError, match=r"^delta: must be >= 0, got -1$"):
        TimingParams(delta=-1)
    with pytest.raises(ConfigError, match=r"^rounds: must be >= 1, got 0$"):
        TimingParams(rounds=0)


def test_async_requires_two_rounds():
    p = TimingParams(10, 4, 1)
    with pytest.raises(InputDomainError):
        async_latency(p)
    with pytest.raises(InputDomainError):
        simulate_timeline(p, "async")
    with pytest.raises(ConfigError):
        simulate_timeline(P_REF, "nope")


def test_simulator_equals_closed_forms_exhaustively():
    for delta in range(1, 31):
        for dtilde in range(0, 16):
            for rounds in range(2, 13):
                p = TimingParams(delta, dtilde, rounds)
                assert simulate_timeline(p, "sync").total_latency == sync_latency(p)
                assert simulate_timeline(p, "async").total_latency == async_latency(p)


def test_dominance_holds_for_delta_above_one():
    # At delta = 1, the pipelined closed form exceeds lock-step by exactly
    # min_forward: its floor charges a full slot the serial schedule never pays.
    for delta in range(2, 31):
        for dtilde in range(0, 16):
            for rounds in range(2, 13):
                p = TimingParams(delta, dtilde, rounds)
                assert async_latency(p) <= sync_latency(p)
    for dtilde in range(0, 16):
        for rounds in range(2, 13):
            p = TimingParams(1, dtilde, rounds)
            assert async_latency(p) == sync_latency(p) + p.min_forward


def test_monotonic_in_every_parameter():
    for fn in (sync_latency, async_latency):
        for delta in range(2, 30):
            assert fn(TimingParams(delta + 1, 4, 9)) >= fn(
                TimingParams(delta, 4, 9)
            )
        for dt in range(0, 15):
            assert fn(TimingParams(10, dt + 1, 9)) >= fn(
                TimingParams(10, dt, 9)
            )
        for rounds in range(2, 12):
            assert fn(TimingParams(10, 4, rounds + 1)) >= fn(
                TimingParams(10, 4, rounds)
            )


def test_timeline_event_invariants():
    for mode in ("sync", "async"):
        tl = simulate_timeline(P_REF, mode)
        times = [e.time_ms for e in tl.events]
        assert times == sorted(times)
        per_round = {}
        for e in tl.events:
            per_round.setdefault(e.round, {})[e.kind] = e.time_ms
        assert len(per_round) == 9
        for t, ev in per_round.items():
            assert ev["EncodeStart"] <= ev["EncodeEnd"] <= ev["TxStart"] <= ev["TxEnd"]
            if t <= 7:
                assert ev["FbStart"] >= ev["TxEnd"]
                assert ev["FbEnd"] == ev["FbStart"] + P_REF.delta_tilde
            else:
                assert "FbStart" not in ev


def test_fractional_delta_prime_is_exact():
    p = TimingParams(9, 4, 9)  # (9-4)/2 = 2.5
    assert async_delta_prime(p) == 2.5
    assert simulate_timeline(p, "async").total_latency == async_latency(p)


def test_jitter_single_long_stall():
    tl = simulate_timeline(P_REF, "async", inference_jitter={5: 100.0})
    assert tl.skipped_rounds == [5]
    assert sum(1 for e in tl.events if e.kind == "SlotSkipped") == 1
    assert sum(1 for e in tl.events if e.kind == "TxEnd") == 9
    assert tl.total_latency >= async_latency(P_REF)
    # the skip lands exactly where round 5 would have transmitted
    skip = next(e for e in tl.events if e.kind == "SlotSkipped")
    clean = simulate_timeline(P_REF, "async")
    nominal = next(
        e for e in clean.events if e.kind == "TxStart" and e.round == 5
    )
    assert skip.time_ms == nominal.time_ms


def test_zero_jitter_and_first_round_stall():
    tl = simulate_timeline(P_REF, "async", inference_jitter={t: 0.0 for t in range(9)})
    assert tl.total_latency == async_latency(P_REF)
    tl2 = simulate_timeline(
        P_REF, "sync", inference_jitter={0: 2.0}
    )
    assert tl2.skipped_rounds == [0]
    assert tl2.total_latency == sync_latency(P_REF) + P_REF.delta + P_REF.delta_tilde


def test_timeline_csv(tmp_path):
    # A stalled session: every event kind, a skipped slot included, reads back.
    tl = simulate_timeline(P_REF, "async", inference_jitter={5: 100.0})
    path = tmp_path / "timeline.csv"
    emit_results(tl.events, path, TimelineEvent)
    assert parse_results(path, TimelineEvent) == tl.events


def test_sweep_rows_and_monotone_shapes(tmp_path):
    rows = latency_sweep(range(1, 31), [4], 9)
    async_rows = [r for r in rows if r.mode == "async"]
    sync_rows = [r for r in rows if r.mode == "sync"]
    # effective forward interval: flat at the floor, then growing, below sync
    dprimes = [r.delta_prime_ms for r in async_rows]
    assert dprimes[:3] == [1, 1, 1]
    assert all(b >= a for a, b in zip(dprimes, dprimes[1:]))
    assert all(a.delta_prime_ms <= s.delta_prime_ms for a, s in zip(async_rows, sync_rows))
    totals = [r.total_ms for r in async_rows]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    assert all(
        a.total_ms <= s.total_ms for a, s in zip(async_rows, sync_rows) if a.delta_ms >= 2
    )

    fb_rows = latency_sweep([10], range(0, 16), 9)
    fb_async = [r for r in fb_rows if r.mode == "async"]
    fb_dprime = [r.delta_prime_ms for r in fb_async]
    assert all(b <= a for a, b in zip(fb_dprime, fb_dprime[1:]))  # shrinks toward the floor
    assert fb_dprime[-1] == 1
    fb_totals = [r.total_ms for r in fb_async]
    assert all(b >= a for a, b in zip(fb_totals, fb_totals[1:]))
    assert all(
        a.total_ms <= s.total_ms
        for a, s in zip(fb_async, (r for r in fb_rows if r.mode == "sync"))
    )

    path = tmp_path / "sweep.csv"
    emit_results(rows, path, SweepRow)
    assert "10,4,async,3,69" in path.read_text().splitlines()
