"""Tests for packet-loss handling: watchdog, discard, retry (§7.1)."""

import pytest

from repro.core.reliability import RigOperationFailed, RigWatchdog
from repro.core.rig import RigClientUnit, RigServerUnit
from repro.sim import Simulator, Store


def lossy_wire(sim, latency=1e-6, drop_fn=None):
    """A Store pair joined by a forwarder that can drop items."""
    a, b = Store(sim), Store(sim)
    dropped = []

    def fwd():
        while True:
            item = yield a.get()
            yield sim.timeout(latency)
            if drop_fn is not None and drop_fn(item):
                dropped.append(item)
                continue
            yield b.put(item)

    sim.process(fwd())
    return a, b, dropped


def build_loop(sim, drop_read=None, drop_resp=None, **client_kw):
    c2s_in, c2s_out, dropped_r = lossy_wire(sim, drop_fn=drop_read)
    s2c_in, s2c_out, dropped_p = lossy_wire(sim, drop_fn=drop_resp)
    client = RigClientUnit(
        sim, unit_id=0, node=0, tx_queue=c2s_in, rx_queue=s2c_out,
        idx_filter=set(), **client_kw
    )
    RigServerUnit(sim, unit_id=1, node=1, rx_queue=c2s_out,
                  tx_queue=s2c_in, payload_bytes=64)
    return client, dropped_r, dropped_p


class TestWatchdog:
    def test_clean_run_completes_first_attempt(self):
        sim = Simulator()
        client, _, _ = build_loop(sim)
        dog = RigWatchdog(sim, client, timeout=1.0)
        op = dog.execute([1, 2, 3])
        sim.run()
        report = op.value
        assert report.completed
        assert report.attempts == 1
        assert report.timeouts == 0
        assert sorted(client.received_idxs) == [1, 2, 3]

    def test_lost_read_triggers_timeout_and_retry(self):
        sim = Simulator()
        drops = {"armed": True}

        def drop_first_read(pr):
            if drops["armed"] and pr.idx == 2:
                drops["armed"] = False   # only the first attempt's PR
                return True
            return False

        client, dropped, _ = build_loop(sim, drop_read=drop_first_read)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=2)
        op = dog.execute([1, 2, 3])
        sim.run()
        report = op.value
        assert report.completed
        assert report.timeouts == 1
        assert report.attempts == 2
        assert len(dropped) == 1
        # Everything arrives despite the loss.
        assert sorted(set(client.received_idxs)) == [1, 2, 3]

    def test_partial_results_discarded_on_failure(self):
        sim = Simulator()
        drops = {"armed": True}

        def drop_first(pr):
            if drops["armed"] and pr.idx == 5:
                drops["armed"] = False
                return True
            return False

        client, _, _ = build_loop(sim, drop_read=drop_first)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=1)
        op = dog.execute([4, 5, 6])
        sim.run()
        report = op.value
        assert report.completed
        # The two properties that did land in attempt 0 were discarded
        # (the whole host buffer is thrown away, §7.1).
        assert report.discarded_properties == 2
        # Final buffer holds exactly the needed set.
        assert sorted(client.received_idxs) == [4, 5, 6]

    def test_permanent_loss_exhausts_retries(self):
        sim = Simulator()
        client, _, _ = build_loop(sim, drop_read=lambda pr: pr.idx == 9)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=2)
        op = dog.execute([8, 9])
        failures = []

        def driver():
            try:
                yield op
            except RigOperationFailed as exc:
                failures.append(str(exc))

        sim.process(driver())
        sim.run()
        assert failures and "3 attempts" in failures[0]

    def test_lost_response_also_detected(self):
        sim = Simulator()
        drops = {"n": 0}

        def drop_first_resp(resp):
            drops["n"] += 1
            return drops["n"] == 1

        client, _, _ = build_loop(sim, drop_resp=drop_first_resp)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=2)
        op = dog.execute([1, 2])
        sim.run()
        assert op.value.completed
        assert op.value.timeouts >= 1

    def test_stale_responses_dropped_not_recorded(self):
        """A response from an aborted attempt arriving after the retry
        started must not corrupt the buffer (delayed, not lost)."""
        sim = Simulator()
        state = {"delayed": False}
        a, b = Store(sim), Store(sim)
        c2s_in, c2s_out, _ = lossy_wire(sim)

        def slow_fwd():
            while True:
                item = yield a.get()
                if not state["delayed"]:
                    state["delayed"] = True
                    # Past two watchdog periods: attempts 0-1 fail, and
                    # this response lands mid-attempt 2.
                    yield sim.timeout(2.2e-3)
                else:
                    yield sim.timeout(1e-6)
                yield b.put(item)

        sim.process(slow_fwd())
        client = RigClientUnit(sim, unit_id=0, node=0, tx_queue=c2s_in,
                               rx_queue=b, idx_filter=set())
        RigServerUnit(sim, unit_id=1, node=1, rx_queue=c2s_out,
                      tx_queue=a, payload_bytes=64)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=3)
        op = dog.execute([7])
        sim.run()
        assert op.value.completed
        assert client.stats_stale_responses >= 1
        assert client.received_idxs.count(7) == 1

    def test_validation(self):
        sim = Simulator()
        client, _, _ = build_loop(sim)
        with pytest.raises(ValueError):
            RigWatchdog(sim, client, timeout=0.0)
        with pytest.raises(ValueError):
            RigWatchdog(sim, client, timeout=1.0, max_retries=-1)

    def test_rollback_lets_the_retry_re_request_everything(self):
        """Discarding a failed attempt must clear its Idx Filter bits:
        the reissue has to be able to ask for the same idxs again."""
        sim = Simulator()
        drops = {"armed": True}

        def drop_first(pr):
            if drops["armed"] and pr.idx == 11:
                drops["armed"] = False
                return True
            return False

        client, _, _ = build_loop(sim, drop_read=drop_first)
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=1)
        op = dog.execute([10, 11, 12])
        sim.run()
        assert op.value.completed
        # Attempt 0 filtered nothing in attempt 1's way: all three idxs
        # were re-requested and landed exactly once.
        assert sorted(client.received_idxs) == [10, 11, 12]
        assert client.idx_filter == {10, 11, 12}


class TestWatchdogBackoff:
    def run_once(self):
        sim = Simulator()
        client, _, _ = build_loop(
            sim, drop_read=lambda pr: pr.idx == 9 and sim.now < 2e-3
        )
        dog = RigWatchdog(sim, client, timeout=1e-3, max_retries=4)
        op = dog.execute([9])
        sim.run()
        return op.value

    def test_default_reissues_immediately(self):
        report = self.run_once()
        assert report.completed
        # Each re-issue starts the moment its predecessor times out, so
        # the drops (until t=2ms) cost exactly two 1ms timeouts.
        assert report.timeouts == 2
        assert report.elapsed < 3e-3

    def test_attempt_and_timeout_counters_recorded(self):
        from repro.telemetry import MetricsRegistry, telemetry_scope

        reg = MetricsRegistry()
        with telemetry_scope(reg):
            report = self.run_once()
        assert report.completed
        counters = {k: c.value for k, c in reg.counters.items()}
        assert counters["faults.watchdog.attempts"] == report.attempts
        assert counters["faults.watchdog.timeouts"] == report.timeouts
        assert report.timeouts >= 1


class TestLossyDesFabric:
    def test_des_link_drop_counted(self):
        from repro.config import NetSparseConfig
        from repro.dessim.components import NetPacket, SerialLink

        sim = Simulator()
        sink = Store(sim)
        link = SerialLink(sim, "lossy", sink, NetSparseConfig(),
                          drop_fn=lambda p: p.packet_id % 2 == 0)
        pkts = [NetPacket("read", 0, 1, [object()], 0) for _ in range(6)]

        def feed():
            for p in pkts:
                yield link.send(p)

        sim.process(feed())
        sim.run()
        assert link.packets_dropped + len(sink) == 6
        assert link.packets_dropped >= 1
