"""The benchmark's own arithmetic: self time, the account, percentiles,
normalization and failure counting."""

import math
import os
import random

import pytest

from perfbench import account, host, layers, reference, run
from perfbench.workloads import WORKLOADS, CheckFailed, Workload

MS = 1_000_000


def _self(spans, wall):
    self_ns, unattributed = account.exclusive_times(spans, *wall)
    return self_ns, unattributed


class TestExclusiveTime:
    def test_nested_spans_lose_their_childrens_union(self):
        spans = [
            (1, 0, "parent", 0, 100),
            (2, 1, "child", 10, 30),
            (3, 2, "grandchild", 15, 20),
            (4, 1, "child", 50, 60),
        ]
        self_ns, unattributed = _self(spans, (0, 120))
        assert self_ns == {1: 70, 2: 15, 3: 5, 4: 10}
        assert unattributed == 20

    def test_forked_workers_share_the_instants_they_overlap(self):
        # Main-process pool span A; two workers forked under it, one with a
        # nested child.  Where both workers run, each gets half.
        pid2, pid3 = 2 << 32, 3 << 32
        spans = [
            (1, 0, "pool", 0, 10),
            (pid2 | 1, 1, "task", 2, 8),
            (pid2 | 2, pid2 | 1, "phy", 3, 4),
            (pid3 | 1, 1, "task", 4, 6),
        ]
        self_ns, unattributed = _self(spans, (0, 10))
        assert self_ns[1] == 4  # pool wall not covered by worker busy time
        assert self_ns[pid2 | 1] == 1 + 1 + 2
        assert self_ns[pid2 | 2] == 1
        assert self_ns[pid3 | 1] == 1
        assert unattributed == 0
        assert sum(self_ns.values()) + unattributed == 10

    def test_worker_spans_in_one_process_reduce_to_duration_minus_children(self):
        spans = [(1, 0, "a", 0, 10), (2, 1, "b", 0, 10)]
        self_ns, _ = _self(spans, (0, 10))
        assert self_ns == {1: 0, 2: 10}

    def test_spans_are_clipped_to_the_wall(self):
        self_ns, unattributed = _self([(1, 0, "a", -5, 5)], (0, 10))
        assert self_ns[1] == 5
        assert unattributed == 5

    def test_unattributed_row_closes_the_account(self):
        rng = random.Random(7)
        spans = []
        next_id = [0]

        def grow(pid, parent, start, end, depth):
            cursor = start
            while cursor < end and depth < 4:
                a = cursor + rng.randint(0, 20)
                b = a + rng.randint(1, 60)
                if b > end:
                    break
                next_id[0] += 1
                span_id = (pid << 32) | next_id[0]
                spans.append((span_id, parent, f"d{depth}", a, b))
                grow(pid, span_id, a, b, depth + 1)
                cursor = b

        grow(1, 0, 0, 2000, 0)
        pool = spans[0][0]
        for pid in (2, 3):  # two forked workers under the first span
            grow(pid, pool, spans[0][3], spans[0][4], 1)
        self_ns, unattributed = _self(spans, (0, 2500))
        assert sum(self_ns.values()) + unattributed == pytest.approx(2500)
        assert all(value >= 0 for value in self_ns.values())

    def test_layer_metrics_close_against_the_traced_wall(self):
        spans = [
            (1, 0, "sim.engine", 10 * MS, 90 * MS),
            (2, 1, "net.deployment", 20 * MS, 60 * MS),
            (3, 2, "core", 30 * MS, 40 * MS),
        ]
        edged = layers.with_process_edges(spans, 0, 5 * MS, 95 * MS, 100 * MS)
        metrics, rows = layers.metrics(
            edged, {"sim.engine.events": 40}, (0, 100 * MS), 2.0, {}
        )
        assert sum(rows.values()) == pytest.approx(100.0)
        assert metrics["cli.import_ms"] == pytest.approx(5.0)
        assert metrics["cli.teardown_ms"] == pytest.approx(5.0)
        assert metrics["unattributed_ms"] == pytest.approx(10.0)
        assert metrics["sim.engine.self_ms_per_user_s"] == pytest.approx(20.0)
        assert metrics["net.deployment.self_ms_per_user_s"] == pytest.approx(15.0)
        assert metrics["core.self_ms_per_user_s"] == pytest.approx(5.0)
        assert metrics["core.callbacks"] == 1
        assert metrics["sim.engine.us_per_event"] == pytest.approx(1000.0)


class TestPercentileRule:
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n in range(1, 400):
            q = account.tail_percentile(n)

            def beyond(p):
                return n - math.ceil(p * n / 100)

            if q is None:
                assert n <= 20 or beyond(51) < 10, n
            else:
                assert q > 50, n
                assert beyond(q) >= 10, n
                assert beyond(q + 1) < 10, n

    def test_summary_reports_the_sample_count(self):
        values = [float(v) for v in range(1, 73)]
        summary = account.timing_summary(values)
        assert summary == {"n": 72, "p50": 36.5, "tail": 62.0, "tail_pct": 86}
        assert sum(v > summary["tail"] for v in values) == 10

    def test_too_few_samples_report_only_the_median(self):
        summary = account.timing_summary([5.0, 1.0, 3.0])
        assert summary == {"n": 3, "p50": 3.0, "tail": 3.0, "tail_pct": 50}


class TestNormalization:
    def test_simulated_user_seconds_per_workload(self):
        assert WORKLOADS["fleet-street"].user_seconds() == 128 * 2.0
        assert WORKLOADS["fleet-corridor"].user_seconds() == pytest.approx(1024 * 0.2)
        assert WORKLOADS["fleet-sharded"].user_seconds() == pytest.approx(10240 * 0.02)
        # walk 10 s + rotation 8 s + vehicular 4 s, x 3 arms x 8 seeds.
        assert WORKLOADS["campaign-tracking"].user_seconds() == 22.0 * 3 * 8

    def test_operations_per_workload(self):
        assert [WORKLOADS[name].operations() for name in WORKLOADS] == [1, 1, 16, 72]


class TestFailureCounting:
    def test_failed_check_fails_every_operation_of_the_run(self):
        outcomes = [(1, True), (16, False), (72, True), (72, False)]
        assert account.count_failures(outcomes) == (161, 16 + 72)

    def test_digest_majority_flags_the_odd_run_out(self):
        assert account.digest_outliers(["a", "a", "b"]) == [False, False, True]
        assert account.digest_outliers([None, "a"]) == [True, False]
        assert account.digest_outliers(["a", "b"]) == [False, True]
        assert account.digest_outliers([None]) == [True]

    def test_soft_share_of_handover_attempts(self):
        metrics = layers.handover_metrics({"soft": 47, "hard": 0, "failed": 25})
        assert metrics["core.handovers"] == 47
        assert metrics["core.handovers_failed"] == 25
        assert metrics["core.soft_ho_frac"] == pytest.approx(47 / 72)
        assert layers.handover_metrics({})["core.soft_ho_frac"] == 0.0


class TestOutputChecks:
    def _fleet(self, tmp_path, users):
        workload = Workload(name="w", why="", kind="fleet", users=2, duration_s=1.0)
        path = tmp_path / "fleet.json"
        path.write_text(
            '{"fleet": {"n_users": 2}, "users": %s, "aggregates": {"totals": '
            '{"users": 2, "soft_handovers": 1, "hard_handovers": 0, '
            '"handovers_failed": 1}}}' % users
        )
        return workload, path

    def test_complete_fresh_artifact_passes(self, tmp_path):
        workload, path = self._fleet(tmp_path, "[{}, {}]")
        outcome = workload.check(path, 0)
        assert outcome.handovers == {"soft": 1, "hard": 0, "failed": 1}
        assert len(outcome.digest) == 64

    def test_incomplete_users_fail(self, tmp_path):
        workload, path = self._fleet(tmp_path, "[{}]")
        with pytest.raises(CheckFailed):
            workload.check(path, 0)

    def test_artifact_older_than_the_run_counts_as_skipped(self, tmp_path):
        workload, path = self._fleet(tmp_path, "[{}, {}]")
        os.utime(path, ns=(10, 10))
        with pytest.raises(CheckFailed, match="predates"):
            workload.check(path, 11)


def test_hosts_with_other_cpus_are_not_compared():
    a = {"cpu_count": 2, "affinity": [0, 1]}
    host.check_comparable(a, dict(a))
    with pytest.raises(host.HostMismatch):
        host.check_comparable(a, {"cpu_count": 2, "affinity": [0]})
    with pytest.raises(host.HostMismatch):
        host.check_comparable(a, {"cpu_count": 1, "affinity": [0, 1]})


def test_wrapper_gaps_are_charged_to_trace_wrap_not_the_caller():
    # A caller [0, 100] wraps one call: wrapper [10, 40], call [15, 35].
    names = ["caller", "callee"]
    records = [
        1, 0, 0, 0, 0, 100, 100,
        2, 1, 1, 10, 15, 35, 40,
    ]
    spans = list(layers.expand_records(records, names))
    assert spans == [
        (1, 0, "caller", 0, 100),
        (2 | layers.WRAP_BIT, 1, "trace.wrap", 10, 40),
        (2, 2 | layers.WRAP_BIT, "callee", 15, 35),
    ]
    self_ns, unattributed = account.exclusive_times(spans, 0, 100)
    by_name = account.self_by_name(spans, self_ns)
    assert by_name == {"caller": 70, "trace.wrap": 10, "callee": 20}
    assert unattributed == 0


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    # The host slows by 0%, 25% and 50% across three runs, and the
    # reference sample before each run slows with it.
    workload = WORKLOADS["fleet-street"]
    base = reference.REFERENCE_S[workload.processes()]
    runs = [
        run.Run(mode="probe", status=0, wall_s=2.0 * k, setup_s=0.5 * k,
                peak_rss_mb=50.0, operations=1, reference_s=base * k)
        for k in (1.0, 1.25, 1.5)
    ]
    metrics = run.end_to_end(runs, workload)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["user_sim_s_per_s"] == pytest.approx(256 / 1.5)
    assert metrics["peak_rss_mb"] == 50.0
    assert reference.scale([], 1) == 1.0
