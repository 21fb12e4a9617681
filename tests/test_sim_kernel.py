"""Tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Kernel, SimulationError, Timer


class TestKernel:
    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_events_run_in_time_order(self):
        kernel = Kernel()
        order = []
        kernel.call_at(20.0, lambda: order.append("b"))
        kernel.call_at(10.0, lambda: order.append("a"))
        kernel.call_at(30.0, lambda: order.append("c"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        kernel = Kernel()
        order = []
        for label in "abc":
            kernel.call_at(5.0, lambda label=label: order.append(label))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(42.0, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [42.0]
        assert kernel.now == 42.0

    def test_call_after_relative(self):
        kernel = Kernel()
        times = []
        kernel.call_at(10.0, lambda: kernel.call_after(5.0, lambda: times.append(kernel.now)))
        kernel.run()
        assert times == [15.0]

    def test_schedule_in_past_rejected(self):
        kernel = Kernel()
        kernel.call_at(10.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Kernel().call_after(-1.0, lambda: None)

    def test_run_until_inclusive(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(10.0, lambda: fired.append(10))
        kernel.call_at(20.0, lambda: fired.append(20))
        kernel.run(until=10.0)
        assert fired == [10]
        assert kernel.now == 10.0
        kernel.run()
        assert fired == [10, 20]

    def test_run_until_advances_clock_when_idle(self):
        kernel = Kernel()
        kernel.run(until=100.0)
        assert kernel.now == 100.0

    def test_cancel(self):
        kernel = Kernel()
        fired = []
        handle = kernel.call_at(10.0, lambda: fired.append(1))
        handle.cancel()
        kernel.run()
        assert fired == []
        assert handle.cancelled

    def test_max_events(self):
        kernel = Kernel()
        fired = []
        for i in range(10):
            kernel.call_at(float(i), lambda i=i: fired.append(i))
        kernel.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(1.0, lambda: fired.append(1))
        assert kernel.step() is True
        assert fired == [1]
        assert kernel.step() is False

    def test_events_executed_counter(self):
        kernel = Kernel()
        for i in range(5):
            kernel.call_at(float(i), lambda: None)
        kernel.run()
        assert kernel.events_executed == 5

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        kernel.call_at(1.0, lambda: None)
        handle = kernel.call_at(2.0, lambda: None)
        handle.cancel()
        assert kernel.pending == 1

    # "wheel" pushes the deadlines earliest-first, the layout that once put
    # one live and one cancelled event in each region of the retired timer
    # wheel (cursor bucket, slot, overflow); "heap" pushes them latest-first,
    # so every cancelled entry is sifted through the heap's interior
    @pytest.mark.parametrize("order", (1, -1), ids=("wheel", "heap"))
    def test_pending_counts_cancellations_wherever_they_wait(self, order):
        # one live + one cancelled event near the head, mid-queue and far
        # out: each cancelled entry stays queued until it reaches the head
        kernel = Kernel()
        times = (1.0, 2.0, 500.0, 501.0, 60_000.0, 60_001.0)
        handles = {t: kernel.call_at(t, lambda: None) for t in times[::order]}
        assert kernel.pending == 6
        for t in times[1::2]:
            handles[t].cancel()
            handles[t].cancel()  # idempotent: counted once
        assert kernel.pending == 3
        kernel.run(until=10.0)  # fires 1.0, lazily discards 2.0
        assert kernel.pending == 2
        handles[1.0].cancel()  # already fired: a stale handle counts nothing
        assert kernel.pending == 2
        kernel.run(until=1_000.0)
        assert kernel.pending == 1
        late = kernel.call_after(5.0, lambda: None)
        assert kernel.pending == 2
        late.cancel()
        kernel.run()
        assert kernel.pending == 0
        assert kernel.events_executed == 3

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_times_rejected(self, bad):
        # a NaN would silently break the heap order; +/-inf would move
        # the clock off the end of time
        kernel = Kernel()
        kernel.call_at(1.0, lambda: None)
        for schedule in (kernel.call_at, kernel.call_after, kernel.post_after):
            with pytest.raises(SimulationError):
                schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            kernel.run(until=bad)
        assert kernel.pending == 1
        assert kernel.now == 0.0
        kernel.run()
        assert kernel.now == 1.0

    def test_callback_exception_names_its_event(self):
        kernel = Kernel()

        def explode() -> None:
            raise ValueError("boom")

        kernel.call_at(7.5, explode, label="recovery.heartbeat")
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        text = str(excinfo.value)
        assert "recovery.heartbeat" in text
        assert "7.5" in text
        assert "ValueError: boom" in text
        assert isinstance(excinfo.value.__cause__, ValueError)
        # unlabeled: the callback's qualified name, never an address
        kernel.call_after(1.0, explode)
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        assert "explode" in str(excinfo.value)
        assert "0x" not in str(excinfo.value)
        # a SimulationError from inside a callback passes through as is
        inner = SimulationError("inner guard")

        def misuse() -> None:
            raise inner

        kernel.call_after(1.0, misuse)
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        assert excinfo.value is inner


class TestTimer:
    def test_fires_repeatedly(self):
        kernel = Kernel()
        ticks = []
        timer = Timer(kernel, interval=10.0, callback=lambda: ticks.append(kernel.now))
        timer.start()
        kernel.run(until=35.0)
        timer.stop()
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_prevents_future_fires(self):
        kernel = Kernel()
        ticks = []
        timer = Timer(kernel, interval=10.0, callback=lambda: ticks.append(kernel.now))
        timer.start()
        kernel.call_at(25.0, timer.stop)
        kernel.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Timer(Kernel(), interval=0.0, callback=lambda: None)

    def test_double_start_is_noop(self):
        kernel = Kernel()
        ticks = []
        timer = Timer(kernel, interval=10.0, callback=lambda: ticks.append(1))
        timer.start()
        timer.start()
        kernel.run(until=10.0)
        assert ticks == [1]

    def test_jitter_applied(self):
        kernel = Kernel()
        ticks = []
        timer = Timer(
            kernel, interval=10.0, callback=lambda: ticks.append(kernel.now),
            jitter=lambda: 2.5,
        )
        timer.start()
        kernel.run(until=26.0)
        timer.stop()
        assert ticks == [12.5, 25.0]

    def test_restart_inside_own_callback_fires_once_per_interval(self):
        # Regression: _fire rescheduled after the callback even when the
        # callback had already restarted the timer, so every later
        # interval fired twice.
        kernel = Kernel()
        ticks = []

        def tick() -> None:
            ticks.append(kernel.now)
            if len(ticks) == 1:
                timer.stop()
                timer.start()

        timer = Timer(kernel, interval=10.0, callback=tick)
        timer.start()
        kernel.run(until=55.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert kernel.pending == 1


class TestSchedulerGuardsAndHooks:
    """Run-loop guards tripping inside a same-time burst, stale-handle
    safety, and what the event hook observes."""

    def test_step_cap_trips_mid_bucket(self):
        # Many events close together; the cap must trip partway through
        # them and name the last callback.
        kernel = Kernel()
        fired = []
        for i in range(10):
            kernel.call_at(1.0 + i * 0.1, lambda i=i: fired.append(i), label=f"ev-{i}")
        kernel.step_cap = 4
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        assert fired == [0, 1, 2, 3]
        assert "ev-3" in str(excinfo.value)

    def test_wall_budget_trips_mid_bucket(self):
        import time as _time

        kernel = Kernel()
        kernel.wall_time_budget = 0.0  # trips on the first check
        kernel.call_at(1.0, lambda: _time.sleep(0))
        with pytest.raises(SimulationError):
            kernel.run()

    def test_cancel_of_already_fired_event_is_isolated(self):
        # A fired event's handle no longer refers to the kernel: a stale
        # cancel() must neither touch the next event nor skew pending.
        kernel = Kernel()
        fired = []
        stale = kernel.call_at(1.0, lambda: fired.append("first"))
        kernel.run()
        later = kernel.call_at(2.0, lambda: fired.append("second"))
        stale.cancel()  # no-op: the event already fired
        assert not later.cancelled
        assert kernel.pending == 1
        kernel.run()
        assert fired == ["first", "second"]

    def test_schedule_exactly_at_now_runs_this_pass(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(5.0, lambda: kernel.call_at(5.0, lambda: fired.append("inner")))
        kernel.run()
        assert fired == ["inner"]
        assert kernel.now == 5.0

    def test_hook_and_profiler_counts_match_across_schedulers(self):
        # The event hook is the kernel's one per-event observer (the
        # profiler that shared this test is retired): it sees every
        # schedule and every fire, and the pending depth at each fire
        # leaves out cancelled-but-undiscarded entries.
        kernel = Kernel()
        hook_events = []
        pendings = []

        def hook(kind, t, label):
            hook_events.append(kind)
            if kind == "fire":
                pendings.append(kernel.pending)

        kernel.event_hook = hook
        doomed = []
        for i in range(6):
            handle = kernel.call_after(10.0 * i + 1.0, lambda: None)
            if i % 3 == 0:
                doomed.append(handle)
        for handle in doomed:
            handle.cancel()
        kernel.run()
        observed = (
            hook_events.count("schedule"),
            hook_events.count("fire"),
            pendings,
        )
        assert observed == (6, 4, [3, 2, 1, 0])

    def test_event_hook_installed_by_a_callback_labels_what_follows(self):
        # post_after skips the hook machinery only while no observer is
        # set; one installed mid-run sees every event scheduled after it.
        kernel = Kernel()
        seen = []

        def delivery():
            pass

        def install():
            kernel.event_hook = lambda kind, t, label: seen.append((kind, t, label))
            kernel.post_after(1.0, delivery)
            kernel.post_after(2.0, delivery, label="net.deliver:x/y")
            kernel.call_after(3.0, delivery)

        kernel.post_after(5.0, install)
        kernel.post_after(0.5, delivery)  # before the hook: fired unseen
        kernel.run()
        name = delivery.__qualname__
        assert seen == [
            ("schedule", 6.0, name),
            ("schedule", 7.0, "net.deliver:x/y"),
            ("schedule", 8.0, name),
            ("fire", 6.0, name),
            ("fire", 7.0, "net.deliver:x/y"),
            ("fire", 8.0, name),
        ]

    def test_describe_event_fallback_has_no_memory_address(self):
        # Regression: the unlabeled fallback used repr(callback), whose
        # 0x... address broke cross-run diffability.  Trip the guard the
        # way production does and read the error it raises.
        import functools

        def my_callback():
            pass

        for callback, name in (
            (my_callback, "my_callback"),
            (lambda: None, "<lambda>"),
            (functools.partial(my_callback), "partial"),
        ):
            kernel = Kernel()
            kernel.call_at(1.0, callback)
            kernel.call_at(2.0, callback)
            kernel.step_cap = 1
            with pytest.raises(SimulationError) as excinfo:
                kernel.run()
            text = str(excinfo.value)
            assert "0x" not in text
            assert text.endswith(name)

    def test_labeled_describe_event_uses_label(self):
        kernel = Kernel()
        kernel.call_at(1.0, lambda: None, label="recovery.heartbeat")
        kernel.call_at(2.0, lambda: None)
        kernel.step_cap = 1
        with pytest.raises(SimulationError) as excinfo:
            kernel.run()
        assert "last callback: recovery.heartbeat" in str(excinfo.value)
