"""Edge cases in the runtime hook registry and the wall-clock guard.

The lint leans on both: DQG02's "engine code cannot reach
wall-clock" claim is only as strong as the runtime guard that backs it
in sanitized runs, and the hook registry is the single global slot
every product hot path consults.  These tests pin the corner behavior:
enable/disable re-entrancy (last suite wins, disable is idempotent)
and guard calls from ``repro.*`` frames that *miss* the allow-list.
"""

import time

import pytest

from repro.analysis import runtime
from repro.analysis.sanitizers import WallClockGuard
from repro.errors import SanitizerError


class RecorderSuite:
    def __init__(self):
        self.events = []

    def page_read(self, disk, page_id, payload):
        self.events.append(("page_read", page_id))

    def tick_end(self, broker):
        self.events.append(("tick_end", broker))


@pytest.fixture(autouse=True)
def preserve_runtime_slot():
    before = runtime.suite()
    yield
    if before is None:
        runtime.disable()
    else:
        runtime.enable(before)


class TestRuntimeReentrancy:
    def test_enable_twice_last_suite_wins(self):
        first, second = RecorderSuite(), RecorderSuite()
        runtime.enable(first)
        runtime.enable(second)
        assert runtime.suite() is second
        runtime.page_read("disk", 7, b"")
        assert second.events == [("page_read", 7)]
        assert first.events == []

    def test_disable_after_nested_enable_clears_the_slot(self):
        runtime.enable(RecorderSuite())
        runtime.enable(RecorderSuite())
        runtime.disable()
        # One disable clears the slot entirely: the registry is a
        # single slot, not a stack — re-enabling needs an explicit
        # enable with the suite you want.
        assert not runtime.active()
        assert runtime.suite() is None

    def test_disable_is_idempotent(self):
        runtime.disable()
        runtime.disable()
        assert not runtime.active()

    def test_hooks_are_noops_when_disabled(self):
        runtime.disable()
        runtime.page_read("disk", 1, b"")
        runtime.tick_end("broker")  # must not raise, must not record

    def test_hooks_forward_again_after_reenable(self):
        suite = RecorderSuite()
        runtime.enable(suite)
        runtime.disable()
        runtime.enable(suite)
        runtime.tick_end("b")
        assert suite.events == [("tick_end", "b")]


def make_repro_caller(module_name, func_name):
    """A function whose frame claims to live in ``module_name``."""
    namespace = {"__name__": module_name, "time": time}
    exec(
        f"def {func_name}():\n    return time.time()\n",
        namespace,
    )
    return namespace[func_name]


@pytest.fixture
def guard():
    g = WallClockGuard()
    g.install()
    yield g
    g.uninstall()


class TestWallClockGuardAllowList:
    def test_repro_frame_off_the_allow_list_raises(self, guard):
        caller = make_repro_caller("repro.core.pdq", "evaluate")
        with pytest.raises(SanitizerError) as exc:
            caller()
        assert "repro.core.pdq.evaluate" in str(exc.value)

    def test_allow_listed_module_with_wrong_function_raises(self, guard):
        # The list holds (module, function) *sites*: being anywhere in
        # repro.cli is not enough.
        caller = make_repro_caller("repro.cli", "_cmd_stats")
        with pytest.raises(SanitizerError):
            caller()

    def test_allow_listed_site_passes(self, guard):
        caller = make_repro_caller("repro.cli", "_cmd_figures")
        assert isinstance(caller(), float)

    def test_non_repro_caller_passes(self, guard):
        assert isinstance(time.time(), float)

    def test_error_names_the_allow_list(self, guard):
        caller = make_repro_caller("repro.server.broker", "run_tick")
        with pytest.raises(SanitizerError) as exc:
            caller()
        assert "repro.cli._cmd_figures" in str(exc.value)

    def test_install_is_reentrant(self):
        original = time.time
        g = WallClockGuard()
        g.install()
        patched = time.time
        g.install()  # second install must not wrap the wrapper
        assert time.time is patched
        g.uninstall()
        assert time.time is original

    def test_stacked_guards_skip_each_others_frames(self):
        outer, inner = WallClockGuard(), WallClockGuard()
        outer.install()
        inner.install()
        try:
            # Two guards are stacked; a repro caller is still caught
            # (not mistaken for a guard frame) and others pass through.
            caller = make_repro_caller("repro.index.nsi", "probe")
            with pytest.raises(SanitizerError):
                caller()
            assert isinstance(time.time(), float)
        finally:
            inner.uninstall()
            outer.uninstall()
        assert isinstance(time.time(), float)
