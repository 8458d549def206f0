"""PhaseTimer behaviour with a deterministic injected clock."""

from repro.perf import PhaseTimer


class FakeClock:
    """Monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_lap_charges_time_since_last_boundary():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    clock.advance(1.5)
    assert timer.lap("setup") == 1.5
    clock.advance(0.25)
    assert timer.lap("run") == 0.25
    assert timer.laps == {"setup": 1.5, "run": 0.25}
    assert timer.total == 1.75


def test_same_name_accumulates():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    clock.advance(1.0)
    timer.lap("run")
    clock.advance(2.0)
    timer.lap("run")
    assert timer.laps == {"run": 3.0}


def test_restart_discards_elapsed_time():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    clock.advance(5.0)
    timer.restart()
    clock.advance(1.0)
    timer.lap("run")
    assert timer.laps == {"run": 1.0}


def test_phase_context_manager_charges_its_scope():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    with timer.phase("work"):
        clock.advance(2.5)
    clock.advance(0.5)
    timer.lap("after")
    assert timer.laps == {"work": 2.5, "after": 0.5}


def test_phase_charges_even_on_exception():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    try:
        with timer.phase("work"):
            clock.advance(1.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert timer.laps == {"work": 1.0}


def test_as_dict_returns_a_copy():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    clock.advance(1.0)
    timer.lap("run")
    snapshot = timer.as_dict()
    snapshot["run"] = 99.0
    assert timer.laps == {"run": 1.0}


def test_run_trace_reports_phases():
    from repro.protocol.stenstrom import StenstromProtocol
    from repro.protocol.messages import MessageCosts
    from repro.sim.engine import run_trace
    from repro.sim.system import System, SystemConfig
    from repro.workloads.markov import markov_block_trace

    trace = markov_block_trace(
        8,
        tasks=[0, 1, 2, 3],
        write_fraction=0.3,
        n_references=200,
        seed=3,
    )
    system = System(SystemConfig(n_nodes=8, costs=MessageCosts.uniform(20)))
    protocol = StenstromProtocol(system)
    timer = PhaseTimer()
    report = run_trace(protocol, trace, timer=timer)
    assert report.n_references == 200
    assert set(timer.laps) == {"reset", "replay", "report"}
    assert all(seconds >= 0.0 for seconds in timer.laps.values())
