"""Per-simulation monotonic counters (the id source no module global replaces)."""

from repro.sim.simulation import Simulation


def test_sequence_is_monotonic_per_name():
    sim = Simulation(seed=0)
    assert [sim.sequence("a") for _ in range(3)] == [0, 1, 2]


def test_sequences_are_independent_per_name():
    sim = Simulation(seed=0)
    sim.sequence("a")
    sim.sequence("a")
    assert sim.sequence("b") == 0


def test_sequence_honours_start():
    sim = Simulation(seed=0)
    assert sim.sequence("mac", start=100) == 100
    assert sim.sequence("mac", start=100) == 101


def test_fresh_simulations_replay_identical_sequences():
    """Counters live on the Simulation, not the process: no cross-run bleed."""
    def draw(seed):
        sim = Simulation(seed=seed)
        return [sim.sequence("x") for _ in range(4)]

    assert draw(1) == draw(1) == [0, 1, 2, 3]
