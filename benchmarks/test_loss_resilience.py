"""Failure injection — the distributed protocol under message loss.

Not a paper figure: Sec. III-C motivates contention exactly because real
802.11 control traffic collides and drops.  This bench sweeps a unicast
loss rate over Algorithm 2 and checks graceful degradation: every client
is still served at any loss rate (producer fallback), while the number of
opened caches shrinks as TIGHT/SPAN support evaporates.
"""

from repro import DistributedConfig, grid_problem, solve_distributed


def test_loss_resilience(benchmark):
    problem = grid_problem(6)

    def run():
        outcomes = {}
        for rate in (0.0, 0.2, 0.5, 0.8):
            outcome = solve_distributed(
                problem, DistributedConfig(loss_rate=rate, fault_seed=42)
            )
            outcome.placement.validate()  # always feasible
            outcomes[rate] = outcome
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    copies = {rate: o.placement.total_copies() for rate, o in outcomes.items()}
    print(f"\ncached copies by loss rate: {copies}")
    # more loss → no more caches than the clean run, and heavy loss
    # clearly collapses cache formation
    assert copies[0.5] <= copies[0.0]
    assert copies[0.8] <= copies[0.2]
    assert copies[0.8] < copies[0.0]

    # fewer successful control messages are *recorded* under loss
    messages = {
        rate: o.stats.total_messages() for rate, o in outcomes.items()
    }
    assert messages[0.8] < messages[0.0]
