"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import csv
import math
import random
import statistics
import time
from pathlib import Path


from orchard_mtvrp.cli import main
from orchard_mtvrp.clsm import aco_tour, clsm_step
from orchard_mtvrp.core import GiantSolution, Instance, decode_trips, evaluate, trip_energy
from orchard_mtvrp.evolution import Archive, SolverConfig, run_aedga, selection_probabilities
from orchard_mtvrp.instances import OrchardSpec, generate_orchard
from orchard_mtvrp.oracle import exact_route_generation, exact_schedule, exact_tour
from orchard_mtvrp.scheduler import Framework, RepairStatus, makespan_assign, repair, thresholds
from orchard_mtvrp.stats import friedman, wilcoxon_signed_rank

FIXTURES = Path(__file__).parent / "fixtures"


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _desk_instance(seed: int) -> Instance:
    """n in {5,6,7} with capacity forcing 2-3 trips."""
    rng = random.Random(10_000 + seed)
    n = 5 + seed % 3
    coords = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n + 1)]
    yields = [0.0] + [rng.uniform(5.0, 15.0) for _ in range(n)]
    capacity = sum(yields) / rng.uniform(1.6, 2.3)
    assert 2 <= math.ceil(sum(yields) / capacity) <= 3
    return Instance(tuple(coords), tuple(yields), capacity, capacity / 3)


def _random_solution(inst: Instance, rng: random.Random) -> GiantSolution:
    perm = list(inst.task_ids)
    rng.shuffle(perm)
    tokens: list[int] = []
    for t in perm:
        if tokens and rng.random() < 0.3:
            tokens.append(0)
        tokens.append(t)
    return GiantSolution.from_tokens(tuple(tokens))


def test_criterion_01_oracle_optimality_desk_scale():
    start = time.monotonic()
    exact = within = 0
    runs = 50
    for seed in range(runs):
        inst = _desk_instance(seed)
        optimum = exact_route_generation(inst).energy
        result = run_aedga(
            inst,
            SolverConfig(budget_evals=50_000, stagnation_evals=15_000, seed=seed),
        )
        gap = (result.best_energy - optimum) / optimum
        assert gap >= -1e-9
        if abs(gap) <= 1e-9:
            exact += 1
        if gap <= 0.02 + 1e-12:
            within += 1
    elapsed = time.monotonic() - start
    ok = exact >= 0.9 * runs and within == runs and elapsed <= 120.0
    _report(1, ok, f"exact {exact}/{runs}, within 2% {within}/{runs}, {elapsed:.1f}s")


def test_criterion_02_evaluation_decomposition():
    rng = random.Random(4242)
    worst = 0.0
    exact_matches = 0
    feasible_seen = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        coords = [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(n + 1)]
        yields = [0.0] + [rng.uniform(1.0, 12.0) for _ in range(n)]
        inst = Instance(tuple(coords), tuple(yields), 30.0, 10.0)
        sol = _random_solution(inst, rng)
        ev = evaluate(sol, inst)
        recomputed = math.fsum(trip_energy(t.tasks, inst) for t in ev.trips)
        worst = max(worst, abs(ev.energy - recomputed) / max(recomputed, 1e-12))
        if not ev.penalized:
            feasible_seen += 1
            unpenalized = math.fsum(
                trip_energy(t, inst) for t in decode_trips(sol)
            )
            if ev.energy == unpenalized and not ev.penalized:
                exact_matches += 1
    ok = worst <= 1e-9 and exact_matches == feasible_seen and feasible_seen > 100
    _report(2, ok, f"worst rel err {worst:.2e}, feasible exact {exact_matches}/{feasible_seen}")


def test_criterion_03_selection_probability_numerics():
    archive = Archive(
        ranges=tuple(i / 10 for i in range(1, 7)), counts=(0, 1, 0, 0, 0, 0), smoothing=0.1
    )
    probs = selection_probabilities(archive)
    expected = (1 / 15, 10 / 15, 1 / 15, 1 / 15, 1 / 15, 1 / 15)
    hand_err = max(abs(p - e) for p, e in zip(probs, expected))
    sym_err = 0.0
    for k in range(1, 6):
        for width in range(1, 7):
            uni = selection_probabilities(
                Archive(
                    ranges=tuple(i / 10 for i in range(1, width + 1)),
                    counts=(k,) * width,
                    smoothing=0.1,
                )
            )
            sym_err = max(sym_err, max(abs(p - 1 / width) for p in uni))
    ok = hand_err <= 1e-12 and sym_err <= 1e-12
    _report(3, ok, f"hand-vector err {hand_err:.2e}, uniform-symmetry err {sym_err:.2e}")


def test_criterion_04_wilcoxon_fixture_and_identity():
    with (FIXTURES / "rg_means.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    etsa = [float(r["ETSA"]) for r in rows]
    aedga = [float(r["AEDGA"]) for r in rows]
    res = wilcoxon_signed_rank(etsa, aedga)
    fixture_ok = (
        res.r_plus == 903.0
        and res.r_minus == 0.0
        and res.p_asymptotic < 1e-7
        and res.p_asymptotic <= 0.05
    )
    rng = random.Random(777)
    identity_ok = True
    for _ in range(10_000):
        n = rng.randint(5, 40)
        a = [rng.choice([0.0, 1.0, 2.5]) * rng.random() for _ in range(n)]
        b = [rng.choice([0.0, 1.0, 2.5]) * rng.random() for _ in range(n)]
        r = wilcoxon_signed_rank(a, b)
        if abs(r.r_plus + r.r_minus - r.n_effective * (r.n_effective + 1) / 2) > 1e-9:
            identity_ok = False
            break
    ok = fixture_ok and identity_ok
    _report(4, ok, f"R+={res.r_plus}, R-={res.r_minus}, p={res.p_asymptotic:.3e}, identity on 10k inputs: {identity_ok}")


def test_criterion_05_scheduler_against_oracle():
    rng = random.Random(99)
    agreements = 0
    cases = 1000
    for _ in range(cases):
        t = rng.randint(1, 10)
        m = rng.randint(1, 4)
        energies = [rng.uniform(0.5, 10.0) for _ in range(t)]
        e_max = rng.uniform(5.0, 20.0)
        witness = makespan_assign(energies, m, e_max)
        if (witness is not None) != exact_schedule(energies, m, e_max):
            break
        if witness is not None:
            loads = [0.0] * m
            for i, r in enumerate(witness.assignment):
                loads[r] += energies[i]
            if len(witness.assignment) != t or any(l > e_max + 1e-9 for l in loads):
                break
            if any(abs(a - b) > 1e-9 for a, b in zip(loads, witness.robot_energies)):
                break
        agreements += 1
    ok = agreements == cases
    _report(5, ok, f"oracle agreement + schedule revalidation on {agreements}/{cases} fixtures")


def test_criterion_06_repair_contract():
    rng = random.Random(31)
    checked = passed = 0
    while checked < 200:
        n = rng.randint(3, 9)
        coords = [(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(n + 1)]
        yields = [0.0] + [rng.uniform(2.0, 9.0) for _ in range(n)]
        inst = Instance(tuple(coords), tuple(yields), 25.0, 8.0)
        sol = _random_solution(inst, rng)
        ev = evaluate(sol, inst)
        energies = [t.energy for t in ev.trips]
        m = rng.randint(1, 3)
        e_max = max(energies) * rng.uniform(0.55, 0.95)
        if makespan_assign(energies, m, e_max) is not None:
            continue
        checked += 1
        trace: list[tuple[float, float]] = []
        out, status = repair(sol, inst, m, e_max, _move_trace=trace)
        trips = decode_trips(out.solution)
        multiset_ok = sorted(t for trip in trips for t in trip) == sorted(
            t for trip in decode_trips(sol) for t in trip
        )
        capacity_ok = all(
            sum(inst.yields[t] for t in trip) <= inst.capacity + 1e-9 for trip in trips
        )
        moves_ok = all(new <= prev + 1e-9 for prev, new in trace)
        out_energies = [trip_energy(t, inst) for t in trips]
        outcome_ok = (
            makespan_assign(out_energies, m, e_max) is not None
            if status is RepairStatus.REPAIRED
            else True
        )
        if multiset_ok and capacity_ok and moves_ok and outcome_ok:
            passed += 1
    ok = passed == checked == 200
    _report(6, ok, f"repair contracts held on {passed}/{checked} infeasible fixtures")


def test_criterion_07_local_search_quality():
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        coords = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n + 1)]
        yields = [0.0] + [rng.uniform(1.0, 10.0) for _ in range(n)]
        inst = Instance(tuple(coords), tuple(yields), 100.0, 20.0)
        tasks = list(inst.task_ids)
        rng.shuffle(tasks)
        out = aco_tour(tuple(tasks), inst, 10, 50, rng)
        _, optimum = exact_tour(tuple(tasks), inst)
        if trip_energy(out, inst) <= optimum * 1.02 + 1e-9:
            hits += 1

    rng = random.Random(8181)
    monotone = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        coords = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n + 1)]
        yields = [0.0] + [rng.uniform(1.0, 10.0) for _ in range(n)]
        inst = Instance(tuple(coords), tuple(yields), 10.0 * max(2, n // 2), 12.0)
        sol = _random_solution(inst, rng)
        out = clsm_step(sol, inst, 0.2, 6, rng)
        if evaluate(out, inst).energy <= evaluate(sol, inst).energy + 1e-9:
            monotone += 1
    ok = hits >= 95 and monotone == 500
    _report(7, ok, f"tour quality {hits}/100 within 2% of exact, non-increase {monotone}/500")


def _ablation_mean(inst: Instance, init: str, use_clsm: bool, budget: int) -> float:
    values = [
        run_aedga(
            inst,
            SolverConfig(budget_evals=budget, init=init, use_clsm=use_clsm, seed=s),
        ).best_energy
        for s in range(10)
    ]
    return statistics.fmean(values)


def test_criterion_08_ablation_direction():
    instances = [
        generate_orchard(
            OrchardSpec(side_length=20, tree_count=100, maturity_rate=0.4, seed=300 + i)
        )
        for i in range(5)
    ]
    assert all(30 <= inst.n <= 50 for inst in instances)
    budget = 600
    beats_random_init = beats_no_clsm = 0
    for inst in instances:
        full = _ablation_mean(inst, "ilbim", True, budget)
        random_init = _ablation_mean(inst, "random", True, budget)
        no_clsm = _ablation_mean(inst, "ilbim", False, budget)
        if full < random_init:
            beats_random_init += 1
        if full < no_clsm:
            beats_no_clsm += 1
    ok = beats_random_init >= 4 and beats_no_clsm >= 3
    _report(8, ok, f"beats random-init on {beats_random_init}/5, beats no-CLSM on {beats_no_clsm}/5")


def test_criterion_09_framework_comparison_direction():
    instances = [
        generate_orchard(
            OrchardSpec(side_length=15, tree_count=20, maturity_rate=0.8, capacity=150.0, seed=700 + i)
        )
        for i in range(5)
    ]
    z_mean = [
        statistics.fmean(
            run_aedga(inst, SolverConfig(budget_evals=400, seed=s)).best_energy
            for s in range(3)
        )
        for inst in instances
    ]
    fr1_best = fr2_strictly_best = 0
    for m in (2, 5, 8):
        for bound_index in (0, 1):
            matrix = []
            for inst, z in zip(instances, z_mean):
                bound = thresholds(z, m)[bound_index]
                row = []
                for fw in (Framework.FR1, Framework.FR2, Framework.FR3):
                    result = run_aedga(
                        inst,
                        SolverConfig(
                            budget_evals=400, seed=11, robots=m,
                            energy_bound=bound, framework=fw,
                        ),
                    )
                    row.append(result.best_energy if result.status == "ok" else math.inf)
                matrix.append(row)
            ranks = friedman(matrix).mean_ranks
            if ranks[0] <= min(ranks) + 1e-12:
                fr1_best += 1
            if ranks[1] < ranks[0] - 1e-12 and ranks[1] < ranks[2] - 1e-12:
                fr2_strictly_best += 1
    ok = fr1_best >= 4 and fr2_strictly_best <= 1
    _report(9, ok, f"Fr1 best rank in {fr1_best}/6 scenarios, Fr2 strictly best in {fr2_strictly_best}")


def test_criterion_10_cli_determinism(tmp_path, capsys, monkeypatch):
    inst = generate_orchard(
        OrchardSpec(side_length=20, tree_count=30, maturity_rate=0.6, seed=17)
    )
    from orchard_mtvrp.instances import emit_instance

    path = tmp_path / "det.vrp"
    path.write_text(emit_instance(inst))
    args = ["solve", str(path), "--budget-evals", "400", "--seed", "5"]
    outputs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("ORCHARD_MTVRP_THREADS", threads)
        assert main(list(args)) == 0
        outputs.append(capsys.readouterr().out.encode())
        assert main(list(args)) == 0
        outputs.append(capsys.readouterr().out.encode())
    ok = len(set(outputs)) == 1 and len(outputs[0]) > 0
    _report(10, ok, f"{len(outputs)} invocations, {len(set(outputs))} distinct byte streams")
