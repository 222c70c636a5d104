"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from platoon_stab import (
    ControllerSpec,
    attenuation_report,
    check_p1,
    check_p2,
    critical_frequencies,
    default_dt,
    error_model,
    frequency_response,
    generate_trace,
    is_stable_at,
    parse_trace,
    run_monitor,
    simulate_chain,
    simulate_state_space,
    sine_input,
    stability_constraint,
    tabulated_input,
    transfer_function,
    write_trace_file,
    SimConfig,
)
from conftest import AUT, CS, SUPPORTED_COMBOS, UNI, make_params, make_spec, random_params


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{suffix}")
    return ok


def gain_at(model, omega):
    return frequency_response(transfer_function(model), omega).magnitude


def test_criterion_1_classic_bound_reproduction():
    # 100 random valid constant-spacing platoons; omega on both sides of
    # sqrt(2k/m) at relative offsets >= 1e-6; zero disagreements between
    # the magnitude test and the closed-form bound.  Runtime < 1 s.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    disagreements = 0
    checks = 0
    for _ in range(100):
        p = random_params(rng)
        model = error_model(ControllerSpec(AUT, UNI, CS, p))
        bound = 2.0 * p.k / p.m
        threshold = math.sqrt(bound)
        for rel in (1e-6, 1e-3, 0.1, 0.5):
            for omega in (threshold * (1.0 - rel), threshold * (1.0 + rel)):
                expected = omega * omega > bound
                if is_stable_at(model, omega) != expected:
                    disagreements += 1
                checks += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 1.0
    assert _report(1, "classic stability bound, 100 random platoons", ok,
                   f"{checks} checks, {disagreements} disagreements, {elapsed:.3f}s")


def test_criterion_2_time_domain_gain_oracle():
    # For each of the six models and 10 frequencies, the steady-state
    # amplitude ratio from the chain simulation matches the analytic
    # |H(i*omega)| within 1% relative.  Runtime < 60 s total.
    frequencies = (0.5, 0.8, 1.2, 1.6, 1.9, 2.1, 2.4, 3.0, 4.0, 6.0)
    start = time.perf_counter()
    failures = []
    for combo in SUPPORTED_COMBOS:
        model = error_model(make_spec(*combo))
        for omega in frequencies:
            cfg = SimConfig(dt=default_dt(omega, model.a0), duration=120.0, discard=0.7)
            series = simulate_chain(model, 2, cfg, sine_input(1.0, omega))
            ratio = attenuation_report(series, cfg).ratios[0]
            expected = gain_at(model, omega)
            rel_err = abs(ratio - expected) / expected
            if rel_err > 0.01:
                failures.append((combo, omega, rel_err))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert _report(2, "chain simulation matches |H| within 1%", ok,
                   f"60 runs, worst cases {failures[:3] if failures else 'none'}, {elapsed:.1f}s")


def test_criterion_3_boundary_exactness():
    # |H(i*sqrt(2k/m))| = 1 within 1e-9 for 20 random parameter sets.
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)
        model = error_model(ControllerSpec(AUT, UNI, CS, p))
        omega = math.sqrt(2.0 * p.k / p.m)
        worst = max(worst, abs(gain_at(model, omega) - 1.0))
    ok = worst <= 1e-9
    assert _report(3, "unit gain at the critical frequency", ok, f"worst |err| = {worst:.2e}")


def test_criterion_4_quartic_equivalence_on_grid():
    # Per model: the quartic sign test agrees with |H(i*omega)| < 1 on a
    # 1000-point log grid over [1e-3, 1e3], excluding a 1e-9 band around
    # the critical frequencies.  Zero disagreements.
    grid = np.geomspace(1e-3, 1e3, 1000)
    disagreements = 0
    checked = 0
    for combo in SUPPORTED_COMBOS:
        model = error_model(make_spec(*combo))
        con = stability_constraint(model)
        crits = critical_frequencies(con)
        for omega in grid:
            omega = float(omega)
            if any(abs(omega - c) <= 1e-9 for c in crits):
                continue
            checked += 1
            if is_stable_at(model, omega) != (con.q(omega * omega) > 0.0):
                disagreements += 1
    ok = disagreements == 0
    assert _report(4, "quartic form vs |H| on log grid", ok,
                   f"{checked} points across 6 models, {disagreements} disagreements")


def test_criterion_5_state_space_chain_consistency():
    # Vehicle-level and error-chain integrations agree on spacing errors
    # within 1e-6 relative over 200 s, same dt.
    params = make_params(n=4)
    model = error_model(ControllerSpec(AUT, UNI, CS, params))
    cfg = SimConfig(dt=0.002, duration=200.0)
    ss = simulate_state_space(params, cfg, lambda t: 500.0 * math.sin(3.0 * t))
    errors = ss.spacing_errors()
    rates = ss.spacing_error_rates()
    chain = simulate_chain(model, 3, cfg,
                           input_fn=tabulated_input(ss.t, errors[:, 0], rates[:, 0]))
    worst = 0.0
    for col in (1, 2):
        diff = float(np.abs(chain.z[:, col] - errors[:, col]).max())
        scale = float(np.abs(errors[:, col]).max())
        worst = max(worst, diff / scale)
    ok = worst <= 1e-6
    assert _report(5, "state-space vs error-chain consistency", ok,
                   f"worst relative difference = {worst:.2e}")


def test_criterion_6_monitor_closed_loop_and_naive_oracle():
    # 100 random generator->monitor plans: verdicts and first-violation
    # indices exact; plus naive per-event fold equivalence on traces up
    # to 1e4 events.
    rng = np.random.default_rng(606)
    templates = [make_spec(*combo) for combo in SUPPORTED_COMBOS]
    mismatches = 0
    for trial in range(100):
        template = templates[trial % len(templates)]
        length = int(rng.integers(20, 800))
        n_viol = int(rng.integers(0, 4))
        indices = rng.choice(length, size=n_viol, replace=False)
        plan = [(int(i), "P1" if rng.integers(2) else "P2") for i in sorted(indices)]
        verdict = run_monitor(generate_trace(int(rng.integers(1 << 30)), length, template, plan))
        if plan:
            first_index, first_kind = plan[0]
            if verdict.passed or verdict.first_violation.index != first_index \
                    or verdict.first_violation.predicate != first_kind:
                mismatches += 1
        elif not verdict.passed:
            mismatches += 1

    fold_mismatches = 0
    for seed, plan in ((1, []), (2, [(0, "P1")]), (3, [(9999, "P2"), (17, "P1"), (17, "P2")])):
        trace = generate_trace(seed, 10_000, make_spec(), plan)
        verdict = run_monitor(trace)
        p1f = p2f = 0
        first = None
        for e in trace:
            ok1, ok2 = check_p1(e), check_p2(e)
            p1f += not ok1
            p2f += not ok2
            if first is None and not (ok1 and ok2):
                first = (e.index, "P1" if not ok1 else "P2")
        agreed = (verdict.p1_failures == p1f and verdict.p2_failures == p2f
                  and verdict.passed == (first is None))
        if first is not None:
            agreed = agreed and (verdict.first_violation.index,
                                 verdict.first_violation.predicate) == first
        if not agreed:
            fold_mismatches += 1
    ok = mismatches == 0 and fold_mismatches == 0
    assert _report(6, "monitor closed loop + naive fold oracle", ok,
                   f"{mismatches} plan mismatches, {fold_mismatches} fold mismatches")


def test_criterion_7_monitor_performance(tmp_path):
    # Hard bound: a 1000-event trace file is parsed and checked in <= 3 s.
    # Internal target: >= 1e6 events/s on an in-memory 1e6-event trace,
    # single-threaded.
    template = make_spec()
    path = tmp_path / "bench.jsonl"
    write_trace_file(generate_trace(77, 1000, template), path)
    start = time.perf_counter()
    verdict_small = run_monitor(parse_trace(path))
    small_elapsed = time.perf_counter() - start

    big = generate_trace(78, 1_000_000, template)
    verdict_big = run_monitor(big)
    throughput = verdict_big.events / verdict_big.seconds
    ok = (verdict_small.passed and small_elapsed <= 3.0
          and verdict_big.passed and throughput >= 1e6)
    assert _report(7, "monitor timing", ok,
                   f"1000 events in {small_elapsed*1e3:.1f} ms, "
                   f"{throughput/1e6:.1f}M events/s on 1e6 events")


def test_criterion_8_attenuation_down_a_ten_vehicle_chain():
    # Stable frequency: all nine adjacent ratios < 1; amplifying
    # frequency: ratios > 1 from the first pair on; both within 2% of
    # |H(i*omega)| (identical stages).
    model = error_model(make_spec())
    failures = []
    for omega, expect_stable in ((3.0, True), (1.0, False)):
        cfg = SimConfig(dt=default_dt(omega, model.a0), duration=400.0, discard=0.8)
        report = attenuation_report(simulate_chain(model, 10, cfg, sine_input(1.0, omega)), cfg)
        expected = gain_at(model, omega)
        if len(report.ratios) != 9:
            failures.append((omega, "ratio count"))
        if expect_stable:
            if not (report.all_attenuating and all(r < 1.0 for r in report.ratios)):
                failures.append((omega, "not attenuating"))
        else:
            if report.ratios[0] <= 1.0 or report.all_attenuating:
                failures.append((omega, "no amplification detected"))
        for ratio in report.ratios:
            if abs(ratio - expected) / expected > 0.02:
                failures.append((omega, f"ratio {ratio:.4f} vs {expected:.4f}"))
    ok = not failures
    assert _report(8, "ten-vehicle chain attenuation", ok,
                   f"failures: {failures if failures else 'none'}")
