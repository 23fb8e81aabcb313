"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS or FAIL line with the governing numbers through
the ``report`` fixture (written straight to the terminal, bypassing
capture) and then asserts the criterion at its stated tolerance.  The
assertions are the contract; the printed lines are the audit trail.
"""

import numpy as np
import pytest

from pwmlp import (
    DEFAULT_SLOPE,
    Activation,
    KernelKind,
    KnotGrid,
    PiecewiseOracle,
    TargetSamples,
    activation_values,
    build_network,
    dense_solve_coupling,
    estimate_order,
    eval_oracle_grid,
    eval_tensor_product,
    fit_kernel_weights,
    forward_grid,
    get_target,
    kernel_values,
    load_model,
    matching_oracle,
    reproduction_degree,
    save_model,
    solve_bump_coupling,
    verify_equivalence,
)

ALL_METHODS = ("constant", "linear-relu", "linear-ramp", "cubic",
               "cubic-spaced")


@pytest.fixture
def report(capsys):
    def _report(line):
        with capsys.disabled():
            print("\n" + line, end=" ")
    return _report


def _samples(target_name, n):
    grid = KnotGrid.uniform(n)
    return TargetSamples.from_function(grid, get_target(target_name).fn)


def test_criterion_01_network_oracle_equivalence(report):
    # every constructed network must agree with its reference model to
    # 1e-9 * max(1, |f|_inf) on a 10001-point grid, both as
    # verify_equivalence measures it and on the network's own forward
    # pass
    worst = (0.0, "")
    worst_forward = 0.0
    cases = 0
    xs = np.linspace(0.0, 1.0, 10001)
    for name in ("affine", "sin2pi", "runge"):
        scale = max(1.0, get_target(name).sup_abs)
        for n in (8, 16, 32, 64):
            samples = _samples(name, n)
            for method in ALL_METHODS:
                net = build_network(method, samples)
                model = matching_oracle(method, samples)
                res = verify_equivalence(net, model, grid_size=10001,
                                         tol=1e-9 * scale)
                cases += 1
                if res.max_deviation > worst[0]:
                    worst = (res.max_deviation,
                             "%s/%s n=%d" % (method, name, n))
                assert res.passed, (
                    "%s on %s at n=%d deviates %.3e (tol %.1e)"
                    % (method, name, n, res.max_deviation, res.tol)
                )
                dev = float(np.max(np.abs(forward_grid(net, xs)
                                          - eval_oracle_grid(model, xs))))
                worst_forward = max(worst_forward, dev)
                assert dev <= 1e-9 * scale, (
                    "%s on %s at n=%d: forward_grid deviates %.3e"
                    % (method, name, n, dev)
                )
    report("PASS criterion 1: %d equivalence cases, worst deviation "
           "%.3e (%s), forward_grid %.3e"
           % (cases, worst[0], worst[1], worst_forward))


def test_criterion_02_convergence_orders(report):
    # fitted sup-error order on sin2pi over N = 16..128.  The step
    # design is gated to [0.9, 1.1] and both linear designs to
    # [1.9, 2.1].  A cubic design is a sum of bump shifts at stride 1
    # (cubic) or 2 (cubic-spaced); those shifts reproduce polynomials
    # up to degree d = reproduction_degree(bump, stride) and no further
    # (the Strang-Fix moment conditions), so the design converges at
    # order d + 1 whatever its taps.  d is 0 at the default slope and 1
    # at slope 0.5, where the cubic term drops out and the bump is a
    # triangle.  At both slopes the fitted order must reach d + 1 - 0.1
    # and the local order between the two finest N must lie within
    # d + 1 +- 0.1; the slope-0.5 fit must also stay within d + 1 + 0.1
    n_values = [16, 32, 64, 128]
    orders = {}
    for method in ("constant", "linear-relu", "linear-ramp"):
        rep = estimate_order(method, "sin2pi", n_values, grid_size=10001)
        assert not rep.zero_error
        orders[method] = rep.fitted_order

    failures = []

    def gate(label, ok, detail):
        line = "%s criterion 2 (%s): %s" % ("PASS" if ok else "FAIL",
                                            label, detail)
        report(line)
        if not ok:
            failures.append(line)

    o = orders["constant"]
    gate("constant", 0.9 <= o <= 1.1,
         "fitted order %.4f, window [0.9, 1.1]" % o)
    for method in ("linear-relu", "linear-ramp"):
        o = orders[method]
        gate(method, 1.9 <= o <= 2.1,
             "fitted order %.4f, window [1.9, 2.1]" % o)

    strides = {"cubic": 1, "cubic-spaced": 2}
    for method, stride in strides.items():
        for slope, want_d, label in ((DEFAULT_SLOPE, 0, method),
                                     (0.5, 1, method + ", slope-0.5 control")):
            d = reproduction_degree(KernelKind.cubic_bump(slope), stride)
            rep = estimate_order(method, "sin2pi", n_values, grid_size=10001,
                                 slope=slope)
            assert not rep.zero_error
            fitted = rep.fitted_order
            local = rep.local_orders[-1]
            lo, hi = d + 1 - 0.1, d + 1 + 0.1
            ok = d == want_d and fitted >= lo and lo <= local <= hi
            fit_window = "gate >= %.1f" % lo
            if slope == 0.5:
                ok = ok and fitted <= hi
                fit_window = "window [%.1f, %.1f]" % (lo, hi)
            gate(label, ok,
                 "slope %.2f, d = %d (expected %d), fitted order %.4f (%s), "
                 "local order N=%d..%d %.4f (window [%.1f, %.1f])"
                 % (slope, d, want_d, fitted, fit_window, n_values[-2],
                    n_values[-1], local, lo, hi))

    assert not failures, "; ".join(failures)


def test_criterion_03_knot_interpolation(report):
    worst = {"linear": 0.0, "cubic": 0.0, "cubic-spaced": 0.0}
    for name in ("sin2pi", "runge"):
        for n in (16, 32):
            samples = _samples(name, n)
            f = samples.values[:, 0]
            knots = samples.grid.knots
            for method in ("linear-relu", "linear-ramp"):
                net = build_network(method, samples)
                dev = np.max(np.abs(forward_grid(net, knots)[:, 0] - f))
                worst["linear"] = max(worst["linear"], float(dev))
            net = build_network("cubic", samples)
            dev = np.max(np.abs(forward_grid(net, knots)[:, 0] - f))
            worst["cubic"] = max(worst["cubic"], float(dev))
            net = build_network("cubic-spaced", samples)
            dev = np.max(np.abs(forward_grid(net, knots)[0::2, 0] - f[0::2]))
            worst["cubic-spaced"] = max(worst["cubic-spaced"], float(dev))
    ok = (worst["linear"] <= 1e-12 and worst["cubic"] <= 1e-9
          and worst["cubic-spaced"] <= 1e-12)
    report("%s criterion 3: knot deviation linear %.2e (tol 1e-12), "
           "coupled cubic %.2e (tol 1e-9), spaced even knots %.2e "
           "(tol 1e-12)" % ("PASS" if ok else "FAIL", worst["linear"],
                            worst["cubic"], worst["cubic-spaced"]))
    assert worst["linear"] <= 1e-12
    assert worst["cubic"] <= 1e-9
    assert worst["cubic-spaced"] <= 1e-12


def test_criterion_04_coupling_solver_cross_check(report):
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(2, 65):
        grid = KnotGrid.uniform(n)
        values = rng.uniform(-5.0, 5.0, (n + 1, 100))
        samples = TargetSamples(grid, values)
        closed = solve_bump_coupling(samples).g
        dense = dense_solve_coupling(samples)
        worst = max(worst, float(np.max(np.abs(closed - dense))))
    hand = solve_bump_coupling(
        TargetSamples(KnotGrid.uniform(2), np.ones(3))
    ).g[:, 0]
    hand_dev = float(np.max(np.abs(hand - np.array([1.0, 0.0, 1.0]))))
    ok = worst <= 1e-10 and hand_dev <= 1e-12
    report("%s criterion 4: closed-form vs dense solve on 100 random "
           "targets for each N in 2..64, worst %.2e (tol 1e-10); hand "
           "case deviation %.2e" % ("PASS" if ok else "FAIL", worst,
                                    hand_dev))
    assert worst <= 1e-10
    assert hand_dev <= 1e-12


def test_criterion_05_activation_properties(report):
    slopes = np.linspace(0.0, 0.75, 5)
    us = np.linspace(-2.0, 2.0, 1001)
    anti = 0.0
    joins = 0.0
    for s in slopes:
        act = Activation.cubic(float(s))
        a0, a1, a2, a3 = act.cubic_coeffs

        def q(z):
            return ((a3 * z + a2) * z + a1) * z + a0

        resid = activation_values(act, us) + activation_values(act, -us) - 1.0
        anti = max(anti, float(np.max(np.abs(resid))))
        joins = max(joins, abs(q(-1.0) - 0.0), abs(q(1.0) - 1.0))

    n = 16
    grid = KnotGrid.uniform(n)
    xs = np.linspace(0.0, 1.0, 1001)
    tri = KernelKind("triangle")
    unity = np.zeros_like(xs)
    for j in range(n + 1):
        unity += kernel_values(tri, (xs - grid.knots[j]) * float(n))
    unity_dev = float(np.max(np.abs(unity - 1.0)))

    ok = anti <= 1e-12 and joins <= 1e-15 and unity_dev <= 1e-14
    report("%s criterion 5: anti-symmetry %.2e (tol 1e-12) over 5 slopes "
           "on 1001 points, plateau joins %.2e (tol 1e-15), triangle "
           "partition of unity %.2e (tol 1e-14)"
           % ("PASS" if ok else "FAIL", anti, joins, unity_dev))
    assert anti <= 1e-12
    assert joins <= 1e-15
    assert unity_dev <= 1e-14


def test_criterion_06_affine_and_constant_reproduction(report):
    xs = np.linspace(0.0, 1.0, 10001)
    affine_dev = 0.0
    for n in (8, 16, 33):
        samples = _samples("affine", n)
        for method in ("linear-relu", "linear-ramp"):
            net = build_network(method, samples)
            dev = np.max(np.abs(forward_grid(net, xs)[:, 0]
                                - (2.0 * xs + 1.0)))
            affine_dev = max(affine_dev, float(dev))

    const_rel = 0.0
    for c in (1.0, -7.25, 1234.5):
        grid = KnotGrid.uniform(16)
        net = build_network("constant",
                            TargetSamples(grid, np.full(17, c)))
        dev = np.max(np.abs(forward_grid(net, xs)[:, 0] - c))
        const_rel = max(const_rel, float(dev) / abs(c))

    ok = affine_dev <= 1e-12 and const_rel <= 1e-15
    report("%s criterion 6: affine reproduction %.2e (tol 1e-12), "
           "constant reproduction %.2e relative (tol 1e-15)"
           % ("PASS" if ok else "FAIL", affine_dev, const_rel))
    assert affine_dev <= 1e-12
    assert const_rel <= 1e-15


def test_criterion_07_kernel_fit_recovery(report):
    rng = np.random.default_rng(107)
    n = 16
    grid = KnotGrid.uniform(n)
    coeffs = rng.uniform(-2.0, 2.0, n + 1)
    model = PiecewiseOracle(grid, KernelKind("triangle"), coeffs)
    xs = np.linspace(0.0, 1.0, 512)
    ys = eval_oracle_grid(model, xs)[:, 0]
    fit = fit_kernel_weights(np.column_stack([xs, ys]),
                             KernelKind("triangle"), grid)
    coeff_dev = float(np.max(np.abs(fit.omega - coeffs)))
    ok = coeff_dev <= 1e-8 and fit.rms_residual <= 1e-10
    report("%s criterion 7: 512-sample triangle fit, coefficient "
           "recovery %.2e (tol 1e-8), rms residual %.2e (tol 1e-10)"
           % ("PASS" if ok else "FAIL", coeff_dev, fit.rms_residual))
    assert coeff_dev <= 1e-8
    assert fit.rms_residual <= 1e-10


def test_criterion_08_tensor_product_oracle(report):
    grid = KnotGrid.uniform(3)
    axis = PiecewiseOracle(grid, KernelKind("triangle"), grid.knots.copy())
    corner = grid.knots[:, None] + 2.0 * grid.knots[None, :]
    rng = np.random.default_rng(109)
    bilinear_dev = 0.0
    for _ in range(1000):
        x, y = rng.uniform(0.0, 1.0, 2)
        got = eval_tensor_product([axis, axis], corner, [x, y])
        bilinear_dev = max(bilinear_dev, abs(got - (x + 2.0 * y)))

    single = PiecewiseOracle(grid, KernelKind("triangle"),
                             rng.uniform(-1.0, 1.0, 4))
    xs = rng.uniform(0.0, 1.0, 500)
    reference = eval_oracle_grid(single, xs)[:, 0]
    mismatches = sum(
        eval_tensor_product([single], single.coefficients[:, 0], [x]) != b
        for x, b in zip(xs, reference))

    ok = bilinear_dev <= 1e-12 and mismatches == 0
    report("%s criterion 8: bilinear x + 2y on a 4x4 grid, worst error "
           "%.2e at 1000 points (tol 1e-12); p=1 reduction to "
           "eval_oracle_grid, bitwise mismatches %d of 500"
           % ("PASS" if ok else "FAIL", bilinear_dev, mismatches))
    assert bilinear_dev <= 1e-12
    assert mismatches == 0


def test_criterion_09_serialization_round_trip(report):
    xs = np.linspace(0.0, 1.0, 1001)
    exact = True
    for method in ALL_METHODS:
        samples = _samples("sin2pi", 16)
        net = build_network(method, samples)
        before = forward_grid(net, xs)
        loaded = load_model(save_model(net))
        after = forward_grid(loaded, xs)
        same = np.array_equal(before, after)
        exact = exact and same
        assert same, "%s outputs changed across save/load" % method
    report("PASS criterion 9: save/load/forward bitwise identical for "
           "all %d methods at N=16 on 1001 points" % len(ALL_METHODS))
    assert exact


def test_criterion_10_neuron_count_audit(report):
    expected = {
        "constant": lambda n: n,
        "linear-relu": lambda n: 4 * (n + 1),
        "linear-ramp": lambda n: 2 * (n + 1),
        "cubic": lambda n: 2 * (n + 1),
        "cubic-spaced": lambda n: n + 2,
    }
    for n in (4, 16, 30):
        samples = _samples("runge", n)
        for method in ALL_METHODS:
            net = build_network(method, samples)
            want = expected[method](n)
            assert net.width == want, (
                "%s at n=%d has %d neurons, expected %d"
                % (method, n, net.width, want)
            )
    report("PASS criterion 10: widths N, 4(N+1), 2(N+1), 2(N+1), N+2 "
           "audited at N in {4, 16, 30}")
