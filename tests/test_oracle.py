"""Unit tests for the kernel-sum reference models and their cross-checks."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from pwmlp import (
    DomainError,
    KernelKind,
    KnotGrid,
    NumericalError,
    PiecewiseOracle,
    TargetSamples,
    UsageError,
    dense_solve_coupling,
    eval_kernel,
    eval_oracle,
    eval_oracle_grid,
    eval_tensor_product,
    fit_kernel_weights,
    kernel_values,
    matching_oracle,
    reproduction_degree,
    sine_solve_coupling,
    solve_bump_coupling,
)
from pwmlp import oracle

EPS = np.finfo(np.float64).eps


def test_kernel_kind_validation():
    with pytest.raises(UsageError):
        KernelKind("gaussian")
    with pytest.raises(UsageError):
        KernelKind("triangle", slope=0.5)
    with pytest.raises(UsageError):
        KernelKind("cubic-bump")
    with pytest.raises(DomainError):
        KernelKind.cubic_bump(0.9)


def test_box_kernel_half_open():
    box = KernelKind.box()
    assert eval_kernel(box, 0.0) == 1.0
    assert eval_kernel(box, 0.999999) == 1.0
    assert eval_kernel(box, 1.0) == 0.0
    assert eval_kernel(box, -1e-16) == 0.0


def test_triangle_kernel_values():
    tri = KernelKind.triangle()
    assert eval_kernel(tri, -1.0) == 0.0
    assert eval_kernel(tri, 0.0) == 1.0
    assert eval_kernel(tri, 1.0) == 0.0
    assert eval_kernel(tri, -0.5) == 0.5
    assert eval_kernel(tri, 0.5) == 0.5
    assert eval_kernel(tri, 1.5) == 0.0


def test_bump_kernel_values_and_symmetry():
    bump = KernelKind.cubic_bump()
    assert eval_kernel(bump, 0.0) == 1.0
    assert eval_kernel(bump, 1.0) == 0.5
    assert eval_kernel(bump, -1.0) == 0.5
    assert eval_kernel(bump, 2.0) == 0.0
    assert eval_kernel(bump, -2.0) == 0.0
    rng = np.random.default_rng(53)
    us = rng.uniform(-2.5, 2.5, 500)
    for s in (0.0, 0.375, 0.75):
        k = KernelKind.cubic_bump(s)
        resid = kernel_values(k, us) - kernel_values(k, -us)
        assert np.max(np.abs(resid)) <= 1e-14


def test_kernel_values_match_scalar():
    rng = np.random.default_rng(59)
    us = np.concatenate([rng.uniform(-3.0, 3.0, 300),
                         [-2.0, -1.0, 0.0, 1.0, 2.0]])
    for kernel in (KernelKind.box(), KernelKind.triangle(),
                   KernelKind.cubic_bump(), KernelKind.cubic_bump(0.25)):
        vec = kernel_values(kernel, us)
        sca = np.array([eval_kernel(kernel, u) for u in us])
        assert np.array_equal(vec, sca)


def test_reproduction_degree_of_box_and_triangle():
    # the box's shifts sum to one but their first moment is a sawtooth;
    # the triangle's shifts reproduce every affine function
    assert reproduction_degree(KernelKind.box()) == 0
    assert reproduction_degree(KernelKind.triangle()) == 1
    # at stride 2 half of [0, 2) is left uncovered by the unit box
    assert reproduction_degree(KernelKind.box(), stride=2) == -1


@pytest.mark.parametrize("stride", [1, 2])
def test_reproduction_degree_of_bump(stride):
    # the first moment sum is zero only when the cubic term vanishes
    # (slope 0.5, where the bump is a triangle of half-width 2)
    assert reproduction_degree(KernelKind.cubic_bump(0.5), stride) == 1
    for s in (0.0, 0.25, 0.6, 0.75):
        assert reproduction_degree(KernelKind.cubic_bump(s), stride) == 0


def test_reproduction_degree_needs_no_samples_beyond_the_support():
    # a stride above twice the support radius leaves gaps, so no shift
    # sum is constant; sampling 10**12 would need 64 * stride values
    assert reproduction_degree(KernelKind.triangle(), 10**12) == -1
    for kernel in (KernelKind.box(), KernelKind.triangle(),
                   KernelKind.cubic_bump()):
        radius = oracle._SUPPORT_RADIUS[kernel.kind]
        for stride in range(1, 2 * radius + 4):
            assert (reproduction_degree(kernel, stride)
                    == oracle._sampled_degree(kernel, stride)), (kernel, stride)


def test_reproduction_degree_validation():
    # a stride is never truncated: 1.5 would run at stride 1
    for stride in (0, -1, True, 1.5, "2"):
        with pytest.raises(UsageError, match="positive integer"):
            reproduction_degree(KernelKind.triangle(), stride=stride)
    assert reproduction_degree(KernelKind.cubic_bump(0.5), np.int64(2)) == 1


def test_oracle_coefficient_validation():
    grid = KnotGrid.uniform(4)
    with pytest.raises(UsageError):
        PiecewiseOracle(grid, KernelKind.triangle(), np.ones(4))
    for stride in (0, -1, True, 1.5, "2"):
        with pytest.raises(UsageError, match="stride must be a positive"):
            PiecewiseOracle(grid, KernelKind.triangle(), np.ones(5), stride)
    with pytest.raises(UsageError, match="stride 2 does not divide n = 5"):
        PiecewiseOracle(KnotGrid.uniform(5), KernelKind.cubic_bump(),
                        np.ones(3), stride=2)
    with pytest.raises(UsageError, match="stride 3 does not divide n = 4"):
        PiecewiseOracle(grid, KernelKind.triangle(), np.ones(2), stride=3)
    with pytest.raises(UsageError):
        PiecewiseOracle(grid, KernelKind.box(), np.array([1.0, np.nan,
                                                          0.0, 0.0, 0.0]))
    with pytest.raises(UsageError, match="box kernel needs stride 1"):
        PiecewiseOracle(grid, KernelKind.box(), np.ones(3), stride=2)
    # a numpy integer stride is stored as a Python int
    model = PiecewiseOracle(grid, KernelKind.triangle(), np.ones(3),
                            np.int64(2))
    assert type(model.stride) is int and model.stride == 2


def test_oracle_domain():
    grid = KnotGrid.uniform(4)
    model = PiecewiseOracle(grid, KernelKind.triangle(), np.ones(5))
    with pytest.raises(DomainError):
        eval_oracle(model, -0.01)
    with pytest.raises(DomainError):
        eval_oracle(model, 1.01)
    with pytest.raises(DomainError):
        eval_oracle_grid(model, np.array([0.5, 1.5]))
    with pytest.raises(UsageError):
        eval_oracle_grid(model, np.array([]))


def _naive_sum(model, xs):
    # full kernel sum, no locality window: every kernel row r at
    # u = x * n - stride * r, as the model defines it (the knot array
    # is rounded off powers of two, by up to 3e-13 in u at n = 3000)
    xn = xs * model.grid.n
    total = np.zeros((xs.size, model.q))
    for r, c in enumerate(model.coefficients):
        total += c * kernel_values(model.kernel,
                                   xn - model.stride * r)[:, None]
    return total


def _random_models(rng, n):
    grid = KnotGrid.uniform(n)
    c = rng.uniform(-2.0, 2.0, (n + 1, 2))
    c[n // 2, 1] = -0.0
    yield PiecewiseOracle(grid, KernelKind.box(), c)
    yield PiecewiseOracle(grid, KernelKind.triangle(), c)
    yield PiecewiseOracle(grid, KernelKind.cubic_bump(), c)
    if n % 2 == 0:
        yield PiecewiseOracle(grid, KernelKind.cubic_bump(0.6),
                              c[0::2, :], stride=2)
    if n % 3 == 0:
        yield PiecewiseOracle(grid, KernelKind.triangle(), c[0::3, :],
                              stride=3)
        yield PiecewiseOracle(grid, KernelKind.cubic_bump(0.25),
                              c[0::3, :], stride=3)


def test_localized_window_matches_naive_sum():
    rng = np.random.default_rng(61)
    # 1000 and 3000 are not powers of two, so x * n rounds
    for n in (2, 3, 8, 16, 1000, 3000):
        for model in _random_models(rng, n):
            if model.kernel.kind == "box":
                # the naive sum inherits the kernel's jump at u = 1, so
                # u there must be computed exactly: stay off the knots
                # and off x = 1 (closed at model level, open here)
                xs = rng.uniform(1e-6, 1.0 - 1e-6, 200)
            else:
                xs = np.concatenate([rng.uniform(0.0, 1.0, 200),
                                     model.grid.knots, [0.0, 1.0]])
            got = eval_oracle_grid(model, xs)
            want = _naive_sum(model, xs)
            assert np.max(np.abs(got - want)) <= 1e-14


def _offset_models(n):
    """(model, half) for every kernel and stride 1, 2, 3 dividing n whose
    window runs over row offsets; half = ceil(support radius / stride)."""
    grid = KnotGrid.uniform(n)
    bumps = [KernelKind.cubic_bump(s) for s in (0.0, 0.5, 0.75)]
    for kernel in [KernelKind.triangle()] + bumps:
        radius = 1 if kernel.kind == "triangle" else 2
        for stride in (1, 2, 3):
            if n % stride == 0:
                model = PiecewiseOracle(grid, kernel,
                                        np.ones(n // stride + 1), stride)
                yield model, -(-radius // model.stride)


@pytest.mark.parametrize("n", [7, 1000, 3000, 4096])
def test_window_leaves_out_only_rows_of_weight_zero(n):
    # The window visits the offsets 1 - half .. half around row
    # floor(x * n) // stride; the rows just beyond, at -half and
    # half + 1, must weigh exactly 0.0 wherever x * n rounds.
    rng = np.random.default_rng(n)
    knots = KnotGrid.uniform(n).knots
    xs = np.concatenate([rng.uniform(0.0, 1.0, 2000), knots,
                         np.nextafter(knots[1:], 0.0),
                         np.nextafter(knots[:-1], 1.0), [0.0, 1.0]])
    xn = xs * n
    for model, half in _offset_models(n):
        base = xn.astype(np.int64) // model.stride
        last = model.coefficients.shape[0] - 1
        inner = (base >= half) & (base + half < last)
        visited = [np.unique(rows[inner] - base[inner]).tolist()
                   for rows, _ in oracle._window(model, xs)]
        assert visited == [[off] for off in range(1 - half, half + 1)]
        for off in (-half, half + 1):
            u = xn - model.stride * (base + off)
            assert np.all(kernel_values(model.kernel, u) == 0.0)


def test_grid_evaluation_matches_scalar():
    rng = np.random.default_rng(67)
    xs = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 400),
                                 [0.0, 1.0]]))
    for model in _random_models(rng, 8):
        grid_out = eval_oracle_grid(model, xs)
        scalar_out = np.stack([eval_oracle(model, x) for x in xs])
        # bytes, not ==, so that -0.0 and +0.0 differ
        assert grid_out.tobytes() == scalar_out.tobytes()


def test_box_model_closed_at_right_endpoint():
    grid = KnotGrid.uniform(4)
    c = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    model = PiecewiseOracle(grid, KernelKind.box(), c)
    assert eval_oracle(model, 1.0)[0] == 40.0
    assert eval_oracle(model, 0.75)[0] == 40.0
    assert eval_oracle(model, 0.999)[0] == 40.0
    assert eval_oracle(model, 0.0)[0] == 10.0


def test_box_model_exact_at_awkward_knots():
    # n = 49: x * n rounds below j at several exact knots (for j = 1,
    # fl(fl(1/49) * 49) < 1), so box classification must consult the
    # knot array in both directions
    n = 49
    grid = KnotGrid.uniform(n)
    c = np.arange(n + 1, dtype=np.float64)
    model = PiecewiseOracle(grid, KernelKind.box(), c)
    for j in range(n):
        assert eval_oracle(model, grid.knots[j])[0] == c[j]
    got = eval_oracle_grid(model, grid.knots[:-1])[:, 0]
    assert np.array_equal(got, c[:-1])


def test_tensor_product_reduces_to_eval_oracle_bitwise():
    rng = np.random.default_rng(71)
    for model in _random_models(rng, 8):
        single = PiecewiseOracle(model.grid, model.kernel,
                                 model.coefficients[:, 0],
                                 model.stride)
        for x in rng.uniform(0.0, 1.0, 100):
            got = eval_tensor_product([single], single.coefficients[:, 0],
                                      [x])
            assert got == eval_oracle(single, x)[0]


def test_tensor_product_bilinear_exact():
    grid = KnotGrid.uniform(3)
    ax = PiecewiseOracle(grid, KernelKind.triangle(), grid.knots.copy())
    ay = PiecewiseOracle(grid, KernelKind.triangle(), grid.knots.copy())
    corner = grid.knots[:, None] + 2.0 * grid.knots[None, :]
    rng = np.random.default_rng(73)
    for _ in range(200):
        x, y = rng.uniform(0.0, 1.0, 2)
        got = eval_tensor_product([ax, ay], corner, [x, y])
        assert abs(got - (x + 2.0 * y)) <= 1e-12


def test_tensor_product_validation():
    grid = KnotGrid.uniform(3)
    tri = PiecewiseOracle(grid, KernelKind.triangle(), np.ones(4))
    box = PiecewiseOracle(grid, KernelKind.box(), np.ones(4))
    corner = np.ones((4, 4))
    with pytest.raises(UsageError):
        eval_tensor_product([], corner, [])
    with pytest.raises(UsageError):
        eval_tensor_product([tri] * 4, np.ones((4, 4, 4, 4)), [0.5] * 4)
    with pytest.raises(UsageError):
        eval_tensor_product([tri, box], corner, [0.5, 0.5])
    with pytest.raises(UsageError):
        eval_tensor_product([tri, tri], corner, [0.5])
    with pytest.raises(UsageError):
        eval_tensor_product([tri, tri], np.ones((4, 5)), [0.5, 0.5])
    with pytest.raises(DomainError):
        eval_tensor_product([tri, tri], corner, [0.5, 1.5])


def test_dense_coupling_matches_closed_form():
    rng = np.random.default_rng(79)
    for n in (2, 5, 16, 33):
        grid = KnotGrid.uniform(n)
        samples = TargetSamples(grid, rng.uniform(-4.0, 4.0, (n + 1, 3)))
        dense = dense_solve_coupling(samples)
        closed = solve_bump_coupling(samples).g
        assert np.max(np.abs(dense - closed)) <= 1e-10
        assert np.max(np.abs(dense - sine_solve_coupling(samples))) <= 1e-10


def _exact_coupling(column):
    """The coupling solve of one column in exact rational arithmetic,
    rounded once to float64."""
    half = Fraction(1, 2)
    cp, x = [half], [Fraction(column[0])]
    for f in column[1:]:
        piv = 1 - half * cp[-1]
        cp.append(half / piv)
        x.append((Fraction(f) - half * x[-1]) / piv)
    for i in range(len(x) - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return [float(v) for v in x]


def _coupling_cases(sizes):
    """Uniform(-1, 1) noise and smooth data, two columns each."""
    for n in sizes:
        grid = KnotGrid.uniform(n)
        yield TargetSamples(grid, np.random.default_rng(11).uniform(
            -1.0, 1.0, (n + 1, 2)))
        yield TargetSamples(grid, np.column_stack(
            [np.sin(2.0 * np.pi * grid.knots), np.exp(grid.knots)]))


@pytest.mark.parametrize("solve", [
    lambda samples: solve_bump_coupling(samples).g,
    sine_solve_coupling,
], ids=["closed-form", "sine"])
def test_refined_coupling_matches_exact_solve(solve):
    # unrefined, the closed form is off by up to ~140 eps * max|g| here
    for samples in _coupling_cases((1, 2, 3, 4, 7, 16, 31, 64, 127, 200, 255)):
        exact = np.column_stack([_exact_coupling(col.tolist())
                                 for col in samples.values.T])
        dev = np.max(np.abs(solve(samples) - exact))
        assert dev <= EPS * np.max(np.abs(exact))


def test_refined_closed_form_and_sine_coupling_agree():
    for samples in _coupling_cases((1, 2, 7, 64, 513, 4096, 16384)):
        closed = solve_bump_coupling(samples).g
        dev = np.max(np.abs(closed - sine_solve_coupling(samples)))
        assert dev <= 2.0 * EPS * np.max(np.abs(closed))


@pytest.mark.parametrize("n, values", [
    (64, lambda j: np.full(j.size, 1e307)),
    (513, lambda j: np.full(j.size, 1e307)),
    (4096, lambda j: np.full(j.size, 1e307)),
    (4096, lambda j: 1e306 * np.sin(j)),
], ids=["1e307-64", "1e307-513", "1e307-4096", "1e306-sin-4096"])
def test_coupling_solves_scale_huge_columns(n, values):
    # g is finite here, yet unscaled the closed form's prefix sums and
    # the sine transform's sums overflow; refine_coupling hands each
    # solve its columns scaled by a power of two
    samples = TargetSamples(KnotGrid.uniform(n), values(np.arange(n + 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = solve_bump_coupling(samples).g
        sine = sine_solve_coupling(samples)
    assert np.all(np.isfinite(closed)) and np.all(np.isfinite(sine))
    assert np.max(np.abs(closed - sine)) <= 2.0 * EPS * np.max(np.abs(closed))


def test_sine_coupling_overflow_names_the_column():
    values = np.column_stack([np.ones(65), 1e307 * (-1.0) ** np.arange(65)])
    samples = TargetSamples(KnotGrid.uniform(64), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="output 1 is not finite"):
            sine_solve_coupling(samples)


def test_cubic_oracle_does_not_use_the_dense_solve(monkeypatch):
    def refuse(samples):
        raise AssertionError("dense LU on the proof path")

    monkeypatch.setattr(oracle, "dense_solve_coupling", refuse)
    samples = TargetSamples.from_function(KnotGrid.uniform(64), np.sin)
    model = matching_oracle("cubic", samples)
    assert np.array_equal(model.coefficients, sine_solve_coupling(samples))


def test_fit_recovers_triangle_expansion():
    rng = np.random.default_rng(83)
    grid = KnotGrid.uniform(10)
    c = rng.uniform(-1.5, 1.5, 11)
    model = PiecewiseOracle(grid, KernelKind.triangle(), c)
    xs = np.linspace(0.0, 1.0, 300)
    ys = eval_oracle_grid(model, xs)[:, 0]
    fit = fit_kernel_weights(np.column_stack([xs, ys]),
                             KernelKind.triangle(), grid)
    assert np.max(np.abs(fit.omega - c)) <= 1e-8
    assert fit.rms_residual <= 1e-10


@pytest.mark.parametrize("n", [7, 49, 64])
@pytest.mark.parametrize("kernel, bound", [
    (KernelKind.box(), 1e-13),
    (KernelKind.triangle(), 1e-13),
    (KernelKind.cubic_bump(), 1e-10),
])
def test_fit_weights_are_those_of_the_oracle(kernel, bound, n):
    # The reference fit's column j is the oracle with unit weight j, so
    # the fit must place kernels exactly as eval_oracle_grid does: at
    # n = 49, x * n rounds below j at several knots, and x = 1 lies in
    # box n - 1, so box row n is never read.
    rng = np.random.default_rng(n)
    grid = KnotGrid.uniform(n)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 4 * n), grid.knots, [1.0]])
    ys = rng.uniform(-1.0, 1.0, xs.size)
    fit = fit_kernel_weights(np.column_stack([xs, ys]), kernel, grid)
    a = np.column_stack([
        eval_oracle_grid(PiecewiseOracle(grid, kernel, e), xs)[:, 0]
        for e in np.eye(n + 1)])
    want = np.linalg.solve(a.T @ a + oracle.RIDGE * np.eye(n + 1), a.T @ ys)
    assert np.max(np.abs(fit.omega - want)) <= bound
    fitted = eval_oracle_grid(PiecewiseOracle(grid, kernel, fit.omega), xs)
    assert fit.rms_residual == float(np.sqrt(np.mean((fitted[:, 0] - ys) ** 2)))


def test_fit_validation():
    grid = KnotGrid.uniform(8)
    tri = KernelKind.triangle()
    with pytest.raises(UsageError):
        fit_kernel_weights(np.ones((4, 3)), tri, grid)
    with pytest.raises(UsageError):
        # 5 samples cannot determine 9 knot weights
        fit_kernel_weights(np.column_stack([np.linspace(0, 1, 5),
                                            np.ones(5)]), tri, grid)
    with pytest.raises(DomainError):
        fit_kernel_weights(np.array([[0.0, np.nan]] * 20), tri, grid)
    with pytest.raises(DomainError):
        xs = np.linspace(-0.5, 1.0, 20)
        fit_kernel_weights(np.column_stack([xs, xs]), tri, grid)


def test_fit_refuses_a_gram_matrix_it_cannot_allocate():
    # (10^6 + 1)^2 Gram entries are 7.3 TiB, which numpy refuses at once;
    # never try a size that might be allocated
    n = 10**6
    xs = np.linspace(0.0, 1.0, n + 1)
    with pytest.raises(UsageError, match="kernel fit of N = 1000000 cannot"):
        fit_kernel_weights(np.column_stack([xs, np.zeros(n + 1)]),
                           KernelKind.box(), KnotGrid.uniform(n))


def test_matching_oracle_selection():
    grid = KnotGrid.uniform(4)
    samples = TargetSamples.from_function(grid, lambda x: x * x)
    assert matching_oracle("constant", samples).kernel.kind == "box"
    assert matching_oracle("linear-relu", samples).kernel.kind == "triangle"
    assert matching_oracle("linear-ramp", samples).kernel.kind == "triangle"
    cubic = matching_oracle("cubic", samples, slope=0.6)
    assert cubic.kernel.kind == "cubic-bump" and cubic.kernel.slope == 0.6
    spaced = matching_oracle("cubic-spaced", samples)
    assert spaced.stride == 2
    assert matching_oracle("cubic", samples).stride == 1
    assert spaced.coefficients.shape == (3, 1)
    with pytest.raises(UsageError):
        matching_oracle("cubic-spaced",
                        TargetSamples(KnotGrid.uniform(3), np.ones(4)))
    with pytest.raises(UsageError):
        matching_oracle("fourier", samples)
