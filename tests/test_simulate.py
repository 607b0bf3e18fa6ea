"""Simulator behaviour: exact recursion, determinism, signal laws."""

import ast
import csv
import dataclasses
import hashlib
import importlib
import math
import pathlib
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import switchid
from switchid import (
    DivergenceError,
    LssModel,
    SignalSpec,
    SimConfig,
    SwitchingDistribution,
    load_trajectory,
    save_trajectory,
    simulate,
    two_mode_benchmark,
)
from switchid.simulate import (
    BLOWUP_LIMIT, SampleSet, _draw_signals, _reader, _rollout, _scan_buffers, seed_stream,
    stream_size,
)

# The package exports a function named simulate, which shadows the module.
simulate_module = importlib.import_module("switchid.simulate")


def rollout(model, u, q, w=None, v=None):
    """The scan of simulate on given signals: the state noise w and the
    output noise v (zero when not given) are copied into the scan's
    buffers, where simulate draws them, and u may be one column."""
    u = np.asarray(u, dtype=float)
    F, ypad = _scan_buffers(len(q), model.n)
    if w is not None:
        F[: len(q)] = w
    if v is not None:
        ypad[: len(q)] = v
    return _rollout([model], u.reshape(-1, 1) if u.ndim == 1 else u, q, F, ypad, 0)[0]


def test_only_simulate_enters_the_rollout():
    # simulate draws signals the scan can take unchecked: in-range labels,
    # finite values, one row per step.  Any other function or import naming
    # _rollout is a second way in that would need an input gate of its own.
    uses = []
    for path in sorted(pathlib.Path(switchid.__file__).parent.glob("*.py")):

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name
            elif "_rollout" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                uses.append(f"{path.name}:{scope}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), "<module>")
    assert uses == ["simulate.py:simulate_group"]


def test_no_sum_over_the_time_axis_goes_through_blas():
    # BLAS splits a long product across its threads, so the last bits of a
    # sum over the time axis would depend on the thread count.  The BLAS
    # products left are over a model's dimensions: true_markov's C A_w B,
    # pass 2's C x over (n, blocks) and the non-finite carry's per-block P x.
    blas = {"dot", "matmul", "inner", "vdot", "tensordot"}
    uses = []
    for name in ("cli.py", "markov.py", "simulate.py"):
        path = pathlib.Path(switchid.__file__).with_name(name)

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name
            elif isinstance(getattr(node, "op", None), ast.MatMult) or (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in blas
            ):
                uses.append(f"{name}:{scope}:{ast.unparse(node)}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), "<module>")
    assert uses == [
        "markov.py:true_markov:model.C @ a_word(model, tail) @ model.B[head - 1]",
        "markov.py:true_markov:model.C @ a_word(model, tail)",
        "simulate.py:_rollout:P.dot(xb)",
        "simulate.py:_rollout:P[:, live].dot(xb[live])",
        "simulate.py:_rollout:np.dot(C_r, x_r[s], out=cx)",
        "simulate.py:_rollout:np.dot(C, last[s], out=cx)",
    ]


def test_impulse_through_mode_word(bench):
    # Unit input at t = 0 with modes (2, 2, 1) afterwards: the input
    # enters through B_2, survives one step of A_2, one step of A_1, and
    # reaches the output three steps after injection with gain 0.27.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([2, 2, 1, 1])
    y = rollout(model, u, q)
    npt.assert_allclose(y, [0.0, 0.0, 0.0, 0.27], atol=1e-15)


def test_impulse_other_mode_is_invisible(bench):
    # B_1 = 0, so an input injected while mode 1 is active never shows up.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([1, 2, 1, 1])
    npt.assert_allclose(rollout(model, u, q), np.zeros(4), atol=1e-15)


@pytest.mark.parametrize("value", [1.5, np.nan, np.inf, 2.0**63])
def test_labels_the_int64_cast_would_change_are_refused(value):
    # Casting would truncate 1.5 to mode 1, and turn nan, inf or 2**63
    # into some integer; whole numbers held as floats are labels.
    u = np.ones((6, 1))
    q = np.array([1.0, 2.0, 1.0, value, 1.0, 2.0])
    message = f"mode label {value!r} at step 3 is not an integer"
    with pytest.raises(ValueError) as exc:
        SampleSet(y=np.zeros(6), u=u, q=q)
    assert str(exc.value) == message
    whole = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    assert SampleSet(y=np.zeros(6), u=u, q=whole).q.dtype == np.int64


def test_driven_matches_manual_recursion(rng):
    # Independent dumb oracle: the same recursion written out longhand.
    n, m, nQ, T = 3, 2, 2, 40
    A = [0.4 * rng.standard_normal((n, n)) for _ in range(nQ)]
    B = [rng.standard_normal((n, m)) for _ in range(nQ)]
    C = rng.standard_normal(n)
    D = rng.standard_normal(m)
    model = LssModel(n=n, m=m, nQ=nQ, A=A, B=B, C=C, D=D)
    u = rng.uniform(-1, 1, size=(T, m))
    q = rng.integers(1, nQ + 1, size=T)
    w = rng.uniform(-0.1, 0.1, size=(T, n))
    v = rng.uniform(-0.1, 0.1, size=T)

    x = np.zeros(n)
    expect = []
    for t in range(T):
        expect.append(C @ x + D @ u[t] + v[t])
        x = A[q[t] - 1] @ x + B[q[t] - 1] @ u[t] + w[t]

    w_before = w.copy()
    npt.assert_allclose(rollout(model, u, q, w, v), expect, atol=1e-12)
    npt.assert_array_equal(w, w_before)  # the forcing is built in a copy


def longhand(model, u, q, w, v):
    """Oracle: the recursion one step at a time.  Returns the outputs up to
    the first step whose update leaves |x| <= BLOWUP_LIMIT, and that step
    (None when no step does)."""
    x = np.zeros(model.n)
    y = []
    for t in range(len(q)):
        y.append(model.C @ x + model.D @ u[t] + v[t])
        x = model.A[q[t] - 1] @ x + model.B[q[t] - 1] @ u[t] + w[t]
        if not np.abs(x).max() <= BLOWUP_LIMIT:
            return np.array(y), t
    return np.array(y), None


def scan_model(rng, growth=None, n=4, m=2, nQ=3):
    """Model (n = 4, nQ = 3, m = 2 unless given) whose modes have spectral
    norm 0.9; with ``growth`` set, mode 3 is growth * identity instead."""
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(0.9 * G / np.linalg.norm(G, 2))
    if growth is not None:
        A[2] = growth * np.eye(n)
    return LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n), D=rng.standard_normal(m),
    )


def scan_signals(rng, T, n=4, m=2, nQ=3):
    return (
        rng.uniform(-1, 1, size=(T, m)),
        rng.integers(1, nQ + 1, size=T),
        rng.uniform(-0.1, 0.1, size=(T, n)),
        rng.uniform(-0.1, 0.1, size=T),
    )


# Blocks are 16 steps long up to T = 1155: 15, 16, 17 straddle one block,
# 32 and 33 two.  3600 is 120 whole blocks of 30; 5000 ends in a short block.
@pytest.mark.parametrize("T", [1, 15, 16, 17, 32, 33, 3600, 5000])
def test_scan_matches_longhand_recursion(rng, T):
    model = scan_model(rng)
    u, q, w, v = scan_signals(rng, T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(rollout(model, u, q, w, v), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T", [200, 701, 5000])
def test_scan_names_the_blowup_step_of_the_longhand_recursion(rng, T):
    # Stable modes 1 and 2 until 120 steps before the end, then the growing
    # mode 3: the state leaves the limit in a late block, 60-odd steps on.
    model = scan_model(rng, growth=1.6)
    u, q, w, v = scan_signals(rng, T)
    q = np.where(np.arange(T) < T - 120, rng.integers(1, 3, size=T), 3)
    _, blowup = longhand(model, u, q, w, v)
    assert blowup is not None and blowup > T // 2
    with pytest.raises(DivergenceError, match=rf"state blew up at step {blowup} \("):
        rollout(model, u, q, w, v)


def test_scan_padding_is_invisible(rng):
    # T = 5000 is 142 blocks of 35 and a last block of 30 steps, padded to
    # 35.  Mode 1 grows by 1e30 a step but its label never appears: a pad
    # step that rolled with it would blow up beyond the data.
    T = 5000
    model = scan_model(rng)
    model = dataclasses.replace(model, A=[1e30 * np.eye(4)] + model.A[1:])
    u, _, w, v = scan_signals(rng, T)
    q = rng.integers(2, 4, size=T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(rollout(model, u, q, w, v), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T, start", [(5000, 4975), (12, 4)])
def test_scan_names_a_blowup_in_the_short_last_block(rng, T, start):
    # 5000 steps end in a 30-step block from step 4970; 12 steps are one
    # block, shorter than the 16 steps of the smallest full block.  Mode 3
    # multiplies the state by 1e4 from step ``start`` on.
    model = scan_model(rng, growth=1e4)
    u, _, w, v = scan_signals(rng, T)
    q = np.where(np.arange(T) < start, rng.integers(1, 3, size=T), 3)
    _, blowup = longhand(model, u, q, w, v)
    assert blowup is not None and start <= blowup < T
    with pytest.raises(DivergenceError, match=rf"state blew up at step {blowup} \("):
        rollout(model, u, q, w, v)


def test_scan_of_no_steps_is_empty(rng):
    model = scan_model(rng)
    y = rollout(model, np.zeros((0, 2)), np.zeros(0, dtype=int))
    assert y.shape == (0,)


def test_forcing_adds_input_channels_in_order(rng):
    # With A = 0 the state is the last forcing, x(t + 1) = F(t), and C = e_i
    # reads one component out exactly, so y(t + 1) must equal
    # ((w_i + B_i1 u_1) + B_i2 u_2) + B_i3 u_3 plus the feedthrough, bit for
    # bit.  The feedthrough, zero or not, is added in the same order:
    # y(t) = (((v + D_1 u_1) + D_2 u_2) + D_3 u_3) + C x(t).
    n, m, nQ, T = 2, 3, 2, 3000
    B = [rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 8, size=(n, m)) for _ in range(nQ)]
    u = rng.uniform(-1, 1, size=(T, m))
    q = rng.integers(1, nQ + 1, size=T)
    w = rng.uniform(-1, 1, size=(T, n))
    v = rng.uniform(-1, 1, size=T)
    Bq = np.stack(B)[q - 1]
    for D in (np.zeros(m), rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, size=m)):
        direct = v.copy()
        for j in range(m):
            direct += D[j] * u[:, j]
        if D.any():
            reversed_direct = v + (D[2] * u[:, 2] + D[1] * u[:, 1] + D[0] * u[:, 0])
            assert not np.array_equal(direct, reversed_direct)  # the order shows
        for i in range(n):
            model = LssModel(n=n, m=m, nQ=nQ, A=[np.zeros((n, n))] * nQ, B=B, C=np.eye(n)[i], D=D)
            in_order = w[:, i].copy()
            for j in range(m):
                in_order += Bq[:, i, j] * u[:, j]
            reversed_order = Bq[:, i, 2] * u[:, 2] + Bq[:, i, 1] * u[:, 1] + Bq[:, i, 0] * u[:, 0]
            reversed_order += w[:, i]
            assert not np.array_equal(in_order, reversed_order)  # the order shows
            y = rollout(model, u, q, w, v)
            assert y[0] == direct[0]
            npt.assert_array_equal(y[1:], direct[1:] + in_order[:-1])


# Peak traced memory of one rollout at T = 100 201 (N = 1e5 plus the
# burn-in), in units of one length-T float row, T * 8 bytes, with the
# signals allocated by the caller.  The row-major layout the scan had
# before peaked at 5.1 units for n = 2, m = 1 and 7.4 for n = 4, m = 2;
# each bound is that plus one unit.
PEAK_ROWS = {2: 6.1, 4: 8.4}


@pytest.mark.parametrize("n", sorted(PEAK_ROWS))
def test_scan_memory_stays_within_a_few_rows(rng, n):
    T = 100_201
    if n == 2:
        model, _ = two_mode_benchmark(0.6)
    else:
        model = scan_model(rng)
    u, q, w, v = scan_signals(rng, T, n=n, m=model.m, nQ=model.nQ)
    rollout(model, u[:100], q[:100], w[:100], v[:100])  # warm any lazy imports
    tracemalloc.start()
    try:
        rollout(model, u, q, w, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * T) <= PEAK_ROWS[n]


# Peak traced memory of a whole simulate() at N = 1e5 with the 200-step
# burn-in, T = 100 201, draws included, in the same units.  The noise is
# drawn into the scan's own buffers, so the peak is the modes, the inputs,
# the n forcing rows, the padded outputs and the scan's labels, plus the
# carry's stacks: 6.24 rows on the two-mode family and 8.65 on an n = 4,
# m = 1 model.  Each bound is that plus half a unit.  A full copy of the
# noise held beside the buffers would add n + 1 units.
SIMULATE_PEAK_ROWS = {2: 6.75, 4: 9.15}


@pytest.mark.parametrize("n", sorted(SIMULATE_PEAK_ROWS))
def test_simulate_holds_no_signal_twice(rng, bench_signal, n):
    if n == 2:
        model, dist = two_mode_benchmark(0.6)
    else:
        model, dist = scan_model(rng, m=1), SwitchingDistribution(p=[0.5, 0.3, 0.2])
    cfg = SimConfig(model=model, dist=dist, signal=bench_signal, N=100_000, seed=1)
    simulate(dataclasses.replace(cfg, N=100))  # warm any lazy imports
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 100_201) <= SIMULATE_PEAK_ROWS[n]


def blowup_model(rng, n):
    """Model (nQ = 3, m = 1) whose mode 1 contracts (spectral norm 0.9),
    mode 2 multiplies the state by 1e18, past the limit in one step, and
    mode 3 zeroes it, so the state falls back under the limit a step on."""
    G = rng.standard_normal((n, n))
    return LssModel(
        n=n, m=1, nQ=3, A=[0.9 * G / np.linalg.norm(G, 2), 1e18 * np.eye(n), np.zeros((n, n))],
        B=[rng.standard_normal((n, 1)) for _ in range(3)],
        C=rng.standard_normal(n), D=rng.standard_normal(1),
    )


def assert_names_the_longhand_step(model, steps, fall_back, T=1200):
    """Blow up at every step of ``steps`` (the state falling back the step
    after when ``fall_back``) and check the scan names the step the
    longhand recursion does, which must be the first of them."""
    rng = np.random.default_rng(list(steps))
    u, _, w, v = scan_signals(rng, T, n=model.n, m=1, nQ=3)
    q = np.ones(T, dtype=int)
    for t in steps:
        q[t] = 2
        if fall_back and t + 1 < T:
            q[t + 1] = 3
    _, blowup = longhand(model, u, q, w, v)
    assert blowup == min(steps)
    with pytest.raises(DivergenceError, match=rf"state blew up at step {blowup} \("):
        rollout(model, u, q, w, v)


# T = 1200 is 70 blocks of L = 17 steps and a short last block of 10.  The
# limit is checked once per window of steps, so every in-block step of a
# full block and of the short last block is tried: that takes in the first,
# a middle and the last step of every window and the short last window of
# a block, whatever the window's length.
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("fall_back", [False, True])
def test_windowed_check_names_the_step_of_the_per_step_check(n, fall_back):
    model = blowup_model(np.random.default_rng(n), n)
    for j in range(17):
        assert_names_the_longhand_step(model, [7 * 17 + j], fall_back)
    for j in range(10):
        assert_names_the_longhand_step(model, [70 * 17 + j], fall_back)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_windowed_check_names_the_lower_of_two_blocks(n):
    # The lower block wins, also when its in-block step comes later.
    model = blowup_model(np.random.default_rng(n), n)
    for steps in ([10 * 17 + 15, 40 * 17 + 3], [10 * 17 + 3, 11 * 17 + 2], [70 * 17 + 9, 69 * 17]):
        for fall_back in (False, True):
            assert_names_the_longhand_step(model, steps, fall_back)


def test_unexcited_growing_mode_is_not_a_blowup(rng):
    # x_1 grows by 1e30 a step but starts at zero and is never driven, so
    # the state stays bounded; the block products overflow all the same.
    T = 300
    model = LssModel(
        n=2, m=1, nQ=1,
        A=[np.array([[1e30, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])],
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)
    expect, blowup = longhand(model, u, q, np.zeros((T, 2)), np.zeros(T))
    assert blowup is None
    npt.assert_allclose(rollout(model, u, q), expect, rtol=0, atol=1e-12)


# Blocks are 16 steps long up to T = 1155, so these T leave nb - 1 = 0, 1,
# 2, 3, 4, 5, 8 and 9 block maps to compose in ceil(log2(nb - 1)) doubling
# rounds (0 to 4); 12 345 steps are 224 maps of 55 steps, 8 rounds.
CARRY_T = [10, 20, 40, 50, 70, 90, 130, 150, 12_345]


def blocks(T):
    L = max(16, math.isqrt(T) // 2)
    return L, max(1, -(-T // L))


@pytest.mark.parametrize("T", CARRY_T)
def test_doubling_carry_matches_longhand_recursion(T):
    # Seeded contracting models, one per n = 1..4, nQ = 1..3 and m = 1..2.
    rng = np.random.default_rng(T)
    models = [
        scan_model(rng, n=n, m=m, nQ=nQ)
        for n in range(1, 5) for nQ in range(1, 4) for m in (1, 2)
    ]
    if T > 1_000:  # the longhand oracle is slow; every n, nQ and m still occurs
        models = models[::5]
    for model in models:
        u, q, w, v = scan_signals(rng, T, n=model.n, m=model.m, nQ=model.nQ)
        expect, blowup = longhand(model, u, q, w, v)
        assert blowup is None
        npt.assert_allclose(rollout(model, u, q, w, v), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("T", [10, 20, 40, 90, 150, 12_345, 100_201])
def test_carry_costs_log2_rounds(monkeypatch, T):
    # One einsum per step of each pass, L per pass, and one per doubling
    # round: a carry that loops over blocks, or a round too many, shows.
    rng = np.random.default_rng(5)
    model = scan_model(rng)
    signals = scan_signals(rng, T)
    calls = 0
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        nonlocal calls
        calls += 1
        return einsum(*args, **kwargs)

    monkeypatch.setattr(simulate_module.np, "einsum", counting_einsum)
    rollout(model, *signals)
    monkeypatch.undo()
    L, nb = blocks(T)
    rounds = math.ceil(math.log2(nb - 1)) if nb > 2 else 0
    assert calls == 2 * L + rounds


@pytest.mark.parametrize("T", [10, 40, 150, 5000, 12_345, 100_201])
def test_scan_steps_allocate_no_einsum_result(monkeypatch, T):
    # Every einsum the scan makes without an out= buffer is a doubling
    # round of the carry: the steps of both passes write into buffers
    # they hold for the whole scan.
    rng = np.random.default_rng(6)
    model = scan_model(rng)
    signals = scan_signals(rng, T)
    fresh = 0
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        nonlocal fresh
        fresh += kwargs.get("out") is None
        return einsum(*args, **kwargs)

    monkeypatch.setattr(simulate_module.np, "einsum", counting_einsum)
    rollout(model, *signals)
    monkeypatch.undo()
    _, nb = blocks(T)
    assert fresh <= (math.ceil(math.log2(nb - 1)) if nb > 2 else 0)


def test_growing_mode_unexcited_in_some_blocks_is_not_a_blowup(rng):
    # Mode 2 multiplies x_1 by 1e30 a step, so the map of every block with
    # a run of it overflows, but x_1 starts at zero and nothing drives it.
    # Those blocks are carried one at a time, here with many blocks on
    # either side of them.
    T = 600
    A1 = np.array([[0.5, 0.0], [0.3, 0.5]])
    model = LssModel(
        n=2, m=1, nQ=2,
        A=[A1, np.array([[1e30, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])] * 2,
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    L, nb = blocks(T)
    assert nb > 2
    q = np.ones(T, dtype=int)
    for start in (3 * L + 2, 7 * L + 4, (nb - 2) * L):
        q[start : start + 12] = 2
    u = rng.uniform(-1, 1, size=(T, 1))
    w = np.zeros((T, 2))
    w[:, 1] = rng.uniform(-0.1, 0.1, size=T)
    v = rng.uniform(-0.1, 0.1, size=T)
    expect, blowup = longhand(model, u, q, w, v)
    assert blowup is None
    npt.assert_allclose(rollout(model, u, q, w, v), expect, rtol=0, atol=1e-12)


def test_composed_block_maps_that_overflow_are_not_a_blowup(rng):
    # x_1 grows by 10 a step and is never driven.  One block's map holds
    # 10**16 and stays finite, but the composition of 60 of them overflows.
    T = 1_000
    model = LssModel(
        n=2, m=1, nQ=1,
        A=[np.array([[10.0, 0.0], [0.0, 0.5]])], B=[np.array([[0.0], [1.0]])],
        C=np.array([1.0, 1.0]), D=np.array([0.0]),
    )
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)
    expect, blowup = longhand(model, u, q, np.zeros((T, 2)), np.zeros(T))
    assert blowup is None
    npt.assert_allclose(rollout(model, u, q), expect, rtol=0, atol=1e-12)


def test_lti_special_case_is_a_convolution(rng):
    # With one mode and no noise the output is the impulse-response
    # convolution of the input; scipy-free check against the explicit sum
    # y(t) = D u(t) + sum_{k>=1} C A^{k-1} B u(t-k).
    n, T = 3, 60
    A = [np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.0, 0.0, 0.3]])]
    B = [rng.standard_normal((n, 1))]
    C = rng.standard_normal(n)
    D = np.array([0.7])
    model = LssModel(n=n, m=1, nQ=1, A=A, B=B, C=C, D=D)
    u = rng.uniform(-1, 1, size=(T, 1))
    q = np.ones(T, dtype=int)

    h = [float(D[0])] + [
        float(C @ np.linalg.matrix_power(A[0], k - 1) @ B[0][:, 0]) for k in range(1, T)
    ]
    expect = [sum(h[k] * u[t - k, 0] for k in range(t + 1)) for t in range(T)]

    npt.assert_allclose(rollout(model, u, q), expect, atol=1e-10)


def test_simulate_is_deterministic(bench, bench_signal):
    model, dist = bench
    cfg = SimConfig(model=model, dist=dist, signal=bench_signal, N=500, seed=42)
    s1, s2 = simulate(cfg), simulate(cfg)
    npt.assert_array_equal(s1.y, s2.y)
    npt.assert_array_equal(s1.u, s2.u)
    npt.assert_array_equal(s1.q, s2.q)


def test_simulate_seeds_differ(bench, bench_signal):
    model, dist = bench
    mk = lambda seed: simulate(
        SimConfig(model=model, dist=dist, signal=bench_signal, N=500, seed=seed)
    )
    assert not np.array_equal(mk(0).y, mk(1).y)


def test_simulate_lengths(bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=123, seed=0))
    assert s.N == 123
    assert len(s.y) == len(s.q) == 124
    assert s.u.shape == (124, 1)


def test_zero_signals_give_zero_output(bench):
    model, dist = bench
    quiet = SignalSpec(Ku_input=0.0, Ku_noise=0.0)
    s = simulate(SimConfig(model=model, dist=dist, signal=quiet, N=200, seed=0))
    npt.assert_array_equal(s.y, np.zeros(201))
    npt.assert_array_equal(s.u, np.zeros((201, 1)))


def test_input_and_mode_laws(bench):
    # Inputs stay inside the stated box and their second moment matches
    # the uniform law; mode frequencies match p to a few standard errors.
    model, dist = bench
    signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    s = simulate(SimConfig(model=model, dist=dist, signal=signal, N=200_000, seed=9))
    assert np.abs(s.u).max() <= 0.8
    npt.assert_allclose(s.u.var(), 0.64 / 3.0, rtol=0.02)
    freq1 = np.mean(s.q == 1)
    # Binomial std at p = 1/2, N ~ 2e5 is about 0.0011; allow 4 sigma.
    assert abs(freq1 - 0.5) < 0.0045
    assert set(np.unique(s.q)) == {1, 2}


def test_output_respects_theoretical_bound(bench, bench_signal):
    # Explicit envelope for this family: x2 integrates a geometric
    # series, |x2| <= (Ku_inp + Kw) / (1 - a); x1 copies x2 (plus state
    # noise) and y reads x1 (plus output noise), so
    # |y| <= |x2|_max + 2 Kw.
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=50_000, seed=3))
    a, Kw = 0.27, 1.0
    x2_max = (0.8 + Kw) / (1.0 - a)
    assert np.abs(s.y).max() <= x2_max + 2 * Kw + 1e-9


def test_divergence_detected():
    model = LssModel(
        n=1, m=1, nQ=1,
        A=[np.array([[1.5]])], B=[np.array([[1.0]])],
        C=np.array([1.0]), D=np.array([0.0]),
    )
    dist = SwitchingDistribution(p=[1.0])
    signal = SignalSpec(Ku_input=1.0, Ku_noise=0.0)
    with pytest.raises(DivergenceError):
        simulate(SimConfig(model=model, dist=dist, signal=signal, N=500, seed=0))
    # The step is counted from the start of the burn-in: step 74 lies in
    # it, before the retained t = 0.
    with pytest.raises(DivergenceError) as exc:
        simulate(SimConfig(model=model, dist=dist, signal=signal, N=1000, burn_in=200, seed=0))
    assert str(exc.value) == (
        "state blew up at step 74 (|x| > 1e+12); the configuration looks unstable "
        "(steps count from the start of the 200-step burn-in; retained t = 0 is step 200)"
    )


# Mode laws for the draw oracle: nQ = 1, 2, 3, 9 and 130 (beyond int8),
# uniform and not.  [0.5, 0.5, 1e-17] has cdf [0.5, 1.0, 1.0]: its last
# step rounds away, so mode 3 is never drawn.
DRAW_LAWS = [
    [1.0],
    [0.5, 0.5],
    [0.7, 0.3],
    [1 / 3] * 3,
    [0.5, 0.5, 1e-17],
    [1 / 9] * 9,
    list(np.arange(1, 10) / 45),
    [1 / 130] * 130,
    list(np.arange(1, 131) / 8515),
]
DRAW_SIGNALS = [
    SignalSpec(Ku_input=0.8, Ku_noise=1.0),
    SignalSpec(Ku_input=0.0, Ku_noise=1.0),
    SignalSpec(Ku_input=0.8, Ku_noise=0.0),
    SignalSpec(Ku_input=0.0, Ku_noise=0.0),
]


def numpy_draws(rng, p, signal, T, n, m):
    """The trial's signals as numpy's own samplers draw them."""
    q = rng.choice(len(p), size=T, p=p) + 1
    Ku, Kn = signal.Ku_input, signal.Ku_noise
    u = np.zeros((T, m)) if Ku == 0.0 else rng.uniform(-Ku, Ku, size=(T, m))
    if Kn == 0.0:
        return q, u, None, None
    return q, u, rng.uniform(-Kn, Kn, size=(T, n)), rng.uniform(-Kn, Kn, size=T)


def assert_same_draws(p, signal, T, n, m, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    # The noise is drawn into the leading T rows of longer buffers, as into
    # the scan's padded ones; nan marks a slot no draw wrote.
    w_buf, v_buf = np.full((T + 5, n), np.nan), np.full(T + 5, np.nan)
    q, u = _draw_signals(_reader(rng), p, signal, m, w_buf[:T], v_buf[:T])
    got = q, u, w_buf[:T], v_buf[:T]
    expect = numpy_draws(twin, p, signal, T, n, m)
    for a, b in zip(got, expect):
        if b is None:
            assert np.isnan(a).all()  # a zero amplitude draws nothing
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            npt.assert_array_equal(a, b)
    assert np.isnan(w_buf[T:]).all() and np.isnan(v_buf[T:]).all()
    # The generator was consumed exactly as numpy's samplers consume it.
    npt.assert_array_equal(rng.random(4), twin.random(4))
    return got


# 20 001 rows span three noise chunks, the last one short.
@pytest.mark.parametrize("T", [1, 17, 1201, 20_001])
@pytest.mark.parametrize("p", DRAW_LAWS, ids=lambda p: f"nQ{len(p)}-{p[0]:.3g}")
def test_draws_are_numpys_choice_and_uniform(p, T):
    q = assert_same_draws(p, DRAW_SIGNALS[0], T, n=4, m=2, seed=T)[0]
    assert q.dtype == np.int64
    assert 1 <= q.min() and q.max() <= len(p)
    if len(p) == 130 and T == 1201:
        assert q.max() > 127  # the labels an int8 count would wrap
    if p[-1] == 1e-17:
        assert 3 not in q


@pytest.mark.parametrize("T", [1, 17, 1201, 20_001])
@pytest.mark.parametrize("signal", DRAW_SIGNALS, ids=lambda s: f"{s.Ku_input}-{s.Ku_noise}")
def test_zero_amplitudes_draw_nothing(signal, T):
    assert_same_draws([0.7, 0.3], signal, T, n=2, m=3, seed=7)


def test_draw_on_a_cdf_entry_takes_the_next_mode():
    # choice's searchsorted(side="right") puts r == cdf[k] in mode k + 2.
    # With p = [r, 1 - r] for a value r the generator draws at step 5, cdf
    # is exactly [r, 1.0], so that step lands on the entry.
    r = np.random.default_rng(3).random(17)[5]
    p = [r, 1.0 - r]
    assert np.cumsum(p)[-1] == 1.0
    q = assert_same_draws(p, DRAW_SIGNALS[0], 17, n=2, m=1, seed=3)[0]
    assert q[5] == 2


def test_simulate_rolls_out_numpys_draws(bench, bench_signal):
    model, dist = bench
    cfg = SimConfig(model=model, dist=dist, signal=bench_signal, N=300, burn_in=50, seed=4)
    s = simulate(cfg)
    q, u, w, v = numpy_draws(np.random.default_rng(4), dist.p, bench_signal, 351, 2, 1)
    npt.assert_array_equal(s.q, q[50:])
    npt.assert_array_equal(s.u, u[50:])
    npt.assert_array_equal(s.y, rollout(model, u, q, w, v)[50:])


def raw_draws(seed, p, signal, T, n, m):
    """q, u, w and v rebuilt from the 64-bit words of the seed's bit
    generator, in simulate's order: a double is (raw >> 11) * 2**-53, a
    mode choice's searchsorted of one, a signal of amplitude K is
    -K + 2K r, and a zero amplitude takes no words."""
    bits = np.random.default_rng(seed).bit_generator

    def doubles(*shape):
        return (bits.random_raw(math.prod(shape)) >> np.uint64(11)).reshape(shape) * 2.0**-53

    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    q = np.searchsorted(cdf, doubles(T), side="right") + 1
    Ku, Kn = signal.Ku_input, signal.Ku_noise
    u = -Ku + 2.0 * Ku * doubles(T, m) if Ku else np.zeros((T, m))
    if not Kn:
        return q, u, None, None
    return q, u, -Kn + 2.0 * Kn * doubles(T, n), -Kn + 2.0 * Kn * doubles(T)


@pytest.mark.parametrize("signal", DRAW_SIGNALS, ids=lambda s: f"{s.Ku_input}-{s.Ku_noise}")
@pytest.mark.parametrize("family", ["two-mode", "n4-m2"])
def test_draws_are_the_bit_generators_words(rng, family, signal):
    # The draws depend on the bit generator's stream alone, whether
    # simulate draws them or reads them from a held prefix of the stream,
    # here one longer than it needs.
    if family == "two-mode":
        model, dist = two_mode_benchmark(0.6)
    else:
        model, dist = scan_model(rng), SwitchingDistribution(p=[0.5, 0.3, 0.2])
    cfg = SimConfig(model=model, dist=dist, signal=signal, N=300, burn_in=20, seed=9)
    q, u, w, v = raw_draws(9, dist.p, signal, 321, model.n, model.m)
    y = rollout(model, u, q, w, v)
    held = np.random.default_rng(9).random(stream_size(cfg) + 7)
    for s in (simulate(cfg), simulate(dataclasses.replace(cfg, stream=held))):
        npt.assert_array_equal(s.q, q[20:])
        npt.assert_array_equal(s.u, u[20:])
        npt.assert_array_equal(s.y, y[20:])


def test_a_stream_that_cannot_serve_the_config_is_refused(bench, bench_signal):
    # The config refuses the stream, before simulate reads past its end.
    cfg = SimConfig(model=bench[0], dist=bench[1], signal=bench_signal, N=100, seed=1)
    quiet = dataclasses.replace(cfg, signal=SignalSpec(Ku_input=0.8, Ku_noise=0.0))
    stream = seed_stream(1, [quiet, cfg])
    assert stream.shape == (301 * 5,)  # the longer layout: modes, u, w_1, w_2 and v
    says = "simulate reads 1505 doubles of a 1-D float64 stream"
    for bad in (stream[:-1], stream.reshape(5, 301), stream.astype(np.float32)):
        with pytest.raises(ValueError, match=re.escape(says)):
            dataclasses.replace(cfg, stream=bad)


@pytest.mark.parametrize("lengths", [(3, 4, 4), (4, 3, 4), (4, 4, 5)])
def test_sampleset_refuses_fields_of_unequal_lengths_by_naming_them(lengths):
    ny, nu, nq = lengths
    with pytest.raises(ValueError) as exc:
        SampleSet(y=np.zeros(ny), u=np.zeros((nu, 1)), q=np.ones(nq, dtype=int))
    assert str(exc.value) == (
        f"y, u and q have lengths {ny}, {nu} and {nq}; a trajectory has one of each per step"
    )


def test_sampleset_reads_N_off_its_arrays(bench, bench_signal):
    sample = simulate(SimConfig(model=bench[0], dist=bench[1], signal=bench_signal, N=300))
    assert sample.N == len(sample.y) - 1 == 300
    assert SampleSet(y=[0.25], u=[[-1.5]], q=[1]).N == 0
    assert [f.name for f in dataclasses.fields(SampleSet)] == ["y", "u", "q"]


def test_sampleset_validation():
    with pytest.raises(ValueError, match="field 'y' at step 1 is not finite: nan"):
        SampleSet(y=np.array([0.0, np.nan]), u=np.zeros((2, 1)), q=np.ones(2, dtype=int))


def test_sampleset_refuses_fields_that_are_not_1d():
    u = np.ones((6, 1))
    with pytest.raises(ValueError, match=r"^trajectory field 'y' must be 1-D, not of shape \(3, 2\)$"):
        SampleSet(y=np.zeros((3, 2)), u=u, q=[[1, 2], [1, 2], [1, 2]])
    with pytest.raises(ValueError, match=r"^trajectory field 'q' must be 1-D, not of shape \(3, 2\)$"):
        SampleSet(y=np.zeros(6), u=u, q=[[1, 2], [1, 2], [1, 2]])
    # A u of three axes used to pass here and fail in the estimator's
    # broadcast; a 1-D u is still one input column.
    with pytest.raises(
        ValueError, match=r"^trajectory field 'u' must be 1-D or 2-D, not of shape \(101, 1, 2\)$"
    ):
        SampleSet(y=np.zeros(101), u=np.zeros((101, 1, 2)), q=np.ones(101))
    assert SampleSet(y=np.zeros(6), u=np.ones(6), q=[1, 2] * 3).u.shape == (6, 1)


def test_simconfig_validation(bench, bench_signal):
    model, dist = bench
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=0)
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=10, burn_in=-1)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=10, seed=-1)
    other = SwitchingDistribution(p=[1.0])
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=other, signal=bench_signal, N=10)
    # N=True used to simulate 2 samples; the floats ended in numpy's TypeError.
    cfg = dict(model=model, dist=dist, signal=bench_signal, N=10)
    for field, value in [("N", True), ("N", 100.5), ("burn_in", 10.5), ("seed", 1.5)]:
        with pytest.raises(ValueError, match=f"^{field}: {value!r} is not an integer$"):
            SimConfig(**{**cfg, field: value})


def test_trajectory_csv_roundtrip(tmp_path, bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=50, seed=5))
    path = tmp_path / "traj.csv"
    save_trajectory(str(path), s)
    s2 = load_trajectory(str(path))
    assert s2.N == s.N
    npt.assert_array_equal(s2.y, s.y)  # repr round-trips doubles exactly
    npt.assert_array_equal(s2.u, s.u)
    npt.assert_array_equal(s2.q, s.q)
    header = path.read_text().splitlines()[0]
    assert header == "t,y,u_1,q"


def csv_writer_save(path, sample):
    """The trajectory writer row by row through csv.writer: the oracle
    for the bytes :func:`save_trajectory` writes."""
    m = sample.u.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"] + [f"u_{j + 1}" for j in range(m)] + ["q"])
        for t in range(sample.N + 1):
            row = [t, repr(float(sample.y[t]))]
            row += [repr(float(sample.u[t, j])) for j in range(m)]
            row.append(int(sample.q[t]))
            writer.writerow(row)


EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize(
    "sample",
    [
        SampleSet(y=[0.25], u=[[-1.5]], q=[1]),
        SampleSet(y=[-0.0], u=[[1e16, 5e-324]], q=[3]),
        SampleSet(
            y=EDGE_VALUES,
            u=np.column_stack([EDGE_VALUES[::-1], [-x for x in EDGE_VALUES]]),
            q=[1, 2, 2, 1, 12],
        ),
        SampleSet(y=[1.0, -2.5, 3e-7, 0.1, 7.0], u=EDGE_VALUES, q=[2, 1, 1, 2, 1]),
    ],
    ids=["N0", "N0-m2", "edge-m2", "edge-m1"],
)
def test_save_trajectory_bytes_match_csv_writer(tmp_path, sample):
    save_trajectory(str(tmp_path / "new.csv"), sample)
    csv_writer_save(str(tmp_path / "old.csv"), sample)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_trajectory_bytes_match_csv_writer_on_a_simulation(tmp_path, bench, bench_signal):
    model, dist = bench
    s = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=2000, seed=7))
    save_trajectory(str(tmp_path / "new.csv"), s)
    csv_writer_save(str(tmp_path / "old.csv"), s)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_load_trajectory_rejects_alien_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,output\n0,1.0\n")
    with pytest.raises(ValueError):
        load_trajectory(str(path))


def rowwise_load(path):
    """The per-row trajectory reader, field by field with csv: the oracle
    for :func:`load_trajectory`, which parses the body with numpy."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "y"] or header[-1] != "q":
            raise ValueError(f"unrecognized trajectory header: {header}")
        m = len(header) - 3
        ys, us, qs = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            try:
                ys.append(float(row[1]))
                us.append([float(x) for x in row[2 : 2 + m]])
                q = int(row[-1])
            except ValueError:
                for name, value in zip(header[1:], row[1:]):
                    try:
                        (int if name == "q" else float)(value)
                    except ValueError:
                        kind = "an integer" if name == "q" else "a number"
                        raise ValueError(
                            f"{path}, line {reader.line_num}: field {name!r} "
                            f"is not {kind}: {value!r}"
                        ) from None
                raise
            if not -(2**63) <= q < 2**63:
                raise ValueError(
                    f"{path}, line {reader.line_num}: field 'q' is outside the "
                    f"int64 range: {row[-1]!r}"
                )
            qs.append(q)
    return SampleSet(y=np.array(ys), u=np.array(us), q=np.array(qs))


TRAJ_ROWS = [
    "0,0.5,-1.25,3e-17,1",
    "1,-0.125,0.75,1.0,2",
    "2,2.5e3,-0.0,-7.5,3",
    "3,0.1,0.2,0.30000000000000004,1",
]


def traj_text(rows, header="t,y,u_1,u_2,q", newline="\n"):
    return newline.join([header] + rows) + newline


def edit_row(i, **fields):
    names = ["t", "y", "u_1", "u_2", "q"]
    row = TRAJ_ROWS[i].split(",")
    for name, value in fields.items():
        row[names.index(name)] = value
    return TRAJ_ROWS[:i] + [",".join(row)] + TRAJ_ROWS[i + 1 :]


LOADER_CASES = {
    "plain": traj_text(TRAJ_ROWS),
    "blank-line": traj_text(TRAJ_ROWS[:2] + [""] + TRAJ_ROWS[2:]),
    "crlf": traj_text(TRAJ_ROWS, newline="\r\n"),
    "whitespace-line": traj_text(TRAJ_ROWS[:2] + ["   "] + TRAJ_ROWS[2:]),
    "hash-line": traj_text(TRAJ_ROWS[:2] + ["# note"] + TRAJ_ROWS[2:]),
    "extra-field": traj_text(TRAJ_ROWS[:2] + [TRAJ_ROWS[2] + ",9"] + TRAJ_ROWS[3:]),
    "missing-field": traj_text(TRAJ_ROWS[:2] + [TRAJ_ROWS[2].rsplit(",", 2)[0] + ",3"]),
    "quoted-number": traj_text(edit_row(1, y='"-0.125"')),
    "q-2.0": traj_text(edit_row(1, q="2.0")),
    "q-1e0": traj_text(edit_row(2, q="1e0")),
    "y-abc": traj_text(edit_row(3, y="abc")),
    "t-abc": traj_text(edit_row(0, t="abc")),
    "padded-fields": traj_text(edit_row(1, y=" -0.125 ", q=" 2")),
    "one-row": traj_text(TRAJ_ROWS[:1]),
    "no-final-newline": traj_text(TRAJ_ROWS)[:-1],
    # The quoted field sends the file to the row reader.
    "q-int64-max": traj_text(edit_row(2, y='"2.5e3"', q=str(2**63 - 1))),
    "q-above-int64": traj_text(edit_row(2, q=str(2**63))),
    "q-below-int64": traj_text(edit_row(1, q=str(-(2**63) - 1))),
    "q-20-digits": traj_text(edit_row(3, q="99999999999999999999")),
    "one-input": traj_text([r.rsplit(",", 2)[0] + "," + r[-1] for r in TRAJ_ROWS], "t,y,u_1,q"),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_load_trajectory_matches_rowwise_reader(tmp_path, case):
    path = tmp_path / "traj.csv"
    path.write_bytes(LOADER_CASES[case].encode())
    try:
        expect = rowwise_load(str(path))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_trajectory(str(path))
        assert str(got.value) == str(exc)
        return
    got = load_trajectory(str(path))
    assert got.N == expect.N
    for name in ("y", "u", "q"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        npt.assert_array_equal(a, b)


def test_load_trajectory_refuses_mode_label_beyond_int64(tmp_path):
    # The label used to pass the reader and overflow in SampleSet.
    path = tmp_path / "traj.csv"
    path.write_text(LOADER_CASES["q-20-digits"])
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == (
        f"{path}, line 5: field 'q' is outside the int64 range: '99999999999999999999'"
    )


@pytest.mark.parametrize("field", ["y", "q"])
@pytest.mark.parametrize("value", ["1_000", "١٢"], ids=["underscore", "arabic-indic"])
def test_load_trajectory_refuses_spellings_numpy_refuses(tmp_path, field, value):
    # Python's float and int take digit separators and non-ASCII digits;
    # numpy's reader does not, and the file is refused rather than read
    # by a second parser.
    path = tmp_path / "traj.csv"
    path.write_text(traj_text(edit_row(1, **{field: value})), encoding="utf-8")
    kind = "an integer" if field == "q" else "a number"
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line 3: field {field!r} is not {kind}: {value!r}"


def test_load_trajectory_counts_a_skipped_blank_line(tmp_path):
    # The row scan skips the blank line 3 but still counts it.
    path = tmp_path / "traj.csv"
    path.write_text("t,y,u_1,q\n0,0.5,0.25,1\n\n2,abc,0.25,1\n")
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line 4: field 'y' is not a number: 'abc'"


@pytest.mark.parametrize("line", [1, 3])
def test_load_trajectory_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, line):
    # The byte used to escape as a UnicodeDecodeError naming only its
    # offset: numpy's reader refused the body and the row scan hit it too.
    text = "t,y,u_1,q\r\n0,0.5,0.1,1\r\n1,0.5,0.2,2\r\n2,0.1,0.3,1\r\n".encode()
    lines = text.split(b"\r\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    path = tmp_path / "traj.csv"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line {line}: byte 0xff is not utf-8 text"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["y", "u_2"])
def test_load_trajectory_refuses_non_finite_values(tmp_path, field, value):
    # numpy reads these spellings as floats; the estimator would turn one
    # into a NaN Markov estimate, so the file is refused at the field.
    path = tmp_path / "traj.csv"
    path.write_text(traj_text(edit_row(2, **{field: value})))
    with pytest.raises(ValueError) as exc:
        load_trajectory(str(path))
    assert str(exc.value) == f"{path}, line 4: field {field!r} is not finite: {value!r}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sampleset_refuses_non_finite_inputs(value):
    u = np.zeros((4, 2))
    u[2, 1] = value
    with pytest.raises(ValueError) as exc:
        SampleSet(y=np.zeros(4), u=u, q=np.ones(4, dtype=int))
    assert str(exc.value) == f"trajectory field 'u_2' at step 2 is not finite: {value!r}"


# Pins recorded before the scan's layout changed (N = 1e4: before the
# carry became a doubling composition): sha256 of the retained outputs of
# seeded two-mode trajectories (Ku_input 0.8, Ku_noise 1.0, seed 11),
# which must stay bit-identical ...
TWO_MODE_PINS = {
    (0.1, 1_000): "14bbf8e07b5594da5162f2d9353ec2f46d236cd5046abeb3cae1e9a234623dcf",
    (0.1, 10_000): "a785f5c1767db6c58eaa9de1a93b32f8393143aa840325532503498a2711e207",
    (0.1, 100_000): "02b2ea24d10e7b5a032641f00962718e2bac03819a5e7179ebfda1cad610944a",
    (0.4, 1_000): "52a0508fb256e4cfdc3c6274dcab58e25d351f0e7e6fce363a51910f325e6b9c",
    (0.4, 10_000): "258c815eaaa6300be71fb6bccd9557ca7774700fb2f5b81eb6dfa981ff7eea8d",
    (0.4, 100_000): "bfe7ee05920611e3a34a208a03ff53639c749c652466783954745df8359d87cf",
    (0.6, 1_000): "c21241da390eb8e4c24b1e4fa6b17df0cd15c74ad9b86e860e5dfe65e7a62614",
    (0.6, 10_000): "f283dc3e2b3181cc896717279ec885c217c0046ebd5a9c911d6edeb19d196293",
    (0.6, 100_000): "30cefca74ecb034c7e81043ac2005030924be34e0b1d244ad5616cd457575045",
}


@pytest.mark.parametrize("gamma, N", sorted(TWO_MODE_PINS))
def test_two_mode_trajectories_are_pinned_bit_for_bit(gamma, N, bench_signal):
    model, dist = two_mode_benchmark(gamma)
    y = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=N, seed=11)).y
    assert hashlib.sha256(y.tobytes()).hexdigest() == TWO_MODE_PINS[gamma, N]


# ... and 21 evenly spaced outputs of a seeded n = 4, nQ = 3, m = 2
# trajectory (N = 1e5, seed 5), which may move only by the reordering of
# sums, 4e-16 of its largest |y|.
N4_PIN_MAX_ABS_Y = 11.011571334178916
N4_PINS = [
    -2.389231099358137, -2.39516269483778, -1.0052911895840948, -0.2243726101045566,
    -3.4972905640870326, -1.2090706691282, 0.5912233125938652, 5.407711179965725,
    0.015225995751290133, 2.380364785744453, 2.4653857948250955, -0.5702816729351158,
    1.6276804858591363, -2.0565726486176725, 1.8253469416833088, 1.0936014600416888,
    1.0049071235201987, 3.5756810691216705, 0.02560631318665041, 3.7603402843844993,
    2.471323772228984,
]


def test_n4_trajectory_is_pinned_to_rounding(bench_signal):
    rng = np.random.default_rng(2024)
    n, m, nQ = 4, 2, 3
    A = []
    for _ in range(nQ):
        G = rng.standard_normal((n, n))
        A.append(0.9 * G / np.linalg.norm(G, 2))
    model = LssModel(
        n=n, m=m, nQ=nQ, A=A,
        B=[rng.standard_normal((n, m)) for _ in range(nQ)],
        C=rng.standard_normal(n), D=rng.standard_normal(m),
    )
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    y = simulate(SimConfig(model=model, dist=dist, signal=bench_signal, N=100_000, seed=5)).y
    npt.assert_allclose(np.abs(y).max(), N4_PIN_MAX_ABS_Y, rtol=4e-16)
    npt.assert_allclose(
        y[np.linspace(0, 100_000, 21).astype(int)], N4_PINS, rtol=0, atol=4e-16 * N4_PIN_MAX_ABS_Y
    )


def test_sampleset_refuses_a_trajectory_with_no_steps():
    with pytest.raises(ValueError) as exc:
        SampleSet(y=[], u=np.zeros((0, 1)), q=[])
    assert str(exc.value) == "y, u and q have lengths 0, 0 and 0; a trajectory has at least one step"


# A group: configs that share everything but their models' A and C, rolled
# out in one scan.


def group_model(rng, n=4, m=2, nQ=3, B=None, D=None):
    """A contracting model with its own A and C and, when given, the
    group's B and D."""
    model = scan_model(rng, n=n, m=m, nQ=nQ)
    return dataclasses.replace(
        model, B=model.B if B is None else B, D=model.D if D is None else D
    )


def assert_group_is_simulate_one_by_one(cfgs):
    samples = simulate_module.simulate_group(cfgs)
    assert len(samples) == len(cfgs)
    for cfg, sample in zip(cfgs, samples):
        alone = simulate(cfg)
        for name in ("y", "u", "q"):
            assert getattr(sample, name).tobytes() == getattr(alone, name).tobytes()


@pytest.mark.parametrize("N", [300, 1_000, 10_000, 100_000])
@pytest.mark.parametrize("seed", [1, 11])
def test_family_group_is_bit_identical_to_one_simulate_each(bench_signal, N, seed):
    cfgs = [
        SimConfig(*two_mode_benchmark(gamma), bench_signal, N=N, seed=seed)
        for gamma in (0.1, 0.4, 0.6)
    ]
    assert_group_is_simulate_one_by_one(cfgs)
    # So is a group that reads a held prefix of the seed's stream.
    stream = seed_stream(seed, cfgs)
    assert_group_is_simulate_one_by_one([dataclasses.replace(c, stream=stream) for c in cfgs])


@pytest.mark.parametrize("N", [1_000, 100_000])
def test_group_of_own_A_and_C_is_bit_identical_to_one_simulate_each(bench_signal, N):
    # n = 4, m = 2, nQ = 3: the models share B and D and draw their own A and C.
    rng = np.random.default_rng(N)
    first = scan_model(rng)
    models = [first] + [group_model(rng, B=first.B, D=first.D) for _ in range(2)]
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    cfgs = [SimConfig(model, dist, bench_signal, N=N, seed=5) for model in models]
    assert_group_is_simulate_one_by_one(cfgs)


def test_a_group_names_the_blowup_of_its_first_diverging_model(bench_signal):
    # The second and third models grow in every mode, the third faster, so
    # it leaves the limit first; the group names the second's step, the
    # step simulate of the second alone names.
    rng = np.random.default_rng(7)
    first = scan_model(rng, m=1)
    models = [first] + [group_model(rng, m=1, B=first.B, D=first.D) for _ in range(2)]
    models[1].A[:] = [1.02 * np.eye(4)] * 3
    models[2].A[:] = [1.05 * np.eye(4)] * 3
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    cfgs = [SimConfig(model, dist, bench_signal, N=2_000, burn_in=50, seed=3) for model in models]
    simulate(cfgs[0])
    said = []
    for cfg in cfgs[1:]:
        with pytest.raises(DivergenceError) as exc:
            simulate(cfg)
        said.append(str(exc.value))
    assert said[0] != said[1]
    with pytest.raises(DivergenceError) as exc:
        simulate_module.simulate_group(cfgs)
    assert str(exc.value) == said[0]


def test_an_unexcited_growing_mode_of_one_model_is_not_a_blowup():
    # Without noise, x_1 is never driven, so the second model's mode that
    # grows it by 1e30 a step overflows the block maps, which that model
    # alone carries again block by block; the others take the doubling carry.
    B, D = [np.array([[0.0], [1.0]])] * 2, np.array([0.0])
    A1 = np.array([[0.5, 0.0], [0.3, 0.5]])
    models = [
        LssModel(n=2, m=1, nQ=2, A=[A1, A2], B=B, C=C, D=D)
        for A2, C in [
            (np.array([[0.2, 0.0], [0.0, 0.5]]), np.array([1.0, 1.0])),
            (np.array([[1e30, 0.0], [0.0, 0.5]]), np.array([1.0, 2.0])),
            (np.array([[0.0, 0.1], [0.0, 0.5]]), np.array([0.5, 1.0])),
        ]
    ]
    dist, quiet = SwitchingDistribution(p=[0.5, 0.5]), SignalSpec(Ku_input=0.8, Ku_noise=0.0)
    cfgs = [SimConfig(model, dist, quiet, N=2_000, seed=4) for model in models]
    samples = simulate_module.simulate_group(cfgs)
    assert all(np.isfinite(s.y).all() for s in samples)
    assert_group_is_simulate_one_by_one(cfgs)


GROUP_FIELDS = {
    "model.n": lambda cfg, rng: dataclasses.replace(cfg, model=scan_model(rng, n=3)),
    "model.B": lambda cfg, rng: dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, B=[2.0 * B for B in cfg.model.B])
    ),
    "model.D": lambda cfg, rng: dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, D=cfg.model.D + 1.0)
    ),
    "dist": lambda cfg, rng: dataclasses.replace(cfg, dist=SwitchingDistribution([0.2, 0.3, 0.5])),
    "signal": lambda cfg, rng: dataclasses.replace(cfg, signal=SignalSpec(0.8, 0.5)),
    "N": lambda cfg, rng: dataclasses.replace(cfg, N=cfg.N + 1),
    "burn_in": lambda cfg, rng: dataclasses.replace(cfg, burn_in=cfg.burn_in + 1),
    "seed": lambda cfg, rng: dataclasses.replace(cfg, seed=cfg.seed + 1),
    "stream": lambda cfg, rng: dataclasses.replace(cfg, stream=seed_stream(cfg.seed, [cfg])),
}


@pytest.mark.parametrize("field", sorted(GROUP_FIELDS))
def test_a_group_refuses_configs_that_differ_beyond_A_and_C(rng, bench_signal, field):
    first = scan_model(rng)
    dist = SwitchingDistribution(p=[0.5, 0.3, 0.2])
    cfgs = [
        SimConfig(model, dist, bench_signal, N=300, seed=2)
        for model in (first, group_model(rng, B=first.B, D=first.D))
    ]
    simulate_module.simulate_group(cfgs)
    cfgs.append(GROUP_FIELDS[field](cfgs[1], rng))
    says = (
        f"config 2 differs from config 0 in {field}; "
        "the configs of a group differ only in their models' A and C"
    )
    with pytest.raises(ValueError) as exc:
        simulate_module.simulate_group(cfgs)
    assert str(exc.value) == says
    # So does rollout_group.
    with pytest.raises(ValueError) as exc:
        simulate_module.rollout_group(cfgs)
    assert str(exc.value) == says
    with pytest.raises(ValueError, match="a group needs at least one config"):
        simulate_module.simulate_group([])


def test_members_of_a_rollout_group_share_one_scan(monkeypatch, bench_signal):
    # rollout_group rolls the group out once; simulate of each member then
    # gives what simulate of the config alone gives.  A member simulated
    # again, or a copy of one, is rolled out alone.
    cfgs = [SimConfig(*two_mode_benchmark(g), bench_signal, N=500, seed=6) for g in (0.1, 0.6)]
    alone = [simulate(cfg) for cfg in cfgs]
    scans = []
    rollout = simulate_module.simulate_group
    monkeypatch.setattr(
        simulate_module, "simulate_group", lambda group: scans.append(len(group)) or rollout(group)
    )
    members = simulate_module.rollout_group(cfgs)
    assert scans == [2]
    for member, expect in zip(members[::-1], alone[::-1]):
        assert simulate(member).y.tobytes() == expect.y.tobytes()
    assert scans == [2]
    assert simulate(members[1]).y.tobytes() == alone[1].y.tobytes()
    assert scans == [2, 1]
    longer = dataclasses.replace(simulate_module.rollout_group(cfgs)[0], N=600)
    assert simulate(longer).y.tobytes() == simulate(dataclasses.replace(cfgs[0], N=600)).y.tobytes()
    assert scans == [2, 1, 2, 1, 1]


def test_a_member_holds_the_sample_of_its_config_when_rolled_out(bench_signal):
    # A change made in place after rollout_group is not seen by the held
    # sample, only by a later simulate.
    cfgs = [SimConfig(*two_mode_benchmark(g), bench_signal, N=500, seed=6) for g in (0.1, 0.6)]
    before = simulate(cfgs[1]).y
    members = simulate_module.rollout_group(cfgs)
    members[1].model.A[0] *= 0.5
    assert simulate(members[1]).y.tobytes() == before.tobytes()
    assert simulate(members[1]).y.tobytes() != before.tobytes()


def test_the_samples_of_a_group_share_read_only_signals(bench_signal):
    cfgs = [SimConfig(*two_mode_benchmark(g), bench_signal, N=300, seed=2) for g in (0.1, 0.6)]
    samples = simulate_module.simulate_group(cfgs)
    assert all(np.shares_memory(s.u, samples[0].u) for s in samples)
    for sample in samples:
        for name in ("u", "q"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sample, name)[0] = 0
    # A group of one, simulate's, leaves them to its caller to change.
    sample = simulate(cfgs[0])
    sample.u[0] = sample.q[0] = 0
