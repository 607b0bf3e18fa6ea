"""Simulator behaviour: exact recursion, determinism, signal laws."""

import csv

import numpy as np
import numpy.testing as npt
import pytest

from switchid import (
    DivergenceError,
    LssModel,
    SignalSpec,
    SimConfig,
    SwitchingDistribution,
    load_trajectory,
    save_trajectory,
    simulate,
    simulate_driven,
)
from switchid.simulate import BLOWUP_LIMIT, SampleSet


def test_impulse_through_mode_word(bench):
    # Unit input at t = 0 with modes (2, 2, 1) afterwards: the input
    # enters through B_2, survives one step of A_2, one step of A_1, and
    # reaches the output three steps after injection with gain 0.27.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([2, 2, 1, 1])
    y = simulate_driven(model, u, q)
    npt.assert_allclose(y, [0.0, 0.0, 0.0, 0.27], atol=1e-15)


def test_impulse_other_mode_is_invisible(bench):
    # B_1 = 0, so an input injected while mode 1 is active never shows up.
    model, _ = bench
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([1, 2, 1, 1])
    npt.assert_allclose(simulate_driven(model, u, q), np.zeros(4), atol=1e-15)
    # A label outside 1..nQ names no mode at all and is refused.
    with pytest.raises(ValueError, match="mode label 0 at step 1 outside 1..2"):
        simulate_driven(model, u, np.array([1, 0, 1, 1]))


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
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, atol=1e-12)
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


def scan_model(rng, growth=None):
    """n = 4, nQ = 3, m = 2 model whose modes have spectral norm 0.9; with
    ``growth`` set, mode 3 is growth * identity instead."""
    n, m, nQ = 4, 2, 3
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
    npt.assert_allclose(simulate_driven(model, u, q, w, v), expect, rtol=0, atol=1e-12)


def test_scan_leaves_inputs_untouched(rng):
    model = scan_model(rng)
    signals = scan_signals(rng, 5000)
    before = [s.copy() for s in signals]
    simulate_driven(model, *signals)
    for s, s0 in zip(signals, before):
        npt.assert_array_equal(s, s0)


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
        simulate_driven(model, u, q, w, v)


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
    npt.assert_allclose(simulate_driven(model, u, q), expect, rtol=0, atol=1e-12)


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

    npt.assert_allclose(simulate_driven(model, u, q), expect, atol=1e-10)


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


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(N=3, y=np.zeros(3), u=np.zeros((4, 1)), q=np.ones(4, dtype=int))
    with pytest.raises(ValueError):
        SampleSet(N=1, y=np.array([0.0, np.nan]), u=np.zeros((2, 1)), q=np.ones(2, dtype=int))


def test_simconfig_validation(bench, bench_signal):
    model, dist = bench
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=0)
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=dist, signal=bench_signal, N=10, burn_in=-1)
    other = SwitchingDistribution(p=[1.0])
    with pytest.raises(ValueError):
        SimConfig(model=model, dist=other, signal=bench_signal, N=10)


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
                qs.append(int(row[-1]))
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
    return SampleSet(N=len(ys) - 1, y=np.array(ys), u=np.array(us), q=np.array(qs))


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
