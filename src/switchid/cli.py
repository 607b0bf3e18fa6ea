"""Command line front end.

Subcommands cover the pipeline stages: ``simulate`` a trajectory,
``identify`` a realization from one, ``selection`` and ``stability``
for the two offline searches, ``bound`` for finite-sample certificate
tables and ``experiment`` for the Monte Carlo study.

Exit codes: 0 success, 1 bad usage, configuration or out of memory,
2 numerical refusal (no stability certificate, singular Hankel matrix,
diverging simulation), 3 file I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    CertificateError,
    certify_P,
    compute_certificate,
    find_P,
    load_P_matrix,
)
from .core import (
    SignalSpec,
    load_model_file,
    two_mode_benchmark,
    word_to_str,
    write_json,
)
from .experiment import (
    ExperimentConfig,
    run_experiment,
    write_figures,
    write_results_csv,
)
from .hokalman import (
    SelectionRankError,
    SingularHankelError,
    est_err,
    find_selection,
    identify_sample,
    load_selection,
    required_words,
    save_realization,
    save_selection,
    true_realization,
)
from .simulate import (
    DEFAULT_BURN_IN,
    DivergenceError,
    SimConfig,
    load_trajectory,
    save_trajectory,
    simulate,
)

DEFAULT_GAMMA = 0.6


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_model_flags(p: _Parser):
    p.add_argument("--model", help="model JSON file (default: built-in two-mode family)")
    p.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="stability rate: family parameter for the built-in model, "
        f"certificate target otherwise (default {DEFAULT_GAMMA})",
    )


def _add_signal_flags(p: _Parser):
    p.add_argument("--ku-input", type=float, default=None, help="input amplitude bound")
    p.add_argument("--ku-noise", type=float, default=None, help="noise amplitude bound")


def _resolve_model(args):
    """Model, switching distribution and signal amplitudes from flags.

    File values are the base when --model is given (a file without p
    has uniform modes); flag values win over file values; remaining
    gaps get benchmark-style defaults (inputs bounded by 0.8, noise
    bounded by 1).  Only --ku-input replaces the input law, so only it
    resets Sigma_u to the uniform sampler's (Ku_input^2 / 3) I;
    --ku-noise keeps the file's.
    """
    gamma = args.gamma if args.gamma is not None else DEFAULT_GAMMA
    if args.model is not None:
        model, dist, signal = load_model_file(args.model)
    else:
        model, dist = two_mode_benchmark(gamma)
        signal = None
    ku_input = getattr(args, "ku_input", None)
    ku_noise = getattr(args, "ku_noise", None)
    if signal is None:
        signal = SignalSpec(Ku_input=0.8, Ku_noise=1.0)
    if ku_noise is not None:
        signal = dataclasses.replace(signal, Ku_noise=ku_noise)
    if ku_input is not None:
        signal = dataclasses.replace(signal, Ku_input=ku_input, Sigma_u=None)
    return model, dist, signal, gamma


def _sim_config(args, model, dist, signal) -> SimConfig:
    """The simulated run that --N, --burn-in and --seed name."""
    return SimConfig(
        model=model, dist=dist, signal=signal, N=args.N, burn_in=args.burn_in, seed=args.seed
    )


def cmd_simulate(args) -> int:
    model, dist, signal, _ = _resolve_model(args)
    sample = simulate(_sim_config(args, model, dist, signal))
    counts = np.bincount(sample.q, minlength=model.nQ + 1)[1:]
    freqs = ", ".join(
        f"{c + 1}: {counts[c] / (sample.N + 1):.4f}" for c in range(model.nQ)
    )
    print(f"simulated N = {sample.N} (burn-in {args.burn_in}, seed {args.seed})")
    print(f"max |y| = {np.abs(sample.y).max():.6g}")
    print(f"mode frequencies: {freqs}")
    if args.out:
        save_trajectory(args.out, sample)
        print(f"trajectory written to {args.out}")
    return 0


def cmd_identify(args) -> int:
    if args.trajectory and args.model is None and args.gamma is None:
        raise ValueError(
            "identify --trajectory needs the structure (n, nQ, m, the mode "
            "probabilities, Sigma_u) from a model file (--model) or the benchmark "
            "family (--gamma): a trajectory file carries none of it"
        )
    model, dist, signal, _ = _resolve_model(args)
    sigma_u = signal.sigma_u(model.m)
    if args.trajectory:
        sample = load_trajectory(args.trajectory)
    else:
        sample = simulate(_sim_config(args, model, dist, signal))
    if sample.N <= 2 * (2 * model.n + 1):
        raise ValueError(
            f"trajectory too short: N = {sample.N}, identify needs "
            f"N > {2 * (2 * model.n + 1)} = 2(2n + 1) for n = {model.n}"
        )
    sel = load_selection(args.selection, model) if args.selection else find_selection(model)
    # The named model is the truth: the source of a simulated trajectory,
    # the model a trajectory file is read against.
    rr_ref = true_realization(model, sel)
    _, rr_hat = identify_sample(sample, sel, sigma_u, dist)
    print(f"selection rows: {[word_to_str(w) or 'e' for w in sel.alpha]}")
    print(
        "selection cols: "
        f"{[(word_to_str(mu) or 'e', q, l) for (mu, q, l) in sel.beta]}"
    )
    print(f"sigma_n(H_ab) estimate = {rr_hat.sigma_n:.6g} (true {rr_ref.sigma_n:.6g})")
    print(f"est_err = {est_err(rr_hat, rr_ref):.6g}")
    if args.out:
        save_realization(args.out, rr_hat, sel)
        print(f"realization written to {args.out}")
    return 0


def cmd_selection(args) -> int:
    model, _, _, _ = _resolve_model(args)
    sel = find_selection(model)
    rr_ref = true_realization(model, sel)
    print(f"rows (alpha):  {[word_to_str(w) or 'e' for w in sel.alpha]}")
    print(
        "cols (beta):   "
        f"{[(word_to_str(mu) or 'e', q, l) for (mu, q, l) in sel.beta]}"
    )
    print(f"sigma_n(H_ab) = {rr_ref.sigma_n:.6g}")
    print(f"words required for the estimator: {len(required_words(sel, model.nQ))}")
    if args.out:
        save_selection(args.out, sel)
        print(f"selection written to {args.out}")
    return 0


def cmd_stability(args) -> int:
    model, dist, _, gamma = _resolve_model(args)
    if args.P:
        cert = certify_P(model, dist, load_P_matrix(args.P), gamma)
        print(f"supplied P accepted: certified gamma = {cert.gamma:.6g}")
    else:
        cert = find_P(model, dist, gamma)
        print(f"certificate found: gamma = {cert.gamma:.6g} (target {gamma:.6g})")
    print(f"margin = {cert.margin:.6g}")
    print(f"schur radius = {cert.schur_radius:.6g}")
    if args.out:
        write_json(args.out, cert.to_dict())
        print(f"certificate written to {args.out}")
    return 0


def cmd_bound(args) -> int:
    model, dist, signal, gamma = _resolve_model(args)
    sel = load_selection(args.selection, model) if args.selection else find_selection(model)
    rr_ref = true_realization(model, sel)
    stability = find_P(model, dist, gamma)
    certs = [
        compute_certificate(
            model, dist, signal, sel, rr_ref.sigma_n, args.delta, N, stability=stability
        )
        for N in args.N
    ]
    print(f"sigma_n(H_ab) = {rr_ref.sigma_n:.6g}, delta = {args.delta}")
    print(f"{'N':>12}  {'K(delta,N)':>12}  {'bound':>12}  valid")
    for bc in certs:
        print(
            f"{bc.N:>12}  {bc.K_deltaN:>12.4g}  {bc.bound_EstErr:>12.4g}  "
            f"{'yes' if bc.valid else 'no'}"
        )
    print(f"smallest N with a valid bound: {certs[0].N_min}")
    if args.out:
        if len(certs) == 1:
            write_json(args.out, certs[0].to_dict())
        else:
            table = [bc.to_dict() for bc in certs]
            with open(args.out, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(table[0]))
                writer.writeheader()
                writer.writerows(table)
        print(f"certificate table written to {args.out}")
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig()
    # Flags replace config values through the constructor, so a flag is
    # checked exactly as a config-file value is.
    flags = dict(
        model_file=args.model, trials=args.trials, seed_base=args.seed, threads=args.threads,
        delta=args.delta, N_grid=args.N_grid, output_dir=args.out,
    )
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    # Made before the first trial, so that an unusable location is refused
    # before any work; a run refused on the way removes what it made (a
    # `..` in the path names no directory of its own).
    out = Path(cfg.output_dir).absolute()
    made = [path for path in (out, *out.parents) if path.name != ".." and not path.exists()]
    os.makedirs(cfg.output_dir, exist_ok=True)
    try:
        rows = run_experiment(cfg, progress=print)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    csv_path = os.path.join(cfg.output_dir, "results.csv")
    write_results_csv(csv_path, rows)
    fig_paths = write_figures(cfg, rows)
    write_json(os.path.join(cfg.output_dir, "config.json"), cfg.to_dict())
    print(f"results written to {csv_path}")
    for p in fig_paths:
        print(f"figure written to {p}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="switchid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="simulate one switched trajectory")
    _add_model_flags(p)
    _add_signal_flags(p)
    p.add_argument("--N", type=int, default=1000, help="trajectory length (default 1000)")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="estimate a realization from one trajectory")
    _add_model_flags(p)
    _add_signal_flags(p)
    p.add_argument("--trajectory", help="trajectory CSV (default: simulate internally)")
    p.add_argument("--selection", help="selection JSON (default: search)")
    p.add_argument("--N", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="realization JSON path")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("selection", help="search a nonsingular Hankel sub-basis")
    _add_model_flags(p)
    p.add_argument("--out", help="selection JSON path")
    p.set_defaults(func=cmd_selection)

    p = sub.add_parser("stability", help="find or check a quadratic stability certificate")
    _add_model_flags(p)
    p.add_argument("--P", help="JSON file with a candidate P matrix to check")
    p.add_argument("--out", help="certificate JSON path")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bound", help="finite-sample bound certificate table")
    _add_model_flags(p)
    _add_signal_flags(p)
    p.add_argument("--selection", help="selection JSON (default: search)")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument(
        "--N", "--N-grid", type=int, nargs="+", default=[100_000],
        help="trajectory length, or several for a table (default 100000)",
    )
    p.add_argument("--out", help="certificate JSON (one N) or CSV (several)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="Monte Carlo error-versus-N study")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--model", help="model JSON overriding the built-in family")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed base")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--N-grid", type=int, nargs="+")
    p.add_argument("--out", help="output directory (default out)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (
        CertificateError,
        SingularHankelError,
        SelectionRankError,
        DivergenceError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
