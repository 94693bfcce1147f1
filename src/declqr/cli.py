"""Command-line interface.

Subcommands: solve (Riccati solve of a system file), check (decentralization
tests: thm1 | thm2 | cor3 | oracle), sweep (cost-landscape grids to CSV),
model (emit a named model's system file), reduce (two-stage second-order
reduction). Exit status: 0 success, 1 input error, 2 solver failure.
"""

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import decentral, models, sweep as sweepmod, sysfile
from .errors import InputError, SolverError
from .lqr import closed_loop, solve_lqr
from .secondorder import check_second_order_decentral, reduce_and_solve
from .serialize import _format_rows, dumps_json, format_float
from .spectral import circulant_eigenvalues, identity_spec


def _bool(value):
    return "true" if value else "false"


def _print_matrix(name, M, out):
    rows = _format_rows(np.atleast_2d(M), " ")
    out.write(f"{name}:\n" + "".join(f"  {row}\n" for row in rows))


def _print_verdicts(verdicts, label, out):
    """One line per Verdict: label, name, true|false, then the witness values
    in parentheses when there are any."""
    for v in verdicts:
        witness = ", ".join(f"{k}={format_float(x)}" for k, x in v.witness.items())
        extra = f"  ({witness})" if witness else ""
        out.write(f"{label}{v.name}: {_bool(v.holds)}{extra}\n")


def _print_report(report, out):
    _print_verdicts(report.analytic_verdicts, "condition ", out)
    out.write(f"oracle decentralized: {_bool(report.oracle_decentralized)}\n")
    out.write(f"offdiag mass: {format_float(report.offdiag_mass)}\n")
    _print_matrix("K", report.K, out)


def _model_params(cls, values):
    """Parameter dataclass cls built from the entries of values that its
    fields name; a missing entry raises KeyError."""
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)})


def _chamber_adjudication(system, report, uniform_gain, out):
    """For chamber-tagged circulant files, print both candidate balance
    conditions, the uniform-gain prediction, the oracle verdict of report,
    and their consistency. uniform_gain() returns the file's uniform gain; a
    frequency-singular B predicts none without a search."""
    meta = system.model or {}
    if meta.get("name") != "chamber":
        return
    try:
        params = _model_params(models.ChamberParams, meta)
    except KeyError as exc:
        raise InputError(f"chamber model tag is missing coefficient {exc}") from exc
    chamber = models.chamber_system(params)
    singular_b = decentral.frequency_singular(circulant_eigenvalues(system.payload[1]))
    prediction = not singular_b and uniform_gain() is not None
    oracle = report.oracle_decentralized
    out.write("chamber adjudication:\n")
    _print_verdicts([
        decentral.Verdict("magnitude balance (alpha vs beta ratios)", chamber.magnitude_condition),
        decentral.Verdict("entry balance (signed entries, a0 = -alpha0)", chamber.entry_condition),
        decentral.Verdict("uniform-gain prediction (decentralized)", prediction),
        decentral.Verdict("oracle decentralized", oracle),
        decentral.Verdict("consistency (oracle matches prediction)", oracle == prediction),
    ], "  ", out)


def _cmd_solve(args, out):
    system = sysfile.load_system(args.system)
    prob = system.lqr_problem()
    sol = solve_lqr(prob)
    _print_matrix("P", sol.P, out)
    _print_matrix("K", sol.K, out)
    out.write(f"h2: {format_float(sol.h2)}\n")
    out.write(f"h2_squared: {format_float(sol.h2_squared)}\n")
    out.write(f"residual: {format_float(sol.residual)}\n")
    out.write(f"iterations: {sol.iterations}\n")
    _print_matrix("closed_loop", closed_loop(prob, sol), out)
    return 0


def _cmd_check(args, out):
    system = sysfile.load_system(args.system)
    mode = args.mode
    out.write(f"check mode: {mode}\n")

    @functools.cache
    def uniform_gain():
        return decentral.find_uniform_gain(*system.circulant_specs())

    c = prob = None
    if mode == "thm1":
        if system.kind != "dense":
            raise InputError("check thm1 needs a dense system file")
        prob = system.lqr_problem()
        sys2 = decentral.DiagonalCost2x2.from_problem(prob)
        holds, verdicts = decentral.diagonal_cost_conditions(sys2)
        _print_verdicts(verdicts, "condition ", out)
        out.write(f"analytic holds: {_bool(holds)}\n")
    elif mode == "thm2":
        c = uniform_gain()
        out.write(f"uniform gain found: {_bool(c is not None)}\n")
    elif mode == "cor3":
        holds, c = decentral.circulant_pair_conditions(*system.circulant_specs())
        out.write(f"analytic holds: {_bool(holds)}\n")
    if c is not None:
        out.write(f"scalar gain c: {format_float(c)}\n")

    report = decentral.oracle_check(prob or system.lqr_problem())
    _print_report(report, out)
    if system.kind == "circulant":
        _chamber_adjudication(system, report, uniform_gain, out)
    return 0


def _cmd_sweep(args, out):
    if args.config is not None:
        cfg = sweepmod.SweepConfig.from_dict(sysfile.read_json(args.config, "config"))
    elif args.default is not None:
        cfg = sweepmod.SweepConfig.from_dict({"kind": args.default})
    else:
        kinds = ",".join(sweepmod.DEFAULT_CONFIGS)
        raise InputError(f"sweep needs --config FILE or --default {{{kinds}}}")
    result = sweepmod.run_sweep(cfg)
    output = args.output or cfg.output or f"sweep_{cfg.kind}.csv"
    summary = result.summary()
    csv_path, json_path = sweepmod.write_outputs(result, output, summary)
    out.write(f"wrote {csv_path} ({summary['points']} points, {summary['solved']} solved)\n")
    out.write(f"wrote {json_path}\n")
    if "h2_min" in summary:
        out.write(
            f"h2 range: [{format_float(summary['h2_min'])}, {format_float(summary['h2_max'])}]\n"
        )
    if "curve" in summary:
        curve = summary["curve"]
        out.write(
            f"curve: {curve['samples']} samples, {curve['excluded']} excluded, "
            f"all decentralized: {_bool(curve['all_decentralized'])}\n"
        )
    return 0


def _cmd_model(args, out):
    if args.name == "diffusion":
        d2 = models.diffusion_operator(args.n, args.delta)
        if args.decentralizing_cost:
            q, r, _ = models.diffusion_decentralizing_cost(args.n, args.delta)
        else:
            q, r = identity_spec(d2.n), identity_spec(d2.n)
        doc = sysfile.circulant_document(
            d2, identity_spec(d2.n), q, r,
            model={"name": "diffusion", "n": int(args.n), "delta": float(args.delta)},
        )
    elif args.name == "predprey":
        params = _model_params(models.PredatorPreyParams, vars(args))
        entries = models.predator_prey_jacobian(params).ravel()
        weights = {k: getattr(args, k) for k in ("q2", "gamma2") if getattr(args, k) is not None}
        if args.decentralizing_cost:
            sys2 = decentral.synthesize_diagonal_cost(*entries, **weights)
        elif weights:
            raise InputError(f"--{next(iter(weights))} needs --decentralizing-cost")
        else:
            sys2 = decentral.DiagonalCost2x2(*entries, 1.0, 1.0, 1.0, 1.0)
        prob = sys2.lqr_problem()
        doc = sysfile.dense_document(
            prob.A, prob.B, prob.Q, prob.R,
            model={"name": "predprey", **dataclasses.asdict(params)},
        )
    elif args.name == "chamber":
        params = _model_params(models.ChamberParams, vars(args))
        chamber = models.chamber_system(params)
        doc = sysfile.circulant_document(
            chamber.a, chamber.b, identity_spec(2), identity_spec(2),
            model={"name": "chamber", **dataclasses.asdict(params)},
        )
    else:  # perf
        prob = models.perf_example_system(q0=args.q0, gamma2=args.gamma2)
        doc = sysfile.dense_document(
            prob.A, prob.B, prob.Q, prob.R,
            model={"name": "perf", "q0": float(args.q0), "gamma2": float(args.gamma2)},
        )
    if args.out is not None:
        sysfile.save_system(doc, args.out)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(dumps_json(doc) + "\n")
    return 0


def _cmd_reduce(args, out):
    system = sysfile.load_system(args.system)
    sos = system.second_order_system()
    solution = reduce_and_solve(sos)
    _print_matrix("gain_pos", solution.gain_pos, out)
    _print_matrix("gain_vel", solution.gain_vel, out)
    out.write(f"agreement_residual: {format_float(solution.agreement_residual)}\n")
    out.write(f"corner_asymmetry: {format_float(solution.corner_asymmetry)}\n")
    report = check_second_order_decentral(solution)
    _print_report(report, out)
    return 0


@functools.cache
def _build_parser():
    """The argparse tree, built once per process on the first cli_main call."""
    parser = argparse.ArgumentParser(
        prog="declqr",
        description="Decide and design completely decentralized LQR state feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a system file and print P, K, h2, residual")
    p.add_argument("--system", required=True, help="path to a JSON system file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run a decentralization test on a system file")
    p.add_argument(
        "mode",
        choices=("thm1", "thm2", "cor3", "oracle"),
        help="thm1: sign/ratio conditions for 2x2 plants with diagonal cost; "
        "thm2: uniform-gain search for circulant quadruples; "
        "cor3: balance ratios for 2x2 circulant quadruples; "
        "oracle: numeric solve plus gain-pattern test",
    )
    p.add_argument("--system", required=True, help="path to a JSON system file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="run a cost-landscape sweep and write CSV + JSON")
    p.add_argument("--config", help="path to a JSON sweep config")
    p.add_argument(
        "--default", choices=sweepmod.DEFAULT_CONFIGS, help="run a built-in default sweep"
    )
    p.add_argument("--output", help="override the CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("model", help="emit a named model's system file")
    msub = p.add_subparsers(dest="name", required=True)

    m = msub.add_parser("diffusion", help="ring diffusion of n subsystems")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--delta", type=float, default=1.0)
    m.add_argument(
        "--decentralizing-cost",
        action="store_true",
        help="emit the derivative-penalty state cost that makes the gain the identity",
    )
    m.add_argument("--out")
    m.set_defaults(func=_cmd_model)

    m = msub.add_parser("predprey", help="linearized two-species predator-prey model")
    for f in dataclasses.fields(models.PredatorPreyParams):
        m.add_argument(f"--{f.name}", type=float, required=True)
    m.add_argument(
        "--decentralizing-cost",
        action="store_true",
        help="synthesize the diagonal cost that makes the gain diagonal",
    )
    m.add_argument("--q2", type=float, help="q2 of the synthesized cost (default 1)")
    m.add_argument("--gamma2", type=float, help="gamma2 of the synthesized cost (default 1)")
    m.add_argument("--out")
    m.set_defaults(func=_cmd_model)

    m = msub.add_parser("chamber", help="two heated chambers across a shared wall")
    for f in dataclasses.fields(models.ChamberParams):
        m.add_argument(f"--{f.name}", type=float, required=True)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_model)

    m = msub.add_parser("perf", help="2x2 cost-landscape plant")
    m.add_argument("--q0", type=float, default=1.0)
    m.add_argument("--gamma2", type=float, default=1.0)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_model)

    p = sub.add_parser("reduce", help="two-stage reduction of a second-order system")
    p.add_argument("--system", required=True, help="path to a second_order system file")
    p.set_defaults(func=_cmd_reduce)

    return parser


def cli_main(argv=None, out=None):
    """Run the CLI; returns the exit status instead of raising SystemExit."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
