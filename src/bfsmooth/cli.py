"""Command-line interface.

Subcommands: interpolate, smooth-exact, smooth-approx, eval, and study
with density, convergence, rho-search or scaling.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import io
from .approx_smoother import (
    Region,
    compare,
    fit_approx,
    fit_parts,
    make_grid,
    parse_box,
    parse_grid,
)
from .assembly import _check_rho, approx_parts
from .errors import BfsmoothError, InputError, ParameterError, ParseError, SolveError
from .exact_smoother import diagnostics, fit_exact
from .interpolant import eval_model, fit_interpolant
from .kernels import parse_kernel, predicted_orders
from .polyspace import PolyFrame
from .study import (
    DENSITY_A,
    RhoCoupling,
    convergence_sweep,
    density_law,
    exponential_sizes,
    grid_error_fn,
    residual_error_fn,
    rho_search,
    scaling_study,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

DATA_FUNCTIONS = {
    "sin": lambda x: float(np.sin(np.sum(np.atleast_1d(x)))),
    "cos": lambda x: float(np.cos(np.sum(np.atleast_1d(x)))),
    "exp": lambda x: float(np.exp(-np.sum(np.atleast_1d(x) ** 2))),
    "runge": lambda x: float(1.0 / (1.0 + 25.0 * np.sum(np.atleast_1d(x) ** 2))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfsmooth",
        description="Scattered-data interpolation and smoothing with "
        "positive-order basis functions.",
    )
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")
    parser.add_argument("--out", type=str, default=None, help="output file")
    parser.add_argument("--quiet", action="store_true", help="suppress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_args(p, rho=False):
        p.add_argument("--data", required=True, help="CSV data file")
        p.add_argument("--kernel", required=True, help="kernel spec, e.g. thinplate:s=1.5")
        p.add_argument("--theta", required=True, type=int, help="polynomial order")
        if rho:
            p.add_argument("--rho", required=True, type=float, help="smoothing parameter")
        p.add_argument("--eval", dest="eval_spec", default=None,
                       help="grid spec a:b:n or a point CSV file")
        p.add_argument("--save", default=None, help="save fitted model to file")

    p = sub.add_parser("interpolate", help="fit the minimal-seminorm interpolant")
    add_fit_args(p)

    p = sub.add_parser("smooth-exact", help="fit the Exact smoother")
    add_fit_args(p, rho=True)
    p.add_argument("--diagnostics", action="store_true",
                   help="print the smoother energy-identity checks")

    p = sub.add_parser("smooth-approx", help="fit the Approximate smoother")
    add_fit_args(p, rho=True)
    p.add_argument("--grid", required=True, help="center grid spec a:b:n")
    p.add_argument("--compare-exact", action="store_true",
                   help="also fit the Exact smoother and report the gap identity")

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--eval", dest="eval_spec", required=True,
                   help="grid spec a:b:n or a point CSV file")

    p = sub.add_parser("study", help="run a study harness command")
    study_sub = p.add_subparsers(dest="study_command", required=True)

    q = study_sub.add_parser("density", help="fit the empirical density law")
    q.add_argument("--region", default="-1.5:1.5", help="box spec a1,..:b1,..")
    q.add_argument("--max-size", type=int, default=5000)
    q.add_argument("--n-sizes", type=int, default=20)
    q.add_argument("--multiplier", type=float, default=1.2)
    q.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="fit seeds --seed to --seed + K - 1, one line each, "
                   "and their median when K > 1 (default 1)")

    def add_sweep_args(q, sizes):
        q.add_argument("--kernel", required=True)
        q.add_argument("--theta", required=True, type=int)
        q.add_argument("--sizes", default=sizes, help="comma-separated point counts")

    q = study_sub.add_parser("convergence", help="measure convergence order")
    add_sweep_args(q, "50,100,200,400,800,1600")
    q.add_argument("--region", default="-1.5:1.5")
    q.add_argument("--data-fn", default="sin", choices=sorted(DATA_FUNCTIONS))
    rho = q.add_mutually_exclusive_group()
    rho.add_argument("--rho", type=float, default=None,
                     help="fixed rho: fit the Exact smoother, or the Approximate "
                     "one with --grid; without --rho or --couple, the interpolant")
    rho.add_argument("--couple", type=float, nargs="?", const=1.0, default=None,
                     metavar="AMPLITUDE",
                     help="rho tied to the fill distance, scaled by AMPLITUDE "
                     "(default 1; the acceptance criteria use 100); picks the "
                     "fit as --rho does")
    q.add_argument("--couple-a", type=float, default=None,
                   help=f"density-law exponent of --couple (default {DENSITY_A})")
    q.add_argument("--grid", default=None,
                   help="center grid a:b:n: fit the Approximate smoother; a:b "
                   "must equal --region, and it needs --rho or --couple")

    q = study_sub.add_parser("rho-search", help="search for the best rho")
    q.add_argument("--data", required=True)
    q.add_argument("--kernel", required=True)
    q.add_argument("--theta", required=True, type=int)
    q.add_argument("--grid", required=True, help="center grid spec a:b:n")
    q.add_argument("--rho0", type=float, default=1.0)
    q.add_argument("--factor", type=float, default=10.0)
    q.add_argument("--error-grid", default=None,
                   help="error grid spec for the data-function criterion")
    q.add_argument("--data-fn", default=None, choices=sorted(DATA_FUNCTIONS))

    q = study_sub.add_parser("scaling", help="time the Approximate smoother per size")
    add_sweep_args(q, "10000,20000,40000")
    q.add_argument("--grid", required=True, help="center grid a:b:n; data drawn in a:b")
    q.add_argument("--rho", required=True, type=float)

    return parser


def _eval_points(eval_spec: str, d: int) -> np.ndarray:
    if Path(eval_spec).exists():
        return io.read_points(eval_spec, d)
    return make_grid(parse_grid(eval_spec))


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _predictions_csv(model, points) -> str:
    values = eval_model(model, points)
    d = model.frame.d
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",prediction"
    lines = [header]
    for p, v in zip(points, values):
        lines.append(",".join(format(c, ".17g") for c in p) + f",{format(v, '.17g')}")
    return "\n".join(lines) + "\n"


def _problem(args, points):
    """(points, spec, frame): --kernel and --theta in the d of a table or a box."""
    spec = parse_kernel(args.kernel, theta=args.theta, d=points.d)
    return points, spec, PolyFrame(d=points.d, theta=args.theta)


def _sizes(args) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in args.sizes.split(","))
    except ValueError:
        raise ParseError(f"--sizes {args.sizes!r} must be integers") from None


def _run_fit(args) -> int:
    table, spec, frame = _problem(args, io.read_csv(args.data))
    if args.command == "interpolate":
        model = fit_interpolant(spec, frame, table.X, table.y)
    elif args.command == "smooth-exact":
        model = fit_exact(spec, frame, table.X, table.y, args.rho)
    else:
        Xp = make_grid(parse_grid(args.grid), theta=args.theta)
        model = fit_approx(spec, frame, table.X, table.y, Xp, args.rho)
    if not args.quiet:
        vnorm = float(np.linalg.norm(model.v))
        print(f"fitted {model.kind}: N={len(table.X)}, |v|={vnorm:.6g}",
              file=sys.stderr)
    if args.command == "smooth-exact" and args.diagnostics:
        diag = diagnostics(model, table.X, table.y)
        print(
            f"J_e={diag.J_e:.10g} seminorm_sq={diag.seminorm_sq:.10g} "
            f"residual_ms={diag.residual_ms:.10g}\n"
            f"gap_energy={diag.gap_energy:.3e} gap_seminorm={diag.gap_seminorm:.3e} "
            f"gap_functional={diag.gap_functional:.3e} "
            f"gap_constraint={diag.gap_constraint:.3e} ok={diag.ok}",
            file=sys.stderr,
        )
    if args.command == "smooth-approx" and args.compare_exact:
        exact = fit_exact(spec, frame, table.X, table.y, args.rho)
        record = compare(exact, model, table.X, table.y, args.rho)
        print(
            f"lhs={record.lhs:.10g} rhs={record.rhs:.10g} gap={record.gap:.3e} "
            f"Je_exact={record.J_e_exact:.10g} Je_approx={record.J_e_approx:.10g}",
            file=sys.stderr,
        )
    if args.save:
        io.save_model(model, args.save)
    if args.eval_spec:
        points = _eval_points(args.eval_spec, table.d)
        _emit(_predictions_csv(model, points), args.out)
    return EXIT_OK


def _run_eval(args) -> int:
    model = io.load_model(args.model)
    points = _eval_points(args.eval_spec, model.frame.d)
    _emit(_predictions_csv(model, points), args.out)
    return EXIT_OK


def _study_text(args) -> str:
    """The CSV text of a study subcommand."""
    if args.study_command == "density":
        if args.seeds < 1:
            raise InputError("--seeds must be >= 1")
        region = parse_box(args.region)
        try:
            sizes = exponential_sizes(args.n_sizes, args.max_size, args.multiplier)
        except ParameterError as exc:
            raise InputError(f"--n-sizes {args.n_sizes}, --max-size {args.max_size}, "
                             f"--multiplier {args.multiplier:g}: {exc}") from exc
        if len(sizes) < 2:
            raise InputError(f"--n-sizes {args.n_sizes} leaves one sample size "
                             f"({sizes[0]}); the density law needs >= 2")
        seeds = range(args.seed, args.seed + args.seeds)
        fits = [density_law(region, sizes, seed=s) for s in seeds]
        lines = ["N,h"]
        lines.extend(f"{n},{h:.10g}" for n, h in fits[0].rows)
        lines.extend(f"# h1={f.h1:.6g} a_exp={f.a_exp:.6g} r2={f.r2:.6g}" for f in fits)
        if len(fits) > 1:
            lines.append(
                f"# median of seeds {seeds[0]}..{seeds[-1]}: "
                f"h1={np.median([f.h1 for f in fits]):.6g} "
                f"a_exp={np.median([f.a_exp for f in fits]):.6g}"
            )
        return "\n".join(lines) + "\n"
    if args.study_command == "convergence":
        region, spec, frame = _problem(args, parse_box(args.region))
        if args.couple_a is not None and args.couple is None:
            raise InputError("--couple-a requires --couple")
        rho, centers = args.rho, None
        if args.couple is not None:
            a_exp = DENSITY_A if args.couple_a is None else args.couple_a
            _check_rho(args.couple, "--couple")
            _check_rho(a_exp, "--couple-a")
            eta_G = predicted_orders(spec).eta_G
            if not eta_G > 0:  # the coupled rho would be 0 at every size
                raise InputError(f"--couple needs eta_G > 0, but {spec.label()} "
                                 f"with --theta {args.theta} has eta_G = {eta_G:g}")
            rho = RhoCoupling(eta_G=eta_G, amplitude=args.couple, a_exp=a_exp)
        if args.grid:
            if rho is None:
                raise InputError("--grid requires --rho or --couple")
            grid = parse_grid(args.grid)
            # the centers span the box the data is drawn in
            if Region(a=grid.a, b=grid.b) != region:
                raise InputError(
                    f"--grid box {args.grid.rpartition(':')[0]} must equal "
                    f"--region {args.region}"
                )
            centers = make_grid(grid, theta=args.theta)
        report = convergence_sweep(spec, frame, region, DATA_FUNCTIONS[args.data_fn],
                                   _sizes(args), args.seed, rho, centers)
        text = report.to_csv()
        if report.slope is not None:
            text += (
                f"# slope={report.slope:.6g} "
                f"predicted_eta_G={predicted_orders(spec).eta_G:.6g}\n"
            )
        elif report.slope_flag:
            text += f"# {report.slope_flag}\n"
        return text
    if args.study_command == "scaling":
        grid, spec, frame = _problem(args, parse_grid(args.grid))
        Xp = make_grid(grid, theta=args.theta)
        times = scaling_study(spec, frame, grid, Xp, _sizes(args), args.rho, args.seed)
        medians = [(N, float(np.median(t))) for N, t in times.items()]
        lines = ["N,median_s,min_s"]
        lines.extend(f"{N},{m:.6g},{min(times[N]):.6g}" for N, m in medians)
        lines.append(f"# kernel={spec.label()} N'={len(Xp)} rho={args.rho:g}")
        lines.extend(f"# {n1}/{n0}: time ratio {t1 / t0:.3g}, size ratio {n1 / n0:.3g}"
                     for (n0, t0), (n1, t1) in zip(medians, medians[1:]))
        return "\n".join(lines) + "\n"
    # rho-search
    if args.error_grid and not args.data_fn:
        raise InputError("--error-grid requires --data-fn")
    if args.data_fn and not args.error_grid:
        raise InputError("--data-fn requires --error-grid")
    table, spec, frame = _problem(args, io.read_csv(args.data))
    Xp = make_grid(parse_grid(args.grid), theta=args.theta)
    fitter = partial(fit_parts, approx_parts(spec, frame, table.X, table.y, Xp))
    if args.error_grid:
        err_grid = make_grid(parse_grid(args.error_grid))
        error_fn = grid_error_fn(fitter, DATA_FUNCTIONS[args.data_fn], err_grid)
    else:
        error_fn = residual_error_fn(fitter, table.X, table.y)
    best, trace = rho_search(error_fn, args.rho0, factor=args.factor)
    lines = ["rho,error"]
    lines.extend(f"{r:.10g},{e:.10g}" for r, e in trace)
    lines.append(f"# best_rho={best:.10g}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _run_eval(args)
        if args.command == "study":
            _emit(_study_text(args), args.out)
            return EXIT_OK
        return _run_fit(args)
    except SolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BfsmoothError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
