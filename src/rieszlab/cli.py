"""Batch command line front end with reproducible seeds and stable output.

Every subcommand reads JSON inputs, writes CSV or JSON to stdout (or --out),
and exits 0 on success, 2 on a validation error, 3 on a tolerance failure.
All floating point output uses 17 significant digits so doubles round-trip.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import constructions, decomposition, kernels, levelset, measures, search
from .errors import DomainError, ToleranceError


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError("cannot read %s: %s" % (path, exc))


def _add_kernel_flags(parser, with_n=True):
    if with_n:
        parser.add_argument("--n", type=int, required=True, help="dimension")
    parser.add_argument(
        "--kind",
        choices=("riesz", "second-order", "hilbert"),
        default="riesz",
    )
    parser.add_argument("--j", type=int, default=1, help="component index")
    parser.add_argument(
        "--i", type=int, default=1, help="first index (second-order only)"
    )


def _spec_from(args, n=None):
    n = args.n if n is None else n
    if args.kind == "hilbert":
        if n != 1:
            raise DomainError("the one dimensional kernel needs --n 1")
        return kernels.hilbert()
    if args.kind == "second-order":
        return kernels.second_order(n, args.i, args.j)
    return kernels.riesz(n, args.j)


def _threads(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get("RIESZ_LAB_THREADS", "1")
    try:
        return int(env)
    except ValueError:
        raise DomainError("RIESZ_LAB_THREADS must be an integer")


def _parse_floats(text, what):
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise DomainError("%s must be comma separated numbers" % what)


def _parse_ints(text, what):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DomainError("%s must be comma separated integers" % what)


def _cmd_constants(args):
    spec = _spec_from(args)
    header = (
        "n", "kind", "i", "j", "normalization", "sphere_l1", "omega_sup",
        "gradient_sup", "ball_volume", "dimensional_constant",
        "single_mass_weaktype",
    )
    sphere = kernels.sphere_l1_norm(spec)
    row = (
        spec.n, args.kind, spec.i, spec.j,
        kernels.normalization(spec), sphere, kernels.omega_sup(spec),
        kernels.profile_gradient_sup(spec), kernels.ball_volume(spec.n),
        kernels.dimensional_constant(spec.n), sphere / spec.n,
    )
    _emit(args, _csv(header, [row]))


def _cmd_verify_kernel(args):
    spec = _spec_from(args)
    threads = _threads(args)
    quad = kernels.sphere_l1_quadrature(spec)
    closed = kernels.sphere_l1_norm(spec)
    mc = kernels.sphere_l1_norm_mc(spec, args.samples, args.seed, threads)
    mean = kernels.sphere_mean_zero_check(spec, args.samples, args.seed, threads)
    ok = abs(quad - closed) <= 1e-8 * closed
    rows = [("sphere_l1_quadrature", quad, 0.0, closed, ok)]
    ok_mc = abs(mc.value - quad) <= 5.0 * mc.standard_error
    rows.append(("sphere_l1_mc", mc.value, mc.standard_error, quad, ok_mc))
    ok_mean = abs(mean.value) <= 5.0 * mean.standard_error
    rows.append(("sphere_mean_zero", mean.value, mean.standard_error, 0.0, ok_mean))
    _emit(
        args,
        _csv(("check", "value", "standard_error", "reference", "ok"), rows),
    )
    if not all(r[4] for r in rows):
        raise ToleranceError("kernel verification failed")


def _cmd_hilbert_exact(args):
    nu = measures.measure_from_json(_read(args.measure))
    plus, minus, volume = levelset.hilbert_levelset_intervals(nu, args.lam)
    rows = [("plus", left, right, right - left) for left, right in plus]
    rows += [("minus", left, right, right - left) for left, right in minus]
    total = args.lam * volume / measures.total_variation(nu)
    rows.append(("total", None, None, total))
    _emit(args, _csv(("side", "left", "right", "value"), rows))


def _levelset_row(args, functional):
    nu = measures.measure_from_json(_read(args.measure))
    spec = _spec_from(args, n=nu.n)
    kwargs = dict(
        method=args.method,
        samples=args.samples,
        seed=args.seed,
        threads=_threads(args),
    )
    if functional:
        est = levelset.weaktype_functional(spec, nu, args.lam, **kwargs)
    else:
        est = levelset.levelset_measure(spec, nu, args.lam, **kwargs)
    header = ("method", "n", "count", "lambda", "value",
              "standard_error", "samples", "seed")
    row = (est.method, nu.n, nu.count, args.lam, est.value,
           est.standard_error, est.samples, args.seed)
    _emit(args, _csv(header, [row]))


def _cmd_levelset(args):
    _levelset_row(args, functional=False)


def _cmd_weaktype(args):
    _levelset_row(args, functional=True)


def _cmd_whitney(args):
    union = decomposition.cells_from_json(_read(args.set))
    cubes, residual = decomposition.whitney_decompose(union, args.max_depth)
    doc = {
        "n": union.n,
        "max_depth": args.max_depth,
        "cubes": [{"level": row[0], "coords": row[1:]} for row in cubes.tolist()],
        "residual": [{"level": args.max_depth, "coords": row}
                     for row in residual.tolist()],
    }
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_cz(args):
    f = decomposition.grid_from_json(_read(args.grid))
    cz = decomposition.cz_decompose(f, args.lam, args.max_depth)
    _emit(args, json.dumps(cz.to_json_dict(), sort_keys=True, indent=2) + "\n")


def _cmd_cancellation(args):
    spec = _spec_from(args)
    b = decomposition.grid_from_json(_read(args.density))
    center = _parse_floats(args.center, "--center")
    mass = b.l1_norm if args.mass is None else args.mass
    res = constructions.cancellation_integral(
        spec, b, mass, center, args.radius, quad_depth=args.quad_depth
    )
    _emit(
        args,
        _csv(
            ("value", "ratio", "cutoff_radius"),
            [(res.value, res.ratio, res.cutoff_radius)],
        ),
    )


def _cmd_exhaustion(args):
    nu = measures.measure_from_json(_read(args.measure))
    sets = constructions.build_exhaustion(nu, args.lam, args.samples, args.seed)
    header = ("k",) + tuple("c%d" % (i + 1) for i in range(nu.n)) + (
        "radius", "volume", "standard_error",
    )
    rows = [
        (s.index,) + tuple(float(c) for c in s.center)
        + (s.radius, s.volume, s.volume_se)
        for s in sets
    ]
    _emit(args, _csv(header, rows))


def _cmd_search(args):
    spec = _spec_from(args)
    problem = search.SearchProblem(
        spec=spec,
        count=args.count,
        samples=args.samples,
        seed=args.seed,
        iterations=args.iterations,
        kind=args.optimizer,
        restarts=args.restarts,
    )
    result = search.optimize(problem, threads=_threads(args))
    doc = {
        "best": result.best.to_json_dict(),
        "value": result.value,
        "standard_error": result.standard_error,
        "reevaluated_value": result.reevaluated_value,
        "reevaluated_se": result.reevaluated_se,
        "evaluations": result.evaluations,
        "incomplete": result.incomplete,
        "trace": [[e, v] for e, v in result.trace],
    }
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_sweep(args):
    if args.kind == "hilbert":
        raise DomainError("sweep varies n; use --kind riesz or second-order")

    def spec_for(n):
        return _spec_from(args, n=n)

    rows = search.dimension_sweep(
        spec_for,
        _parse_ints(args.ns, "--ns"),
        _parse_ints(args.counts, "--counts"),
        args.samples,
        args.seed,
        iterations=args.iterations,
        kind=args.optimizer,
        restarts=args.restarts,
        threads=_threads(args),
    )
    header = ["n", "count", "value", "standard_error", "evaluations", "status"]
    table = [
        [r.n, r.count, r.value, r.standard_error, r.evaluations, r.status]
        for r in rows
    ]
    if args.timings:
        header.append("wall_time")
        for r, line in zip(rows, table):
            line.append(r.wall_time)
    _emit(args, _csv(header, table))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riesz-lab",
        description="Weak-type level sets, decompositions and searches "
        "for homogeneous singular kernels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("constants", help="closed-form kernel constants")
    _add_kernel_flags(p)
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify-kernel", help="MC checks of kernel identities")
    _add_kernel_flags(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify_kernel)

    p = sub.add_parser("hilbert-exact", help="exact 1-D level set intervals")
    p.add_argument("--measure", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument(
        "--method",
        choices=("vieta", "bisection"),
        default="vieta",
        help="selects nothing: both names run the one secular-equation solver",
    )
    common(p)
    p.set_defaults(func=_cmd_hilbert_exact)

    for name, helptext in (
        ("levelset", "level set volume of a transformed measure"),
        ("weaktype", "thresholded level set volume per unit mass"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_kernel_flags(p, with_n=False)
        p.add_argument("--measure", required=True)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument(
            "--method",
            choices=("auto", "interval", "vieta", "bisection", "single-mass", "mc"),
            default="auto",
        )
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        common(p)
        p.set_defaults(func=_cmd_levelset if name == "levelset" else _cmd_weaktype)

    p = sub.add_parser("whitney", help="dyadic Whitney decomposition")
    p.add_argument("--set", required=True, help="cell union JSON")
    p.add_argument("--max-depth", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_whitney)

    p = sub.add_parser("cz", help="good/bad splitting of a grid function")
    p.add_argument("--grid", required=True, help="grid function JSON")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--max-depth", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cz)

    p = sub.add_parser(
        "cancellation", help="mean-zero cancellation integral"
    )
    _add_kernel_flags(p)
    p.add_argument("--density", required=True, help="grid function JSON")
    p.add_argument("--center", required=True, help="comma separated point")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--quad-depth", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_cancellation)

    p = sub.add_parser("exhaustion", help="measure-matched exhaustion sets")
    p.add_argument("--measure", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_exhaustion)

    p = sub.add_parser("search", help="maximize the weak-type ratio")
    _add_kernel_flags(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--optimizer", choices=search.KINDS, default="auto")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="search over an (n, N) grid")
    _add_kernel_flags(p, with_n=False)
    p.add_argument("--ns", required=True, help="comma separated dimensions")
    p.add_argument("--counts", required=True, help="comma separated counts")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--optimizer", choices=search.KINDS, default="auto")
    p.add_argument("--timings", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print("tolerance failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


def console_main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
