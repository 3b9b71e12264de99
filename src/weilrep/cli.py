"""Command-line front end: bound sweeps, multiplicity tables, the
self-reducibility comparison, cat-map experiments, rank statistics, and a
self-test of the core invariants.

Every run writes CSV files plus one JSON summary.  CSV bodies are
deterministic for a fixed configuration and seed; the header comment lines
carry the configuration and a timestamp (the timestamp line is the only
non-reproducible content).

Exit codes: 0 all checks passed, 1 a bound or invariant was violated
(witness printed) or a prime's experiment raised (its error row lists the
exception), 2 invalid configuration, 3 internal error (any other exception
that reaches the top level; its traceback, then its type and message, go to
stderr).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import datetime
import json
import math
import multiprocessing
import os
import random
import sys
import traceback

from . import fqlin as la
from .catmap import (
    CAT2_DEFAULT,
    CAT4_DEFAULT,
    HeckeContext,
    LatticeAutomorphism,
    hecke_que_experiment,
    observable_bound_check,
    primes_up_to,
    rank_density_sweep,
    statistical_state_experiment,
)
from .gfq import (
    FieldCtx,
    claim_rest_failures,
    factor_poly,
    is_squarefree,
    poly_from_ints,
    poly_mul,
)
from .heiwei import WeilRep, max_abs, restrict_to_extension
from .spectra import decompose, expected_multiplicity, multiplicity_table_rows
from .sums import bound_report
from .symp import (
    SympSpace,
    build_maximal_torus,
    module_structure,
    random_symplectic,
    rank_from_charpoly,
    restrict_scalars,
    trace_factor_degrees,
    trace_polynomial,
)

SL2_KINDS = [["split"], ["inert"]]
SP4_KINDS = [
    ["split", "split"],
    ["split", "inert"],
    ["inert", "inert"],
    [("split", 2)],
    ["irreducible2"],
]


@contextlib.contextmanager
def _csv_file(path, config, colnames):
    """Write the header of a CSV report and yield a function that appends
    rows, so a sweep can write each report's rows before computing the
    next one."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
        fh.write(f"# generated_at={datetime.datetime.now().isoformat()}\n")
        fh.write(",".join(colnames) + "\n")
        yield lambda rows: fh.writelines(",".join(str(x) for x in row) + "\n" for row in rows)


def _write_csv(path, config, colnames, rows):
    with _csv_file(path, config, colnames) as write_rows:
        write_rows(rows)


def _write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_matrix(source: str):
    if source == "cat2":
        return CAT2_DEFAULT
    if source == "cat4":
        return CAT4_DEFAULT
    with open(source) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["A"]
    return tuple(tuple(int(x) for x in row) for row in data)


def _config_defaults(args):
    """Defaults from the optional run configuration file
    {"A": [[..]], "primes": {"max": n}, "xi_window": {"max_coeff": n},
    "seed": n}, for the options the subcommand has.  ``main`` parses the
    command line again over them, so explicit flags win over file values."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    defaults = {}
    if "A" in cfg:
        defaults["A_matrix"] = tuple(tuple(int(x) for x in row) for row in cfg["A"])
    if "max" in cfg.get("primes", {}):
        defaults["max_prime"] = int(cfg["primes"]["max"])
    if "xi_max" in vars(args) and cfg.get("xi_window", {}).get("max_coeff") is not None:
        defaults["xi_max"] = int(cfg["xi_window"]["max_coeff"])
    if "seed" in cfg:
        defaults["seed"] = int(cfg["seed"])
    return defaults


def _torus_kinds(args):
    """The block lists that --torus names: one list of '+'-joined blocks,
    or, for "all", every torus kind of SL(2) (N = 1) or Sp(4) (N = 2)."""
    if args.torus != "all":
        return [args.torus.split("+")]
    if args.N not in (1, 2):
        raise ValueError(
            f"--torus all lists the tori of N = 1 and N = 2 only, not N = {args.N}; "
            "name the blocks instead, e.g. --torus irreducible3"
        )
    return SL2_KINDS if args.N == 1 else SP4_KINDS


def _primes_in(lo, hi):
    return [p for p in primes_up_to(hi) if p >= lo]


# -- subcommands -----------------------------------------------------------------


def cmd_verify_bounds(args) -> int:
    ps = [int(x) for x in args.p.split(",")]
    kinds = _torus_kinds(args)
    failures = 0
    summaries = []
    config = _config_of(args, subcommand="verify-bounds")
    with _csv_file(
        os.path.join(args.out, "bounds.csv"),
        config,
        ["p", "m", "N", "torus", "chi", "v", "re", "im", "abs", "bound", "ratio"],
    ) as write_rows:
        for p in ps:
            sp = SympSpace(FieldCtx(p, args.m), args.N)
            for kind in kinds:
                torus = build_maximal_torus(sp, kind)
                rpt = bound_report(sp, torus, seed=args.seed)
                write_rows(rpt.csv_rows())
                summaries.append(rpt.summary())
                status = "PASS" if rpt.max_ratio <= 1 + 1e-9 else "FAIL"
                if status == "FAIL":
                    failures += 1
                    print(f"FAIL verify-bounds p={p} torus={torus.descriptor_string()} "
                          f"witness={rpt.argmax}")
                else:
                    print(f"PASS verify-bounds p={p} torus={torus.descriptor_string()} "
                          f"max_ratio={rpt.max_ratio:.6f}")
    _write_json(os.path.join(args.out, "bounds_summary.json"),
                {"config": config, "reports": summaries})
    return 1 if failures else 0


def cmd_multiplicities(args) -> int:
    ps = [int(x) for x in args.p.split(",")]
    kinds = _torus_kinds(args)
    rows = []
    mismatches = 0
    for p in ps:
        sp = SympSpace(FieldCtx(p, args.m), args.N)
        rep = WeilRep(sp)
        for kind in kinds:
            torus = build_maximal_torus(sp, kind)
            dec = decompose(rep, torus)
            rows.extend(multiplicity_table_rows(dec))
            bad = dec.characters[dec.multiplicities != expected_multiplicity(torus, dec.characters)]
            if len(bad):
                mismatches += len(bad)
                print(f"FAIL multiplicities p={p} torus={torus.descriptor_string()} "
                      f"mismatch at chi={tuple(bad[0].tolist())}")
            else:
                print(f"PASS multiplicities p={p} torus={torus.descriptor_string()} "
                      f"({len(dec.characters)} characters)")
    config = _config_of(args, subcommand="multiplicities")
    _write_csv(
        os.path.join(args.out, "multiplicities.csv"),
        config,
        ["p", "m", "N", "torus", "chi", "multiplicity"],
        rows,
    )
    return 1 if mismatches else 0


def cmd_self_reducibility(args) -> int:
    ps = [int(x) for x in args.p.split(",")]
    reports = []
    failures = 0
    for p in ps:
        sp = SympSpace(FieldCtx(p, args.m), args.N)
        torus = build_maximal_torus(sp, ["irreducible" + str(args.N)])
        ms = module_structure(torus)
        rep = WeilRep(sp)
        rpt = restrict_to_extension(rep, ms, n_samples=args.samples, seed=args.seed)
        rpt["p"] = p
        reports.append(rpt)
        ok = (
            rpt["sigma_identity_failures"] == 0
            and rpt["psi_identity_failures"] == 0
            and rpt["max_operator_distance"] <= rpt["tol"]
        )
        if ok:
            print(f"PASS self-reducibility p={p} max_distance="
                  f"{rpt['max_operator_distance']:.3e} (tol {rpt['tol']:.3e})")
        else:
            failures += 1
            print(f"FAIL self-reducibility p={p} report={rpt}")
    _write_json(
        os.path.join(args.out, "self_reducibility.json"),
        {"config": _config_of(args, subcommand="self-reducibility"), "reports": reports},
    )
    return 1 if failures else 0


#: the thread counts of the BLAS libraries numpy may be built on
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread_for_children():
    """Set every BLAS thread count to 1 in this process's environment while
    the block runs, so that worker processes started in it inherit it.  A
    BLAS library reads the count once, when numpy is first imported, so a
    worker cannot lower it for itself."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _que_worker(task):
    """One prime's experiment; an exception becomes an error row with its
    type, message and raising frame, so one bad prime does not abort the
    sweep."""
    A, p, xi_max, statistical = task
    experiment = statistical_state_experiment if statistical else hecke_que_experiment
    try:
        return experiment(A, p, xi_max)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return {
            "p": p,
            "error": type(exc).__name__,
            "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }


def _resolve_matrix(args):
    if args.A is not None:
        return _load_matrix(args.A)
    if getattr(args, "A_matrix", None) is None:
        raise ValueError("no automorphism given: pass --A or a --config with an A entry")
    return args.A_matrix


def _run_prime_sweep(args, statistical: bool) -> int:
    if args.xi_max is not None and args.xi_max < 2:
        raise ValueError(
            f"--xi-max (or xi_window.max_coeff) is {args.xi_max}: the exponent window "
            "[0, xi_max)^2N has a nonzero exponent only when xi_max >= 2"
        )
    mat = _resolve_matrix(args)
    A = LatticeAutomorphism(mat)
    if not A.generic:
        print("FAIL: the automorphism is not generic (invariant isotropic subspace)")
        return 2
    ps = _primes_in(args.min_prime, args.max_prime)
    tasks = [(A, p, args.xi_max, statistical) for p in ps]
    if args.jobs > 1:
        # spawned, not forked: a forked worker would share this process's
        # numpy and so its BLAS thread count; each worker gets one thread
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread_for_children(), concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs, mp_context=spawn
        ) as ex:
            rows = list(ex.map(_que_worker, tasks))
    else:
        rows = [_que_worker(t) for t in tasks]
    rows.sort(key=lambda r: r["p"])
    violations = 0
    csv_rows = []
    errors = [row for row in rows if "error" in row]
    for row in rows:
        if "error" in row:
            csv_rows.append((row["p"], "", "", "", "", f"error: {row['error']}"))
            print(f"ERROR p={row['p']}: {row['error']}: {row['message']} ({row['where']})")
            continue
        if row.get("skipped"):
            csv_rows.append((row["p"], "", "", "", "", row["skipped"]))
            print(f"SKIP p={row['p']}: {row['skipped']}")
            continue
        violations += row.get("violations", 0)
        n_states = row.get("n_eigenstates", row.get("n_eigenspaces", ""))
        csv_rows.append(
            (
                row["p"],
                row["r_p"],
                row["torus_order"],
                f"{row['max_ratio']:.12g}",
                n_states,
                "",
            )
        )
        status = "PASS" if row.get("violations", 0) == 0 else "FAIL"
        print(f"{status} p={row['p']} r_p={row['r_p']} |T|={row['torus_order']} "
              f"max_ratio={row['max_ratio']:.6f}")
    name = "statistical" if statistical else "que"
    config = _config_of(args, subcommand=name)
    _write_csv(
        os.path.join(args.out, f"{name}.csv"),
        config,
        ["p", "r_p", "torus_order", "max_wigner_ratio", "n_eigenstates", "skipped_reason"],
        csv_rows,
    )
    _write_json(
        os.path.join(args.out, f"{name}_summary.json"),
        {
            "config": config,
            "rows": [row for row in rows if "error" not in row],
            "errors": errors,
            "violations": violations,
        },
    )
    return 1 if violations or errors else 0


def cmd_que(args) -> int:
    return _run_prime_sweep(args, statistical=False)


def cmd_statistical(args) -> int:
    return _run_prime_sweep(args, statistical=True)


def cmd_rank_density(args) -> int:
    mat = _resolve_matrix(args)
    A = LatticeAutomorphism(mat)
    sweep = rank_density_sweep(A, args.max_prime)
    config = _config_of(args, subcommand="rank-density")
    _write_json(os.path.join(args.out, "rank_density.json"),
                {"config": config, "sweep": sweep})
    print(f"rank frequencies over {sweep['n_primes']} primes: "
          + ", ".join(f"r={r}: {f:.4f}" for r, f in sweep["freqs"].items()))
    return 0


# -- selftest ----------------------------------------------------------------------


def _check(name, ok, witness=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  {witness}" if not ok else ""))
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    failures = 0
    rng = random.Random(args.seed)

    # field arithmetic and characters
    for (p, m) in [(5, 1), (7, 1), (3, 2), (5, 2)]:
        ctx = FieldCtx(p, m)
        nonzero = [a for a in ctx.elements() if a != ctx.zero]
        ok = all(
            ctx.legendre(ctx.mul(a, b)) == ctx.legendre(a) * ctx.legendre(b)
            for a in nonzero[:6]
            for b in nonzero
        )
        ok = ok and abs(sum(ctx.psi(a) for a in ctx.elements())) < 1e-9
        failures += _check(f"characters GF({p}^{m})", ok)

    # polynomial factorization round trip
    F7 = FieldCtx(7)
    f = poly_mul(F7, poly_from_ints(F7, [1, 0, 1]), poly_from_ints(F7, [3, 2, 1]))
    prod = [F7.one]
    for g in factor_poly(F7, f):
        prod = poly_mul(F7, prod, g)
    failures += _check("factorization round-trip GF(7)", prod == f)

    # the rank sweep's trace-polynomial count against the full factorization
    cp = LatticeAutomorphism(CAT4_DEFAULT).charpoly
    h = trace_polynomial(cp)
    bad = []
    for p in primes_up_to(199)[1:]:
        ctx = FieldCtx(p)
        f = poly_from_ints(ctx, cp)
        full = rank_from_charpoly(ctx, f)[1] if is_squarefree(ctx, f) else None
        degrees = trace_factor_degrees(ctx, h)
        if (len(degrees) if degrees else None) != full:
            bad.append(p)
    failures += _check("trace-polynomial rank cat4, odd p <= 199", not bad, f"p in {bad}")

    # quadratic sign identity over the norm-one subgroup
    qs = [3, 5, 7, 9, 11, 13, 25, 27] if args.quick else None
    if qs is None:
        qs = []
        for p in primes_up_to(199):
            if p == 2:
                continue
            m = 1
            while p**m <= 199:
                qs.append(p**m)
                m += 1
    for q in sorted(qs):
        base = min(
            p for p in primes_up_to(q) if p > 1 and q % p == 0 and _is_prime_power(q, p)
        )
        m = round(math.log(q, base))
        checked, bad = claim_rest_failures(base, m)
        failures += _check(f"norm-one sign identity q={q} ({checked} elements)", bad == 0)

    # torus orders and multiplicities
    for p in (5, 7):
        sp = SympSpace(FieldCtx(p), 1)
        rep = WeilRep(sp)
        for kind, order in (("split", p - 1), ("inert", p + 1)):
            torus = build_maximal_torus(sp, [kind])
            failures += _check(f"torus order {kind} SL(2,F_{p})", torus.order == order)
            dec = decompose(rep, torus)
            ok = bool((dec.multiplicities == expected_multiplicity(torus, dec.characters)).all())
            failures += _check(f"multiplicities {kind} SL(2,F_{p})", ok)

    # representation invariants
    n_samples = 20 if args.quick else 100
    shapes = [(5, 1), (7, 1)] if args.quick else [(5, 1), (7, 1), (5, 2)]
    for (p, N) in shapes:
        sp = SympSpace(FieldCtx(p), N)
        rep = WeilRep(sp)
        ctx = sp.ctx
        samples = []
        for _ in range(n_samples):
            g = random_symplectic(sp, rng)
            h = random_symplectic(sp, rng)
            v = tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(2 * N))
            samples.append((g, h, v))
        # R_g, R_h and R_gh of every sample from one stack
        mats = [x for g, h, _ in samples for x in (g, h, la.mat_mul(ctx, g, h))]
        ops = rep.weil_ops(restrict_scalars(ctx, mats)).reshape(n_samples, 3, rep.dim, rep.dim)
        worst = 0.0
        for (g, _, v), (Rg, Rh, Rgh) in zip(samples, ops):
            worst = max(worst, max_abs(Rg @ Rh - Rgh))
            gv = tuple(la.mat_vec(ctx, g, list(v)))
            egorov = Rg @ rep.pi_op((v, ctx.zero)) @ Rg.conj().T - rep.pi_op((gv, ctx.zero))
            worst = max(worst, max_abs(egorov))
        failures += _check(
            f"Egorov and homomorphism ({n_samples} samples, q={p}, N={N})",
            worst <= rep.tol,
            f"worst={worst:.2e}",
        )

    # bound sweeps
    for p in (5, 7):
        sp = SympSpace(FieldCtx(p), 1)
        for kind in ("split", "inert"):
            torus = build_maximal_torus(sp, [kind])
            rpt = bound_report(sp, torus, seed=args.seed)
            failures += _check(
                f"two-dimensional bound p={p} {kind}",
                rpt.max_ratio <= 1 + 1e-9,
                f"max_ratio={rpt.max_ratio}",
            )

    if not args.quick:
        # self-reducibility on the smallest irreducible torus
        for p in (3, 5):
            sp = SympSpace(FieldCtx(p), 2)
            torus = build_maximal_torus(sp, ["irreducible2"])
            ms = module_structure(torus)
            rep = WeilRep(sp)
            rpt = restrict_to_extension(rep, ms, n_samples=10, seed=args.seed)
            ok = (
                rpt["sigma_identity_failures"] == 0
                and rpt["psi_identity_failures"] == 0
                and rpt["max_operator_distance"] <= rpt["tol"]
            )
            failures += _check(f"self-reducibility Sp(4,F_{p})", ok)
        # cat map spot check: both checks read one context
        A = LatticeAutomorphism(CAT2_DEFAULT)
        hc = HeckeContext(A, 7)
        row = hecke_que_experiment(A, 7, context=hc)
        failures += _check(
            "cat map QUE p=7", row["violations"] == 0 and row["torus_order"] == 8
        )
        obs = observable_bound_check(A, 7, context=hc)
        failures += _check(
            "observable bound p=7",
            all(r.get("ok") for r in obs["rows"] if "ok" in r),
        )

    print(f"selftest: {'OK' if failures == 0 else f'{failures} failures'}")
    return 1 if failures else 0


def _is_prime_power(q, p):
    while q % p == 0:
        q //= p
    return q == 1


def _config_of(args, **extra):
    skip = {"func", "A_matrix"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    cfg.update(extra)
    return cfg


# -- argument parsing ---------------------------------------------------------------


def build_parser(config_defaults=None) -> argparse.ArgumentParser:
    """The argument parser; ``config_defaults`` (from ``_config_defaults``)
    become the defaults of the subcommands that take --config."""
    ap = argparse.ArgumentParser(
        prog="weilrep",
        description="Exact experiments with Heisenberg-Weil representations "
        "over finite fields",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp_parser, needs_field=False):
        sp_parser.add_argument("--seed", type=int, default=0)
        sp_parser.add_argument("--out", default="reports")
        if needs_field:
            sp_parser.add_argument("--p", default="5,7")
            sp_parser.add_argument("--m", type=int, default=1)
            sp_parser.add_argument("--N", type=int, default=1)
            sp_parser.add_argument("--torus", default="all")

    p1 = sub.add_parser("verify-bounds", help="character sum bound sweeps")
    common(p1, needs_field=True)
    p1.set_defaults(func=cmd_verify_bounds)

    p2 = sub.add_parser("multiplicities", help="eigenspace dimension tables")
    common(p2, needs_field=True)
    p2.set_defaults(func=cmd_multiplicities)

    p3 = sub.add_parser("self-reducibility", help="restriction comparison on "
                        "irreducible tori")
    common(p3)
    p3.add_argument("--p", default="3,5")
    p3.add_argument("--m", type=int, default=1)
    p3.add_argument("--N", type=int, default=2)
    p3.add_argument("--samples", type=int, default=50)
    p3.set_defaults(func=cmd_self_reducibility)

    for name, fn, hlp in (
        ("que", cmd_que, "Hecke eigenstate bound sweep over primes"),
        ("statistical", cmd_statistical, "density operator bound sweep"),
    ):
        p4 = sub.add_parser(name, help=hlp)
        common(p4)
        p4.add_argument("--A", default=None, help="cat2, cat4, or a JSON matrix file")
        p4.add_argument("--config", default=None,
                        help="JSON run configuration {A, primes.max, xi_window.max_coeff, seed}")
        p4.add_argument("--min-prime", type=int, default=5)
        p4.add_argument("--max-prime", type=int, default=97)
        p4.add_argument("--xi-max", type=int, default=None)
        p4.add_argument("--jobs", type=int, default=1,
                        help="worker processes, one prime each, with one BLAS "
                             "thread each (default 1)")
        p4.set_defaults(func=fn, **(config_defaults or {}))

    p5 = sub.add_parser("rank-density", help="symplectic rank frequencies over primes")
    common(p5)
    p5.add_argument("--A", default=None)
    p5.add_argument("--config", default=None,
                    help="JSON run configuration {A, primes.max, seed}")
    p5.add_argument("--max-prime", type=int, default=100000)
    p5.set_defaults(func=cmd_rank_density, **(config_defaults or {}))

    p6 = sub.add_parser("selftest", help="run the invariant suite")
    common(p6)
    p6.add_argument("--quick", action="store_true")
    p6.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "config", None):
            args = build_parser(_config_defaults(args)).parse_args(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
