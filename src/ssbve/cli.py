"""Command-line interface.

Subcommands: gen, solve, certify, ssve, gapcalc, bench.
Exit codes: 0 success, 2 verification failure, 3 budget exceeded, 4 bad
input.  Vertex lists in files and JSON reports are 1-indexed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import formats
from .approx import solve_planted, solve_worst_case, trivial_ksubset
from .errors import (ArityTooLargeError, BudgetExceededError, FormatError,
                     SsbveError, TooLargeError)
from .exact import exact_ssbve
from .generators import (HdvrSpec, PlantedSpec, gen_gap_instance, gen_hdvr,
                         gen_planted, gen_random_bipartite)
from .graph import SsbveInstance, Solution, mku_to_ssbve
from .les import least_expanding_set

# bench, the Gram-matrix certificate and ssve load numpy, and float-mode
# lifted-LP values mpmath; the subcommands that use them import them, so
# `gen`, `solve` and an exact `certify --kind sa` run without either.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad CLI input -> exit code 4
        raise FormatError(message)


def _count(text: str) -> int:
    """A flag value that must be an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _mode(text: str) -> tuple[str, int]:
    """--mode of certify: exhaustive, or sampled:N with N >= 1 samples."""
    if text == "exhaustive":
        return "exhaustive", 10_000
    kind, _, samples = text.partition(":")
    if kind == "sampled":
        return "sampled", _count(samples)
    raise argparse.ArgumentTypeError(
        f"expected exhaustive or sampled:N, got {text!r}")


def _number(text: str) -> Fraction | float:
    """An integer or a rational like 1/10 exactly; a decimal as a float.
    Either must be finite as a float."""
    try:
        value = (Fraction(text) if "/" in text or "." not in text
                 else float(text))
        if math.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _add_globals(parser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int,
                        default=d if suppress else 0)
    parser.add_argument("--out", type=str, default=d)
    parser.add_argument("--format", choices=("json", "table"),
                        default=d if suppress else "json")


def _build_parser() -> _Parser:
    p = _Parser(prog="ssbve", description=__doc__)
    _add_globals(p, suppress=False)
    # The same flags are accepted after the subcommand; SUPPRESS defaults
    # keep the subparser from overriding values given before it.
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    g = sub.add_parser("gen", help="generate an instance", parents=[common])
    g.add_argument("--family", required=True,
                   choices=("random", "planted", "hdvr", "gap"))
    g.add_argument("--n", type=_count, required=True)
    g.add_argument("--s", type=_count, help="right side size (random/gap)")
    g.add_argument("--p", type=float, help="edge probability (random)")
    g.add_argument("--k", type=_count, help="budget written to the instance")
    g.add_argument("--alpha", type=float)
    g.add_argument("--beta", type=float)
    g.add_argument("--gamma", type=float)
    g.add_argument("--r", type=_count, help="left degree / hyperedge arity")
    g.add_argument("--dl", type=float, help="expected left degree (gap)")
    g.add_argument("--k-planted", type=_count, dest="k_planted")
    g.add_argument("--mode", choices=("random", "planted"), default="random")
    g.add_argument("--sidecar", type=str,
                   help="ground-truth JSON path (planted family)")

    s = sub.add_parser("solve", help="solve an instance file", parents=[common])
    s.add_argument("--algo", required=True,
                   choices=("worst", "planted", "baseline", "les", "exact"))
    s.add_argument("--input", required=True)
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--qmax", type=int, default=3)
    s.add_argument("--branch-cap", type=_count, default=64, dest="branch_cap")
    s.add_argument("--p", type=int, default=1)
    s.add_argument("--q", type=int, default=2)

    c = sub.add_parser("certify", help="build and verify a gap certificate", parents=[common])
    c.add_argument("--kind", required=True, choices=("sdp", "sa"))
    c.add_argument("--n", type=_count, required=True)
    c.add_argument("--s", type=_count, required=True)
    c.add_argument("--k", type=_count)
    c.add_argument("--dl", type=_count, required=True)
    c.add_argument("--rounds", type=_count, default=1)
    c.add_argument("--mode", type=_mode, default="exhaustive",
                   help="exhaustive or sampled:N")
    c.add_argument("--check-instance", action="store_true",
                   help="also run the instance property checks")

    v = sub.add_parser("ssve", help="small-set vertex expansion", parents=[common])
    v.add_argument("--input", required=True)
    v.add_argument("--k", type=int, help="override the file budget")
    v.add_argument("--oracle", choices=("brute", "sweep"), default="brute")

    gc = sub.add_parser("gapcalc", help="distinguishing-gap exponents", parents=[common])
    gc.add_argument("--r", type=int, required=True)
    gc.add_argument("--eps", type=_number, default="0",
                    help="float or rational like 1/10")
    gc.add_argument("--regime", required=True, choices=("by_m", "by_n"))

    b = sub.add_parser("bench", help="benchmark suites", parents=[common])
    b.add_argument("--suite", required=True,
                   choices=("oracle_small", "planted", "gap_certs"))
    b.add_argument("--seeds", type=_count, default=5)
    b.add_argument("--n", type=_count, help="planted suite size override")
    return p


def _emit(args, payload: dict, table: str | None = None) -> None:
    if args.format == "table" and table is not None:
        text = table
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is bad input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _solution_payload(sol: Solution, algo: str, seed: int) -> dict:
    return {
        "schema": 1,
        "algo": algo,
        "seed": seed,
        "chosen": [u + 1 for u in sol.chosen],
        "neighborhood_size": sol.neighborhood_size,
        "expansion": str(sol.expansion),
        "expansion_float": float(sol.expansion),
    }


def _cmd_gen(args) -> int:
    if args.family == "random":
        if args.s is None or args.p is None:
            raise FormatError("random family needs --s and --p")
        g = gen_random_bipartite(args.n, args.s, args.p, args.seed)
        inst = SsbveInstance(graph=g, k=args.k or 1)
        text = formats.write_ssbve(inst)
    elif args.family == "gap":
        if args.s is None or args.dl is None:
            raise FormatError("gap family needs --s and --dl")
        g = gen_gap_instance(args.n, args.s, args.dl, args.seed)
        inst = SsbveInstance(graph=g, k=args.k or min(args.s, args.n))
        text = formats.write_ssbve(inst)
    elif args.family == "planted":
        if None in (args.alpha, args.beta, args.gamma, args.r):
            raise FormatError(
                "planted family needs --alpha --beta --gamma --r")
        spec = PlantedSpec(n=args.n, alpha=args.alpha, beta=args.beta,
                           gamma=args.gamma, r_degree=args.r, seed=args.seed)
        inst, filled = gen_planted(spec)
        text = formats.write_ssbve(inst)
        if args.sidecar:
            _write_text(args.sidecar, formats.planted_sidecar(filled))
    else:  # hdvr
        if None in (args.alpha, args.beta, args.r, args.k_planted):
            raise FormatError(
                "hdvr family needs --alpha --beta --r --k-planted")
        spec = HdvrSpec(n=args.n, r_edge=args.r, alpha=args.alpha,
                        beta=args.beta, k_planted=args.k_planted,
                        mode=args.mode, seed=args.seed)
        h = gen_hdvr(spec)
        text = formats.write_mku(h, args.k or 1)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_input(path: str) -> str:
    """The text of an input file; a file that cannot be opened or decoded
    is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> SsbveInstance:
    text = _read_input(path)
    head = text.lstrip().split(None, 2)
    if len(head) >= 2 and head[0] == "p" and head[1] == "mku":
        h, k = formats.parse_mku(text)
        return mku_to_ssbve(h, k)
    return formats.parse_ssbve(text)


def _cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    if args.algo == "exact":
        sol = exact_ssbve(inst)
    elif args.algo == "baseline":
        sol = trivial_ksubset(inst)
    elif args.algo == "les":
        sol = least_expanding_set(inst.graph)
    elif args.algo == "planted":
        sol = solve_planted(inst, args.p, args.q, args.branch_cap, args.seed)
    else:
        sol = solve_worst_case(inst, eps=args.eps, branch_cap=args.branch_cap,
                               seed=args.seed, q_max=args.qmax)
    _emit(args, _solution_payload(sol, args.algo, args.seed))
    return EXIT_OK


def _cmd_certify(args) -> int:
    from .certs import (build_sa_certificate, check_instance_properties,
                        sample_property_checks, verify_sa_certificate)
    k = args.k or min(args.s, args.n)
    if args.kind == "sdp":
        from .certs import gap_certificate, verify_sdp_certificate
        d_l = args.dl + (args.dl % 2)  # forced even, rounding up
        g = gen_gap_instance(args.n, args.s, float(d_l), args.seed)
        reports = [verify_sdp_certificate(gap_certificate(g, d_l, k))]
        payload = reports[0].as_dict()
    else:
        g = gen_gap_instance(args.n, args.s, float(args.dl), args.seed)
        cert = build_sa_certificate(g, rounds=args.rounds)
        mode, samples = args.mode
        reports = [verify_sa_certificate(cert, mode=mode, samples=samples,
                                         seed=args.seed),
                   sample_property_checks(cert, min(samples, 2000),
                                          seed=args.seed)]
        payload = {**reports[0].as_dict(),
                   "property_checks": reports[1].as_dict()}
    if args.check_instance:
        reports.append(check_instance_properties(g, k, samples=1000,
                                                 seed=args.seed))
        payload["instance_checks"] = reports[-1].as_dict()
    _emit(args, {"schema": 1, "seed": args.seed, **payload})
    return (EXIT_OK if all(r.passed for r in reports)
            else EXIT_VERIFY_FAILED)


def _cmd_ssve(args) -> int:
    from .ssve import SseOracle, ssve_via_sse
    g, k_file = formats.parse_ssve(_read_input(args.input))
    k = args.k if args.k is not None else k_file
    oracle = SseOracle(kind="bruteforce" if args.oracle == "brute"
                       else "sweep")
    out = ssve_via_sse(g, k, oracle)
    payload = {
        "schema": 1,
        "k": k,
        "oracle": args.oracle,
        "chosen": [v + 1 for v in out["chosen"]],
        "edge_expansion": str(out["edge_expansion"]),
        "vertex_expansion": str(out["vertex_expansion"]),
        "vertex_expansion_float": float(out["vertex_expansion"]),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_gapcalc(args) -> int:
    from .certs import hardness_gap_calculator
    out = hardness_gap_calculator(args.r, args.eps, args.regime)
    _emit(args, {"schema": 1, **out.as_dict()})
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import format_table, run_benchmark
    planted_cfg = None if args.n is None else {"n": args.n}
    report = run_benchmark(args.suite, seeds=args.seeds,
                           planted_cfg=planted_cfg)
    _emit(args, report, table=format_table(report))
    if args.suite == "gap_certs" and not report["all_passed"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "ssve": _cmd_ssve,
    "gapcalc": _cmd_gapcalc,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (BudgetExceededError, TooLargeError, ArityTooLargeError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FormatError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SsbveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
