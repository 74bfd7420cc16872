"""Command line front end.

Verbs: jet, diagram, chevalley, fit, nu, mu, product, verify.  Every verb
reads a scenario file and accepts the same overrides; results go to stdout
as text and, with --out (or the scenario's own "out"), to a canonical JSON
file: sorted keys, two-space indent, rationals as "p/q" strings, censored
values as {"at_least": n}, trailing newline, no timestamps, so identical
inputs produce byte-identical output.

Exit codes: 0 success, 2 malformed input, 3 the run produced only
inconclusive results, 4 a certified cross-check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .censored import AtLeast, is_censored
from .chevalley import HEURISTIC, INCONCLUSIVE, validate_relations
from .errors import ConsistencyError, InputError, RelationsMismatchError
from .experiments import (
    fit_linear_bound,
    product_order_probe,
    residual_order_probe,
    run_table,
    taylor_growth_estimate,
    verify_consistency,
)
from .jets import jet_matrix
from .poly import format_poly, parse_poly
from .scenario import (
    load_scenario,
    relations_for,
    scenario_tuples,
    target_aliases,
    target_names,
)
from .staircase import IdealPresentation, diagram_from_generators


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AtLeast):
        return {"at_least": value.bound}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(payload):
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _write_out(payload, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))


def _fmt_columns(rows):
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in rows]


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.l_max is not None:
        if args.l_max < 0:
            raise InputError("--l-max must be >= 0")
        scenario.l_max = args.l_max
    if args.k_max is not None:
        if args.k_max < 0:
            raise InputError("--k-max must be >= 0")
        k_min, _ = scenario.k_range
        scenario.k_range = (min(k_min, args.k_max), args.k_max)
    if args.window is not None:
        if args.window < 1:
            raise InputError("--window must be >= 1")
        scenario.window = args.window
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def _check_k_budget(scenario):
    if scenario.k_range[1] > scenario.l_max:
        raise InputError(
            f"k_max={scenario.k_range[1]} exceeds l_max={scenario.l_max}"
        )


def _select(scenario, key_arg):
    pairs = scenario_tuples(scenario)
    if key_arg is None:
        return pairs
    for key, tup in pairs:
        if key == key_arg:
            return [(key, tup)]
    available = ", ".join(key for key, _ in pairs)
    raise InputError(f"no tuple with key {key_arg!r}; available: {available}")


def _presentation_for(scenario, key, tup):
    rel = relations_for(scenario, key)
    if rel is None:
        raise InputError(
            f"tuple {key} has no relation generators in the scenario"
        )
    gens = validate_relations(scenario.phi, tup, rel)
    return IdealPresentation.make(gens, tup.image)


def _probe_target(scenario, point):
    """(key, presentation) of the tuple a relation probe runs at: the one
    named by point, or else the first tuple with relation generators."""
    pairs = _select(scenario, point)
    if point is None:
        pairs = [
            (key, tup) for key, tup in pairs
            if relations_for(scenario, key) is not None
        ]
        if not pairs:
            raise InputError("scenario supplies no relation generators")
    key, tup = pairs[0]
    return key, _presentation_for(scenario, key, tup)


_COLUMNS = ("map", "tuple", "k", "l", "H", "status", "l_stab")


def _entry_values(e):
    return (e.map_name, e.tuple_id, e.k, e.l_value, e.h_value, e.status,
            e.l_stab)


def _entry_rows(entries):
    return [dict(zip(_COLUMNS, _entry_values(e))) for e in entries]


def _emit_table(entries, csv_path):
    """Print the table; with csv_path, also write it there as CSV."""
    rows = [_COLUMNS] + [
        ["-" if v is None else str(v) for v in _entry_values(e)]
        for e in entries
    ]
    for line in _fmt_columns(rows):
        print(line)
    if csv_path:
        # the csv module writes None as an empty field and str() of the rest
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_COLUMNS)
            writer.writerows(_entry_values(e) for e in entries)


def _table_payload(verb, scenario, entries):
    """The JSON fields chevalley and fit share."""
    return {
        "verb": verb,
        "scenario": scenario.name,
        "k_range": list(scenario.k_range),
        "l_max": scenario.l_max,
        "window": scenario.window,
        "seed": scenario.seed,
        "entries": _entry_rows(entries),
    }


def cmd_chevalley(args):
    scenario = _load(args)
    _check_k_budget(scenario)
    run = run_table(scenario)
    print(f"{scenario.name}: thresholds with l_max={scenario.l_max},"
          f" window={scenario.window}")
    _emit_table(run.entries, args.csv)
    for sample in run.leaf_samples:
        print(f"leaf {sample.leaf_name} k={sample.k}:"
              f" generic l={sample.l_generic}"
              f" over {len(sample.samples)} samples"
              + (" [rank profile mismatch]" if sample.mismatch else ""))
    payload = _table_payload("chevalley", scenario, run.entries)
    payload["leaf_samples"] = [
        {
            "leaf": s.leaf_name,
            "k": s.k,
            "l_generic": s.l_generic,
            "mismatch": s.mismatch,
            "status": s.status,
            "trials": s.trials,
            "rank_profile": {str(l): d for l, d in s.rank_profile.items()},
        }
        for s in run.leaf_samples
    ]
    _write_out(payload, args.out or scenario.out)
    if run.entries and all(e.status == INCONCLUSIVE for e in run.entries):
        print("all rows inconclusive; raise l_max or supply relations")
        return 3
    return 0


def cmd_fit(args):
    scenario = _load(args)
    _check_k_budget(scenario)
    run = run_table(scenario)
    usable = [
        e for e in run.entries
        if e.status != HEURISTIC and not is_censored(e.l_value)
    ]
    if not run.entries:
        raise InputError("scenario produced an empty table")
    _emit_table(run.entries, args.csv)
    if not usable:
        print("no certified rows to fit; raise l_max or supply relations")
        return 3
    bound = fit_linear_bound(run.entries)
    print(f"fitted bound: l <= {bound.alpha}*k + {bound.beta}")
    print("witnesses: " + ", ".join(
        f"(k={k}, l={l})" for k, l in bound.witnesses
    ))
    payload = _table_payload("fit", scenario, run.entries)
    payload.update(alpha=bound.alpha, beta=bound.beta,
                   witnesses=[list(w) for w in bound.witnesses])
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_jet(args):
    scenario = _load(args)
    phi = scenario.phi
    l = scenario.l_max
    reports = []
    for key, tup in _select(scenario, args.point):
        jm = jet_matrix(phi, tup, l)
        rank, kernel = jm.integer_matrix().rank_kernel()
        nrows, ncols = jm.shape
        print(f"tuple {key}: order {l} jet matrix {nrows}x{ncols},"
              f" rank {rank}, kernel dim {kernel.dim}")
        report = {
            "tuple": key,
            "l": l,
            "rows": nrows,
            "cols": ncols,
            "rank": rank,
            "kernel_dim": kernel.dim,
        }
        if args.dump_matrix:
            report["col_labels"] = [list(b) for b in jm.col_labels]
            report["row_labels"] = [
                [pt, list(alpha)] for pt, alpha in jm.row_labels
            ]
            grid = [[str(v) for v in row] for row in jm.matrix]
            report["entries"] = grid
            if ncols <= 14 and nrows <= 40:
                for line in _fmt_columns(grid):
                    print("  " + line)
            else:
                print("  matrix too large for text; see JSON output")
        reports.append(report)
    payload = {
        "verb": "jet",
        "scenario": scenario.name,
        "l": l,
        "jets": reports,
    }
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_diagram(args):
    scenario = _load(args)
    phi = scenario.phi
    names = target_names(phi.target_arity)
    trunc = scenario.l_max
    reports = []
    for key, tup in _select(scenario, args.point):
        rel = relations_for(scenario, key)
        if rel is None:
            continue
        presentation = _presentation_for(scenario, key, tup)
        diagram = diagram_from_generators(
            presentation, max(trunc, presentation.generator_degree)
        )
        info = diagram.to_dict(names)
        info["tuple"] = key
        info["center"] = list(tup.image)
        reports.append(info)
        verts = ", ".join(str(tuple(v)) for v in diagram.vertices) or "none"
        print(f"tuple {key}: staircase vertices {verts}"
              f" (exact through degree {diagram.trunc_degree},"
              f" provisional={diagram.provisional})")
    if not reports:
        raise InputError("scenario supplies no relation generators")
    payload = {
        "verb": "diagram",
        "scenario": scenario.name,
        "diagrams": reports,
    }
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_nu(args):
    scenario = _load(args)
    n = scenario.phi.target_arity
    names = target_names(n)
    key, presentation = _probe_target(scenario, args.point)
    polys = [
        parse_poly(text, n, names=names, aliases=target_aliases(n))
        for text in args.poly
    ]
    probe = residual_order_probe(presentation, polys, trunc=args.trunc)
    entries = []
    for text, entry in zip(args.poly, probe.entries):
        nf_text = format_poly(entry.normal_form.to_poly(), names)
        print(f"nu({text}) = {entry.value}"
              f"  normal form: {nf_text}")
        entries.append({
            "poly": text,
            "value": entry.value,
            "normal_form": nf_text,
        })
    payload = {
        "verb": "nu",
        "scenario": scenario.name,
        "tuple": key,
        "center": list(probe.center),
        "trunc_degree": probe.trunc_degree,
        "entries": entries,
    }
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_mu(args):
    scenario = _load(args)
    phi = scenario.phi
    n = phi.target_arity
    pairs = _select(scenario, args.point)
    if not pairs:
        raise InputError("growth probe needs a point; the scenario has none")
    key, tup = pairs[0]
    if tup.size != 1:
        raise InputError("growth probe needs a single-point tuple")
    a = tup.points[0]
    l_top = min(scenario.l_max, 6) if args.l_max is None else args.l_max
    ls = list(range(1, l_top + 1))
    reports = []
    for text in args.poly:
        f = parse_poly(text, n, names=target_names(n),
                       aliases=target_aliases(n))
        report = taylor_growth_estimate(
            f, phi, a, ls, seed=scenario.seed,
        )
        for entry in report.entries:
            slope = "-" if entry.slope is None else f"{entry.slope:.3f}"
            tag = "certified" if entry.certified else "heuristic"
            print(f"mu probe {text} l={entry.l}: slope {slope},"
                  f" bounded={entry.bounded} ({tag})")
        for warning in report.warnings:
            print(f"  warning: {warning}")
        reports.append({
            "poly": text,
            "point": list(report.point),
            "image": list(report.image),
            "heuristic": report.heuristic,
            "entries": [
                {
                    "l": e.l,
                    "slope": e.slope,
                    "bounded": e.bounded,
                    "certified": e.certified,
                }
                for e in report.entries
            ],
            "warnings": list(report.warnings),
        })
    payload = {
        "verb": "mu",
        "scenario": scenario.name,
        "tuple": key,
        "probes": reports,
    }
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_product(args):
    scenario = _load(args)
    key, presentation = _probe_target(scenario, args.point)
    probe = product_order_probe(
        presentation, trials=args.trials, seed=scenario.seed,
        trunc=args.trunc,
    )
    print(f"product probe at tuple {key}: {len(probe.triples)} triples,"
          f" {probe.excluded} excluded as censored")
    if probe.envelope is not None:
        print(f"envelope: nu(FG) <= {probe.envelope.alpha}*(nu(F)+nu(G))"
              f" + {probe.envelope.beta}")
    payload = {
        "verb": "product",
        "scenario": scenario.name,
        "tuple": key,
        "trials": probe.trials,
        "seed": probe.seed,
        "trunc_degree": probe.trunc_degree,
        "excluded": probe.excluded,
        "triples": [list(t) for t in probe.triples],
        "envelope": None if probe.envelope is None else {
            "alpha": probe.envelope.alpha,
            "beta": probe.envelope.beta,
        },
    }
    _write_out(payload, args.out or scenario.out)
    return 0


def cmd_verify(args):
    scenario = _load(args)
    _check_k_budget(scenario)
    report = verify_consistency(scenario)
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"{mark} {check.name}: {check.detail}")
    payload = {
        "verb": "verify",
        "scenario": scenario.name,
        "all_passed": report.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    _write_out(payload, args.out or scenario.out)
    return 0 if report.all_passed else 4


def _add_common(sp):
    sp.add_argument("--scenario", required=True,
                    help="path to a scenario JSON file")
    sp.add_argument("--k-max", type=int, dest="k_max",
                    help="override the scenario's top jet degree k")
    sp.add_argument("--l-max", type=int, dest="l_max",
                    help="override the scenario's jet order budget")
    sp.add_argument("--window", type=int,
                    help="override the stabilization window")
    sp.add_argument("--seed", type=int,
                    help="override the scenario's random seed")
    sp.add_argument("--out", help="write canonical JSON to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chevkit",
        description="exact jet, staircase, and threshold computations"
                    " for polynomial maps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("jet", help="jet matrices, their rank and kernel")
    _add_common(sp)
    sp.add_argument("--point", help="restrict to one tuple key")
    sp.add_argument("--dump-matrix", action="store_true",
                    help="include matrix entries in the output")
    sp.set_defaults(func=cmd_jet)

    sp = sub.add_parser("diagram",
                        help="staircases of the supplied relation ideals")
    _add_common(sp)
    sp.add_argument("--point", help="restrict to one tuple key")
    sp.set_defaults(func=cmd_diagram)

    sp = sub.add_parser("chevalley",
                        help="threshold table over the scenario")
    _add_common(sp)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(func=cmd_chevalley)

    sp = sub.add_parser("fit",
                        help="fit a linear bound over the threshold table")
    _add_common(sp)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("nu", help="vanishing orders along the fibre")
    _add_common(sp)
    sp.add_argument("--point", help="tuple key to probe at")
    sp.add_argument("--poly", action="append", required=True,
                    help="target polynomial to probe (repeatable)")
    sp.add_argument("--trunc", type=int, default=8,
                    help="staircase truncation degree")
    sp.set_defaults(func=cmd_nu)

    sp = sub.add_parser("mu", help="numeric growth probe (floats)")
    _add_common(sp)
    sp.add_argument("--point", help="single-point tuple key to probe at")
    sp.add_argument("--poly", action="append", required=True,
                    help="target polynomial to probe (repeatable)")
    sp.set_defaults(func=cmd_mu)

    sp = sub.add_parser("product",
                        help="orders of random products along the fibre")
    _add_common(sp)
    sp.add_argument("--point", help="tuple key to probe at")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--trunc", type=int, default=8,
                    help="staircase truncation degree")
    sp.set_defaults(func=cmd_product)

    sp = sub.add_parser("verify",
                        help="cross-validate every route on one scenario")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


# built once: parse_args fills a fresh namespace on every call
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (RelationsMismatchError, ConsistencyError) as exc:
        print(f"certified check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
