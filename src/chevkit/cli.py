"""Command line front end.

Verbs: jet, diagram, chevalley, fit, nu, mu, product, verify.  Every verb
reads a scenario file and takes only the scenario overrides it reads (an
override it does not read exits 2 with the verb's own usage); results go to
stdout as text.  A verb returns its exit code and payload, and main alone
loads the scenario, writes the payload with --out (or the scenario's own
"out") as a canonical JSON file: sorted keys, two-space indent, rationals
as "p/q" strings, censored values as {"at_least": n}, trailing newline, no
timestamps, so identical inputs produce byte-identical output.

Exit codes, picked by main: 0 success, 2 malformed input (an output path
that cannot be written included), 3 the run produced only inconclusive
results, 4 a certified cross-check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .censored import AtLeast, is_censored
from .chevalley import HEURISTIC, INCONCLUSIVE, LEAF_TRIALS, ChevalleyEngine
from .errors import ConsistencyError, InputError, RelationsMismatchError
from .experiments import (
    composite_order_probe,
    fit_linear_bound,
    product_order_probe,
    residual_order_probe,
    run_table,
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
from .staircase import diagram_from_generators


def canonical_json(payload):
    """payload as canonical JSON text, written in one recursive pass: what
    json.dumps(..., sort_keys=True, indent=2) writes once Fractions are
    "p/q" strings, AtLeast values {"at_least": n}, tuples lists and dict
    keys str(k) (a later duplicate winning), plus a trailing newline.
    Strings are ASCII-escaped as the stdlib escapes them; a scalar of no
    other kind, such as a float, is spelled by json.dumps."""
    parts = []
    append = parts.append

    def write(value, newline):
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, Fraction):
            append(encode_basestring_ascii(str(value)))
        elif isinstance(value, AtLeast):
            write({"at_least": value.bound}, newline)
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in sorted({str(k): v
                                     for k, v in value.items()}.items()):
                append(sep + encode_basestring_ascii(key) + ": ")
                write(item, inner)
                sep = "," + inner
            append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(newline + "]")
        else:
            append(json.dumps(value))

    write(payload, "\n")
    append("\n")
    return "".join(parts)


def _fmt_columns(rows):
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in rows]


def _load(args):
    """The scenario file with the overrides the verb declares applied."""
    scenario = load_scenario(args.scenario)
    given = vars(args)
    changes = {}
    if given.get("l_max") is not None:
        if args.l_max < 0:
            raise InputError("--l-max must be >= 0")
        changes["l_max"] = args.l_max
    if given.get("k_max") is not None:
        if args.k_max < 0:
            raise InputError("--k-max must be >= 0")
        k_min, _ = scenario.k_range
        changes["k_range"] = (min(k_min, args.k_max), args.k_max)
    if given.get("window") is not None:
        if args.window < 1:
            raise InputError("--window must be >= 1")
        changes["window"] = args.window
    if given.get("seed") is not None:
        changes["seed"] = args.seed
    scenario = replace(scenario, **changes)
    if "k_max" in given and scenario.k_range[1] > scenario.l_max:
        raise InputError(
            f"k_max={scenario.k_range[1]} exceeds l_max={scenario.l_max}"
        )
    return scenario


def _select(scenario, key_arg):
    pairs = scenario_tuples(scenario)
    if key_arg is None:
        return pairs
    for key, tup in pairs:
        if key == key_arg:
            return [(key, tup)]
    available = ", ".join(key for key, _ in pairs)
    raise InputError(f"no tuple with key {key_arg!r}; available: {available}")


def _relation_targets(scenario, point):
    """(key, engine) of each tuple a relation verb reads: the one named by
    point, or else every tuple with relation generators, its engine built,
    and so its generators validated against the map, as it is reached."""
    found = False
    for key, tup in _select(scenario, point):
        rel = relations_for(scenario, key)
        if rel is None:
            if point is not None:
                raise InputError(
                    f"tuple {key} has no relation generators in the scenario"
                )
            continue
        found = True
        yield key, ChevalleyEngine(scenario.phi, tup, relations=rel,
                                   l_max=scenario.l_max,
                                   window=scenario.window)
    if not found:
        raise InputError("scenario supplies no relation generators")


def _target_polys(args, scenario):
    """The --poly texts, parsed in the map's target coordinates."""
    n = scenario.phi.target_arity
    return [parse_poly(text, n, names=target_names(n),
                       aliases=target_aliases(n))
            for text in args.poly]


_COLUMNS = ("map", "tuple", "k", "l", "H", "status", "l_stab")


def _entry_values(e):
    """A row's column values; l_stab is its uncensored l_value, None on a
    HEURISTIC or censored row."""
    stab = (None if e.status == HEURISTIC or is_censored(e.l_value)
            else e.l_value)
    return (e.map_name, e.tuple_id, e.k, e.l_value, e.h_value, e.status,
            stab)


def _entry_rows(entries):
    return [dict(zip(_COLUMNS, _entry_values(e))) for e in entries]


def _write_text(path, text):
    """Write text to path as UTF-8, newlines as given; a path that cannot
    be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(
            f"cannot write {path}: {exc.strerror or exc}") from None


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
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(_entry_values(e) for e in entries)
        _write_text(csv_path, text.getvalue())


def _table_payload(scenario, entries):
    """The JSON fields chevalley and fit share."""
    return {
        "k_range": list(scenario.k_range),
        "l_max": scenario.l_max,
        "window": scenario.window,
        "seed": scenario.seed,
        "entries": _entry_rows(entries),
    }


def cmd_chevalley(args, scenario):
    run = run_table(scenario)
    print(f"{scenario.name}: thresholds with l_max={scenario.l_max},"
          f" window={scenario.window}")
    _emit_table(run.entries, args.csv)
    for sample in run.leaf_samples:
        print(f"leaf {sample.leaf_name} k={sample.k}:"
              f" generic l={sample.l_generic}"
              f" over {len(sample.samples)} samples"
              + (" [rank profile mismatch]" if sample.mismatch else ""))
    payload = _table_payload(scenario, run.entries)
    payload["leaf_samples"] = [
        {
            "leaf": s.leaf_name,
            "k": s.k,
            "l_generic": s.l_generic,
            "mismatch": s.mismatch,
            "status": HEURISTIC,
            "trials": LEAF_TRIALS,
            "rank_profile": {str(l): d for l, d in s.rank_profile.items()},
        }
        for s in run.leaf_samples
    ]
    if run.entries and all(e.status == INCONCLUSIVE for e in run.entries):
        print("all rows inconclusive; raise l_max or supply relations")
        return 3, payload
    return 0, payload


def cmd_fit(args, scenario):
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
        return 3, None
    bound = fit_linear_bound(run.entries)
    print(f"fitted bound: l <= {bound.alpha}*k + {bound.beta}")
    print("witnesses: " + ", ".join(
        f"(k={k}, l={l})" for k, l in bound.witnesses
    ))
    payload = _table_payload(scenario, run.entries)
    payload.update(alpha=bound.alpha, beta=bound.beta,
                   witnesses=[list(w) for w in bound.witnesses])
    return 0, payload


def cmd_jet(args, scenario):
    phi = scenario.phi
    l = scenario.l_max
    reports = []
    for key, tup in _select(scenario, args.point):
        jm = jet_matrix(phi, tup, l)
        rank, kernel = jm.integer_matrix(l).rank_kernel()
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
        "l": l,
        "jets": reports,
    }
    return 0, payload


def cmd_diagram(args, scenario):
    names = target_names(scenario.phi.target_arity)
    trunc = scenario.l_max
    reports = []
    for key, engine in _relation_targets(scenario, args.point):
        presentation = engine.presentation
        diagram = diagram_from_generators(
            presentation, max(trunc, presentation.generator_degree)
        )
        info = diagram.to_dict(names)
        info["tuple"] = key
        info["center"] = list(presentation.center)
        reports.append(info)
        verts = ", ".join(str(tuple(v)) for v in diagram.vertices) or "none"
        print(f"tuple {key}: staircase vertices {verts}"
              f" (exact through degree {diagram.trunc_degree},"
              f" provisional={diagram.provisional})")
    payload = {
        "diagrams": reports,
    }
    return 0, payload


def cmd_nu(args, scenario):
    names = target_names(scenario.phi.target_arity)
    key, engine = next(_relation_targets(scenario, args.point))
    orders = residual_order_probe(engine.presentation,
                                  _target_polys(args, scenario),
                                  trunc=args.trunc)
    entries = []
    for text, entry in zip(args.poly, orders):
        nf_text = format_poly(entry.normal_form, names)
        print(f"nu({text}) = {entry.value}"
              f"  normal form: {nf_text}")
        entries.append({
            "poly": text,
            "value": entry.value,
            "normal_form": nf_text,
        })
    payload = {
        "tuple": key,
        "center": list(engine.presentation.center),
        "trunc_degree": args.trunc,
        "entries": entries,
    }
    return 0, payload


def cmd_mu(args, scenario):
    key, engine = next(_relation_targets(scenario, args.point))
    probes = composite_order_probe(engine, _target_polys(args, scenario),
                                   scenario.k_range)
    entries = []
    for text, probe in zip(args.poly, probes):
        row = probe.row
        l_value = status = law = None
        if row is not None:
            l_value, status = row.l_value, row.status
            if not is_censored(l_value):
                # the law: ord(f∘phi) <= l(a, nu(f)); a zero composite has
                # no finite order, so it breaks the law
                law = probe.order is not None and probe.order <= l_value
        print(f"mu({text}): nu = {probe.nu},"
              f" ord = {'-' if probe.order is None else probe.order},"
              f" l = {'-' if row is None else f'{l_value} ({status})'},"
              " law " + ("does not apply" if law is None
                         else "holds" if law else "fails"))
        entries.append({
            "poly": text,
            "nu": probe.nu,
            "ord": probe.order,
            "l": l_value,
            "status": status,
            "law": law,
        })
    payload = {
        "tuple": key,
        "center": list(engine.tup.image),
        "k_range": list(scenario.k_range),
        "entries": entries,
    }
    return (4 if any(e["law"] is False for e in entries) else 0), payload


def cmd_product(args, scenario):
    key, engine = next(_relation_targets(scenario, args.point))
    probe = product_order_probe(
        engine.presentation, trials=args.trials, seed=scenario.seed,
        trunc=args.trunc,
    )
    print(f"product probe at tuple {key}: {len(probe.triples)} triples,"
          f" {probe.excluded} excluded as censored")
    if probe.envelope is not None:
        print(f"envelope: nu(FG) <= {probe.envelope.alpha}*(nu(F)+nu(G))"
              f" + {probe.envelope.beta}")
    payload = {
        "tuple": key,
        "trials": args.trials,
        "seed": scenario.seed,
        "trunc_degree": args.trunc,
        "excluded": probe.excluded,
        "triples": [list(t) for t in probe.triples],
        "envelope": None if probe.envelope is None else {
            "alpha": probe.envelope.alpha,
            "beta": probe.envelope.beta,
        },
    }
    return 0, payload


def cmd_verify(args, scenario):
    checks = verify_consistency(scenario)
    all_passed = all(c.passed for c in checks)
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"{mark} {check.name}: {check.detail}")
    payload = {
        "all_passed": all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
    }
    return (0 if all_passed else 4), payload


_OVERRIDES = {
    "--k-max": "override the scenario's top jet degree k",
    "--l-max": "override the scenario's jet order budget",
    "--window": "override the stabilization window",
    "--seed": "override the scenario's random seed",
}


def _add_common(sp, *overrides):
    """--scenario, --out, and the scenario overrides this verb reads; the
    verb's parser is kept to report what it does not read."""
    sp.set_defaults(parser=sp)
    sp.add_argument("--scenario", required=True,
                    help="path to a scenario JSON file")
    for flag in overrides:
        sp.add_argument(flag, type=int, help=_OVERRIDES[flag])
    sp.add_argument("--out", help="write canonical JSON to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chevkit",
        description="exact jet, staircase, and threshold computations"
                    " for polynomial maps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("jet", help="jet matrices, their rank and kernel")
    _add_common(sp, "--l-max")
    sp.add_argument("--point", help="restrict to one tuple key;"
                    " write --point=KEY, as a key may start with -")
    sp.add_argument("--dump-matrix", action="store_true",
                    help="include matrix entries in the output")
    sp.set_defaults(func=cmd_jet)

    sp = sub.add_parser("diagram",
                        help="staircases of the supplied relation ideals")
    _add_common(sp, "--l-max")
    sp.add_argument("--point", help="restrict to one tuple key;"
                    " write --point=KEY, as a key may start with -")
    sp.set_defaults(func=cmd_diagram)

    sp = sub.add_parser("chevalley",
                        help="threshold table over the scenario")
    _add_common(sp, *_OVERRIDES)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(func=cmd_chevalley)

    sp = sub.add_parser("fit",
                        help="fit a linear bound over the threshold table")
    _add_common(sp, *_OVERRIDES)
    sp.add_argument("--csv", help="also write the table as CSV")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("nu", help="vanishing orders along the fibre")
    _add_common(sp)
    sp.add_argument("--point", help="tuple key to probe at;"
                    " write --point=KEY, as a key may start with -")
    sp.add_argument("--poly", action="append", required=True,
                    help="target polynomial to probe (repeatable)")
    sp.add_argument("--trunc", type=int, default=8,
                    help="staircase truncation degree")
    sp.set_defaults(func=cmd_nu)

    sp = sub.add_parser("mu", help="composite orders against the threshold"
                        " table: ord(f o phi) <= l(a, nu(f))")
    _add_common(sp, "--l-max")
    sp.add_argument("--point", help="tuple key to probe at;"
                    " write --point=KEY, as a key may start with -")
    sp.add_argument("--poly", action="append", required=True,
                    help="target polynomial to probe (repeatable)")
    sp.set_defaults(func=cmd_mu)

    sp = sub.add_parser("product",
                        help="orders of random products along the fibre")
    _add_common(sp, "--seed")
    sp.add_argument("--point", help="tuple key to probe at;"
                    " write --point=KEY, as a key may start with -")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--trunc", type=int, default=8,
                    help="staircase truncation degree")
    sp.set_defaults(func=cmd_product)

    sp = sub.add_parser("verify",
                        help="cross-validate every route on one scenario")
    _add_common(sp, *_OVERRIDES)
    sp.set_defaults(func=cmd_verify)

    return parser


# built once: parse_args fills a fresh namespace on every call
_PARSER = build_parser()


def _fold_poly_run(argv):
    """(argv, values): a run of two or more `--poly VALUE` pairs cut to its
    first pair, and the run's values in order; (argv, None) wherever
    argparse's reading of the run is not certain.  Argparse scans for the
    next option once per option, so a long run is quadratic to parse; it
    reads each pair of such a run alone, so cutting the later pairs
    changes nothing around it.  The run must be every --poly of a nu or mu
    argv with no "--" and no other token opening with --pol (an
    abbreviation or --poly=V), and no value may read as an option (one
    opening with "- " cannot)."""
    if argv[:1] not in (["nu"], ["mu"]) or "--" in argv:
        return argv, None
    flags = [i for i, token in enumerate(argv) if token.startswith("--pol")]
    if len(flags) < 2:
        return argv, None
    first, end = flags[0], flags[0] + 2 * len(flags)
    values = argv[first + 1:end:2]
    if (len(values) < len(flags) or flags != list(range(first, end, 2))
            or any(argv[i] != "--poly" for i in flags)
            or any(v[:1] == "-" and v[:2] != "- " for v in values)):
        return argv, None
    return argv[:first + 2] + argv[end:], values


def _parse(argv):
    """_PARSER.parse_known_args(argv), with a run of --poly flags read in
    one step; argv None reads sys.argv[1:]."""
    argv = sys.argv[1:] if argv is None else list(argv)
    argv, polys = _fold_poly_run(argv)
    args, unread = _PARSER.parse_known_args(argv)
    if polys is not None:
        args.poly = polys
    return args, unread


def main(argv=None):
    args, unread = _parse(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        scenario = _load(args)
        code, payload = args.func(args, scenario)
        path = args.out or scenario.out
        if payload is not None and path:
            payload.update(verb=args.verb, scenario=scenario.name)
            _write_text(path, canonical_json(payload))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (RelationsMismatchError, ConsistencyError) as exc:
        print(f"certified check failed: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
