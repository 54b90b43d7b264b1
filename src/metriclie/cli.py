"""Command-line front end.

Commands: validate, connection, curvature, ricci, classify, ann, decompose,
filtration, compare, isometry, catalog.  Inputs come from files (--input,
repeatable) and/or the built-in catalog (--catalog, repeatable); results are
emitted in that order, files first.  Only decompose, compare and isometry
search, and only they take --seed and --budget.  Machine output (--format
json) is deterministic: given the same inputs, seed, and budget the bytes
are identical, and every number is a rational string.

Exit codes: 0 success, 1 usage or input-format error, 2 precondition
failure (degenerate metric and similar), 3 certificate check failure.
Jacobi warnings go to stderr and never change the exit code.
"""

import argparse
import functools
import json
import random
import sys
from itertools import combinations, product

from .algebra import (
    MODE_BRACKET,
    connection_of,
    transform_spec,
    validate,
)
from .catalog import catalog_get, catalog_list
from .curvature import classify, curvature_tensor, ricci
from .decompose import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    Unsupported,
    build_strong_isometry,
    compare_decompositions,
    decompose,
    decomposition_from_factors,
    filtration,
    verify_decomposition,
)
from .errors import InputFormatError, MetricLieError, PreconditionError
from .fileformat import (format_ratio, load_path, serialize_document,
                         table_entries)
from .ideals import ann_report
from .linalg import Mat, congruent_diagonalize, row_space

COMMANDS = ("validate", "connection", "curvature", "ricci", "classify",
            "ann", "decompose", "filtration", "compare", "isometry")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_arg(text):
    return int(text, 0)


def _budget_arg(text):
    if _int_arg(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return _int_arg(text)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later `main` call in the process; argparse fills a fresh namespace on
    each parse, so calls share no option state."""
    parser = _Parser(prog="metriclie",
                     description="exact analysis of metric Lie algebras")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(p):
        p.add_argument("--input", action="append", default=[],
                       metavar="FILE", help="algebra file (repeatable)")
        p.add_argument("--catalog", action="append", default=[],
                       metavar="NAME", help="built-in entry (repeatable)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="FILE", default=None)

    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run {name}")
        add_common(p)
        if name in ("decompose", "compare", "isometry"):   # they search
            p.add_argument("--seed", type=_int_arg, default=DEFAULT_SEED)
            p.add_argument("--budget", type=_budget_arg,
                           default=DEFAULT_BUDGET)
        if name == "decompose":
            p.add_argument("--recheck", action="store_true",
                           help="re-verify the certificate from scratch")

    pc = sub.add_parser("catalog", help="list or show built-in entries")
    pc.add_argument("action", choices=("list", "show"))
    pc.add_argument("name", nargs="?", default=None)
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--output", metavar="FILE", default=None)
    return parser


# ---------------------------------------------------------------------------
# payload helpers (everything below builds plain str/int/bool/list/dict data)


def _mat(m):
    d, rows = m.image()
    return [[format_ratio(x, d) for x in r] for r in rows]


def _subspace(s):
    return {"dim": s.dim, "basis": _mat(s.basis)}


def _report_validate(rep):
    d = rep.jacobi_den
    failures = [{"triple": list(t), "defect": [format_ratio(x, d) for x in r]}
                for t, r in rep.jacobi_defects]
    return {
        "antisymmetry_ok": rep.antisymmetry_ok,
        "jacobi_ok": rep.jacobi_ok,
        "jacobi_failures": failures,
        "metric_symmetric_ok": rep.metric_symmetric_ok,
        "metric_nondegenerate_ok": rep.metric_nondegenerate_ok,
        "connection_ok": rep.connection_ok,
    }


def _report_connection(spec, args):
    conn = connection_of(spec)
    return {
        "derived": spec.mode == MODE_BRACKET,
        "entries": table_entries(spec.basis_names, conn.table,
                                 product(range(spec.dim), repeat=2)),
    }


def _report_curvature(spec, args):
    r = curvature_tensor(spec)
    n = spec.dim
    # the planes R(e_i,e_j) with i < j; R(e_j,e_i) is their negation
    triples = ((i, j, k) for i, j in combinations(range(n), 2)
               for k in range(n))
    return {"flat": r.is_zero(),
            "entries": table_entries(spec.basis_names, r.table, triples)}


def _report_ricci(spec, args):
    m = ricci(spec)
    return {"matrix": _mat(m), "nondegenerate": m.rank() == spec.dim}


def _report_classify(spec, args):
    rep = classify(spec)
    sig = congruent_diagonalize(spec.metric).signature
    return {
        "flat": rep.flat,
        "ricci_flat": rep.ricci_flat,
        "einstein": None if rep.einstein is None else format_ratio(
            rep.einstein.numerator, rep.einstein.denominator),
        "biinvariant": rep.biinvariant,
        "nilpotency_class": rep.nilpotency_class,
        "signature": list(sig),
        "killing": _mat(rep.killing),
    }


def _report_ann(spec, args):
    rep = ann_report(spec)
    return {
        "case": rep.case,
        "ann_r": _subspace(rep.ann_r),
        "ann": _subspace(rep.ann),
        "nabla_gg": _subspace(rep.nabla_gg),
        "ann_r_radical_dim": rep.ann_r_radical.dim,
        "isotropic": rep.isotropic,
        "ann_r_equals_ann": rep.ann_r_equals_ann,
    }


def _decomposition_payload(dec):
    cert = dec.certificate
    return {
        "case": dec.case,
        "orthogonal": dec.orthogonal,
        "note": dec.note,
        "factor_count": len(dec.factors),
        "factors": [_subspace(f) for f in dec.factors],
        "g0": None if dec.g0 is None else _subspace(dec.g0),
        "certificate": {
            "splitting_idempotents": [_mat(e)
                                      for e in cert.splitting_idempotents],
            "indecomposability_evidence": [
                {"kind": ev.kind, "detail": ev.detail}
                for ev in cert.indecomposability_evidence],
        },
    }


def _report_decompose(spec, args):
    dec = decompose(spec, seed=args.seed, budget=args.budget)
    payload = _decomposition_payload(dec)
    if getattr(args, "recheck", False):
        verify_decomposition(spec, dec)
        payload["recheck"] = "passed"
    return payload


def _report_filtration(spec, args):
    ch = filtration(spec)
    return {
        "chain": [_subspace(s) for s in ch.chain],
        "chain_dims": [s.dim for s in ch.chain],
        "h_blocks": [_subspace(s) for s in ch.h_blocks],
    }


def _random_basis_change(n, rng):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = Mat.from_image(1, rows, (n, n))
        if m.rank() == n:
            return m


def _decomposition_pair(spec, entry, args):
    """The canonical decomposition and an alternative decomposition to
    compare against: the catalog's alternative factors when the entry ships
    some, else the canonical decomposition recomputed after a seeded change
    of basis and mapped back to the original coordinates.  Returns
    (dec_a, dec_b, partner)."""
    dec_a = decompose(spec, seed=args.seed, budget=args.budget)
    if entry is not None and entry.alt_factors is not None:
        factors = list(entry.alt_subspaces("alt_factors"))
        g0 = dec_a.g0
        partner = "alt_factors"
    else:
        p = _random_basis_change(spec.dim, random.Random(args.seed))
        dec_t = decompose(transform_spec(spec, p), seed=args.seed,
                          budget=args.budget)
        factors = [row_space(f.basis @ p) for f in dec_t.factors]
        g0 = None if dec_t.g0 is None else row_space(dec_t.g0.basis @ p)
        partner = "basis_change"
    dec_b = decomposition_from_factors(spec, factors, g0, seed=args.seed,
                                       budget=args.budget)
    return dec_a, dec_b, partner


def _report_compare(spec, args, entry):
    dec_a, dec_b, partner = _decomposition_pair(spec, entry, args)
    rep = compare_decompositions(spec, dec_a, dec_b)
    return {
        "partner": partner,
        "matching": [list(p) for p in rep.matching],
        "matched_by": list(rep.matched_by),
        "dims_ok": rep.dims_ok,
        "nabla_spaces_ok": rep.nabla_spaces_ok,
        "cross_vanishing_ok": rep.cross_vanishing_ok,
        "strong_hom_ok": list(rep.strong_hom_ok),
        "isometric": list(rep.isometric),
        "orthogonal": list(rep.orthogonal),
        "g0_dims": None if rep.g0_dims is None else list(rep.g0_dims),
        "g0_ok": rep.g0_ok,
        "projections": [_mat(p) for p in rep.projections],
    }


def _report_isometry(spec, args, entry):
    dec_a, dec_b, partner = _decomposition_pair(spec, entry, args)
    result = build_strong_isometry(spec, dec_a, dec_b)
    if isinstance(result, Unsupported):
        return {"partner": partner, "status": "unsupported",
                "reason": result.reason}
    return {"partner": partner, "status": "isometry",
            "matrix": _mat(result)}


_REPORTERS = {
    "connection": _report_connection,
    "curvature": _report_curvature,
    "ricci": _report_ricci,
    "classify": _report_classify,
    "ann": _report_ann,
    "decompose": _report_decompose,
    "filtration": _report_filtration,
}


def _run_analysis(args):
    """(payload, exit code).  With several sources, one that fails, in
    loading or in analysis, becomes an error record, and the run goes on
    and exits with the highest code."""
    sources = [(path, True) for path in args.input] + \
        [(name, False) for name in args.catalog]
    if not sources:
        raise InputFormatError("no inputs: pass --input FILE or --catalog NAME")
    reports, code = [], 0
    for label, is_file in sources:
        try:
            entry = None if is_file else catalog_get(label)
            doc = load_path(label) if is_file else entry.load()
            spec = doc.spec
            vrep = validate(spec)
            if not vrep.jacobi_ok:
                print(f"warning: {label}: Jacobi identity fails on "
                      f"{len(vrep.jacobi_defects)} basis triple(s)",
                      file=sys.stderr)
            if args.command != "validate" and not vrep.metric_nondegenerate_ok:
                raise PreconditionError(f"{label}: metric is degenerate")
            if args.command == "validate":
                body = _report_validate(vrep)
            elif args.command in ("compare", "isometry"):
                body = {"compare": _report_compare, "isometry":
                        _report_isometry}[args.command](spec, args, entry)
            else:
                body = _REPORTERS[args.command](spec, args)
        except MetricLieError as exc:
            if len(sources) == 1:
                raise
            message = str(exc).removeprefix(f"{label}: ")
            print(f"error: {label}: {message}", file=sys.stderr)
            reports.append({"source": label, "error": message,
                            "exit_code": exc.exit_code})
            code = max(code, exc.exit_code)
            continue
        report = {"command": args.command, "source": label, "name": doc.name,
                  "dim": spec.dim, "mode": spec.mode}
        report.update(body)
        reports.append(report)
    return (reports[0] if len(reports) == 1 else {"results": reports}), code


def _run_catalog(args):
    if args.action == "list":
        entries = [catalog_get(name) for name in catalog_list()]
        return {"command": "catalog-list",
                "entries": [{"name": e.name, "file": e.file,
                             "description": e.description}
                            for e in entries]}
    if args.name is None:
        raise InputFormatError("catalog show needs an entry name")
    e = catalog_get(args.name)
    doc = e.load()
    return {"command": "catalog-show", "name": e.name, "file": e.file,
            "description": e.description, "expected": e.expected,
            "document": serialize_document(doc.name, doc.spec)}


# ---------------------------------------------------------------------------
# rendering


def _flat_value(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(_flat_value(x) for x in v) + "]"
    return str(v)


def _is_nested(v):
    if isinstance(v, dict):
        return True
    if isinstance(v, list):
        return any(isinstance(x, (dict, list)) for x in v)
    return False


def _text_walk(obj, prefix, lines):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if _is_nested(v) and v:
                lines.append(f"{prefix}{k}:")
                _text_walk(v, prefix + "  ", lines)
            else:
                lines.append(f"{prefix}{k}: {_flat_value(v)}")
    else:
        for item in obj:
            if _is_nested(item) and item:
                lines.append(f"{prefix}-")
                _text_walk(item, prefix + "  ", lines)
            else:
                lines.append(f"{prefix}- {_flat_value(item)}")


def render(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    _text_walk(payload, "", lines)
    return "\n".join(lines) + "\n"


def _emit(text, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            payload, code = _run_catalog(args), 0
        else:
            payload, code = _run_analysis(args)
        _emit(render(payload, args.format), args)
    except MetricLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:   # an unreadable input or an unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
