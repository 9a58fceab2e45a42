"""Command-line frontend.

Commands: gram, det, verify, irred, twisted, snf, invariants, report, table.
Each command, and each identity of verify, declares in its parser exactly
the options it reads, and a missing, foreign or mixed option exits 2 before
any work.  verify's options follow the identity:
`gcart verify conjcheck --p 2 --r 1 --dmax 4`.  Two rules the parser cannot
state stay in their commands: gram --blocks takes --ell, not --diagram, and
invariants takes --p and --r, or --ell.

Every command takes --format, which offers only what the command renders:
json, csv and latex for gram, det, twisted and table; json and csv for
verify, irred and invariants; json alone for snf and report.  The commands
that build a Gram matrix, gram, det (with --check) and report, refuse one of
more than --limit N rows (default 2000) unless given --force, and so do they
for an [X] of more than --limit rows, det with or without --check; no other
command takes either flag.  Each makes one call to _size_guard, which counts
both before building anything: gram --blocks N sizes its block sum as
|CRP_ell(N)|, without enumerating a partition, and a weight --d over --limit
is refused uncounted, since u(m, d) >= d for m, d >= 1, as is a rank
--blocks N >= 10 over --limit, since |CRP_ell(N)| >= N there.

Matrix JSON has one shape: `gram` writes "entries" as a list of rows of
Laurent polynomials (LaurentPoly.to_json), and `snf --input` reads that key
for --ring qlaurent and zlaurent, and "rows", a list of integer rows, for
--ring zint.  snf's status is VERIFIED when every check of its invariants
holds, FAILED (exit 1) when one does not, and INCONCLUSIVE when zlaurent's
diagonalizer stops without a diagonal; snf.multiset_equal_up_to_units
judges each check that compares invariant multisets.

Exit codes, all decided in `main`:
  0  success
  1  verification failure: a computed result disagrees with its check
  2  usage error: bad arguments or input
  3  internal error: any other exception, such as a broken invariant of the
     computation (an inexact division, an inconsistent intermediate result)
     or an exhausted recursion limit; stderr gets one line
     "internal error: <type>: <message>" and no traceback
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import re
import sys

from . import __version__
from . import invariants as inv
from . import partitions as pt
from . import qcartan as qc
from . import snf as snf_mod
from .gram import block_sum, gram_det, gram_matrix, schur_orthonormality
from .linalg import int_det, laurent_det
from .qlaurent import LaurentPoly, quantum_int


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def poly_latex(p: LaurentPoly) -> str:
    """Render a Laurent polynomial, recognizing quantum brackets [n]_s."""
    n = len(p)
    if n >= 2 and p.max_exp % (n - 1) == 0:
        s = p.max_exp // (n - 1)
        if s >= 1 and p == quantum_int(n, s):
            return f"[{n}]" if s == 1 else f"[{n}]_{{{s}}}"
    # str(p) in LaTeX: no `*`, and braces around each exponent
    return re.sub(r"\^(-?\d+)", r"^{\1}", str(p).replace("*", ""))


def _entry_str(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    return " + ".join(f"{c}*v^{e}" for e, c in sorted(p.terms.items(), reverse=True))


def _matrix_csv(out, index, entries) -> None:
    import csv as _csv

    w = _csv.writer(out, lineterminator="\n")
    w.writerow(["index"] + [_cp_str(cp) for cp in index])
    for cp, row in zip(index, entries):
        w.writerow([_cp_str(cp)] + [_entry_str(e) for e in row])


def _cp_str(cp) -> str:
    if not cp:
        return "()"
    return " ".join(f"{s}.{c}" for s, c in cp)


def _matrix_latex(out, entries) -> None:
    out.write("\\begin{pmatrix}\n")
    for row in entries:
        out.write(" & ".join(poly_latex(e) for e in row) + " \\\\\n")
    out.write("\\end{pmatrix}\n")


def _emit(args, payload: dict, csv_fn=None, latex_fn=None) -> str:
    """The output text in args.format; the parser offers a command only the
    formats it passes a renderer for."""
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    {"csv": csv_fn, "latex": latex_fn}[args.format](buf)
    return buf.getvalue()


def _checked(text: str, ok: bool) -> str:
    """A command's output text, raised as a VerificationFailure (exit 1) when
    its check failed."""
    if not ok:
        raise VerificationFailure(text)
    return text


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _label(kind: type, name: str):
    """The type= converter of a --diagram that must name a `name` diagram,
    one of `kind`: the label as given, which verify folding echoes in its
    params, or argparse's usage error."""

    def convert(text: str) -> str:
        try:
            dg = qc.parse_diagram(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not isinstance(dg, kind):
            raise argparse.ArgumentTypeError(f"{text} is not a {name} diagram label")
        return text

    return convert


FINITE, TWISTED = _label(qc.DynkinDiagram, "finite"), _label(qc.TwistedDiagram, "twisted")


def _finite_diagram(args) -> tuple[qc.DynkinDiagram, str]:
    """The finite diagram of --diagram, else A_{ell-1} for --ell, and its
    label in outputs: the diagram's own, or "ell=N"."""
    if args.diagram is None:
        return qc.type_a(args.ell), f"ell={args.ell}"
    dg = qc.parse_diagram(args.diagram)
    return dg, dg.label()


def _dimension(args, m: int) -> int | None:
    """u(m, d) at d = --d, the size of a weight-d matrix on m nodes, counted
    in O(d^2) big-int steps; d < 0 is refused here, before u_count would
    refuse it with its own message.  None, uncounted, for a d over --limit
    on m >= 1 nodes without --force: u(m, d) >= d there, so the size guard
    refuses it as it stands."""
    if args.d < 0:
        raise ValueError("d must be nonnegative")
    if m >= 1 and args.d > args.limit and not args.force:
        return None
    return pt.u_count(m, args.d)


def _block_rows(args) -> int | None:
    """|CRP_ell(N)| at N = --blocks, the rows of the block sum, counted in
    O(N^2) big-int steps.  None, uncounted, for N >= 10 over --limit without
    --force (and ell >= 2, which the count checks): the partitions of N into
    distinct parts are ell-regular for every ell >= 2, and there are q(N) >= N
    of them once N >= 10 (q(10) = 10, and q is nondecreasing), so the size
    guard refuses N rows as they stand.  Below 10 the bound fails:
    |CRP_2(9)| = 8."""
    n = args.blocks
    if args.ell >= 2 and n >= 10 and n > args.limit and not args.force:
        return None
    return pt.class_regular_count(n, args.ell)


# a count below 2^_TEXT_BITS has at most 4300 digits, as many as CPython
# writes as text by default; the size guard words a larger one by its bits
_TEXT_BITS = 14284


def _size_guard(args, nodes: int, rows: int | None) -> None:
    """The one refusal by size, made before a command builds anything: [X]
    has `nodes` rows and the Gram matrix or block sum `rows`, and the larger
    may not exceed --limit unless --force.  Rows of None are those left
    uncounted: at least d for a weight-d Gram matrix (_dimension), at least
    N for the block sum of rank N (_block_rows)."""
    n = max(nodes, rows if rows is not None else args.d if args.d is not None else args.blocks)
    if n > args.limit and not args.force:
        bits = n.bit_length()
        if bits > _TEXT_BITS:
            size = f"have 2^{bits - 1} rows or more, over --limit"
        elif rows is None:
            size = f"have {n} rows or more, over --limit"
        else:
            size = f"be {n} x {n}"
        raise ValueError(f"matrix would {size} (> {args.limit}); pass --force to proceed")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gram(args) -> str:
    if args.blocks is not None:
        if args.diagram is not None:
            raise ValueError("--blocks sums the blocks of --ell; it takes no --diagram")
        # the block sum has |CRP_ell(N)| rows, counted without walking Par(N)
        _size_guard(args, args.ell - 1, _block_rows(args))
        bs = block_sum(args.blocks, args.ell)
        payload, idx, mat = bs.to_json(), [cp for _, g in bs.blocks for cp in g.index], bs.matrix()
    else:
        dg, label = _finite_diagram(args)
        _size_guard(args, dg.nodes, _dimension(args, dg.nodes))
        g = gram_matrix(dg, args.d)
        payload, idx, mat = {**g.to_json(), "diagram": label}, g.index, g.entries
    return _emit(
        args,
        payload,
        csv_fn=lambda out: _matrix_csv(out, idx, mat),
        latex_fn=lambda out: _matrix_latex(out, mat),
    )


def _det_factored_parts(dg: qc.DynkinDiagram, d: int) -> list[dict]:
    parts = []
    for s in range(1, d + 1):
        n = qc.exponent_N(dg.nodes, d, s)
        if n:
            parts.append(
                {"s": s, "exponent": n, "det_factor": poly_latex(qc.det_quantized(dg, s))}
            )
    return parts


def _factored(parts: list[dict], power: str = "^{{{}}}") -> str:
    """The product of (det_factor)^exponent over parts, each power written
    by `power` (LaTeX braces by default), or "1" for none."""
    return " ".join(f"({p['det_factor']})" + power.format(p["exponent"]) for p in parts) or "1"


def cmd_det(args) -> str:
    dg, label = _finite_diagram(args)
    # the formula takes the determinant of [X], and --check builds the Gram matrix
    _size_guard(args, dg.nodes, _dimension(args, dg.nodes) if args.check else 0)
    formula = qc.shapovalov_det_formula(dg, args.d)
    payload = {
        "diagram": label,
        "d": args.d,
        "value": formula.to_json(),
        "factored": _det_factored_parts(dg, args.d),
    }
    ok = True
    if args.check:
        actual = gram_det(dg, args.d)
        ok = actual == formula
        payload["check"] = {"gram_det_equals_formula": ok}
        if not ok:
            payload["check"]["gram_det"] = actual.to_json()
            sys.stderr.write(
                f"determinant mismatch:\n  formula: {formula}\n  gram:    {actual}\n"
            )

    def latex_fn(out):
        out.write(_factored(payload["factored"]) + " = " + poly_latex(formula) + "\n")

    def csv_fn(out):
        out.write(_entry_str(formula) + "\n")

    return _checked(_emit(args, payload, csv_fn=csv_fn, latex_fn=latex_fn), ok)


def _verify_bunkaito(a) -> dict:
    rep = inv.bunkaito_decompose(a.p, a.r, a.d)
    return {"ok": rep.verified, "components": len(rep.components), "total": rep.total}


def _verify_nformula(a) -> dict:
    if a.pmax < 2 or a.dmax < 0:
        raise ValueError("nformula needs pmax >= 2 and dmax >= 0")
    pairs = ((p, d) for p in range(2, a.pmax + 1) for d in range(a.dmax + 1))
    return {"ok": all(qc.exponent_formulas_agree(p - 1, d) for p, d in pairs)}


def _verify_folding(a) -> dict:
    td = qc.parse_diagram(a.diagram)
    if a.tmax < 1:
        raise ValueError("tmax must be >= 1")
    return {"ok": all(qc.folding_det_check(td, t) for t in range(1, a.tmax + 1))}


# identity -> (the options it reads, all required, each an int but folding's
# --diagram; its check: args -> {"ok": bool, details})
VERIFY = {
    "conjcheck": (("p", "r", "dmax"), lambda a: {"ok": inv.verify_conjcheck(a.p, a.r, a.dmax)}),
    "tsaigo": (("p", "r", "d", "u"), lambda a: {"ok": inv.verify_tsaigo(a.p, a.r, a.d, a.u)}),
    "saigo2": (("ell", "n"), lambda a: {"ok": inv.verify_saigo2(a.ell, a.n)}),
    "bhmulti": (("ell", "n"), lambda a: {"ok": inv.verify_bhmulti(a.ell, a.n)}),
    "conjequiv": (("p", "r", "n"), lambda a: {"ok": inv.verify_conjequiv(a.p, a.r, a.n)}),
    "bunkaito": (("p", "r", "d"), _verify_bunkaito),
    "schur-orth": (("nmax",), lambda a: {"ok": schur_orthonormality(a.nmax)}),
    "nformula": (("pmax", "dmax"), _verify_nformula),
    "folding": (("diagram", "tmax"), _verify_folding),
}


def cmd_verify(args) -> str:
    name = args.identity
    params, check = VERIFY[name]
    payload = {"identity": name, "params": {k: getattr(args, k) for k in params}, **check(args)}
    ok = payload["ok"]
    return _checked(_emit(args, payload, csv_fn=lambda out: out.write(f"{name},{ok}\n")), ok)


def cmd_irred(args) -> str:
    dg, _ = _finite_diagram(args)
    # both reports the closed form and cross-checks it against the exact test
    value = qc.irreducible_at(dg, args.ell, "exact" if args.mode == "exact" else "closed_form")
    payload = {"diagram": dg.label(), "ell": args.ell, "irreducible": value, "mode": args.mode}
    ok = True
    if args.mode == "both":
        exact = qc.irreducible_at(dg, args.ell, "exact")
        payload["modes"] = {"closed_form": value, "exact": exact}
        ok = exact == value
    text = _emit(args, payload, csv_fn=lambda out: out.write(f"{dg.label()},{args.ell},{value}\n"))
    return _checked(text, ok)


def cmd_twisted(args) -> str:
    td = qc.parse_diagram(args.diagram)
    value = qc.twisted_det_formula(td, args.d)
    payload = {
        "status": "CONJECTURAL",
        "diagram": str(td),
        "epsilon": td.epsilon,
        "d": args.d,
        "value": value.to_json(),
        "pretty": poly_latex(value),
    }
    if args.format != "json":
        sys.stderr.write("# CONJECTURAL: evaluated from an unproven closed formula\n")
    return _emit(
        args,
        payload,
        csv_fn=lambda out: out.write(_entry_str(value) + "\n"),
        latex_fn=lambda out: out.write(poly_latex(value) + "\n"),
    )


def _int_entry(x) -> int:
    if type(x) is not int:  # JSON true and 2.7 are not integers
        raise ValueError(f"not an integer: {x!r}")
    return x


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's pairs as a dict; a repeated key raises ValueError,
    where json.load would keep the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("a JSON object gives one key twice")
    return obj


def _read_matrix(path: str, ring: str):
    """The square matrix --ring `ring` works on, from a JSON object: its
    "rows", a list of integer rows, for zint; its "entries", a list of rows
    of Laurent polynomials as LaurentPoly.to_json writes them, for qlaurent
    and zlaurent.  `gcart gram` writes "entries" in that shape.  Anything
    else, or an unreadable file, is a usage error."""
    key, parse = ("rows", _int_entry) if ring == "zint" else ("entries", LaurentPoly.from_json)
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read a matrix from {path}: {exc}") from None
    rows = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(rows, list) or any(
        not isinstance(r, list) or len(r) != len(rows) for r in rows
    ):
        raise ValueError(f"--ring {ring} reads '{key}', a square list of rows")
    try:
        return [[parse(x) for x in row] for row in rows]
    except ValueError as exc:
        raise ValueError(f"bad matrix entry: {exc}") from None


def cmd_snf(args) -> str:
    m = _read_matrix(args.input, args.ring)
    same = snf_mod.multiset_equal_up_to_units
    if args.ring == "zint":
        # one Bareiss |det| serves both the route and the product check
        det_abs = abs(int_det(m))
        ms = snf_mod.snf_int(m, det_abs)
        checks = {
            "product_equals_abs_det": math.prod(ms.elements) == det_abs,
            # invariants in Smith form are their own Smith form
            "divisibility_chain": same(snf_mod.snf_int_diagonal(ms.elements), ms),
        }
    elif args.ring == "qlaurent":
        ms = snf_mod.snf_laurent_field(m)
        prod = math.prod(ms.elements, start=LaurentPoly.const(1))
        polys = snf_mod.InvariantMultiset.polys
        checks = {"product_matches_det_up_to_unit": same(polys([prod]), polys([laurent_det(m)]))}
    else:
        res = snf_mod.try_diagonalize_zlaurent(m)
        ms = res.diagonal
        checks = {"elementary_steps": res.steps}
        if not res.success:
            checks["stopped"] = res.stopped
    ok = all(v for v in checks.values() if isinstance(v, bool))
    payload = {
        "matrix": args.input,
        "ring": args.ring,
        "invariants": [] if ms is None else ms.to_json()["elements"],
        "status": "INCONCLUSIVE" if ms is None else "VERIFIED" if ok else "FAILED",
        "checks": checks,
    }
    return _checked(_emit(args, payload), ok)


def _invariant_table(args) -> list[tuple]:
    """(provenance, params, function of (*params, partition)) for each
    invariant that the option set --p --r, or --ell, reports, in order."""
    if args.ell is None:
        pr, ell = (args.p, args.r), (args.p**args.r,)
        return [
            ("Hill", pr, inv.hill_invariant),
            ("GradedHill", pr, inv.graded_hill),
            ("KOR", ell, inv.kor_invariant),
            ("GradedKOR", pr, inv.graded_kor),
            ("ASY", ell, inv.asy_Q),
        ]
    ell = (args.ell,)
    return [
        ("KOR", ell, inv.kor_invariant),
        ("Hill", ell, inv.composite_hill),
        ("ASY", ell, inv.asy_Q),
    ]


def cmd_invariants(args) -> str:
    given = [f"--{k}" for k in ("p", "r", "ell") if getattr(args, k) is not None]
    if given not in (["--p", "--r"], ["--ell"]):
        raise ValueError(f"give --p and --r, or --ell; got {' '.join(given) or 'neither'}")
    lam = pt.partition(int(x) for x in args.partition.split(",") if x.strip())
    rows = [(prov, params, f(*params, lam)) for prov, params, f in _invariant_table(args)]
    payload = {
        "partition": list(lam),
        "invariants": [
            {
                "value": str(v) if isinstance(v, int) else v.to_json(),
                "provenance": prov,
                "params": list(params),
                "partition": list(lam),
            }
            for prov, params, v in rows
        ],
    }

    def csv_fn(out):
        for prov, _, v in rows:
            out.write(f"{prov},{v if isinstance(v, int) else _entry_str(v)}\n")

    return _emit(args, payload, csv_fn=csv_fn)


def cmd_report(args) -> str:
    # the size guard first: the report's primality test takes O(sqrt p)
    # steps, and a p or r that it refuses counts as ell = 1, with no rows.
    # [X] has p^r - 1 rows, formed only while r (bit length of p - 1) is at
    # most _TEXT_BITS; past that, 2^_TEXT_BITS, below p^r - 1, stands in and
    # sizes the refusal alone, since counting u(2^_TEXT_BITS, d) rows takes
    # O(d^2) products of numbers of d * _TEXT_BITS bits
    p, r = max(args.p, 1), max(args.r, 0)
    huge = r * (p.bit_length() - 1) > _TEXT_BITS
    nodes = 1 << _TEXT_BITS if huge else p**r - 1
    _size_guard(args, nodes, _dimension(args, 0 if huge else nodes))
    rep = inv.conjecture_report(args.p, args.r, args.d)
    return _checked(_emit(args, rep.to_json()), rep.ok)


def cmd_table(args) -> str:
    if args.dmax < 0:
        raise ValueError("dmax must be >= 0")
    dg, label = _finite_diagram(args)
    rows = []
    for d in range(args.dmax + 1):
        rows.append(
            {
                "d": d,
                "dimension": pt.u_count(dg.nodes, d),
                "determinant": _det_factored_parts(dg, d),
            }
        )
    payload = {"diagram": label, "rows": rows}

    def latex_fn(out):
        out.write("\\begin{tabular}{rrl}\n  $d$ & $\\dim$ & $\\det$ \\\\ \\hline\n")
        for row in rows:
            det = _factored(row["determinant"])
            out.write(f"  {row['d']} & {row['dimension']} & ${det}$ \\\\\n")
        out.write("\\end{tabular}\n")

    def csv_fn(out):
        import csv as _csv

        w = _csv.writer(out, lineterminator="\n")
        w.writerow(["d", "dimension", "determinant"])
        for row in rows:
            w.writerow([row["d"], row["dimension"], _factored(row["determinant"], "^{}")])

    return _emit(args, payload, csv_fn=csv_fn, latex_fn=latex_fn)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcart",
        description="Exact graded Cartan matrices, determinants and invariants "
        "of symmetric-group and Iwahori-Hecke blocks.",
    )
    ap.add_argument("--version", action="version", version=f"gcart {__version__}")
    # full option names only: a prefix (--d of irred's --diagram) is refused, not expanded
    full_names = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=full_names)

    def common(p, formats, guard=False):
        p.add_argument("--format", choices=formats, default="json")
        if guard:
            p.add_argument("--force", action="store_true")
            p.add_argument("--limit", type=int, default=2000, help="matrix size guard")

    every, no_latex = ["json", "csv", "latex"], ["json", "csv"]

    def diagram_or_ell(p):
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--diagram", type=FINITE)
        one.add_argument("--ell", type=int)

    g = sub.add_parser("gram", help="graded Cartan / Gram matrices")
    diagram_or_ell(g)
    one = g.add_mutually_exclusive_group(required=True)
    one.add_argument("--d", type=int)
    one.add_argument("--blocks", type=int, metavar="N", help="direct sum over blocks of rank N")
    common(g, every, guard=True)
    g.set_defaults(fn=cmd_gram)

    d = sub.add_parser("det", help="graded Cartan determinants")
    diagram_or_ell(d)
    d.add_argument("--d", type=int, required=True)
    d.add_argument("--check", action="store_true", help="cross-check against the Gram matrix")
    common(d, every, guard=True)
    d.set_defaults(fn=cmd_det)

    v = sub.add_parser("verify", help="verify a supported identity")
    identities = v.add_subparsers(dest="identity", required=True, parser_class=full_names)
    for name, (params, _) in VERIFY.items():
        vi = identities.add_parser(name)
        for k in params:
            vi.add_argument(f"--{k}", type=TWISTED if k == "diagram" else int, required=True)
        common(vi, no_latex)
        vi.set_defaults(fn=cmd_verify)

    i = sub.add_parser("irred", help="irreducibility of the specialized basic module")
    i.add_argument("--diagram", type=FINITE)
    i.add_argument("--ell", type=int, required=True)
    i.add_argument("--mode", choices=["closed_form", "exact", "both"], default="both")
    common(i, no_latex)
    i.set_defaults(fn=cmd_irred)

    t = sub.add_parser("twisted", help="conjectured twisted determinants")
    t.add_argument("--diagram", type=TWISTED, required=True)
    t.add_argument("--d", type=int, required=True)
    common(t, every)
    t.set_defaults(fn=cmd_twisted)

    s = sub.add_parser("snf", help="invariant factors of a matrix from JSON")
    s.add_argument(
        "--input",
        required=True,
        help='JSON file: {"rows": integer rows} for zint, {"entries": rows of Laurent '
        "polynomials} for qlaurent and zlaurent, the shape `gcart gram` writes",
    )
    s.add_argument(
        "--ring",
        required=True,
        choices=["zint", "qlaurent", "zlaurent"],
        help="zint takes the local Smith form at the primes of |det| for a "
        "nonsingular matrix, dense elimination for a singular one; zlaurent runs a "
        "greedy diagonalizer.  Status VERIFIED, FAILED (exit 1) when a check fails, "
        "or, for zlaurent, INCONCLUSIVE with the reason it stopped (stalled, or its "
        "step cap)",
    )
    common(s, ["json"])
    s.set_defaults(fn=cmd_snf)

    q = sub.add_parser("invariants", help="closed-form invariants of a partition")
    q.add_argument("--p", type=int)
    q.add_argument("--r", type=int)
    q.add_argument("--ell", type=int)
    q.add_argument("--partition", required=True, help="comma-separated parts, e.g. 3,1,1")
    common(q, no_latex)
    q.set_defaults(fn=cmd_invariants)

    r = sub.add_parser("report", help="layered conjecture verification report")
    for k in ("p", "r", "d"):
        r.add_argument(f"--{k}", type=int, required=True)
    common(r, ["json"], guard=True)
    r.set_defaults(fn=cmd_report)

    tb = sub.add_parser("table", help="determinant table for a range of weights")
    diagram_or_ell(tb)
    tb.add_argument("--dmax", type=int, default=4)
    common(tb, every)
    tb.set_defaults(fn=cmd_table)

    return ap


def main(argv=None) -> int:
    """Run one command and decide its exit code: every exception that the
    command raises ends here."""
    args = build_parser().parse_args(argv)
    text, code = "", 0
    try:
        text = args.fn(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    except VerificationFailure as exc:
        text, code = str(exc), 1
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        code = 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
