"""Command-line front end: one subcommand per analysis, text or JSON output.

Every subcommand assembles the same report object (command echo, inputs,
result payload, tool version, elapsed time) and either pretty-prints it or
writes it as JSON with sorted keys, so identical inputs produce
byte-identical reports apart from the elapsed-time field.  Integer arrays in
a report (map listings, quantum-core certificate lengths) are written
straight from their numpy rows, with the bytes ``json.dumps`` would give.

Exit codes: 0 = analysis completed (whatever the verdict), 1 = usage error,
2 = internal verification failure (a constructed object failed its own check),
141 = stdout was closed before the report was written (``qgadget ... | head``);
nothing is printed then.  141 is 128 + SIGPIPE, what a shell reports for a
writer that the closed pipe stopped.

Graph arguments accept a family descriptor (see graphs module) or @path to an
edge-list file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .graphs import Graph, _parse_int, _parse_pair, build_family, parse_graph, serialize_graph
from .walks import decide_bipartite_target, girths, is_bipartite, is_oracularisable
from .endo import (DEFAULT_MAX_VERTICES, ListingBoundExceeded, _all_bijective,
                   endomorphism_rows, enumerate_homomorphisms, find_schmidt_pair,
                   nogo_verdict)
from .qrep import VerificationFailure, compose_reps, rep_from_json, verify_rep
from .defect import (assignment_defect, cc_defect, commutator_defect, cv_defect,
                     pair_dist_from_json, strategy_from_json)
from .gadget import (GadgetCandidate, check_property_i_classical, complement_cycle_gadget,
                     disprove_box_path_gadget, product_transfer, splice_gadget, walk_obstruction)
from .qcore import PairLengths, classical_only_report, verify_quantum_core_certificate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_CLOSED_STDOUT = 141

# an integer array is written in blocks of rows of about this many bytes of
# text, so its temporaries stay a small multiple of the report
_BLOCK_BYTES = 1 << 18

# the most maps `homs` lists without --limit, unless --i-know lifts the bound
HOMS_MAX_MAPS = 2 ** 20


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; this tool reserves 2 for
    verification failures, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load_json(path: str, parse):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(json.load(fh))


def load_graph_arg(text: str) -> Graph:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return build_family(text)


def _default(obj):
    """``json.dumps`` hook for the types a report holds beyond plain JSON.

    Report dicts must have string keys: every ``to_json`` and ``cmd_*``
    writes them that way, and under ``sort_keys`` int keys would sort as
    numbers, not as the strings they are written as."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"cannot serialise {type(obj)} into a report")


def _dumps(obj) -> str:
    """obj as JSON with sorted keys, an infinite float written as "infinity"."""
    try:
        return json.dumps(obj, sort_keys=True, default=_default, allow_nan=False)
    except ValueError:
        # a non-finite float: json would write inf as Infinity, and reports
        # write "infinity", so only such subtrees take the recursive walk
        return json.dumps(_jsonable(obj), sort_keys=True)


def _int_json(values: np.ndarray, heads: Optional[np.ndarray] = None) -> list[str]:
    """The JSON text of a 2-D integer array, as str pieces: the list of its
    rows, or, given ``heads``, an object that maps each row's key to its
    one value.  Row i of the uint8 array ``heads`` holds key i's '"key": '
    padded with NUL bytes.

    The digits of each value come from a table built for this call, with
    ", " appended and NUL padding to one cell width.  A block of rows is
    gathered from the table into one buffer, between the row brackets or
    after the keys, and one ``bytes.translate`` deletes the padding.  The
    text equals ``json.dumps`` of the same rows as lists or dict."""
    if (values.ndim != 2 or values.dtype.kind not in "iu"
            or not np.can_cast(values.dtype, np.int64)):
        raise TypeError(f"cannot serialise a {values.ndim}-D {values.dtype} array "
                        f"into a report")
    count, n = values.shape
    if heads is None:
        opening, closing, heads, tail = "[", "]", np.frombuffer(b"[", dtype=np.uint8), b"], "
    else:
        opening, closing, tail = "{", "}", b", "
    if count == 0:
        return [opening + closing]
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    # the table spans the value range unless that is longer than the array
    distinct = None if hi - lo <= values.size else np.unique(values)
    texts = [str(v) for v in (range(lo, hi + 1) if distinct is None else distinct.tolist())]
    width = max(map(len, texts)) + 2
    cell = np.dtype((np.void, width))
    spaced = np.array([t + ", " for t in texts], dtype=f"S{width}").view(cell)
    last = np.array(texts, dtype=f"S{width}").view(cell)
    start, stop = heads.shape[-1], heads.shape[-1] + n * width
    row_bytes = stop + len(tail)
    step = max(1, _BLOCK_BYTES // row_bytes)
    pieces = [opening]
    for s in range(0, count, step):
        block = values[s:s + step]
        index = (np.subtract(block, lo, dtype=np.intp) if distinct is None
                 else np.searchsorted(distinct, block))
        buf = np.empty((len(block), row_bytes), dtype=np.uint8)
        buf[:, :start] = heads[s:s + step] if heads.ndim == 2 else heads
        cells = buf[:, start:stop].view(cell)
        # every index is in range; "clip" lets take write into the buffer unbuffered
        np.take(spaced, index, out=cells, mode="clip")
        if n:
            # a row's last value takes no ", "; its tail ends it
            cells[:, -1] = last[index[:, -1]]
        buf[:, stop:] = np.frombuffer(tail, dtype=np.uint8)
        pieces.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    # the last row's tail separates it from nothing
    pieces[-1] = pieces[-1][:-2]
    pieces.append(closing)
    return pieces


class _Path(dict):
    """A report dict with an integer array below it, through dicts only."""


# values _lower leaves as they are: JSON leaves, and lists, which it does
# not walk (an integer array in a list reaches _default and is refused)
_PLAIN = {str, int, float, bool, type(None), list, tuple}


def _lower(obj):
    """obj with each object on a path of dicts replaced by its ``to_json``,
    and each dict on such a path to an integer array made a _Path."""
    if type(obj) in _PLAIN or isinstance(obj, (np.ndarray, PairLengths)):
        return obj
    if hasattr(obj, "to_json"):
        return _lower(obj.to_json())
    if not isinstance(obj, dict):
        return obj
    lowered, path = {}, False
    for k, v in obj.items():
        if type(v) not in _PLAIN:
            v = _lower(v)
            path = path or isinstance(v, (_Path, np.ndarray, PairLengths))
        lowered[k] = v
    return _Path(lowered) if path else lowered


def _write(obj, pieces: list[str]) -> None:
    if isinstance(obj, np.ndarray):
        pieces += _int_json(obj)
    elif isinstance(obj, PairLengths):
        keys, lengths = obj.key_rows()
        pieces += _int_json(lengths, keys)
    elif isinstance(obj, _Path):
        sep = "{"
        for k in sorted(obj):
            pieces.append(f"{sep}{json.dumps(k)}: ")
            _write(obj[k], pieces)
            sep = ", "
        pieces.append("}")
    else:
        pieces.append(_dumps(obj))


def _json_pieces(obj) -> list[str]:
    """The JSON text of a report object as str pieces.  Integer arrays are
    written by _int_json, the dicts on the path to one key by key, and every
    other subtree by one json.dumps call."""
    pieces: list[str] = []
    _write(_lower(obj), pieces)
    return pieces


def _jsonable(obj):
    """Recursively convert report payloads to plain JSON types, writing an
    infinite float as "infinity"."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "infinity" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # plain ints (most elements of map lists) need no conversion; a bool
        # fails the exact type test and still goes through _jsonable
        return [v if type(v) is int else _jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    raise TypeError(f"cannot serialise {type(obj)} into a report")


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


class _StdoutClosed(Exception):
    """The reader of stdout went away before the report was written."""


def emit_report(args, inputs: dict, result: dict) -> None:
    report = {"command": args.command, "inputs": inputs, "result": result,
              "tool_version": __version__,
              "elapsed_seconds": round(time.monotonic() - args._t0, 6)}
    pieces = (_json_pieces(report) if args.json
              else ["\n".join(_render_text(_jsonable(report)))])
    pieces.append("\n")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _StdoutClosed from None


def _bound(args) -> int:
    if args.max_vertices != DEFAULT_MAX_VERTICES and not args.i_know:
        raise ValueError("raising the exhaustive-search bound requires --i-know "
                         "(the flag is echoed into the report)")
    return args.max_vertices


def _int(text: str) -> int:
    return _parse_int(text)


# the type of every integer argument; argparse's errors read "invalid int value: '1_0'"
_int.__name__ = "int"


def _add_bound_flags(p):
    p.add_argument("--max-vertices", type=_int, default=DEFAULT_MAX_VERTICES,
                   help=f"exhaustive-search size bound (default {DEFAULT_MAX_VERTICES})")
    p.add_argument("--i-know", action="store_true",
                   help="acknowledge that overriding the size bound can explode runtime")


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_analyze(args):
    g = load_graph_arg(args.graph)
    verdict = nogo_verdict(g, _bound(args))
    gr = girths(g)
    orac, cyc = is_oracularisable(g)
    result = {"graph": g, "verdict": verdict,
              "girths": {"girth": gr.girth, "odd_girth": gr.odd_girth,
                         "odd_walk_girth": gr.odd_walk_girth, "diameter": gr.diameter},
              "oracularisable": orac, "four_cycle": list(cyc) if cyc else None}
    emit_report(args, {"graph": args.graph, "max_vertices": args.max_vertices,
                       "i_know": args.i_know}, result)


def cmd_schmidt(args):
    g = load_graph_arg(args.graph)
    cert = find_schmidt_pair(g, oracular=args.oracular, max_vertices=_bound(args))
    emit_report(args, {"graph": args.graph, "oracular": args.oracular,
                       "max_vertices": args.max_vertices, "i_know": args.i_know},
                {"graph": g, "found": cert is not None, "certificate": cert})


def cmd_endos(args):
    if args.limit is not None and args.limit < 0:
        # a negative slice bound would silently drop maps from the end
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    g = load_graph_arg(args.graph)
    rows = endomorphism_rows(g, _bound(args))
    ident = np.arange(g.n, dtype=rows.dtype)
    maps = np.concatenate([ident[None], rows[(rows != ident).any(axis=1)]])
    if args.limit is not None:
        maps = maps[:args.limit]
    emit_report(args, {"graph": args.graph, "limit": args.limit,
                       "max_vertices": args.max_vertices, "i_know": args.i_know},
                {"graph": g, "count": len(rows), "is_core": _all_bijective(rows)
                 if args.limit is None else None, "endomorphisms": maps})


def cmd_homs(args):
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    h = load_graph_arg(args.source)
    g = load_graph_arg(args.target)
    pins = {}
    for item in args.pin or []:
        u, a = _parse_pair(item, "=", "--pin item")
        if pins.setdefault(u, a) != a:
            raise ValueError(f"vertex {u} is pinned to both {pins[u]} and {a}")
    try:
        rows = enumerate_homomorphisms(h, g, pins=pins, limit=args.limit or None,
                                       max_maps=None if args.i_know else HOMS_MAX_MAPS)
    except ListingBoundExceeded as exc:
        raise ValueError(f"{exc} (the bound of a full listing); pass --limit N for the "
                         f"first N maps, or --i-know to list them all") from None
    inputs = {"source": args.source, "target": args.target,
              "pins": {str(k): v for k, v in pins.items()}, "limit": args.limit}
    if args.i_know:
        # echoed only when given, so reports within the bound keep their bytes
        inputs["i_know"] = True
    emit_report(args, inputs, {"count": len(rows), "homomorphisms": rows})


def cmd_gadget_check(args):
    cand = GadgetCandidate(load_graph_arg(args.gadget), args.x, args.y,
                           load_graph_arg(args.target))
    table = check_property_i_classical(cand)
    obstruction = walk_obstruction(cand, args.lmax)
    if obstruction is not None:
        status = "refuted by walk obstruction"
    elif table.complete:
        status = ("property (i) holds with classical witnesses; commutation property "
                  "not decided by this check")
    else:
        status = ("no classical witness for some pins; inconclusive for quantum witnesses")
    emit_report(args, {"gadget": args.gadget, "x": args.x, "y": args.y,
                       "target": args.target, "lmax": args.lmax},
                {"candidate": cand, "property_i": table, "walk_obstruction": obstruction,
                 "status": status})


def cmd_gadget_build(args):
    cand, table = complement_cycle_gadget(args.k)
    emit_report(args, {"family": args.family, "k": args.k},
                {"candidate": cand, "property_i": table})


def cmd_splice(args):
    h = load_graph_arg(args.instance)
    cand = GadgetCandidate(load_graph_arg(args.gadget), args.x, args.y,
                           load_graph_arg(args.target))
    pairs = ([_parse_pair(t, ",", "--pairs item") for t in args.pairs.split(";")]
             if args.pairs else [])
    spliced = splice_gadget(h, pairs, cand)
    emit_report(args, {"instance": args.instance, "gadget": args.gadget,
                       "x": args.x, "y": args.y, "target": args.target,
                       "pairs": [list(p) for p in pairs]},
                {"graph": spliced, "edge_list": serialize_graph(spliced)})


def cmd_disprove_prism(args):
    report = disprove_box_path_gadget(args.n, args.k)
    emit_report(args, {"n": args.n, "k": args.k}, {"report": report})


def cmd_qcore(args):
    g = load_graph_arg(args.graph)
    lmax = args.lmax if args.lmax is not None else 2 * g.n + 2
    rep = classical_only_report(g, args.assume_no_quantum_symmetry, lmax=lmax,
                                max_vertices=_bound(args))
    cert = rep.certificate
    if cert is not None:
        try:
            verify_quantum_core_certificate(g, cert)
        except ValueError as exc:
            raise VerificationFailure(f"freshly built certificate failed re-verification: {exc}")
    emit_report(args, {"graph": args.graph, "lmax": lmax,
                       "assume_no_quantum_symmetry": args.assume_no_quantum_symmetry,
                       "max_vertices": args.max_vertices, "i_know": args.i_know},
                {"graph": g, "certified": cert is not None, "certificate": cert,
                 "re_verified": cert is not None, "classical_only": rep})


def cmd_rep_verify(args):
    rep = _load_json(args.path, rep_from_json)
    report = verify_rep(rep, oracular=args.oracular)
    emit_report(args, {"path": args.path, "oracular": args.oracular},
                {"dim": rep.dim, "entries": int(rep.present.sum()), "report": report})


def cmd_rep_compose(args):
    r1 = _load_json(args.first, rep_from_json)
    r2 = _load_json(args.second, rep_from_json)
    for name, r in (("first", r1), ("second", r2)):
        rep = verify_rep(r)
        if not rep.passed:
            raise VerificationFailure(f"{name} representation fails verification "
                                      f"(max residual {rep.max_residual})")
    out = compose_reps(r1, r2)
    report = verify_rep(out)
    if not report.passed:
        raise VerificationFailure(f"composite representation fails verification "
                                  f"(max residual {report.max_residual})")
    payload = out.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
    emit_report(args, {"first": args.first, "second": args.second, "output": args.output},
                {"dim": out.dim, "entries": int(out.present.sum()), "report": report,
                 "representation": None if args.output else payload})


def cmd_defect(args):
    strat = _load_json(args.path, strategy_from_json)
    if args.model == "a":
        value = assignment_defect(strat)
    elif args.model == "c-v":
        value = cv_defect(strat)
    elif args.model == "c-c":
        if not args.pair_dist:
            raise ValueError("c-c model needs --pair-dist FILE")
        value = cc_defect(strat, _load_json(args.pair_dist, pair_dist_from_json))
    elif args.model == "commutator":
        if args.x is None or args.y is None:
            raise ValueError("commutator model needs --x and --y")
        value = commutator_defect(strat, args.x, args.y)
    else:
        raise ValueError(f"unknown model {args.model!r}")
    emit_report(args, {"path": args.path, "model": args.model, "x": args.x, "y": args.y,
                       "pair_dist": args.pair_dist},
                {"model": args.model, "defect": value})


def cmd_bipartite_decide(args):
    h = load_graph_arg(args.instance)
    g = load_graph_arg(args.target)
    answer = decide_bipartite_target(h, g)
    emit_report(args, {"instance": args.instance, "target": args.target},
                {"morphisms_exist": answer,
                 "instance_bipartite": is_bipartite(h)[0],
                 "target_edgeless": g.num_edges == 0})


def cmd_product_transfer(args):
    gadget = load_graph_arg(args.gadget)
    c1 = GadgetCandidate(gadget, args.x, args.y, load_graph_arg(args.target1),
                         status=args.status1)
    c2 = GadgetCandidate(gadget, args.x, args.y, load_graph_arg(args.target2),
                         status=args.status2)
    out, table = product_transfer(c1, c2)
    emit_report(args, {"gadget": args.gadget, "x": args.x, "y": args.y,
                       "target1": args.target1, "target2": args.target2,
                       "status1": args.status1, "status2": args.status2},
                {"candidate": out, "property_i": table})


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgadget",
                     description="Quantum-symmetry analyses for graph CSPs: Schmidt "
                                 "certificates, gadget checks, representation "
                                 "verification, quantum cores, and strategy defects.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="no-go verdict plus girth/oracularisability summary")
    p.add_argument("graph")
    _add_bound_flags(p)

    p = sub.add_parser("schmidt", help="search for a Schmidt pair certificate")
    p.add_argument("graph")
    p.add_argument("--oracular", action="store_true",
                   help="require disconnected supports (rules out oracular gadgets too)")
    _add_bound_flags(p)

    p = sub.add_parser("endos", help="enumerate endomorphisms")
    p.add_argument("graph")
    p.add_argument("--limit", type=_int, default=None)
    _add_bound_flags(p)

    p = sub.add_parser("homs", help="enumerate homomorphisms, optionally pinned")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--pin", action="append", metavar="U=A",
                   help="pin source vertex U to target vertex A (repeatable)")
    p.add_argument("--limit", type=_int, default=0,
                   help=f"0 means all, at most {HOMS_MAX_MAPS} of them without --i-know")
    p.add_argument("--i-know", action="store_true",
                   help="lift the bound on a full listing, which can exhaust memory")

    p = sub.add_parser("gadget-check", help="property-(i) table and walk obstruction")
    p.add_argument("gadget")
    p.add_argument("x", type=_int)
    p.add_argument("y", type=_int)
    p.add_argument("target")
    p.add_argument("--lmax", type=_int, default=None)

    p = sub.add_parser("gadget-build", help="build a known gadget family")
    p.add_argument("family", choices=["complement-cycle"])
    p.add_argument("k", type=_int)

    p = sub.add_parser("splice", help="glue gadget copies onto designated vertex pairs")
    p.add_argument("instance")
    p.add_argument("gadget")
    p.add_argument("x", type=_int)
    p.add_argument("y", type=_int)
    p.add_argument("target")
    p.add_argument("--pairs", default="", metavar="U,V;U,V;...")

    p = sub.add_parser("disprove-prism", help="refute all box-product prism candidates "
                                              "for an odd cycle")
    p.add_argument("n", type=_int)
    p.add_argument("k", type=_int)

    p = sub.add_parser("qcore", help="quantum-core certificate and classicality chain")
    p.add_argument("graph")
    p.add_argument("--lmax", type=_int, default=None)
    p.add_argument("--assume-no-quantum-symmetry", action="store_true")
    _add_bound_flags(p)

    p = sub.add_parser("rep-verify", help="verify a representation from JSON")
    p.add_argument("path")
    p.add_argument("--oracular", action="store_true")

    p = sub.add_parser("rep-compose", help="compose two representations")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("defect", help="weighted-algebra defect of a strategy JSON")
    p.add_argument("path")
    p.add_argument("--model", choices=["a", "c-v", "c-c", "commutator"], default="a")
    p.add_argument("--pair-dist", default=None)
    p.add_argument("--x", type=_int, default=None)
    p.add_argument("--y", type=_int, default=None)

    p = sub.add_parser("bipartite-decide", help="morphism existence into a bipartite target")
    p.add_argument("instance")
    p.add_argument("target")

    p = sub.add_parser("product-transfer", help="transfer a gadget to a categorical product")
    p.add_argument("gadget")
    p.add_argument("x", type=_int)
    p.add_argument("y", type=_int)
    p.add_argument("target1")
    p.add_argument("target2")
    p.add_argument("--status1", default="candidate",
                   choices=["candidate", "proven_oracular"])
    p.add_argument("--status2", default="candidate",
                   choices=["candidate", "proven_oracular"])

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call uses, built on the first call."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    args._t0 = time.monotonic()
    # looked up at call time, so a handler rebound on the module is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        handler(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except _StdoutClosed:
        # the rest of the report still sits in stdout's buffer; point stdout
        # at the null device so the flush at exit cannot fail and complain
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
