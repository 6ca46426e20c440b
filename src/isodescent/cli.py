"""Command-line front end.

Bundles are JSON files describing a field, an invariant form, and group
generators; the subcommands run descent, the balance chain alone, the
characteristic-polynomial census, or one of the packaged nonexistence
certificates, and emit a JSON report.  Reports are deterministic: the same
bundle and tool version always produce the same bytes apart from the
timing_seconds field.

Exit codes: 0 when every certificate in the report is true, 2 when the run
completed but some certificate is false, 1 on any input problem (a usage
error, unreadable file, malformed bundle, invalid field data).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__ as TOOL_VERSION
from .counterexamples import (DEFAULT_ENUM_CAP, MAX_VERIFY_ELL,
                              no_invariant_symmetric_form, verify_prop5,
                              verify_prop6)
from .descent import (
    DEFAULT_GROUP_CAP,
    MAX_DIM,
    GroupRep,
    balance,
    descend,
)
from .errors import BundleFormatError, IsodescentError
from .exactfield import FieldElement, _is_int, make_descriptor
from .forms import KINDS, GramForm
from .lattice import stabilize, standard_lattice

VERIFY_TAGS = ("lemma", "prop5", "prop6")


# ---------------------------------------------------------------------------
# bundle ingestion


def _expect(cond: bool, where: str, why: str):
    if not cond:
        raise BundleFormatError(f"{where}: {why}")


def _parse_entry(field, raw, where: str):
    """One matrix entry: a rational string or a power-basis coefficient list."""
    if isinstance(raw, str) or _is_int(raw):
        try:
            return field.rational(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleFormatError(f"{where}: bad rational {raw!r} ({exc})")
    if isinstance(raw, list):
        _expect(all(isinstance(c, str) or _is_int(c) for c in raw), where,
                "coefficient vectors hold strings or integers")
        try:
            return field.element(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise BundleFormatError(f"{where}: bad coefficient vector ({exc})")
    raise BundleFormatError(
        f"{where}: entries are rational strings or coefficient lists, "
        f"got {type(raw).__name__}")


def _parse_matrix(field, raw, where: str):
    _expect(isinstance(raw, list) and raw, where, "must be a nonempty matrix")
    n = len(raw)
    _expect(n <= MAX_DIM, where, f"dimension {n} exceeds the ceiling {MAX_DIM}")
    out = []
    for i, row in enumerate(raw):
        _expect(isinstance(row, list) and len(row) == n, f"{where}[{i}]",
                f"must be a row of length {n}")
        out.append([_parse_entry(field, v, f"{where}[{i}][{j}]")
                    for j, v in enumerate(row)])
    return out


def load_bundle(path: str, max_group_order=None):
    """Read and validate a bundle file; returns (GroupRep, options dict).

    All GroupRep invariants (closure under the cap, every generator an
    isometry) are re-checked during construction.  max_group_order, when
    given, overrides the bundle's cap and must be a positive integer.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise BundleFormatError(f"{path}: {exc}")
    return _parse_bundle(path, text, max_group_order)


def _parse_bundle(path: str, text: bytes, max_group_order):
    """load_bundle on the bytes text already read from path."""
    _expect(max_group_order is None or
            (_is_int(max_group_order) and max_group_order > 0),
            "--max-group-order", f"must be a positive integer, got {max_group_order}")
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, which names the line and column, or an integer
        # past int()'s digit limit
        raise BundleFormatError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise BundleFormatError(f"{path}: invalid JSON: nested too deeply")

    _expect(isinstance(raw, dict), path, "top level must be an object")
    _expect(raw.get("schema") == 1, "schema",
            f"unsupported schema {raw.get('schema')!r}, expected 1")

    fld = raw.get("field")
    _expect(isinstance(fld, dict), "field", "must be an object")
    for key in ("n", "ell"):
        _expect(_is_int(fld.get(key)), f"field.{key}",
                "must be an integer")
    subgroup = fld.get("subgroup", [1])
    _expect(isinstance(subgroup, list) and
            all(_is_int(h) for h in subgroup),
            "field.subgroup", "must be a list of integers")
    involution = fld.get("involution")
    _expect(involution is None or _is_int(involution),
            "field.involution", "must be an integer or null")
    prime_choice = fld.get("prime_choice", 0)
    _expect(_is_int(prime_choice), "field.prime_choice",
            "must be an integer")

    opts = raw.get("options", {})
    _expect(isinstance(opts, dict), "options", "must be an object")
    # option keys not read here are ignored
    cap = opts.get("max_group_order", DEFAULT_GROUP_CAP)
    _expect(_is_int(cap) and cap > 0, "options.max_group_order",
            "must be a positive integer")
    options = {"max_group_order": cap if max_group_order is None else max_group_order}

    field = make_descriptor(
        fld["n"], fld["ell"], subgroup=tuple(subgroup),
        prime_choice=prime_choice, involution=involution)

    frm = raw.get("form")
    _expect(isinstance(frm, dict), "form", "must be an object")
    kind = frm.get("kind")
    _expect(kind in KINDS, "form.kind", f"must be one of {KINDS}")
    gram = _parse_matrix(field, frm.get("gram"), "form.gram")
    twist = frm.get("twist", 0)
    _expect(_is_int(twist), "form.twist", "must be an integer")
    form = GramForm(field, gram, kind, twist=twist)

    gens_raw = raw.get("generators")
    _expect(isinstance(gens_raw, list) and gens_raw, "generators",
            "must be a nonempty list of matrices")
    gens = [_parse_matrix(field, g, f"generators[{i}]")
            for i, g in enumerate(gens_raw)]
    for i, g in enumerate(gens):
        _expect(len(g) == form.dim, f"generators[{i}]",
                f"must be {form.dim}x{form.dim} to match the form")

    rep = GroupRep(field, gens, form, cap=options["max_group_order"])
    return rep, options


# ---------------------------------------------------------------------------
# report serialization


def _ser(x, memo: dict) -> list:
    """A report value: an element of K as its power-basis coefficient
    strings, a residue as its F_ell coefficients, and a list or tuple of
    them (a matrix, a characteristic polynomial low degree first) entrywise.
    A list or tuple met again returns the list built the first time: memo,
    one per report, maps its id to (x, that list), which keeps x alive so
    that no id is reused while the memo lives."""
    if isinstance(x, (list, tuple)):
        hit = memo.get(id(x))
        if hit is None:
            hit = memo[id(x)] = x, [_ser(y, memo) for y in x]
        return hit[1]
    if isinstance(x, FieldElement):
        return x.serialize()
    return list(x.coeffs)


def _descent_result_dict(res) -> dict:
    memo = {}
    return {
        "field": res.descriptor.describe(),
        "group_order": res.group_order,
        "image_order": res.image_order,
        "kernel_size": res.kernel_size,
        "scale_power": res.scale_power,
        "chain_steps": res.chain_steps,
        "invariant_exponents": list(res.invariant_exps),
        "block_dims": list(res.block_dims),
        "block_kinds": list(res.block_kinds),
        "lattice_basis": _ser(res.lattice_basis, memo),
        "dual_basis": _ser(res.dual_basis, memo),
        "reduced_form_gram": _ser(res.f0_gram, memo),
        "reduced_generators": _ser(res.rho_bar, memo),
        "charpoly_table": _ser(res.charpoly_table_K, memo),
        "charpoly_table_mod_lambda": _ser(res.charpoly_table_k, memo),
        "charpoly_classes": [
            {"charpoly_mod_lambda": [list(c) for c in key], "count": cnt}
            for key, cnt in res.charpoly_classes],
        "kernel_explanations": res.kernel_explanations,
        "certificates": res.certificates,
    }


def _json_scalar(o) -> str:
    """A JSON scalar as json.dumps writes it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (float("inf"), float("-inf")):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(o, out: list, newline: str, written: dict):
    """Append the text of o to out.  newline is the line break and indent
    before a closing bracket at o's depth.  A list or tuple met again at the
    same depth is written from the text of its first time: written maps
    (id, newline) to the slice of out that holds it, then to its text."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        key = id(o), newline
        seen = written.get(key)
        if seen is not None:
            if type(seen) is tuple:
                seen = written[key] = "".join(out[seen[0]:seen[1]])
            out.append(seen)
            return
        start = len(out)
        inner = newline + "  "
        sep = "[" + inner
        for x in o:
            out.append(sep)
            if isinstance(x, (list, tuple, dict)):
                _write_json(x, out, inner, written)
            else:
                out.append(_json_scalar(x))
            sep = "," + inner
        out.append(newline + "]")
        written[key] = start, len(out)
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, x in sorted(o.items()):
            key = k if isinstance(k, str) else _json_scalar(k)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            if isinstance(x, (list, tuple, dict)):
                _write_json(x, out, inner, written)
            else:
                out.append(_json_scalar(x))
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_scalar(o))


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.  With an
    indent, json.dumps runs its pure-Python encoder; this writer builds the
    same text from the C string escaper, in about half the time on the
    reports, and writes a list shared within obj once per depth."""
    out = []
    _write_json(obj, out, "\n", {})
    return "".join(out)


def _read_bundle(path: str, max_group_order):
    """(GroupRep, sha256 hex digest) of the bundle at path, from one read
    of its bytes, so a pipe or a file rewritten meanwhile is digested as
    parsed."""
    with open(path, "rb") as fh:
        text = fh.read()
    rep, _ = _parse_bundle(path, text, max_group_order)
    return rep, hashlib.sha256(text).hexdigest()


def _finish(command: str, digest: str, started: float, result: dict, summary: str,
            out_path) -> int:
    """Write the report to out_path, or to stdout, then the one-line summary,
    kept off stdout when the report goes there.  The exit code is 0 when
    every certificate in result is true and 2 otherwise."""
    report = {
        "version": TOOL_VERSION,
        "command": command,
        "input_sha256": digest,
        "result": result,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    payload = _json_text(report) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    (sys.stdout if out_path else sys.stderr).write(summary + "\n")
    return 0 if all(result["certificates"].values()) else 2


# ---------------------------------------------------------------------------
# subcommands


def cmd_descend(bundle_path: str, out_path=None, max_group_order=None) -> int:
    started = time.monotonic()
    rep, digest = _read_bundle(bundle_path, max_group_order)
    res = descend(rep)
    flags = " ".join(f"{k}={'yes' if v else 'NO'}" for k, v in sorted(res.certificates.items()))
    return _finish("descend", digest, started, _descent_result_dict(res),
                   f"descend: group {res.group_order}, image {res.image_order}, "
                   f"blocks {tuple(res.block_dims)} {tuple(res.block_kinds)}; {flags}",
                   out_path)


def cmd_balance(bundle_path: str, out_path=None, max_group_order=None) -> int:
    started = time.monotonic()
    rep, digest = _read_bundle(bundle_path, max_group_order)
    lat = stabilize(standard_lattice(rep.field, rep.form.dim), rep.generators)
    bal = balance(lat, rep.form, generators=rep.generators)
    memo = {}
    result = {
        "field": rep.field.describe(),
        "scale_power": bal.scale_power,
        "chain_steps": bal.steps,
        "invariant_exponents": list(bal.invariants),
        "lattice_basis": _ser(bal.lattice.basis, memo),
        "dual_basis": _ser(bal.dual.basis, memo),
        "certificates": {
            "chain_terminated": True,
            "invariants_binary": all(v in (0, 1) for v in bal.invariants),
        },
    }
    return _finish("balance", digest, started, result,
                   f"balance: {bal.steps} growth steps, scale {bal.scale_power}, "
                   f"invariants {bal.invariants}", out_path)


def cmd_charpoly(bundle_path: str, out_path=None, max_group_order=None) -> int:
    """Characteristic-polynomial census of the whole group, no balance run."""
    started = time.monotonic()
    rep, digest = _read_bundle(bundle_path, max_group_order)
    cls, census = rep.class_charpolys()
    memo = {}
    per_class = {r: (_ser(cp, memo), _ser(red, memo))
                 for r, (_, cp, red) in census.items()}
    rows = [{"element_index": i, "charpoly": per_class[c][0],
             "charpoly_mod_lambda": per_class[c][1]} for i, c in enumerate(cls)]
    # the JSON text of a charpoly, whose order sorts the classes, to its
    # count and its serialized list
    classes = {}
    for r, (size, _, _) in census.items():
        cp = per_class[r][0]
        classes.setdefault(json.dumps(cp), [0, cp])[0] += size
    result = {
        "field": rep.field.describe(),
        "group_order": rep.order,
        "rows": rows,
        "classes": [{"charpoly": cp, "count": count}
                    for _, (count, cp) in sorted(classes.items())],
        "certificates": {"closure_complete": True},
    }
    return _finish("charpoly", digest, started, result,
                   f"charpoly: {rep.order} elements, {len(classes)} distinct polynomials",
                   out_path)


def cmd_verify(tag: str, ell: int, out_path=None, enum_cap=None) -> int:
    started = time.monotonic()
    if tag not in VERIFY_TAGS:
        raise BundleFormatError(f"verify: unknown tag {tag!r}, expected "
                                f"one of {VERIFY_TAGS}")
    # the cap decides which routes prop6 runs, so a given cap is part of the
    # input; without the flag the digest covers (ell, tag) alone
    canonical = {"ell": ell, "tag": tag}
    if enum_cap is None:
        enum_cap = DEFAULT_ENUM_CAP
    else:
        canonical["enum_cap"] = enum_cap
    if enum_cap < 1:
        raise BundleFormatError(
            f"verify: --enum-cap must be a positive integer, got {enum_cap}")
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()).hexdigest()
    verifier = {"lemma": no_invariant_symmetric_form, "prop5": verify_prop5,
                "prop6": verify_prop6}[tag]
    cert = verifier(ell, enum_cap)
    result = cert.to_dict()
    result["certificates"] = {"verdict": cert.verdict}
    return _finish("verify", digest, started, result,
                   f"verify {tag} (ell={ell}): "
                   f"{'holds' if cert.verdict else 'FAILED'} over {cert.search_space}",
                   out_path)


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parse_args keeps no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="isodescent",
        description=("Reduce finite isometry groups to odd characteristic "
                     "with certified invariants, or check the packaged "
                     "boundary counterexamples."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bundle_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("bundle", help="JSON bundle path")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--max-group-order", type=int, default=None,
                       help=f"closure cap (default {DEFAULT_GROUP_CAP})")
        return p

    add_bundle_cmd("descend", "run the full descent and report certificates")
    add_bundle_cmd("balance", "run only the lattice balance chain")
    add_bundle_cmd("charpoly", "characteristic-polynomial census of the group")

    v = sub.add_parser("verify", help="check a packaged nonexistence certificate")
    v.add_argument("tag", choices=VERIFY_TAGS)
    v.add_argument("--ell", type=int, required=True, help="odd prime residue "
                   f"characteristic, at most {MAX_VERIFY_ELL}")
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.add_argument("--enum-cap", type=int, default=None,
                   help=f"largest search space to enumerate exhaustively; lemma "
                        f"and prop5 exit 1 above it (default {DEFAULT_ENUM_CAP})")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, an input error here
        return 1 if exc.code else 0
    try:
        if args.command == "descend":
            return cmd_descend(args.bundle, args.out, args.max_group_order)
        if args.command == "balance":
            return cmd_balance(args.bundle, args.out, args.max_group_order)
        if args.command == "charpoly":
            return cmd_charpoly(args.bundle, args.out, args.max_group_order)
        if args.command == "verify":
            return cmd_verify(args.tag, args.ell, args.out, args.enum_cap)
    except IsodescentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
