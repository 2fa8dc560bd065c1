"""Command-line front end with a content-addressed result cache.

Subcommands: kh (gl2 homology dims of an S^3 diagram), rw (Rozansky-Willis
homology of an admissible diagram), lasagna (skein lasagna module dims of a
2-handlebody), lee (Lee total rank), oracle (dense-cube recomputations).
Tables print as TSV `h<TAB>q<TAB>dim` with half-integer gradings rendered
as fractions; --json mirrors the same values as strings.  Exit codes:
0 success, 1 internal error (a failed invariant; the traceback goes to
stderr, nothing to stdout or the cache), 2 input error, 3 stabilization
failure, 4 capacity limit (a size guard such as the dense-cube crossing
guard refused the input).

Every command runs one request path, `serve`: it keys the request on its
options but --json, --no-cache and --cache-dir (the diagram as its JSON)
and the source version, reads the entry from the cache or computes and
stores it, prints it, and reads the exit code off the entry, hit or miss.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .diagram import parse_diagram

# The computing modules, and gradings, are imported inside the functions that
# use them, so a cache hit loads neither the cube nor the cobordism stack.


def _cache_dir(args) -> str:
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get("LASAGNA_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "lasagna")


def _source_version() -> str:
    """sha256 of the package sources: the sorted .py file names, each with its bytes.

    Cache keys include it, so an entry never outlives the code that computed it.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _cache_get(args, key: str | None):
    """The cached entry for key; None under --no-cache or when absent, unreadable or malformed."""
    if key is None:
        return None
    path = os.path.join(_cache_dir(args), key + ".json")
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    return entry if _well_formed(entry, args.command) else None


# The fields each command reads off its entry, with their types; each "dims" row
# needs h, q and dim.
_ENTRY_FIELDS = {
    "kh": {"dims": list},
    "oracle": {"dims": list},
    "rw": {"dims": list, "stabilized": dict, "notes": list},
    "lasagna": {"dims": list, "stable": dict, "notes": list},
    "lee": {"total": int},
}


def _well_formed(entry, command: str) -> bool:
    """Whether a cache entry holds the fields its command prints and reads."""
    return (isinstance(entry, dict)
            and all(isinstance(entry.get(f), t) for f, t in _ENTRY_FIELDS[command].items())
            and all(isinstance(row, dict) and {"h", "q", "dim"} <= row.keys()
                    for row in entry.get("dims", ())))


def _cache_put(args, key: str | None, value: dict) -> None:
    if key is None:
        return
    import tempfile

    directory = _cache_dir(args)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(value, fh, sort_keys=True)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _emit(result: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
        return
    for row in result.get("dims", []):
        sys.stdout.write(f"{row['h']}\t{row['q']}\t{row['dim']}\n")
    if "total" in result:
        sys.stdout.write(f"{result['total']}\n")
    for note in result.get("notes", []):
        sys.stderr.write(note + "\n")


def _window(args):
    from .gradings import Window, parse_window

    if args.window:
        return parse_window(args.window)
    return Window()


def cmd_kh(args, d) -> dict:
    from .khovanov import khr2_dims

    table = khr2_dims(d, window=_window(args) if args.window else None, bruteforce=args.oracle)
    return {"dims": table.to_json_obj()}


def _flagged_entry(res, field: str, zero_note: str) -> dict:
    """res as JSON, noting field[key]=true|false per flag of res.field, then zero_note if zero."""
    entry = res.to_json_obj()
    entry["notes"] = [f"{field}[{k}]={'true' if v else 'false'}"
                      for k, v in sorted(getattr(res, field).items())]
    if res.zero:
        entry["notes"].append(zero_note)
    return entry


def cmd_rw(args, d) -> dict:
    from .rw import rw_plus

    res = rw_plus(d, _window(args), k_max=args.max_twists)
    return _flagged_entry(res, "stabilized", "zero: class is not 2-divisible")


def cmd_lasagna(args, d) -> dict:
    from .skein import HandlebodySpec, s02_dims

    offset = tuple(int(x) for x in args.alpha.split(",")) if args.alpha else ()
    res = s02_dims(HandlebodySpec(d, offset), _window(args), r_max=args.r_max)
    return _flagged_entry(res, "stable", "zero: boundary class is not 2-divisible")


def cmd_lee(args, d) -> dict:
    from .lee import lee_total_dim

    return {"total": lee_total_dim(d.forget_regions())}


# Left out of the cache key: how an answer is shown or stored, and the dispatch.
_PRESENTATION = ("json", "no_cache", "cache_dir", "func")


def serve(args) -> int:
    """Answer one parsed request; exit 3 if any stabilized or stable flag of its entry is false."""
    with open(args.diagram) as fh:
        d = parse_diagram(fh.read())
    key = None
    if not args.no_cache:
        request = {k: v for k, v in vars(args).items() if k not in _PRESENTATION}
        request.update(diagram=d.to_json_obj(), version=_source_version())
        key = hashlib.sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()
    entry = _cache_get(args, key)
    if entry is None:
        entry = args.func(args, d)
        _cache_put(args, key, entry)
    _emit(entry, args.json)
    flags = [*entry.get("stabilized", {}).values(), *entry.get("stable", {}).values()]
    return 0 if all(flags) else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lasagna", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("diagram", help="diagram JSON file")
        sp.add_argument("--window", help="hLo:hHi,qLo:qHi with * for open bounds")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--no-cache", action="store_true")
        sp.add_argument("--cache-dir", default=None)

    kh = sub.add_parser("kh", help="gl2 link homology dimensions")
    common(kh)
    kh.set_defaults(func=cmd_kh, oracle=False)

    rw = sub.add_parser("rw", help="Rozansky-Willis homology (plus variant)")
    common(rw)
    rw.add_argument("--max-twists", type=int, default=3)
    rw.set_defaults(func=cmd_rw)

    las = sub.add_parser("lasagna", help="skein lasagna module dimensions")
    common(las)
    las.add_argument("--alpha", default="", help="skein class offset n, comma separated")
    las.add_argument("--r-max", type=int, default=3)
    las.set_defaults(func=cmd_lasagna)

    lee = sub.add_parser("lee", help="Lee total rank")
    common(lee)
    lee.set_defaults(func=cmd_lee)

    orc = sub.add_parser("oracle", help="dense-cube oracle recomputation")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    okh = orc_sub.add_parser("kh")
    common(okh)
    okh.set_defaults(func=cmd_kh, oracle=True)
    return p


def run(argv) -> int:
    parser = build_parser()
    # join value-taking flags with leading-dash values (e.g. --window -1:0,-4:0)
    argv = list(argv)
    joined = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--window", "--alpha") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            joined.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            joined.append(a)
            i += 1
    argv = joined
    try:
        args = parser.parse_args(argv)
        return serve(args)
    except ValueError as exc:  # DiagramError and LasagnaError among them
        sys.stderr.write(f"error: {exc}\n")
        from .densecube import CapacityError  # only on the error path: a cache hit skips densecube

        return 4 if isinstance(exc, CapacityError) else 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
