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


def _cache_key(args, payload: dict) -> str | None:
    """The cache key of a request, or None under --no-cache (no cache is consulted)."""
    if args.no_cache:
        return None
    blob = json.dumps({**payload, "version": _source_version()}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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


def _well_formed(entry, command: str) -> bool:
    """Whether a cache entry holds the fields its command prints and reads."""
    if not isinstance(entry, dict):
        return False
    if command == "lee":
        return isinstance(entry.get("total"), int)
    dims = entry.get("dims")
    if not isinstance(dims, list):
        return False
    for row in dims:
        if not (isinstance(row, dict) and "h" in row and "q" in row and "dim" in row):
            return False
    if command == "rw":
        return isinstance(entry.get("stabilized"), dict)
    if command == "lasagna":
        return isinstance(entry.get("stable"), dict)
    return True


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


def _load_diagram(path: str):
    with open(path) as fh:
        return parse_diagram(fh.read())


def _window(args):
    from .gradings import Window, parse_window

    if args.window:
        return parse_window(args.window)
    return Window()


def cmd_kh(args) -> int:
    d = _load_diagram(args.diagram)
    payload = {
        "cmd": "kh",
        "diagram": d.to_json_obj(),
        "window": args.window or "",
        "oracle": bool(args.oracle),
    }
    key = _cache_key(args, payload)
    cached = _cache_get(args, key)
    if cached is None:
        from .khovanov import khr2_dims

        table = khr2_dims(d, window=_window(args) if args.window else None,
                          bruteforce=bool(args.oracle))
        cached = {"dims": table.to_json_obj()}
        _cache_put(args, key, cached)
    _emit(cached, args.json)
    return 0


def cmd_rw(args) -> int:
    d = _load_diagram(args.diagram)
    payload = {
        "cmd": "rw",
        "diagram": d.to_json_obj(),
        "window": args.window or "",
        "k_max": args.max_twists,
    }
    key = _cache_key(args, payload)
    cached = _cache_get(args, key)
    if cached is None:
        from .rw import rw_plus

        res = rw_plus(d, _window(args), k_max=args.max_twists)
        cached = res.to_json_obj()
        cached["notes"] = [
            f"stabilized[{k}]={'true' if v else 'false'}"
            for k, v in sorted(res.stabilized.items())
        ]
        if res.zero:
            cached["notes"].append("zero: class is not 2-divisible")
        _cache_put(args, key, cached)
    _emit(cached, args.json)
    if not all(cached.get("stabilized", {}).values()):
        return 3
    return 0


def cmd_lasagna(args) -> int:
    d = _load_diagram(args.diagram)
    offset = tuple(int(x) for x in args.alpha.split(",")) if args.alpha else ()
    payload = {
        "cmd": "lasagna",
        "diagram": d.to_json_obj(),
        "alpha": list(offset),
        "window": args.window or "",
        "r_max": args.r_max,
    }
    key = _cache_key(args, payload)
    cached = _cache_get(args, key)
    if cached is None:
        from .skein import HandlebodySpec, s02_dims

        res = s02_dims(HandlebodySpec(d, offset), _window(args), r_max=args.r_max)
        cached = res.to_json_obj()
        cached["notes"] = [
            f"stable[{g}]={'true' if v else 'false'}" for g, v in sorted(res.stable.items())
        ]
        if res.zero:
            cached["notes"].append("zero: boundary class is not 2-divisible")
        _cache_put(args, key, cached)
    _emit(cached, args.json)
    if cached.get("stable") and not all(cached["stable"].values()):
        return 3
    return 0


def cmd_lee(args) -> int:
    d = _load_diagram(args.diagram)
    payload = {"cmd": "lee", "diagram": d.to_json_obj()}
    key = _cache_key(args, payload)
    cached = _cache_get(args, key)
    if cached is None:
        from .lee import lee_total_dim

        cached = {"total": lee_total_dim(d.forget_regions())}
        _cache_put(args, key, cached)
    _emit(cached, args.json)
    return 0


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
        return args.func(args)
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
