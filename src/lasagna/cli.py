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
stores it, prints it, and reads the exit code off the entry, hit or miss;
a hit loads only this module, `diagram`, `json` and the builtin sha256.
Options go before or after the diagram, spelled in full, as `--opt value`
or `--opt=value` (a value may start with `-`); a usage error exits 2.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .diagram import parse_diagram

try:  # the builtin C sha256 (_sha256 to 3.11, _sha2 from 3.12); hashlib's loads OpenSSL
    sha256 = __import__("_sha256" if sys.version_info < (3, 12) else "_sha2").sha256
except ImportError:
    from hashlib import sha256


def _cache_dir(args) -> str:
    return (args.cache_dir or os.environ.get("LASAGNA_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "lasagna"))


def _source_version() -> str:
    """sha256 of the package sources: the sorted .py file names, each with its bytes.

    Cache keys include it, so an entry never outlives the code that computed it.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = sha256()
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

    return parse_window(args.window) if args.window else Window()


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
        key = sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()
    entry = _cache_get(args, key)
    if entry is None:
        entry = args.func(args, d)
        _cache_put(args, key, entry)
    _emit(entry, args.json)
    flags = [*entry.get("stabilized", {}).values(), *entry.get("stable", {}).values()]
    return 0 if all(flags) else 3


class UsageError(ValueError):
    """A malformed command line; run prints it as one error line and exits 2."""


# The options every command takes, flag: (dest, type, default), and its _FLAGS, which take
# no value; then each command's dispatch, fixed fields and own options.
_SHARED = {"--window": ("window", str, None), "--cache-dir": ("cache_dir", str, None)}
_FLAGS = {"--json": "json", "--no-cache": "no_cache"}
_COMMANDS = {
    "kh": (cmd_kh, {"oracle": False}, {}),
    "rw": (cmd_rw, {}, {"--max-twists": ("max_twists", int, 3)}),
    "lasagna": (cmd_lasagna, {}, {"--alpha": ("alpha", str, ""), "--r-max": ("r_max", int, 3)}),
    "lee": (cmd_lee, {}, {}),
    "oracle kh": (cmd_kh, {"oracle_command": "kh", "oracle": True}, {}),
}


def _usage() -> str:
    def flags(options):
        return "".join(f" [{f} {dest.upper()}]" for f, (dest, _, _) in options.items())
    lines = [f"  lasagna {name} DIAGRAM{flags(own)}" for name, (_, _, own) in _COMMANDS.items()]
    shared = flags(_SHARED) + "".join(f" [{f}]" for f in _FLAGS)
    return "\n".join(["usage:", *lines, f"options of every command:{shared}", "", __doc__])


def parse_args(argv: list) -> SimpleNamespace:
    """The request argv names: the command's fixed fields, then each option's value or default."""
    name = " ".join(argv[:2] if argv[:1] == ["oracle"] else argv[:1])
    if name not in _COMMANDS:
        raise UsageError(f"unknown command {name!r}; choose from {', '.join(_COMMANDS)}")
    func, fixed, own = _COMMANDS[name]
    options = {**_SHARED, **own}
    fields = dict.fromkeys(_FLAGS.values(), False) | {d: v for d, _, v in options.values()}
    diagrams, rest = [], iter(argv[len(name.split()):])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if arg in _FLAGS:
            fields[_FLAGS[arg]] = True
        elif not arg.startswith("-"):
            diagrams.append(arg)
        elif flag not in options:
            raise UsageError(f"unknown option {arg} for {name}")
        elif not eq and (value := next(rest, None)) is None:
            raise UsageError(f"{flag} needs a value")
        else:
            dest, kind, _ = options[flag]
            try:
                fields[dest] = kind(value)
            except ValueError:
                raise UsageError(f"{flag}: invalid int value {value!r}") from None
    if len(diagrams) != 1:
        raise UsageError(f"{name} takes one diagram file, got {len(diagrams)}")
    return SimpleNamespace(command=argv[0], diagram=diagrams[0], func=func, **fixed, **fields)


def run(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage())
        return 0
    try:
        return serve(parse_args(argv))
    except (ValueError, OSError) as exc:  # DiagramError, LasagnaError and UsageError among them
        sys.stderr.write(f"error: {exc}\n")
        from .densecube import CapacityError  # only on the error path: a cache hit skips densecube

        return 4 if isinstance(exc, CapacityError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
