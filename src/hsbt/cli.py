"""Command-line front end.

Subcommands:

* ``build``  - read key-value pairs, build and encrypt an index container
* ``query``  - run one range query against a container (either construction)
* ``bench``  - run a workload sweep and emit a CSV of per-cell medians
* ``audit``  - replay random queries under the trace recorder and audit each
  against its computed leakage
* ``tamper`` - run scripted active-attacker behaviours against a fresh
  deployment and report detection

A container holds values of one length, so ``build`` pads every value to
one byte more than the longest, with ISO/IEC 7816-4 padding (0x80, then
zeros), and ``query`` strips that padding from each result value before it
prints it, one value per line.  A value holding a newline byte would read as
two, so such a result prints nothing and exits 1.

Exit codes: 0 ok, 1 verification/authentication failure or malformed input
data (pairs, container, key sidecar), 2 usage error (a bad flag value, a
malformed or empty range, a path that cannot be opened).  Past argument
parsing, every failure prints one ``error: ...`` line to stderr.

``--seed`` makes everything reproducible except token nonces, the value salt
and timings; in particular ``build --seed`` derives the key material
deterministically so two builds of the same input agree structurally
(reproducible-build mode): they differ only in the salt, and through it in
every ciphertext byte.
Key material lands in a ``<out>.key`` sidecar the server never reads: the
two keys, the root id, the build seed and the integrity flag.  The branching
factor is the container header's, which every node record authenticates;
other sidecar fields (older builds wrote ``b``) are ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import struct
import sys
from pathlib import Path

from hsbt import bench as bench_mod
from hsbt.bptree import (
    KEY_INFINITY,
    KEY_MAX,
    KEY_MIN,
    KEY_NEG_INFINITY,
    MIN_BRANCHING,
    BuildError,
    build_tree,
)
from hsbt.codec import EncryptedIndex, decrypt_results, make_token, node_plain_size
from hsbt.crypto import AuthenticationError, SecretKey, prp_permutation
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveError, EnclaveSim
from hsbt.leakage import AccessTrace, PageLayout, audit_query, leak_enc, leak_hw_nodes, leak_hw_pages
from hsbt.server import CSV_HEADER, fetch_values
from hsbt.tamper import KINDS, Outcome, run_with_tamper

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Bad input or failed verification; message goes to stderr."""

    def __init__(self, message, code=EXIT_VERIFY):
        super().__init__(message)
        self.code = code


def read_pairs_text(path: Path):
    """Lines of ``<key> <value...>``, read as bytes and split at newline
    bytes only; one carriage return before a newline is dropped, so CRLF
    files read the same.  The value is the rest of the line, every byte of
    it: trailing spaces, form feeds and bytes that are not UTF-8 included.
    Whitespace ahead of the key is skipped; blank lines and lines starting
    with ``#`` are not pairs."""
    pairs = []
    for lineno, line in enumerate(path.read_bytes().replace(b"\r\n", b"\n").split(b"\n"), 1):
        line = line.lstrip()
        if not line or line.startswith(b"#"):
            continue
        key_part, _, value = line.partition(b" ")
        try:
            key = int(key_part)
        except ValueError:
            raise CliError(f"{path}:{lineno}: key {key_part!r} is not an integer")
        pairs.append((key, value))
    return pairs


def read_pairs_binary(path: Path):
    """``u32 count`` then per pair ``u32 key, u32 len, bytes`` (little-endian)."""
    data = path.read_bytes()
    pairs, off = [], 4
    try:
        (count,) = struct.unpack_from("<I", data, 0)
        for _ in range(count):
            key, length = struct.unpack_from("<II", data, off)
            pairs.append((key, data[off + 8 : off + 8 + length]))
            off += 8 + length
    except struct.error:
        raise CliError(f"{path}: truncated binary pair stream") from None
    if off != len(data):
        raise CliError(f"{path}: pair stream is {len(data)} bytes, its entries need {off}")
    return pairs


def pad_values(pairs):
    """`pairs` with every value padded to one width, one byte more than the
    longest value: the value, 0x80, then zeros (ISO/IEC 7816-4)."""
    width = max(len(v) for _, v in pairs) + 1
    return [(k, (v + b"\x80").ljust(width, b"\0")) for k, v in pairs]


def unpad(value: bytes) -> bytes:
    """Invert `pad_values` for one value: cut it at its last 0x80 byte,
    which only zeros may follow."""
    body = value.rstrip(b"\0")
    if not body.endswith(b"\x80"):
        raise CliError("a result value carries no 0x80 padding byte")
    return body[:-1]


def _derived_secret_key(seed: int) -> SecretKey:
    tree_key = hashlib.blake2b(b"tree-key", key=struct.pack("<q", seed), digest_size=16).digest()
    value_key = hashlib.blake2b(b"value-key", key=struct.pack("<q", seed), digest_size=16).digest()
    return SecretKey(tree_key, value_key)


# Every field `build` writes into a key sidecar, with its JSON type.
_SIDECAR_FIELDS = {
    "tree_key": str,
    "value_key": str,
    "root_id": int,
    "seed": (int, type(None)),
    "integrity": bool,
}


def _read_sidecar(path: Path) -> tuple[SecretKey, dict]:
    """Parse a key sidecar; anything malformed or incomplete is a `CliError`."""
    try:
        meta = json.loads(path.read_text())
    except ValueError:
        raise CliError(f"{path}: key sidecar is not JSON") from None
    if not isinstance(meta, dict):
        raise CliError(f"{path}: key sidecar is not a JSON object")
    for name, kind in _SIDECAR_FIELDS.items():
        if not isinstance(meta.get(name), kind):
            raise CliError(f"{path}: key sidecar field {name!r} is missing or mistyped")
    try:
        sk = SecretKey(bytes.fromhex(meta["tree_key"]), bytes.fromhex(meta["value_key"]))
    except ValueError as exc:
        raise CliError(f"{path}: bad key material in key sidecar: {exc}") from None
    return sk, meta


def _attach(args, enclave: EnclaveSim | None = None):
    """Load the container and its key sidecar into a deployment, served by
    `enclave` or by a default one; returns (deployment, sidecar fields)."""
    try:
        index = EncryptedIndex.load(Path(args.index))
    except ValueError as exc:
        raise CliError(f"{args.index}: {exc}")
    sk, meta = _read_sidecar(Path(args.key))
    dep = Deployment.attach(
        index, sk, meta["root_id"], integrity=meta["integrity"], enclave=enclave
    )
    return dep, meta


def _parse_range(spec: str):
    """``A:B`` with either side optional; a malformed or empty range is a
    usage error."""
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise CliError(f"range must look like A:B, got {spec!r}", EXIT_USAGE)
    try:
        r_start = int(lo) if lo else None
        r_end = int(hi) if hi else None
    except ValueError:
        raise CliError(f"range endpoints must be integers, got {spec!r}", EXIT_USAGE) from None
    for end in (r_start, r_end):
        if end is not None and not KEY_NEG_INFINITY <= end <= KEY_INFINITY:
            raise CliError(f"range endpoint {end} outside the 32-bit key space", EXIT_USAGE)
    if r_start is not None and r_end is not None and r_start > r_end:
        raise CliError(f"empty range {spec!r}: start exceeds end", EXIT_USAGE)
    return r_start, r_end


def _check_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise CliError(f"{flag} must be at least {minimum}, got {value}", EXIT_USAGE)


def _check_pair_count(flag: str, value: int) -> None:
    # `bench.make_dataset` draws distinct keys from [KEY_MIN, KEY_MAX].
    keys = KEY_MAX - KEY_MIN + 1
    if value > keys:
        message = f"{flag} must be at most {keys}, the keys in the key space, got {value}"
        raise CliError(message, EXIT_USAGE)


# -- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    _check_at_least("--b", args.b, MIN_BRANCHING)
    path = Path(args.input)
    pairs = read_pairs_binary(path) if args.format == "binary" else read_pairs_text(path)
    if not pairs:
        raise CliError(f"{path}: no key-value pairs to index")
    pairs = pad_values(pairs)

    integrity = args.integrity == "on"
    sk = _derived_secret_key(args.seed) if args.seed is not None else SecretKey.generate()
    try:
        dep = Deployment.build(
            pairs, args.b, integrity=integrity, sk=sk, rng=random.Random(args.seed)
        )
    except BuildError as exc:
        raise CliError(f"{path}: {exc}") from None
    out = Path(args.out)
    dep.index.save(out)
    keyfile = out.with_suffix(out.suffix + ".key")
    keyfile.write_text(
        json.dumps(
            {
                "tree_key": sk.tree_key.hex(),
                "value_key": sk.value_key.hex(),
                "root_id": dep.tree.root_id,
                "seed": args.seed,
                "integrity": integrity,
            },
            indent=2,
        )
    )
    static = leak_enc(pairs, dep.tree)
    size = len(dep.index.to_bytes())
    print(f"container written to {out} ({size} bytes), key material in {keyfile}")
    print(
        f"static leakage: n={static.n_values} nodes={static.node_count} "
        f"value_width={static.value_width}"
    )
    return EXIT_OK


def cmd_query(args) -> int:
    r_start, r_end = _parse_range(args.range)
    dep, _ = _attach(args)
    try:
        values, stats = dep.query(r_start, r_end, args.construction)
    except (EnclaveError, AuthenticationError) as exc:
        raise CliError(f"query rejected: {exc}")

    values = list(map(unpad, values))
    if any(b"\n" in value for value in values):
        raise CliError("a result value holds a newline byte; one value per line cannot show it")
    sys.stdout.buffer.writelines(value + b"\n" for value in values)
    print(CSV_HEADER, file=sys.stderr)
    print(stats.csv_row(), file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    _check_at_least("--n", min(args.n), 1)
    _check_pair_count("--n", max(args.n))
    _check_at_least("--b", min(args.b), MIN_BRANCHING)
    _check_at_least("--result-size", min(args.result_size), 1)
    _check_at_least("--reps", args.reps, 1)
    cells = [
        bench_mod.WorkloadCell(
            n=n,
            branching=b,
            result_size=r,
            construction=c,
            reps=args.reps,
            integrity=args.integrity == "on",
        )
        for n in args.n
        for b in args.b
        for r in args.result_size
        for c in args.construction
        if r <= n
    ]
    if not cells:
        raise CliError("every --result-size exceeds every --n: no cell to run", EXIT_USAGE)
    for n, r in dict.fromkeys((n, r) for n in args.n for r in args.result_size if r > n):
        print(f"skipped: --result-size {r} exceeds --n {n}", file=sys.stderr)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        print(bench_mod.BENCH_CSV_HEADER, file=out)
        for row in bench_mod.run_workload(cells, args.seed):
            print(bench_mod.row_to_csv(row), file=out)
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_audit(args) -> int:
    seed_rng = random.Random(args.seed)
    enclave = EnclaveSim(order_seed_source=lambda: seed_rng.getrandbits(64))
    dep, meta = _attach(args, enclave)
    if meta["seed"] is None:
        raise CliError(f"{args.key}: built without --seed, so no rebuilt tree matches", EXIT_USAGE)
    path = Path(args.input)
    pairs = read_pairs_binary(path) if args.format == "binary" else read_pairs_text(path)
    # The auditor is omniscient: it reconstructs the plaintext tree the same
    # deterministic way the build made it.
    if not pairs:
        raise CliError(f"{path}: no key-value pairs to audit")
    try:
        tree = build_tree(pairs, dep.index.branching, rng=random.Random(meta["seed"]))
    except BuildError as exc:
        raise CliError(f"{path}: {exc}") from None
    # The rebuild must be the container's: its node and value counts, and the
    # first pair's padded value in the blob at its rebuilt slot, opened there
    # as a query's values are.
    if (tree.node_count, tree.n_values) != (dep.index.node_count, dep.index.n_values):
        raise CliError(f"{path}: the pairs do not rebuild the container's node and value counts")
    slot = int(tree.value_positions[0])
    try:
        (first,) = decrypt_results(dep.sk.value_key, fetch_values(dep.index, [slot]))
    except AuthenticationError:
        raise CliError(f"{args.index}: the value blob at slot {slot} does not open there") from None
    if first != pad_values(pairs)[0][1]:
        raise CliError(f"{path}: the pairs do not rebuild the container's value order")
    perm = prp_permutation(dep.sk.tree_key, dep.index.node_count)
    pm = lambda nid: int(perm[nid])
    layout = PageLayout(record_size=node_plain_size(dep.index.branching))

    keys = sorted(k for k, _ in pairs)
    rng = random.Random(args.seed)
    failures = 0
    for q in range(args.queries):
        a, b = sorted((rng.choice(keys), rng.choice(keys)))
        trace = AccessTrace()
        dep.query(a, b, args.construction, trace=trace)
        if args.construction == 1:
            access, pattern = leak_hw_pages(tree, a, b, layout, position_map=pm)
        else:
            access, pattern = leak_hw_nodes(tree, a, b, position_map=pm)
        verdict = audit_query(trace, access, pattern)
        status = "PASS" if verdict.passed else f"FAIL ({verdict.detail})"
        print(f"query {q:4d} range [{a}, {b}]: {status}")
        failures += 0 if verdict.passed else 1
    print(f"audited {args.queries} queries, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_tamper(args) -> int:
    _check_at_least("--b", args.b, MIN_BRANCHING)
    # A 16-key window spans leaves holding at most 16 + 2 (b - 2) keys; one
    # more leaves swap-nodes an unfetched node, substitute-value an outsider.
    _check_at_least("--n", args.n, 2 * args.b + 13)
    _check_pair_count("--n", args.n)
    rng = random.Random(args.seed)
    pairs = bench_mod.make_dataset(args.n, rng)
    sk = _derived_secret_key(args.seed)
    dep = Deployment.build(pairs, args.b, integrity=True, sk=sk, rng=rng)
    sorted_keys = sorted(k for k, _ in pairs)

    kinds = list(KINDS) if args.script == "all" else [args.script]
    undetected = 0
    for kind in kinds:
        for t in range(args.targets):
            window = bench_mod.sample_result_window(sorted_keys, 16, rng)
            report = run_with_tamper(dep, make_token(dep.sk.tree_key, *window), kind, rng)
            detected = report.outcome in (Outcome.ENCLAVE_ABORT, Outcome.CLIENT_REJECT)
            ok = detected if kind != "replay-token" else report.outcome == Outcome.ACCEPTED
            print(f"{kind} target {t}: {report.outcome.value} - {report.detail}")
            undetected += 0 if ok else 1
    print(f"{undetected} undetected deviations")
    return EXIT_OK if undetected == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsbt", description="encrypted range-search index with a simulated trusted boundary"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and encrypt an index container")
    p.add_argument("--input", required=True, help="key-value input file")
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--b", type=int, default=10, help="branching factor")
    p.add_argument("--integrity", choices=("on", "off"), default="off")
    p.add_argument("--seed", type=int, default=None, help="reproducible-build seed")
    p.add_argument("--out", required=True, help="container output path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="run one range query")
    p.add_argument("--index", required=True)
    p.add_argument("--key", required=True, help="key sidecar written by build")
    p.add_argument("--construction", type=int, choices=(1, 2), default=2)
    p.add_argument("--range", required=True, help="A:B (omit a side for open ranges)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="workload sweep, CSV of medians")
    p.add_argument("--n", type=int, nargs="+", default=[10**2, 10**3, 10**4, 10**5])
    p.add_argument("--b", type=int, nargs="+", default=[10])
    p.add_argument("--result-size", type=int, nargs="+", default=[1, 16, 256, 4096])
    p.add_argument("--construction", type=int, nargs="+", choices=(1, 2), default=[1, 2])
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--integrity", choices=("on", "off"), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("audit", help="trace random queries and audit against leakage")
    p.add_argument("--index", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--input", required=True, help="the pairs the container was built from")
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--construction", type=int, choices=(1, 2), default=2)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tamper", help="scripted active-attacker runs")
    p.add_argument("--script", choices=KINDS + ("all",), default="all")
    p.add_argument("--targets", type=int, default=10)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--b", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tamper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("queries", "targets"):  # counts, wherever taken
            _check_at_least(f"--{name}", getattr(args, name, 1), 1)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        # An input or output path that cannot be opened is a usage error.
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (AuthenticationError, EnclaveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
