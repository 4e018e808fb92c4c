"""CLI surface: build/query/audit/tamper flows, exit codes, file formats."""

import json
import random
import re
import struct

import numpy as np
import pytest

from hsbt import bench as bench_mod
from hsbt.cli import CliError, main, read_pairs_binary, read_pairs_text
from hsbt.codec import EncryptedIndex
from hsbt.deploy import Deployment


@pytest.fixture
def dataset(tmp_path):
    rng = random.Random(0)
    keys = rng.sample(range(1, 2**31), 400)
    lines = [f"{k} record-{i:05d}" for i, k in enumerate(keys)]
    path = tmp_path / "pairs.txt"
    path.write_text("\n".join(lines) + "\n")
    return path, keys


def _build(tmp_path, dataset, extra=()):
    path, keys = dataset
    out = tmp_path / "store.hsbt"
    code = main(
        ["build", "--input", str(path), "--b", "5", "--seed", "7", "--out", str(out), *extra]
    )
    assert code == 0
    return out, keys


def test_build_then_query_matches_oracle(tmp_path, dataset, capsys):
    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    capsys.readouterr()  # drain build output
    sorted_keys = sorted(keys)
    lo, hi = sorted_keys[10], sorted_keys[40]
    for construction in ("1", "2"):
        code = main(
            [
                "query",
                "--index",
                str(out),
                "--key",
                str(out) + ".key",
                "--construction",
                construction,
                "--range",
                f"{lo}:{hi}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        got = sorted(line for line in captured.out.splitlines() if line)
        want = sorted(
            f"record-{i:05d}" for i, k in enumerate(keys) if lo <= k <= hi
        )
        assert got == want
        header, row = captured.err.splitlines()
        assert header.startswith("construction,")
        assert row.split(",")[3] == str(hi - lo + 1)  # range_size


def test_open_range_query(tmp_path, dataset, capsys):
    out, keys = _build(tmp_path, dataset)
    capsys.readouterr()  # drain build output
    code = main(
        ["query", "--index", str(out), "--key", str(out) + ".key", "--range", f"{max(keys)}:"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == f"record-{keys.index(max(keys)):05d}"


def test_empty_result_query_exits_zero(tmp_path, dataset, capsys):
    out, keys = _build(tmp_path, dataset)
    capsys.readouterr()
    code = main(
        ["query", "--index", str(out), "--key", str(out) + ".key", "--range", f":{min(keys) - 1}"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == ""


def test_empty_input_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n# nothing\n")
    code = main(["build", "--input", str(empty), "--out", str(tmp_path / "x.hsbt")])
    assert code == 1
    assert "no key-value pairs" in capsys.readouterr().err


def test_bad_key_material_fails_closed(tmp_path, dataset, capsys):
    out, keys = _build(tmp_path, dataset)
    keyfile = tmp_path / "wrong.key"
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    meta["tree_key"] = "00" * 16
    keyfile.write_text(json.dumps(meta))
    code = main(
        ["query", "--index", str(out), "--key", str(keyfile), "--range", "1:99", "--construction", "2"]
    )
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["query", "--range", "3:4"])  # missing required flags
    assert exc.value.code == 2


def test_same_seed_builds_structurally_identical_containers(tmp_path, dataset):
    path, keys = dataset
    out1, out2 = tmp_path / "a.hsbt", tmp_path / "b.hsbt"
    assert main(["build", "--input", str(path), "--seed", "3", "--out", str(out1)]) == 0
    assert main(["build", "--input", str(path), "--seed", "3", "--out", str(out2)]) == 0
    a, b = EncryptedIndex.load(out1), EncryptedIndex.load(out2)
    # Same keys, same permutation, same shapes; only the value salt differs,
    # and through it, every record's key and nonce, every ciphertext byte.
    assert (tmp_path / "a.hsbt.key").read_text() == (tmp_path / "b.hsbt.key").read_text()
    assert (a.branching, a.node_count, a.n_values, a.node_record_size) == (
        b.branching,
        b.node_count,
        b.n_values,
        b.node_record_size,
    )
    assert a.salt != b.salt and a.header[:-8] == b.header[:-8]
    assert a.record_key(b"\0" * 16) != b.record_key(b"\0" * 16)
    assert all((a.node_rows != b.node_rows).any(axis=1))
    meta = json.loads((tmp_path / "a.hsbt.key").read_text())
    from hsbt.crypto import open_wires

    tree_key = bytes.fromhex(meta["tree_key"])
    slots = range(a.node_count)
    pa = open_wires(a.record_key(tree_key), a.node_rows, a.salt, slots)
    pb = open_wires(b.record_key(tree_key), b.node_rows, b.salt, slots)
    assert pa == pb  # identical plaintext structure at every slot


def test_audit_command_passes_and_detects(tmp_path, dataset, capsys):
    path, keys = dataset
    out, _ = _build(tmp_path, dataset)
    code = main(
        [
            "audit",
            "--index",
            str(out),
            "--key",
            str(out) + ".key",
            "--input",
            str(path),
            "--construction",
            "2",
            "--queries",
            "10",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 10 and "0 failures" in captured.out


def test_audit_command_construction1(tmp_path, dataset, capsys):
    path, keys = dataset
    out, _ = _build(tmp_path, dataset)
    code = main(
        [
            "audit",
            "--index",
            str(out),
            "--key",
            str(out) + ".key",
            "--input",
            str(path),
            "--construction",
            "1",
            "--queries",
            "5",
        ]
    )
    assert code == 0
    assert "0 failures" in capsys.readouterr().out


def test_tamper_command_all_detected(capsys):
    code = main(["tamper", "--script", "all", "--targets", "2", "--n", "400", "--seed", "1"])
    assert code == 0
    assert "0 undetected deviations" in capsys.readouterr().out


def test_tamper_command_same_seed_same_output(capsys):
    # The key and every target derive from the seed, so two runs name the
    # same node positions and print the same lines.
    argv = ["tamper", "--script", "all", "--targets", "2", "--n", "400", "--seed", "3"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "modify-node target 1" in outputs[0]


def test_bench_command_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "bench",
            "--n",
            "300",
            "--b",
            "5",
            "--result-size",
            "4",
            "--reps",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("construction,")
    assert len(lines) == 3  # header + one row per construction


def test_binary_pair_format(tmp_path, capsysbinary):
    # `build` pads every value to one width and `query` strips the padding:
    # empty values, 0x80 bytes and zero bytes come back byte-exact.
    pairs = [
        (5, b"five"),
        (9, b"nine"),
        (11, b""),
        (12, b"\x80"),
        (13, b"\x00"),
        (14, b"a\x80\x00\x00"),
    ]
    blob = struct.pack("<I", len(pairs))
    for k, v in pairs:
        blob += struct.pack("<II", k, len(v)) + v
    path = tmp_path / "pairs.bin"
    path.write_bytes(blob)
    assert read_pairs_binary(path) == pairs
    out = tmp_path / "bin.hsbt"
    code = main(
        ["build", "--input", str(path), "--format", "binary", "--b", "4", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    query = ["query", "--index", str(out), "--key", str(out) + ".key"]
    code = main(query + ["--range", ":7"])
    assert code == 0
    assert capsysbinary.readouterr().out.strip().splitlines()[-1] == b"five"
    for construction in ("1", "2"):
        for k, v in pairs:
            code = main(query + ["--construction", construction, "--range", f"{k}:{k}"])
            assert code == 0
            assert capsysbinary.readouterr().out == v + b"\n"


def test_text_values_of_several_lengths_round_trip(tmp_path, capsys):
    rng = random.Random(4)
    keys = rng.sample(range(1, 2**31), 300)
    values = {k: f"v{'x' * (i % 17)} {i}" for i, k in enumerate(keys)}
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"{k} {v}\n" for k, v in values.items()))
    out = tmp_path / "store.hsbt"
    argv = ["build", "--input", str(path), "--b", "5", "--integrity", "on", "--out", str(out)]
    assert main(argv) == 0
    width = max(len(v) for v in values.values()) + 1 + 16  # padding byte, tag
    assert f"value_width={width}" in capsys.readouterr().out
    assert EncryptedIndex.load(out).value_width == width
    ranked = sorted(keys)
    query = ["query", "--index", str(out), "--key", str(out) + ".key"]
    # 5 values open per wire, 101 in bulk.
    for lo, hi in [(ranked[5], ranked[9]), (ranked[20], ranked[120])]:
        want = sorted(values[k] for k in keys if lo <= k <= hi)
        for construction in ("1", "2"):
            assert main(query + ["--construction", construction, "--range", f"{lo}:{hi}"]) == 0
            assert sorted(capsys.readouterr().out.splitlines()) == want


def test_text_values_keep_trailing_spaces(tmp_path, capsys):
    # The value is every byte after the first space that follows the key:
    # trailing spaces stay, as leading ones do.
    path = tmp_path / "spaces.txt"
    path.write_text("# comment\n\n  5 a  \n6  b\n7 c \n   \n8 d\n")
    want = [(5, b"a  "), (6, b" b"), (7, b"c "), (8, b"d")]
    assert read_pairs_text(path) == want
    out = tmp_path / "spaces.hsbt"
    assert main(["build", "--input", str(path), "--b", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    query = ["query", "--index", str(out), "--key", str(out) + ".key", "--range", "5:8"]
    for construction in ("1", "2"):
        assert main(query + ["--construction", construction]) == 0
        assert sorted(capsys.readouterr().out.split("\n")[:-1]) == [" b", "a  ", "c ", "d"]


@pytest.mark.parametrize("construction", ["1", "2"])
def test_text_values_keep_every_byte_but_the_line_end(tmp_path, capsysbinary, construction):
    # Lines end at a newline byte alone, one carriage return before it
    # dropped: a form feed, `\x85`, U+2028 or a byte that is not UTF-8 stays
    # in the value, and a CRLF file reads as an LF one.
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"5 a\x0c6 b\r\n7 c\r\r\n8 \xc2\x85d\xe2\x80\xa8e\n9 \xff\xfe\n")
    want = [(5, b"a\x0c6 b"), (7, b"c\r"), (8, b"\xc2\x85d\xe2\x80\xa8e"), (9, b"\xff\xfe")]
    assert read_pairs_text(path) == want
    out = tmp_path / "bytes.hsbt"
    assert main(["build", "--input", str(path), "--b", "3", "--seed", "1", "--out", str(out)]) == 0
    capsysbinary.readouterr()
    query = ["query", "--index", str(out), "--key", str(out) + ".key", "--range", "1:10"]
    assert main(query + ["--construction", construction]) == 0
    lines = capsysbinary.readouterr().out.split(b"\n")
    assert lines[-1] == b"" and sorted(lines[:-1]) == sorted(v for _, v in want)


def test_text_key_that_is_not_an_integer_exits_one_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 ok\n\xff2 value\n")
    argv = ["build", "--input", str(path), "--seed", "1", "--out", str(tmp_path / "bad.hsbt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}:2: key ") and "not an integer" in captured.err


@pytest.mark.parametrize("mismatch", ["more-pairs", "other-values", "other-seed"])
def test_audit_of_a_rebuild_that_is_not_the_containers_exits_one(tmp_path, capsys, mismatch):
    # The rebuilt tree must have the container's node and value counts, and
    # the first pair's value must sit at its rebuilt slot; otherwise the
    # audit fails closed before any query runs.
    built = tmp_path / "built.txt"
    built.write_text("".join(f"{k} audit-{k:06d}\n" for k in range(1, 501)))
    out = tmp_path / "audit.hsbt"
    argv = ["build", "--input", str(built), "--integrity", "on", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    key = tmp_path / "audit.hsbt.key"
    audited = tmp_path / "audited.txt"
    if mismatch == "more-pairs":
        audited.write_text("".join(f"{k} audit-{k:06d}\n" for k in range(1, 2001)))
    elif mismatch == "other-values":
        audited.write_text("".join(f"{k} other-{k:06d}\n" for k in range(1, 501)))
    else:
        # The seed decides the value order, so another seed stands in for a
        # container whose order an older build drew.
        audited = built
        meta = json.loads(key.read_text())
        key = tmp_path / "other-seed.key"
        key.write_text(json.dumps({**meta, "seed": 2}))
    capsys.readouterr()
    assert main(_audit_argv(out, audited, key=str(key))) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    want = "node and value counts" if mismatch == "more-pairs" else "value order"
    assert captured.err.startswith("error:") and want in captured.err


def test_audit_of_a_container_whose_value_region_is_rotated_exits_one(tmp_path, capsys):
    # Every blob moves one row on: the region keeps its length and the header
    # is untouched, but no blob opens at its new slot, so the audit's value
    # check, which opens the first pair's blob as queries do, fails closed.
    built = tmp_path / "built.txt"
    built.write_text("".join(f"{k} audit-{k:06d}\n" for k in range(1, 501)))
    out = tmp_path / "audit.hsbt"
    argv = ["build", "--input", str(built), "--integrity", "on", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    index = EncryptedIndex.load(out)
    rotated = np.roll(index.value_rows, 1, axis=0).tobytes()
    out.write_bytes(index.to_bytes()[: -len(rotated)] + rotated)
    assert EncryptedIndex.load(out).header == index.header
    capsys.readouterr()
    assert main(_audit_argv(out, built)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:") and "does not open there" in captured.err
    assert "Traceback" not in captured.err


def test_query_of_an_unpadded_value_exits_one(tmp_path, capsys):
    # A container built through the library, not by `build`, holds values
    # without the 0x80 padding byte that `query` strips.
    pairs = [(k, b"v%02d" % k) for k in range(1, 13)]
    dep = Deployment.build(pairs, 4, rng=random.Random(0))
    out = tmp_path / "lib.hsbt"
    dep.index.save(out)
    sidecar = {
        "tree_key": dep.sk.tree_key.hex(),
        "value_key": dep.sk.value_key.hex(),
        "root_id": dep.tree.root_id,
        "seed": None,
        "integrity": False,
    }
    (tmp_path / "lib.hsbt.key").write_text(json.dumps(sidecar))
    argv = ["query", "--index", str(out), "--key", str(out) + ".key", "--range", "3:5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "padding" in captured.err


@pytest.mark.parametrize("construction", ["1", "2"])
def test_query_of_a_value_holding_a_newline_exits_one(tmp_path, capsysbinary, construction):
    # `query` prints one value per line, so a value holding a newline byte
    # would read as two values: the query prints nothing and fails instead.
    pairs = [(5, b"a\nb"), (9, b"c")]
    blob = struct.pack("<I", len(pairs))
    for k, v in pairs:
        blob += struct.pack("<II", k, len(v)) + v
    path = tmp_path / "pairs.bin"
    path.write_bytes(blob)
    out = tmp_path / "nl.hsbt"
    code = main(
        ["build", "--input", str(path), "--format", "binary", "--b", "4", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    capsysbinary.readouterr()
    query = ["query", "--index", str(out), "--key", str(out) + ".key", "--construction", construction]
    assert main(query + ["--range", "1:10"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"error:") and captured.err.count(b"\n") == 1
    assert b"newline" in captured.err
    # A result without such a value still prints.
    assert main(query + ["--range", "9:9"]) == 0
    assert capsysbinary.readouterr().out == b"c\n"


def test_build_of_a_duplicate_run_longer_than_a_leaf_exits_one(tmp_path, capsys):
    # Ten copies of one key cannot share a leaf of nine slots at b=10.
    path = tmp_path / "run.txt"
    path.write_text("".join(f"7 copy-{i}\n" for i in range(10)))
    out = tmp_path / "run.hsbt"
    code = main(["build", "--input", str(path), "--b", "10", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and "equal copies of key 7" in captured.err
    assert not out.exists()


def _audit_argv(out, pairs_path, construction="2", key=None):
    key = key if key is not None else str(out) + ".key"
    argv = ["audit", "--index", str(out), "--key", key, "--input", str(pairs_path)]
    return argv + ["--construction", construction, "--queries", "5"]


@pytest.mark.parametrize("construction", ["1", "2"])
def test_corrupted_node_records_exit_one(tmp_path, dataset, capsys, construction):
    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    data = bytearray(out.read_bytes())
    index = EncryptedIndex.from_bytes(bytes(data))
    for slot in range(index.node_count):
        data[len(index.header) + slot * index.node_record_size] ^= 0x01
    out.write_bytes(bytes(data))
    capsys.readouterr()
    # `audit` lets the enclave's abort reach `main`, `query` wraps it.
    assert main(_audit_argv(out, dataset[0], construction)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node record failed authentication\n"
    argv = ["query", "--index", str(out), "--key", str(out) + ".key"]
    assert main(argv + ["--construction", construction, "--range", "1:99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: query rejected: node record failed authentication\n"


def test_one_bad_leaf_record_rejects_only_the_queries_that_reach_it(tmp_path, dataset, capsys):
    # One leaf record in the middle of the key order has a bit flipped.  A
    # streamed query whose range misses that leaf never fetches it and
    # answers in full; one that reaches it aborts the whole batch, naming no
    # record.  A resident load opens every record, so every range fails.
    from hsbt import crypto
    from hsbt.codec import deserialize_node, leaf_mask

    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    index = EncryptedIndex.load(out)
    key = index.record_key(bytes.fromhex(meta["tree_key"]))
    plains = crypto.open_wires(key, index.node_rows, index.salt, range(index.node_count))
    nodes = deserialize_node(plains, index.branching)
    leaves = sorted(
        (int(nodes["keys"][slot, 0]), int(nodes["keys"][slot, nodes["key_count"][slot] - 1]), slot)
        for slot in np.flatnonzero(leaf_mask(nodes))
    )
    low, high, slot = leaves[len(leaves) // 2]
    data = bytearray(out.read_bytes())
    data[len(index.header) + slot * index.node_record_size + 5] ^= 0x01
    out.write_bytes(bytes(data))
    lines = dataset[0].read_text().splitlines()
    values = dict(line.split(" ", 1) for line in lines)
    capsys.readouterr()

    argv = ["query", "--index", str(out), "--key", str(out) + ".key", "--construction"]
    below = leaves[len(leaves) // 4][1]
    assert main(argv + ["2", "--range", f"1:{below}"]) == 0
    captured = capsys.readouterr()
    want = sorted(values[str(k)] for k in keys if k <= below)
    assert sorted(captured.out.splitlines()) == want and len(want) > 0
    reaching = (("2", f"{low}:{high}"), ("2", f"{low}:"), ("1", f"1:{below}"), ("1", f"{low}:"))
    for construction, spec in reaching:
        assert main(argv + [construction, "--range", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: query rejected: node record failed authentication\n"


@pytest.mark.parametrize("pairs", ["", "# a comment only\n", "run"])
def test_audit_of_pairs_that_build_no_tree_exits_one(tmp_path, dataset, capsys, pairs):
    # No pairs at all, or five copies of one key where a b=5 leaf holds four.
    out, _ = _build(tmp_path, dataset)
    path = tmp_path / "audit.txt"
    path.write_text("".join(f"7 copy-{i}\n" for i in range(5)) if pairs == "run" else pairs)
    capsys.readouterr()
    assert main(_audit_argv(out, path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    want = "equal copies of key 7" if pairs == "run" else "no key-value pairs to audit"
    assert want in captured.err


def test_build_sidecar_holds_no_branching_factor(tmp_path, dataset):
    out, _ = _build(tmp_path, dataset)
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    assert sorted(meta) == ["integrity", "root_id", "seed", "tree_key", "value_key"]


@pytest.mark.parametrize("construction", ["1", "2"])
def test_sidecar_with_a_stale_b_field_still_loads(tmp_path, dataset, capsys, construction):
    # Older builds wrote `b` into the sidecar; it is ignored, even when wrong,
    # because the branching factor comes from the authenticated header.
    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    old = tmp_path / "old.key"
    old.write_text(json.dumps({**meta, "b": 9}))
    capsys.readouterr()
    lo, hi = sorted(keys)[10], sorted(keys)[19]
    argv = ["query", "--index", str(out), "--key", str(old), "--construction", construction]
    assert main(argv + ["--range", f"{lo}:{hi}"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert main(_audit_argv(out, dataset[0], construction, key=str(old))) == 0
    assert "audited 5 queries, 0 failures" in capsys.readouterr().out


def test_text_parser_rejects_bad_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("notanumber hello\n")
    with pytest.raises(Exception):
        read_pairs_text(path)

def test_query_rejects_header_integrity_downgrade(tmp_path, dataset, capsys):
    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    data = bytearray(out.read_bytes())
    data[6] = 0  # the container header's integrity flag
    out.write_bytes(bytes(data))
    capsys.readouterr()
    sorted_keys = sorted(keys)
    code = main(
        [
            "query",
            "--index",
            str(out),
            "--key",
            str(out) + ".key",
            "--construction",
            "2",
            "--range",
            f"{sorted_keys[10]}:{sorted_keys[40]}",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("construction", ["1", "2"])
def test_query_rejects_reshaped_header(tmp_path, capsys, construction):
    # A record is as long with the integrity flag as without it, so a header
    # with the flag cleared still parses; the records are bound to the header.
    rng = random.Random(3)
    keys = rng.sample(range(1, 2**31), 3000)
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"{k} record-{i:05d}\n" for i, k in enumerate(keys)))
    out = tmp_path / "store.hsbt"
    argv = ["build", "--input", str(path), "--b", "10", "--integrity", "on", "--out", str(out)]
    assert main(argv) == 0
    data = bytearray(out.read_bytes())
    data[6] = 0  # integrity flag
    out.write_bytes(bytes(data))
    EncryptedIndex.load(out)  # still well-formed
    capsys.readouterr()
    key = str(out) + ".key"
    argv = ["query", "--index", str(out), "--key", key, "--construction", construction]
    assert main(argv + ["--range", f"{min(keys)}:{max(keys)}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "failed authentication" in captured.err


# Cuts inside the 33-byte header, at its end, one byte past it, inside the
# first record, and inside the value region.
@pytest.mark.parametrize("cut", [0, 10, 24, 25, 26, 29, 30, 32, 33, 34, 100, -1, "trailing"])
def test_malformed_container_exits_one_without_traceback(tmp_path, dataset, capsys, cut):
    out, keys = _build(tmp_path, dataset, extra=("--integrity", "on"))
    data = out.read_bytes()
    out.write_bytes(data + b"\0" if cut == "trailing" else data[:cut])
    capsys.readouterr()
    for command in ("query", "audit"):
        argv = [command, "--index", str(out), "--key", str(out) + ".key"]
        argv += ["--range", "1:99"] if command == "query" else ["--input", str(dataset[0])]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("construction", ["1", "2"])
def test_query_rejects_a_sidecar_root_id_other_than_the_last_node(tmp_path, capsys, construction):
    # The bulk load emits the root last, and every record binds the node
    # count, so a sidecar naming leaf 5 as the root of a 3,000-pair b=10
    # build (whose root is node 372) must not answer from that leaf.
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"{k} record-{k:05d}\n" for k in range(1, 3001)))
    out = tmp_path / "store.hsbt"
    argv = ["build", "--input", str(path), "--b", "10", "--integrity", "on", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    assert meta["root_id"] == EncryptedIndex.load(out).node_count - 1 == 372
    meta["root_id"] = 5
    key = tmp_path / "wrong-root.key"
    key.write_text(json.dumps(meta))
    capsys.readouterr()
    argv = ["query", "--index", str(out), "--key", str(key), "--construction", construction]
    assert main(argv + ["--range", "100:199"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: query rejected: provisioned root id is not the container's root"
    ]


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(struct.pack("<IH", 1, 5), id="truncated-pair-header"),
        pytest.param(struct.pack("<III", 1, 5, 4) + b"fi", id="truncated-value"),
        pytest.param(struct.pack("<III", 1, 5, 4) + b"five!", id="trailing-bytes"),
    ],
)
def test_binary_pair_stream_fails_closed(tmp_path, capsys, blob):
    path = tmp_path / "pairs.bin"
    path.write_bytes(blob)
    with pytest.raises(CliError):
        read_pairs_binary(path)
    code = main(["build", "--input", str(path), "--format", "binary", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_build_rejects_key_outside_key_space(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("0 zero\n5 five\n7 seven\n")
    assert main(["build", "--input", str(path), "--out", str(tmp_path / "x.hsbt")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.hsbt").exists()


def test_build_rejects_branching_below_minimum(tmp_path, dataset, capsys):
    path, _ = dataset
    argv = ["build", "--input", str(path), "--b", "2", "--out", str(tmp_path / "x.hsbt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec", ["9:5", "x:5", "1:y", "1:4294967296", "5"])
def test_query_rejects_malformed_range_as_usage_error(tmp_path, dataset, capsys, spec):
    out, _ = _build(tmp_path, dataset)
    capsys.readouterr()
    argv = ["query", "--index", str(out), "--key", str(out) + ".key", "--range", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_query_missing_container_is_usage_error(tmp_path, dataset, capsys):
    out, _ = _build(tmp_path, dataset)
    capsys.readouterr()
    argv = ["query", "--index", str(tmp_path / "nope.hsbt"), "--key", str(out) + ".key"]
    assert main(argv + ["--range", "1:99"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "damage",
    [
        "not-json",
        "not-an-object",
        "missing-root-id",
        "mistyped-integrity",
        "bad-hex",
        "root-out-of-range",
    ],
)
def test_malformed_key_sidecar_fails_closed(tmp_path, dataset, capsys, damage):
    out, _ = _build(tmp_path, dataset)
    capsys.readouterr()
    meta = json.loads((tmp_path / "store.hsbt.key").read_text())
    if damage == "missing-root-id":
        del meta["root_id"]
    elif damage == "mistyped-integrity":
        meta["integrity"] = "yes"
    elif damage == "bad-hex":
        meta["tree_key"] = "zz" * 16
    elif damage == "root-out-of-range":
        meta["root_id"] = 10**6
    text = {"not-json": "{", "not-an-object": "[1, 2]"}.get(damage, json.dumps(meta))
    keyfile = tmp_path / "damaged.key"
    keyfile.write_text(text)
    for command in ("query", "audit"):
        argv = [command, "--index", str(out), "--key", str(keyfile)]
        argv += ["--range", "1:99"] if command == "query" else ["--input", str(dataset[0])]
        assert main(argv) == 1, (command, damage)
        assert capsys.readouterr().err.startswith("error:")


def test_build_missing_input_is_usage_error(tmp_path, capsys):
    argv = ["build", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.hsbt")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_audit_rejects_a_build_without_seed(tmp_path, dataset, capsys):
    # Without a seed the build drew its value order afresh, so the auditor's
    # rebuilt tree could never match; it must say so before any query runs.
    path, _ = dataset
    out = tmp_path / "u.hsbt"
    assert main(["build", "--input", str(path), "--b", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["audit", "--index", str(out), "--key", str(out) + ".key", "--input", str(path)]
    assert main(argv + ["--queries", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["tamper", "--n", "10"],
        ["tamper", "--n", "50", "--b", "100"],
        ["tamper", "--b", "2"],
        ["tamper", "--n", "0"],
        ["tamper", "--n", "16"],
        ["tamper", "--n", "22", "--b", "5"],
        ["bench", "--result-size", "0"],
        ["bench", "--reps", "0"],
        ["bench", "--n", "0"],
    ],
    ids="".join,
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def _valid_inputs(tmp_path, dataset):
    """Arguments that make each subcommand run, over a freshly built container."""
    out, _ = _build(tmp_path, dataset)
    return {
        "audit": ["--index", str(out), "--key", f"{out}.key", "--input", str(dataset[0])],
        "query": ["--index", str(out), "--key", f"{out}.key", "--range", "1:99"],
        "tamper": ["--n", "100"],
        "bench": ["--n", "100", "--result-size", "1", "--reps", "1"],
    }


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("audit", "--queries", "-3"),
        ("audit", "--queries", "0"),
        ("tamper", "--targets", "-2"),
    ],
)
def test_count_flags_below_one_are_usage_errors(tmp_path, dataset, capsys, command, flag, value):
    # Real inputs, so that only the flag can make the command a usage error.
    inputs = _valid_inputs(tmp_path, dataset)[command]
    capsys.readouterr()
    assert main([command, *inputs, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} must be at least 1, got {value}"]


@pytest.mark.parametrize("command", ["audit", "bench", "query", "tamper"])
def test_reserved_space_flag_is_unrecognized(tmp_path, dataset, capsys, command):
    # No subcommand takes `--reserved-space`: the enclave's batch budget is
    # its default, and argparse refuses the flag as a usage error.
    inputs = _valid_inputs(tmp_path, dataset)[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([command, *inputs, "--reserved-space", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = "hsbt: error: unrecognized arguments: --reserved-space 1"
    assert captured.err.splitlines()[-1] == error


def test_bench_with_every_cell_skipped_is_a_usage_error(tmp_path, capsys):
    # A cell whose result size exceeds its n is skipped; with none left the
    # run would print only the header and look like a success.
    out = tmp_path / "bench.csv"
    argv = ["bench", "--n", "100", "--b", "10", "--result-size", "200", "--reps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == ["error: every --result-size exceeds every --n: no cell to run"]


def test_bench_names_each_skipped_cell_on_stderr(capsys):
    # The r=200 cells cannot run at n=100; the r=50 rows still print.
    argv = ["bench", "--n", "100", "--b", "10", "--result-size", "50", "200", "--reps", "2"]
    assert main([*argv, "--construction", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["skipped: --result-size 200 exceeds --n 100"]
    rows = captured.out.splitlines()
    assert rows[0].startswith("construction,") and len(rows) == 2
    assert rows[1].split(",")[4] == "50"


@pytest.mark.parametrize("command", ["bench", "tamper"])
def test_n_beyond_the_key_space_is_a_usage_error_before_any_build(command, capsys, monkeypatch):
    def no_dataset(*args, **kwargs):
        raise AssertionError("a dataset was built")

    monkeypatch.setattr(bench_mod, "make_dataset", no_dataset)
    assert main([command, "--n", "4294967295"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --n must be at most 4294967294, the keys in the key space, got 4294967295\n"
    )


@pytest.mark.parametrize("b,n", [(5, 23), (40, 93)])
def test_tamper_runs_every_script_at_the_smallest_allowed_n(b, n, capsys):
    argv = ["tamper", "--targets", "3", "--b", str(b), "--n", str(n), "--seed", "2"]
    assert main(argv) == 0
    assert "0 undetected deviations" in capsys.readouterr().out
