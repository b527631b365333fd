"""Seeded fuzz of the matrix file reader.

Every corrupted body must make `structmat info` exit with code 4 and name
the line that a line-by-line reader names.  Valid but unusual bodies must
read the same values through the bulk parse as through the per-line parser.
"""

import numpy as np
import pytest

from structmat import Circulant, Toeplitz, fileio, read_matrix, write_matrix
from structmat.cli import EXIT_IO, main

from conftest import random_complex, same_bits

SHAPES = {"circulant": (6,), "toeplitz": (3, 5), "dense": (2, 4), "vector": (5,)}

# tokens float() rejects
GARBAGE = ["bogus", "1..0", "--1", "0x10", "1e", "1,5", "inff", "(1)", "1j", "#"]


def valid_value(kind, rng):
    """A value of `kind`, complex or real, and the length of its body."""
    dims = SHAPES[kind]
    size = sum(dims) - 1 if kind == "toeplitz" else int(np.prod(dims))
    x = random_complex(rng, size) if rng.integers(2) else rng.standard_normal(size)
    x[0] += 10.0  # circulants need nonzero eigenvalues
    if kind == "circulant":
        return Circulant(x), size
    if kind == "toeplitz":
        return Toeplitz.from_diagonals(x, *dims), size
    return x.reshape(dims), size


def corrupt(lines, how, k, rng):
    """Corrupt body line k (0-based) of `lines`; return the new text and
    the message the reader must give."""
    body = list(lines[1:])
    expected = len(body)
    named = f"line {k + 2}: "
    fields = body[k].split()
    if how == "non_utf8":
        # one byte of 0x80-0xff amid ASCII text is never valid UTF-8
        raw = [line.encode("utf-8") for line in lines]
        cut = int(rng.integers(len(raw[k + 1]) + 1))
        raw[k + 1] = raw[k + 1][:cut] + bytes([rng.integers(0x80, 0x100)]) + raw[k + 1][cut:]
        return b"\n".join(raw) + b"\n", named + "not UTF-8 text"
    if how == "drop_field":
        body[k] = fields[rng.integers(2)]
        want = named + "expected two numeric fields"
    elif how == "extra_field":
        body[k] += " " + fields[0]
        want = named + "expected two numeric fields"
    elif how == "garbage":
        fields[rng.integers(2)] = GARBAGE[rng.integers(len(GARBAGE))]
        body[k] = " ".join(fields)
        want = named + "could not parse numeric fields"
    elif how == "hash_comment":
        body[k] += " # comment"
        want = named + "expected two numeric fields"
    elif how == "blank_line":
        body[k] = " \t"
        # a blank last line is trailing, and trailing blank lines are dropped
        want = (f"needs {expected} entry lines, found {expected - 1}"
                if k == expected - 1 else named + "expected two numeric fields")
    elif how == "inserted_blank":
        body.insert(k, "")
        want = f"needs {expected} entry lines, found {expected + 1}"
    elif how == "truncated":
        body = body[:k]
        want = f"needs {expected} entry lines, found {k}"
    else:
        raise AssertionError(how)
    return ("\n".join([lines[0]] + body) + "\n").encode("utf-8"), want


HOWS = ["drop_field", "extra_field", "garbage", "hash_comment", "blank_line",
        "inserted_blank", "truncated", "non_utf8"]


@pytest.mark.parametrize("kind", sorted(SHAPES))
@pytest.mark.parametrize("how", HOWS)
def test_corrupted_bodies_exit_io_naming_the_line(tmp_path, capsys, kind, how):
    rng = np.random.default_rng([HOWS.index(how), sorted(SHAPES).index(kind)])
    value, size = valid_value(kind, rng)
    path = tmp_path / "m.smt"
    write_matrix(path, value)
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in sorted({0, size - 1, int(rng.integers(size))}):
        data, want = corrupt(lines, how, k, rng)
        path.write_bytes(data)
        code = main(["info", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_IO, (data, err)
        assert err.startswith("error: MatrixFileError: ") and want in err, (data, err)


def per_line_values(lines):
    return np.array([fileio._parse_entry(line, i + 2) for i, line in enumerate(lines)])


UNUSUAL = ["  1.5\t\t-2 ", "+inf -inf", "NaN 0", "-0 -0", "1e-320 0", "\t3   4",
           "nan nan", "-inf +0", "1E+3 .5", "infinity -Infinity", "1e400 -1e-400",
           "4.9e-324 0", "-2\u3000\x1f7"]


@pytest.mark.parametrize("seed", range(6))
def test_unusual_valid_bodies_read_the_same_on_both_paths(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    lines = list(rng.choice(UNUSUAL, size=int(rng.integers(1, 9))))
    want = per_line_values(lines)
    path = tmp_path / "v.smt"
    path.write_text(f"smt vector {len(lines)}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    with monkeypatch.context() as m:
        # the bulk parse takes these bodies whole; the per-line parser never runs
        m.setattr(fileio, "_parse_entry", None)
        assert same_bits(fileio._parse_body(lines), want)
        got = read_matrix(path)
    assert same_bits(got, want.real if np.all(want.imag == 0.0) else want)


def test_tokens_only_float_reads_fall_back_to_the_per_line_parser(tmp_path):
    # underscores and non-ASCII digits are numbers to float() but not to
    # the bulk parser, so the per-line parser accepts them
    lines = ["1_0 2_5", "1e5_0 0", "١٢ 0", "1 0"]
    want = per_line_values(lines)
    assert same_bits(want, np.array([10 + 25j, 1e50, 12, 1], dtype=complex))
    assert same_bits(fileio._parse_body(lines), want)
    path = tmp_path / "v.smt"
    path.write_text("smt vector 4\n" + "\n".join(lines) + "\n", encoding="utf-8")
    assert same_bits(read_matrix(path), want)


def test_written_files_never_reach_the_per_line_parser(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_parse_entry", None)
    rng = np.random.default_rng(9)
    for kind in sorted(SHAPES):
        value, _ = valid_value(kind, rng)
        write_matrix(tmp_path / "m.smt", value)
        read_matrix(tmp_path / "m.smt")
