import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sicherman.cli import (
    TEXT_TABLE_LIMIT,
    _any_length_integers,
    _json_pieces,
    build_parser,
    main,
)
from sicherman.counting import count_two_dice_trinomial
from sicherman.dice import Die, die_to_poly, poly_to_die
from sicherman.solver import ExponentVector

ROOT = Path(__file__).resolve().parent.parent


def json_text(value):
    """What `main` writes of `value`, the pieces joined."""
    out = []
    _json_pieces(value, out)
    return "".join(out)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_table(capsys):
    code, out, _ = run(capsys, "solve", "--sides", "6")
    assert code == 0
    assert "2 pairs, 3 distinct dice" in out
    assert "1,2,2,3,3,4 | 1,3,4,5,6,8" in out
    assert "1,2,3,4,5,6 | 1,2,3,4,5,6" in out


def test_solve_json_envelope(capsys):
    code, out, _ = run(capsys, "solve", "--sides", "6", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert set(env) == {"command", "parameters", "results", "status"}
    assert env["command"] == "solve"
    assert env["parameters"] == {"sides": 6}
    assert env["status"] == "ok"
    assert env["results"]["pair_count"] == 2
    assert [[1, 2, 2, 3, 3, 4], [1, 3, 4, 5, 6, 8]] in env["results"]["pairs"]
    # deterministic serialization round-trips byte for byte
    assert json.dumps(env, indent=2, sort_keys=True) == out.strip()


def test_solve_json_and_table_agree(capsys):
    _, table_out, _ = run(capsys, "solve", "--sides", "12")
    _, json_out, _ = run(capsys, "solve", "--sides", "12", "--format", "json")
    env = json.loads(json_out)
    assert f"{env['results']['pair_count']} pairs" in table_out


# The SHA-256 of the default table output, recorded before the tables were
# rendered from the JSON results, so the table bytes cannot drift.
TABLE_GOLDENS = [
    (["solve", "--sides", "12"], 0,
     "03dd0ebb5193f94c779402c9cac070a23a30e27d896cfeb28e95487af2f492e0"),
    (["mixed", "--sides", "2,8"], 0,
     "c608958bd5e8c66549a9ee0634ddfefe02852122869abe797e6e8248bcfab965"),
    (["unequal", "--sides", "6", "--targets", "4,9"], 0,
     "7a21e2c13e2c86b600afc6c10486c638715dc1fbc0d9733d173addb6afde39aa"),
    (["decompose", "--sides", "12", "--split", "3"], 0,
     "2d425bb23c3d0f8ee713ddf685130a58aa36839a66f9e634356e7e3fe1190730"),
    (["verify", "--die", "1,2,2,3,3,4", "--die", "1,3,4,5,6,8", "--reference", "6"],
     0, "9160780d5c504b1c6e70039d6782e0de65a7dc60e0eaf55356ff930d2619bc6b"),
    (["verify", "--die", "1,2,3", "--die", "1,2,3", "--reference", "6"], 1,
     "a6872e8dd0b785c341fbc9c740420154417131cc4d81204ea9e211bb27c05de4"),
    (["count", "--dice", "5", "--exponent", "80"], 0,
     "a0fd3ef59720c8cc078e4b1afc1ade9c7573be830a25555331db43e123f10622"),
    (["identities", "--bound", "12"], 0,
     "8b7dcaa4d69cd0d39c586f913657e4026a8e004760671b87bdad39b4424eb889"),
    (["oracle", "--sides", "12"], 0,
     "6cc968a1296e6ac02907af4d94f4142a6ec73c5513007dd812d39d759bc790bd"),
    (["certify", "--case", "pqr", "--primes", "2,3,5"], 0,
     "71fad7dc25af45f667ce7ba55b06641dea1cdbfa905a7a6857bf1899fae27f47"),
]


@pytest.mark.parametrize(
    "argv, want_code, want_sha", TABLE_GOLDENS,
    ids=[" ".join(argv) for argv, _, _ in TABLE_GOLDENS],
)
def test_table_output_is_pinned(capsys, argv, want_code, want_sha):
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


def test_solve_120_json_is_pinned(capsys):
    # the full-expansion referee in test_solver reaches only size 40; this
    # hash was recorded while every split was still expanded to x^16 alone
    code, out, _ = run(capsys, "solve", "--sides", "120", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["pair_count"] == 956
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "abf89134c39669e38559a02192a120b51a418521384a5b7e1b99abd843b51618"
    )


def test_python_dash_m_runs_the_cli(capsys):
    result = subprocess.run(
        [sys.executable, "-m", "sicherman", "solve", "--sides", "6"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    code, out, _ = run(capsys, "solve", "--sides", "6")
    assert (result.returncode, result.stdout, result.stderr) == (code, out, "")


def test_closed_pipe_exits_141_without_a_traceback():
    # as `sicherman solve --sides 96 | head -1`: the reader takes one line and
    # closes the pipe while most of the 400 kB of output is still unwritten
    with subprocess.Popen(
        [sys.executable, "-m", "sicherman", "solve", "--sides", "96"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ) as proc:
        assert proc.stdout.readline().startswith("m=96: 583 pairs")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


def test_closed_pipe_exits_141_without_a_traceback_on_json():
    # the JSON envelope is written as many pieces, so the pipe closes while
    # they are being written
    with subprocess.Popen(
        [sys.executable, "-m", "sicherman", "solve", "--sides", "96", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == ""


def test_solve_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--sides", "0")
    assert code == 2
    assert "error" in err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--sides", "six"])
    assert exc.value.code == 2


def test_search_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("SICHERMAN_SEARCH_CAP", "5")
    code, _, err = run(capsys, "solve", "--sides", "30")
    assert code == 3
    assert "81" in err
    monkeypatch.setenv("SICHERMAN_SEARCH_CAP", "junk")
    code, _, err = run(capsys, "solve", "--sides", "30")
    assert code == 2
    for raw in ("0", "-5"):
        monkeypatch.setenv("SICHERMAN_SEARCH_CAP", raw)
        code, out, err = run(capsys, "solve", "--sides", "1")
        assert code == 2 and out == ""
        assert "SICHERMAN_SEARCH_CAP must be positive" in err


def test_mixed(capsys):
    code, out, _ = run(capsys, "mixed", "--sides", "2,8")
    assert code == 0
    assert "3 pairs" in out
    code, _, err = run(capsys, "mixed", "--sides", "2")
    assert code == 2


def test_unequal(capsys):
    code, out, _ = run(capsys, "unequal", "--sides", "6", "--targets", "4,9")
    assert code == 0
    assert "1,2,2,3 | 1,3,3,5,5,5,7,7,9" in out
    code, _, err = run(capsys, "unequal", "--sides", "6", "--targets", "4,8")
    assert code == 2
    assert "do not multiply" in err


def test_unequal_nonpositive_targets(capsys):
    # (-6) * (-6) == 36, so a product mismatch would be the wrong message
    for targets in ("-6,-6", "0,36", "36,0"):
        code, out, err = run(capsys, "unequal", "--sides", "6", f"--targets={targets}")
        assert code == 2 and out == ""
        assert "face counts must be positive" in err
        assert "multiply" not in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--sides", "6", "--split", "2")
    assert code == 0
    assert "recipe: 1,2,3,3,4,4,5,5,5,6,6,6,7,7,8,8,9,10" in out
    assert "recipe matches expansion: yes" in out
    # the JSON recipe is the same label list
    code, out, _ = run(
        capsys, "decompose", "--sides", "6", "--split", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["results"]["recipe"] == [
        1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10
    ]
    code, _, err = run(capsys, "decompose", "--sides", "6", "--split", "4")
    assert code == 2
    assert "4 does not divide 6" in err


def test_decompose_nonpositive_split(capsys):
    # -2 divides 6, so "does not divide" would be the wrong message
    for split in ("-2", "0"):
        code, out, err = run(capsys, "decompose", "--sides", "6", f"--split={split}")
        assert code == 2 and out == ""
        assert f"split must be a positive divisor of 6, got {split}" in err


def test_decompose_rejects_a_die_above_the_face_bound(capsys):
    # the large die has sides^2/split faces, at most 10^6; (1000, 1) is
    # accepted by the library (test_solver), and the two past it are refused
    # before any work starts
    for sides, split, faces in (("1001", "1", 1002001), ("2000", "2", 2000000)):
        start = time.perf_counter()
        code, out, err = run(capsys, "decompose", "--sides", sides, "--split", split)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert f"would have {faces} faces, more than the maximum of 1000000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("solve --sides 50001", "die size 50001"),
        ("solve --sides 100003", "die size 100003"),
        ("solve --sides 1000000007", "die size 1000000007"),
        ("solve --sides 1000000000000000003", "die size 1000000000000000003"),
        ("mixed --sides 2,100003", "die size 100003"),
        ("mixed --sides 1000000007,2", "die size 1000000007"),
        ("unequal --sides 100003 --targets 1,10000600009", "die size 100003"),
        ("unequal --sides 224 --targets 1,50176", "face count 50176"),
        ("unequal --sides 224 --targets 50176,1", "face count 50176"),
    ],
)
def test_enumerations_reject_a_size_above_the_maximum(capsys, argv, message):
    # a prime size has one split, so the search cap never stops it; a size
    # or face count above 50000 is refused before anything is factored
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"{message} is more than the maximum of 50000" in err


@pytest.mark.parametrize(
    "argv, prime",
    [
        ("certify --case pqr --primes 10007,10009,10037", 10007),
        ("certify --case pqr --primes 1013,1019,1031", 1031),
        ("certify --case p2q --primes 2,1000000000000000003", 10**18 + 3),
    ],
)
def test_certify_rejects_a_prime_above_the_maximum(capsys, argv, prime):
    # the witness power grows like the product of two primes; a prime above
    # 1024 is refused before its primality test, which a huge one stalls
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"{prime} is more than the maximum of 1024" in err


def test_verify_rejects_too_many_face_pairs(capsys):
    # verify enumerates |d1| * |d2| + reference^2 face pairs, at most 4 * 10^6
    big = ",".join(map(str, range(1, 2001)))
    for dice, reference, pairs in (
        (["1,2", "1,2"], 10**6, 10**12 + 4),
        (["1,2", "1,2"], 2000, 4_000_004),
        ([big, big], 1, 4_000_001),
    ):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--die", dice[0], "--die", dice[1],
            "--reference", str(reference),
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert f"enumerate {pairs} face pairs, more than the maximum of 4000000" in err


@pytest.mark.parametrize("size", ["0", "-6"])
@pytest.mark.parametrize(
    "argv",
    [
        "solve --sides={}",
        "mixed --sides={},6",
        "unequal --sides={} --targets=6,6",
        "decompose --sides={} --split=1",
        "oracle --sides {}",
        "verify --die 1 --die 1 --reference {}",
    ],
)
def test_nonpositive_die_size(capsys, argv, size):
    # every command that takes a die size checks it, with one message
    code, out, err = run(capsys, *argv.format(size).split())
    assert (code, out, err) == (2, "", f"error: die size must be positive, got {size}\n")


def test_verify(capsys):
    code, out, _ = run(
        capsys, "verify", "--die", "1,2,2,3,3,4", "--die", "1,3,4,5,6,8",
        "--reference", "6",
    )
    assert code == 0
    assert out.strip() == "MATCH"
    code, out, _ = run(
        capsys, "verify", "--die", "1,2,3", "--die", "1,2,3", "--reference", "6"
    )
    assert code == 1
    assert out.startswith("MISMATCH at sum")
    code, _, _ = run(capsys, "verify", "--die", "1,2,3", "--reference", "6")
    assert code == 2


def test_verify_json_reports_difference(capsys):
    code, out, _ = run(
        capsys, "verify", "--die", "1,2,3", "--die", "1,2,3",
        "--reference", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["match"] is True
    code, out, _ = run(
        capsys, "verify", "--die", "1,1,4", "--die", "1,2,3",
        "--reference", "3", "--format", "json",
    )
    assert code == 1
    env = json.loads(out)
    assert env["status"] == "fail"
    assert env["results"]["first_difference"]["sum"] == 2


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--exponent", "5")
    assert code == 0 and out.strip() == "126"
    code, out, _ = run(capsys, "count", "--dice", "2", "--exponent", "5")
    assert code == 0 and out.strip() == "51"
    code, _, _ = run(capsys, "count", "--dice", "2", "--exponent", "0")
    assert code == 2


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_count_prints_answers_of_any_length(capsys, fmt):
    # C(19999, 9999) has 6018 digits, above the interpreter's default limit
    # of 4300 on int-to-text conversion; Decimal parses text without it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "count", "--exponent", "10000", "--format", fmt)
    assert code == 0 and err == ""
    text = json.loads(out, parse_int=str)["results"]["count"] if fmt == "json" else out
    assert Decimal(text.strip()) == math.comb(19999, 9999)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_count_of_two_dice_at_a_large_exponent_is_quick(capsys):
    # the central trinomial numbers, by k T_k = (2k - 1) T_(k-1) + 3(k - 1) T_(k-2)
    prev, cur = 1, 1
    for k in range(2, 10_001):
        prev, cur = cur, ((2 * k - 1) * cur + 3 * (k - 1) * prev) // k
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--dice", "2", "--exponent", "10000")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    assert Decimal(out.strip()) == cur


def test_count_rejects_an_exponent_above_the_maximum(capsys):
    # the cost of a count grows faster than k, so a larger exponent is
    # refused before any work starts; 20001 comes first, since without the
    # cap it still ends within the time check
    for dice in ([], ["--dice", "1"], ["--dice", "2"]):
        for exponent in (20_001, 10**5, 10**12):
            start = time.perf_counter()
            code, out, err = run(capsys, "count", *dice, "--exponent", str(exponent))
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert f"exponent must be at most 20000, got {exponent}" in err


@pytest.mark.parametrize("argv, message", [
    (["--dice", "0", "--exponent", "3"], "number of dice must be positive, got 0"),
    (["--dice", "-2", "--exponent", "3"], "number of dice must be positive, got -2"),
    (["--exponent", "0"], "exponent must be positive, got 0"),
    (["--dice", "2", "--exponent", "-1"], "exponent must be positive, got -1"),
])
def test_count_names_the_value_it_refuses(capsys, argv, message):
    assert run(capsys, "count", *argv) == (2, "", f"error: {message}\n")


def test_count_at_the_maximum_exponent(capsys):
    code, out, err = run(capsys, "count", "--exponent", "20000")
    assert code == 0 and err == ""
    assert Decimal(out.strip()) == math.comb(39_999, 19_999)
    code, out, err = run(capsys, "count", "--dice", "2", "--exponent", "20000")
    assert code == 0 and err == ""
    assert Decimal(out.strip()) == count_two_dice_trinomial(20_000)


# JSON values as envelopes hold them, with the leaves the writer treats
# apart: ints of any length, bools among ints, None, and strings that need
# escapes
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([1, -1]).map(lambda sign: sign * 7**5200)  # 4,395 digits
    | st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé\u2028漢\U0001f3b2'))
    | st.text()
)
# ints around the bounds of the writer's table of decimal texts, [0, 2^16),
# and of the power-of-two table sizes inside it, mixed with ints outside it
table_ints = (
    st.integers(0, 300)
    | st.integers((1 << 16) - 300, (1 << 16) + 300)
    | st.sampled_from([-1, 0, 1, 255, 256, (1 << 16) - 1, 1 << 16, 7**5200])
    | st.booleans()
)
# dice with labels near the bounds of the label texts' power-of-two tables,
# some above TEXT_TABLE_LIMIT, each made from labels or from coefficients
die_labels = st.lists(
    st.integers(1, 300) | st.sampled_from([255, 256, (1 << 16) - 1, 1 << 16, 70_000]),
    min_size=1,
    max_size=8,
)
dice = die_labels.map(Die) | die_labels.map(lambda v: poly_to_die(die_to_poly(Die(v))))
# exponent vectors whose divisors sort one way as ints and another as text
# (2 < 10, "10" < "2"), of none, one or many divisors
vectors = st.dictionaries(
    st.integers(1, 2000) | st.sampled_from([1, 2, 10, 12, 100, 1000]),
    st.integers(-3, 9) | st.sampled_from([0, 10, 10**30]),
    max_size=12,
).map(ExponentVector.from_dict)


def labels_list(obj):
    """json.dumps's `default`: a die is dumped as its label list."""
    if isinstance(obj, Die):
        return list(obj.labels)
    raise TypeError(f"{obj!r} is not JSON serializable")


def vectors_as_dicts(value):
    """value with each exponent vector in it replaced by the dict of its
    entries with `str` keys, which json.dumps would write as a list."""
    if isinstance(value, ExponentVector):
        return {str(d): c for d, c in value.entries}
    if isinstance(value, (list, tuple)):
        return [vectors_as_dicts(item) for item in value]
    if isinstance(value, dict):
        return {key: vectors_as_dicts(item) for key, item in value.items()}
    return value


json_values = st.recursive(
    json_leaves | dice | vectors,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans())
    | st.lists(table_ints)
    | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@given(json_values)
def test_json_writer_matches_json_dumps(value):
    with _any_length_integers():
        plain = vectors_as_dicts(value)
        want = json.dumps(plain, indent=2, sort_keys=True, default=labels_list)
        assert json_text(value) == want


@pytest.mark.parametrize(
    "value",
    [
        # a list of one int is written without the table
        [0],
        [7],
        [65535],
        [True],
        [-1],
        # a dict's int values are written in place, its other values nested
        {"a": 0, "b": -3, "c": 65536, "d": 7**5200},
        {"a": True, "b": False, "c": None, "d": 1},
        {"x": {"y": [1, 2], "z": {"w": 5}}, "v": [[3], {"u": 4}], "t": []},
        {"n": [None, True, 2], "e": {}, "s": "text"},
    ],
)
def test_json_writer_matches_json_dumps_on_short_lists_and_dicts(value):
    with _any_length_integers():
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "labels",
    [
        (1,),  # one face
        (5, 5, 5),  # one label, repeated
        (1, 2, 2, 3, 3, 4),
        (1, 3, 4, 5, 6, 8),
        (2, 2, 7, 7, 7, 300),
        (1, TEXT_TABLE_LIMIT - 1),  # the top label of the largest table
        (1, 70_000),  # above every table: written from its labels
    ],
)
def test_json_writer_writes_a_die_as_its_label_list(labels):
    for die in (Die(labels), poly_to_die(die_to_poly(Die(labels)))):
        for value in (die, [die, die], {"results": {"pairs": [[die, Die((1,))]]}}):
            want = json.dumps(value, indent=2, sort_keys=True, default=labels_list)
            assert json_text(value) == want


def test_solve_json_builds_no_label_tuple(capsys, label_builds):
    # the solver's dice hold coefficients, and the writer writes from them
    code, out, _ = run(capsys, "solve", "--sides", "96", "--format", "json")
    assert code == 0 and json.loads(out)["results"]["pair_count"] == 583
    assert label_builds == []
    # the hook sees a build, so the count above can fail
    poly_to_die(die_to_poly(Die((1, 2, 2, 3)))).labels
    assert label_builds == [(0, 1, 2, 1)]


def test_json_writer_reuses_its_text_tables():
    # a table built for large labels, then a small one, then the large again,
    # for a die of labels, a die of coefficients and a plain list of ints
    large = [1, 2, 39_999, 40_000]
    small = [1, 2, 3, 5]
    for labels in (large, small, large):
        for value in (
            {"labels": labels},
            {"labels": Die(labels)},
            {"labels": poly_to_die(die_to_poly(Die(labels)))},
        ):
            want = json.dumps(value, indent=2, sort_keys=True, default=labels_list)
            assert json_text(value) == want


def test_decompose_json_builds_no_label_tuple(capsys, label_builds):
    # the expansion's die and the closed-form recipe both hold coefficients,
    # so they compare, count and are written without their labels
    code, out, _ = run(
        capsys, "decompose", "--sides", "111", "--split", "1", "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0 and results["recipe_matches"] is True
    assert results["recipe"] == results["pairs"][0][1]
    assert len(results["recipe"]) == 111 * 111
    assert label_builds == []


def test_verify_a_die_with_a_huge_label(capsys):
    # a die given as text keeps its labels: one label of 10^9 would be a
    # coefficient tuple of 10^9 + 1 entries, so this runs in a process
    # limited to 1 GB, where building one raises MemoryError
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    result = subprocess.run(
        [sys.executable, "-m", "sicherman", "verify", "--die", "1,1000000000",
         "--die", "1,2", "--reference", "2"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 1 and result.stderr == ""
    assert result.stdout == "MISMATCH at sum 3: got 1, want 2\n"


def test_json_writer_rejects_a_key_that_is_not_text():
    # json.dumps would write the key 1 as "1"
    with pytest.raises(TypeError):
        json_text({"results": {1: [2, 3]}})


def test_identities(capsys):
    code, out, _ = run(capsys, "identities", "--bound", "12")
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    code, out, _ = run(capsys, "identities", "--bound", "12", "--format", "json")
    env = json.loads(out)
    assert env["results"]["all_passed"] is True


def test_identities_json_checks_have_the_record_fields(capsys):
    code, out, _ = run(capsys, "identities", "--bound", "12", "--format", "json")
    checks = json.loads(out)["results"]["checks"]
    assert code == 0 and len(checks) == 10
    for check in checks:
        assert sorted(check) == ["cases", "counterexample", "name", "passed"]


def test_identities_rejects_a_bound_above_the_maximum(capsys):
    # the battery grows threefold to sevenfold per doubling of the bound, so
    # a large bound is refused before any work starts; 1001 comes first,
    # since without the cap it still ends (in 5 to 7 s) and fails the time
    # check
    for bound in (1001, 100_000, 10**12):
        start = time.perf_counter()
        code, out, err = run(capsys, "identities", "--bound", str(bound))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"bound must be at most 1000, got {bound}" in err


def test_import_loads_neither_dataclasses_nor_inspect():
    # each command is a fresh process, and `dataclasses` with the `inspect`
    # it imports was most of the time `import sicherman` took
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sicherman, sicherman.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--sides", "6")
    assert code == 0
    assert "2 pairs" in out
    assert "1,2,2,3,3,4 | 1,3,4,5,6,8" in out
    code, _, err = run(capsys, "oracle", "--sides", "9", "--max-nodes", "5")
    assert code == 3


def test_oracle_deep_search_exits_on_budget():
    # a search deeper than Python's recursion limit ends on its node budget
    result = subprocess.run(
        [sys.executable, "-m", "sicherman.cli", "oracle", "--sides", "600",
         "--max-nodes", "20000"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 3
    assert result.stderr.startswith("error: more than 20000 nodes at size 600")
    assert "Traceback" not in result.stderr


def test_oracle_budget_below_the_floor_exits_before_building():
    # 10 nodes cannot finish a search at size 10^12, so it ends before the
    # sum table of 4 * 10^12 entries is built; the address-space limit turns
    # a build into a quick MemoryError rather than a machine out of memory
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    result = subprocess.run(
        [sys.executable, "-m", "sicherman.cli", "oracle", "--sides",
         str(10**12), "--max-nodes", "10"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 3
    assert result.stderr == f"error: more than 10 nodes at size {10**12}\n"


@pytest.mark.parametrize("sides", [100_001, 1_000_000])
def test_oracle_rejects_a_size_above_the_maximum(capsys, sides):
    # the node budget bounds nodes, not the tables a branch builds
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--sides", str(sides))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"die size {sides} is more than the maximum of 100000" in err


def test_oracle_rejects_nonpositive_budget(capsys):
    for raw in ("0", "-1"):
        code, out, err = run(capsys, "oracle", "--sides", "3", "--max-nodes", raw)
        assert code == 2 and out == ""
        assert "max_nodes must be at least 1" in err


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", "--case", "p2q", "--primes", "2,3")
    assert code == 0
    assert "vector (2, 0, 1, 2): coefficient -2 at x^3" in out
    code, out, _ = run(
        capsys, "certify", "--case", "pqr", "--primes", "2,3,5", "--format", "json"
    )
    assert code == 0
    env = json.loads(out)
    assert len(env["results"]["certificates"]) == 4
    assert all(c["coefficient"] < 0 for c in env["results"]["certificates"])
    code, _, _ = run(capsys, "certify", "--case", "p2q", "--primes", "2,4")
    assert code == 2
    code, _, _ = run(capsys, "certify", "--case", "pqr", "--primes", "2,3")
    assert code == 2


# -- the parser is built once per process and reused ---------------------------


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_die_list(capsys):
    # `--die` appends; a list carried over from one parse to the next would
    # give the second call four dice and a usage error
    code, out, _ = run(
        capsys, "verify", "--die", "1,2,2,3,3,4", "--die", "1,3,4,5,6,8",
        "--reference", "6", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["parameters"]["die"] == ["1,2,2,3,3,4", "1,3,4,5,6,8"]
    code, out, _ = run(
        capsys, "verify", "--die", "1,1,4", "--die", "1,2,3",
        "--reference", "3", "--format", "json",
    )
    assert code == 1
    env = json.loads(out)
    assert env["parameters"]["die"] == ["1,1,4", "1,2,3"]
    assert env["results"]["first_difference"]["sum"] == 2


def test_reused_parser_keeps_no_format(capsys):
    _, json_out, _ = run(capsys, "solve", "--sides", "6", "--format", "json")
    assert json.loads(json_out)["results"]["pair_count"] == 2
    code, out, _ = run(capsys, "solve", "--sides", "6")
    assert code == 0
    assert out.startswith("m=6: 2 pairs, 3 distinct dice\n")


def test_reused_parser_works_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--sides", "six"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "solve", "--sides", "6")
    assert code == 0
    assert "2 pairs" in out
