"""Output pinned across versions, not only across runs.

Each case records the sha256 of stdout and the exit code of one
``cli.main`` call, so a change anywhere in the pipeline that moves a JSON,
CSV or DOT byte fails here.  The cases in ``GOLDEN_OUTCOMES`` also pin
stderr, and cover table output with every elapsed time masked.
"""

import hashlib
import re

import pytest

from divprime.cli import main

GOLDEN = [
    (
        ("verify", "1", "2000", "--format", "csv"),
        0,
        "056fa7274bb6510c660c14cb364864dec7125f9ef74ef37a47c8933864f1d9ce",
    ),
    (
        ("verify", "1", "10000", "--format", "csv"),
        0,
        "4dff4367a586b6c79c87c540bd7d01839531aa5621fd81f63b3c30c15131e895",
    ),
    (
        ("verify", "1", "300", "--format", "json"),
        0,
        "15a97a16024eac2da74959d46875649085c48ba37f8f0346f8ef8364f5e09bf0",
    ),
    (
        ("verify", "1", "300", "--cap", "8", "--format", "csv"),
        0,
        "57fbcdeaed6886cb0fe8553385683c72979ed8d384aa725bf47180b01729ca61",
    ),
    (
        ("compute", "183783600", "--with-oracle", "--format", "json"),
        0,
        "b200f7a0bb551f6ecd356d7fe394586b40c0c1090722dc272e8a88443ab18313",
    ),
    (
        ("compute", "183783600", "--with-oracle", "--format", "csv"),
        0,
        "b48c941fa72e2656e3860d539bd3563aa9074f6547432ce2a6d5af5c1e56ff4d",
    ),
    (
        ("compute", "720720", "--format", "json"),
        0,
        "b024a198ceabec71fbd1a3b19b40b4c3c7bd35fffd4102c198b50779d07a70d0",
    ),
    (
        ("export", "360", "--style", "dot"),
        0,
        "63a1432a13c18278f8ac31d1a4401818d320e125a3e865e207564a2666603c55",
    ),
    (
        ("export", "720720", "--style", "adjacency-json"),
        0,
        "b5e906219938f1704bc20fa8eca0d78bfa749151a6e7450bf9765c5cec42054b",
    ),
]


@pytest.mark.parametrize(("argv", "code", "digest"), GOLDEN, ids=["_".join(c[0]) for c in GOLDEN])
def test_output_is_byte_identical_to_the_recorded_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# One case per ``compute`` outcome and format not pinned above: closed form
# only, oracle skipped (exit 1) and verified, plus the sweep table.
_SKIPPED = "oracle skipped: divisor count 6 exceeds cap 4\n"
GOLDEN_OUTCOMES = [
    (
        ("compute", "720720", "--format", "csv"),
        0,
        "89ff6197edeba0cca4ef962599e9f3b3187c5f0e7ad04ee72cc6cbccea2d4e52",
        "",
    ),
    (
        ("compute", "12", "--with-oracle", "--cap", "4", "--format", "json"),
        1,
        "fdee8f254fb03910f8c773ab13db3100b67c1387c25dc2e70fc74b0463065939",
        _SKIPPED,
    ),
    (
        ("compute", "12", "--with-oracle", "--cap", "4", "--format", "csv"),
        1,
        "b5be2b4fdcb1d1acd5a5dd953ba7c8cec1ba231d6a928b189272277b594ff480",
        _SKIPPED,
    ),
    (
        ("compute", "30"),
        0,
        "2d6231e28e48345f902736e6da852dd4dd400753ac35095cddfcb9ed65ca45c9",
        "",
    ),
    (
        ("compute", "30", "--with-oracle"),
        0,
        "0f87222a0eb575dc06c180e59211fa98732554ccc85c240cd83e6bb2f502d87f",
        "",
    ),
    (
        ("compute", "12", "--with-oracle", "--cap", "4"),
        1,
        "731296f9d4528e8fa0758ed1b741a47249d66c48bdf87cc07ec4830091685bc4",
        _SKIPPED,
    ),
    (
        ("verify", "1", "300"),
        0,
        "ca70e78ae77799ed56e208259e73df5300611f9907e3225ac342d53072bce289",
        "",
    ),
]

_ELAPSED = re.compile(r"\d+\.\d+ s")


@pytest.mark.parametrize(
    ("argv", "code", "digest", "err"), GOLDEN_OUTCOMES, ids=["_".join(c[0]) for c in GOLDEN_OUTCOMES]
)
def test_outcome_is_byte_identical_to_the_recorded_digest(capsys, argv, code, digest, err):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    out = captured.out if "--format" in argv else _ELAPSED.sub("- s", captured.out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert captured.err == err
