"""Golden stdout digests: every subcommand at its defaults, plus a few
non-default runs, frozen.

The SHA-256 of each command's stdout was recorded once, before the Life
step and the glider detection were rewritten for speed, and must never
change. To check a new subcommand, add its digest from a run of the code
whose output is meant to be the reference; never update a digest to make
a changed output pass.
"""

import json
from hashlib import sha256
from pathlib import Path

import pytest

from lifelens.ca import glider_block_scene, render_pattern
from lifelens.cli import main
from lifelens.seeds import DEFAULT_SEED

GOLDEN = {
    "observe": "df5a1ba72d8008ddb0c8acf93e20c7e9133b6736a67e62d9375d8f2b1c4877a4",
    "observe --format csv": "6cbd40fd7cf7176ac8c22d85d48133ad42f09adb9c88d1e2faa37cd51880e993",
    "observe --scene lone-glider": "01c4974ae93e65453de0f406dc1ff66f32e74c2b7384fd05372c668e0fca608e",
    "observe --scene lone-glider --format csv": "06a2958f87e5d13faf31e69fd1e87a561eed9f9e6f16b2c5590abb9b48095eb3",
    "observe --scene block-only": "ab5c54497eb9464b03a141aff0ce54265dda273a1ec38e6d20c889bffcaae608",
    "observe --scene block-only --format csv": "9c2255844f55a2366f44042e7e81e4fdd9fda98a1def6215eedd8721e407c3a3",
    "updown": "5e53b5fbcf8dd0049ca8efda72fa2749d247eb2056db745aa40af6ff109ddc3d",
    "updown --format csv": "1a96e23b16a021970d01bde1812d7bb4d1a5a86c60a1fb161bae6ae4e36e245c",
    "coop": "33da0c890cedc33c0a3babdd09ef1c19f2f368bc6dbbdeed8f71fc04b93dd33c",
    "coop --format csv": "47adc750920a65d65fe29fcf21db1eb6fb6d05987efe7148143b1d82a2dbc787",
    "market": "13d47f4161f670106b40f0c58c92ce6a942ab1cf84804bf55ff4e809746696ba",
    "market --format csv": "7ef716ad2f1ab8e27365fefe63c2ad931a834dae24b1987e5c5f15be64af7091",
    "theorem": "51bf9ad46b672c485c2f15f718e7ef2062a9f94655ebb858b1f134a059c001d7",
    "life scene.txt": "0f5278bb03b3deb1c895f60ba1c33969468f144e2cd9351bac7f492a4c8b1fec",
    # Non-default runs of the experiment kernels and the witness scan,
    # recorded before each was rewritten to make a single pass.
    "updown --n 13 --format csv": "a9865ccbbf3302cb7b1eb1578f080506a14c04a709cc941c39c7d8fbab7348c1",
    "coop --env-size 7 --population 50 --flip-probability 0.3 --reps 30 --seed 5":
        "3fedaa676f47d295eb78d0601ff818be78fe6dfdc8d7a3f7078dbc0e724e6eef",
    "market --tests 20 --group-size 7 --days 3 --seed 9 --format csv":
        "bfaed8ef018b4c5acaf423fa90c4fb36442b44d3a31a420ccc78b7139a742cc7",
    "theorem --trials 3000 --max-len 40 --seed 5":
        "5e5ed4695687f15d207301cc8ccef4f948298a0f95047cab679254289dce7f13",
    # Recorded before market weeks moved onto plain ints and victories_dp
    # onto accumulated prefix sums: long weeks with recurring prices and
    # many clamped trades, one-day weeks, and a word past the table's n.
    "market --tests 30 --group-size 25 --days 12 --seed 3":
        "31b1b883bbe53ebb8c3d54ce2665832f244579e4e210ac68ca45bab814e77246",
    "market --tests 40 --group-size 10 --days 1 --seed 8 --format csv":
        "3ccb6da337ce4ad36a04373af259bbe786a56ce83901b64ca43e58ba59925db1",
    "updown --strategy UDDUUDUDDDUUUDUDDUUDDDUU":
        "cc14a7d480d6a70b8f6fdaf8554b7953d49add5dc0690bb7669b9ad549574aec",
    # Recorded before render_pattern moved onto packed rows: a viewport
    # that crops the scene on all four sides, and one of zero width with
    # a negative origin.
    "life scene.txt --steps 30 --viewport=2,1,5,4":
        "20f4e3a46d89407ea1ad19a1b6c4bdcc6613d9f88ce88f4fc63697a2574684c0",
    "life scene.txt --steps 2 --viewport=-3,-2,0,3":
        "22546a1ef056e390227ac65d43ad38d1c31ed41cf0f613ae53724a881026d46d",
    # Recorded before victory_table walked the word trie: the largest
    # table the CLI accepts.
    "updown --n 16 --format csv":
        "7bba1d059d6c7308b9f29e26e53a104f3345761a1198491f26a37dffbcf09014",
    # The benchmark's digest, frozen before the table became plain
    # (word text, wins) rows: the report form and its maximizer line.
    "updown --n 16":
        "c98ef5b3371fecabd8f789136c9f5b384595f9fced682c580661503bd5faa647",
}

SEEDED = ("coop", "market", "theorem")

BENCH_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_stdout_matches_the_frozen_digest(label, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.txt").write_text(render_pattern(glider_block_scene()), encoding="ascii")
    code = main(label.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == GOLDEN[label]


def bench_label(label: str) -> str:
    """The benchmark's label for the same run: seeded commands there pass
    the default seed explicitly, right after the subcommand."""
    command, *rest = label.split()
    if command in SEEDED:
        return " ".join([command, "--seed", str(DEFAULT_SEED), *rest])
    return label


def test_agrees_with_the_benchmark_digests():
    bench = json.loads(BENCH_DIGESTS.read_text(encoding="ascii"))
    shared = {label: bench[bench_label(label)]
              for label in GOLDEN if bench_label(label) in bench}
    assert shared
    assert shared == {label: GOLDEN[label] for label in shared}
