"""The report bytes of every command, pinned by sha256: `decide-ssp`, `ideals`,
`spectrum` and `census` (on the default catalog and on one-ring catalogs of
rings larger than any in it), `factor` over Z and two quadratic orders, and
`sf-chain` from an argument and from a file.  A change to how the engines
compute, or to how the CLI assembles a report, must not change what it
reports."""

import hashlib
import json

import pytest

from test_cli import run_cli

RINGS = {
    "Z12": {"zn": 12},
    "Z2xZ2^6": {"idealization": {"zn": 2, "module_rank": 6}},
    "(Z8)^3": {"product": [{"zn": 8}] * 3},
    "Z2^8": {"product": [{"zn": 2}] * 8},
    "Z2[x]/(x^3)": {"poly_quotient": {"zn": 2, "f": [0, 0, 0, 1]}},
    "Z2^10": {"product": [{"zn": 2}] * 10},
    "Z2^12": {"product": [{"zn": 2}] * 12},
    "Z4096": {"zn": 4096},
}

DIGESTS = [
    ("decide-ssp", "Z12", "2b53851c8fc6611907402efabecc01a134f63211022e91c1db0ba5357c2e6382"),
    ("ideals", "Z12", "cd8d62c2cc4e368dda14db8307631cd063f3dd9fd22389e808a256a902797575"),
    ("spectrum", "Z12", "37de479c018e4181623024418879723c3b3b5889bb536d34fb9600da241fa836"),
    ("decide-ssp", "Z2xZ2^6", "e8a95c791988a4ca9662b5acb3c4d4f2a2682ac32f9a746f09cbed242444f2ac"),
    ("ideals", "Z2xZ2^6", "f803f4b4fc38de28679098462ffb3015094e2dadc8ce43912c73b75db574f707"),
    ("spectrum", "Z2xZ2^6", "b1eafbd68e0d81a76535aa482b1a66d90971d47f14b989df8bafa236bebab5e7"),
    ("decide-ssp", "(Z8)^3", "b26e744e1e742494723b64b296997e5bcbdedd0b767c411b5efd3b76ac4b1be0"),
    ("ideals", "(Z8)^3", "71fe67726add7b731aad406755f2c8d27e6c3324ce33b64e1c87947ad4c1ccd0"),
    ("spectrum", "(Z8)^3", "48adea7d197de73fe6ef28e9ce928ee643399ba46c526eb2d2a72abb01c11311"),
    ("decide-ssp", "Z2^8", "51517404e7b7b9a450cf94555dd4bef01757256511525fcb912267d71a01ec6b"),
    ("ideals", "Z2^8", "92e3cfe5925186d9745a26ed4e6760f38e5376c6a9b53f92a217662cf14cd2bf"),
    ("spectrum", "Z2^8", "15147997cdb38290f7ca7e616cfe67580e914defe8b1d6be2390e7916f1e0554"),
    ("decide-ssp", "Z2[x]/(x^3)", "3a58055718f52e745e0726336d0b5abc6fe483ab0872bd4a53f136f0b168c9e7"),
    ("ideals", "Z2[x]/(x^3)", "0b7d25e1032291c7457c8e16d1df12c5d533ccbe909a4c0616c3ccdd3f88dda6"),
    ("spectrum", "Z2[x]/(x^3)", "5b0f112dd9b2a651f4ebee51b7d3c417640223017bc2809f4abc439a2a0a7753"),
]

# one-ring census catalogs, from order 128 to the order bound
CENSUS_DIGESTS = [
    ("Z2^10", "a51715b20467bb6bd833286099196279650090c0f3f16220d92fd24ec18ce09a"),
    ("Z2^12", "498458451a73e168c0bceebf83259082074f5731b232d0b8ce26d3accdf1e80f"),
    ("Z2xZ2^6", "c37c8d11409e64e7eed98a70505d653f57b81de8d38f4041e38d73b330dd35e7"),
    ("(Z8)^3", "f7caac97a310821f8be91a94b0789b6094d7b75d7b0b5286341b8b9b318e2627"),
    ("Z4096", "a5a6a381f46c56b93042e86a54a14e0353a4ab4aaa177481baef75d71a718dd1"),
]


FACTOR_DIGESTS = [
    ({"zint": 12}, "451ff2c73ae6aeab92d3b92eeb559bd2850669216579dcb80c8327ddaa60a99d"),
    ({"d": -5, "gens": ["6"]}, "d536e5323ee2a142f1118a6c53a2fc1f951f675c25243805ef35d59ea761db2b"),
    ({"d": -7, "gens": ["2", "1+w"]},
     "34227da4194abae9734987eb0c2e9e527ff8f7f4209ae490cb99487d21e42ea5"),
]

SF_CHAIN_LINES = "x^2-1\n\nx^4-2*x^2+1\n3/2*x^5-x^3+1/7*x^2\n2*x^6+4*x^4-2*x^2-4\n"


def sha256_of_report(capsys, tmp_path, command, payload):
    argv = command if isinstance(command, list) else [command]
    code, out, err = run_cli(capsys, argv, payload, tmp_path)
    assert code == 0 and err == ""
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command, ring, digest", DIGESTS,
                         ids=[f"{c}-{r}" for c, r, _ in DIGESTS])
def test_ring_report_bytes_are_pinned(capsys, tmp_path, command, ring, digest):
    assert sha256_of_report(capsys, tmp_path, command, RINGS[ring]) == digest


def test_default_census_report_bytes_are_pinned(capsys, tmp_path):
    assert sha256_of_report(capsys, tmp_path, "census", {"catalog": "default"}) == \
        "71f46c8d25ef2ae098e8670475ddcc565462c9b2b9346c29e296fe10b302cf33"


@pytest.mark.parametrize("ring, digest", CENSUS_DIGESTS, ids=[r for r, _ in CENSUS_DIGESTS])
def test_census_report_bytes_on_large_rings_are_pinned(capsys, tmp_path, ring, digest):
    assert sha256_of_report(capsys, tmp_path, "census", {"catalog": [RINGS[ring]]}) == digest


@pytest.mark.parametrize("payload, digest", FACTOR_DIGESTS,
                         ids=[json.dumps(p) for p, _ in FACTOR_DIGESTS])
def test_factor_report_bytes_are_pinned(capsys, tmp_path, payload, digest):
    assert sha256_of_report(capsys, tmp_path, "factor", payload) == digest


def test_sf_chain_report_bytes_are_pinned(capsys, tmp_path):
    assert sha256_of_report(capsys, tmp_path, ["sf-chain", "x^3-x^2-x+1"], None) == \
        "9d98b80fdab07edfae166906458401665dc554cd35cc3273d612344357bd8c3b"
    path = tmp_path / "polys.txt"
    path.write_text(SF_CHAIN_LINES)
    assert sha256_of_report(capsys, tmp_path, ["--input", str(path), "sf-chain"], None) == \
        "0e27b919323021ce33598a04e334d0b01f61995d72df645c80a26550807c9a15"
