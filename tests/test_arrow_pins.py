"""Byte pins of arrow verdict documents in all three modes.

Each digest covers a whole verdict document, so a verdict, work counter,
note or counterexample that moves changes it.
"""

import hashlib
import json

import pytest

from ramseylab.arrow import ArrowQuery, arrow_check, ramsey_table
from ramseylab.cli import parse_class


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


PINS = [
    ("or", 1, 3, 2, 2, "exhaustive", {}, "8286d27f5b747559d4e6380ee04d2d608e5bdc3cf5982f1516219a03eda0d6ca"),
    ("or", 2, 3, 2, 2, "exhaustive", {}, "6702707bfe1df0b2c61d103a9f547c125f7d3428364d80dd05c241e2f082d99d"),
    ("or", 3, 3, 2, 2, "exhaustive", {}, "135dd18da08dfc61cb07651ef5f633303d7bd15acddef6f47c20c3cb3c4ce690"),
    ("or", 4, 3, 2, 2, "exhaustive", {}, "f76a1e800488c6fc8c9ea98ee9b4b32af4849401fe9767af88d37d32b0924596"),
    ("or", 5, 3, 2, 2, "exhaustive", {}, "8904d87db2d7c86b5f7e3781e73c386425c077d7c2650eab76f7b2b127c52b82"),
    ("or", 6, 3, 2, 2, "exhaustive", {}, "6310563ed2f8589d2c8821f24eb221e1514579d9d8566782207b3a29b7df4971"),
    ("chi_or:2", 3, 1, 2, 2, "exhaustive", {}, "6bad73c50238a3425ad7a9f4193e9f0f3cb1a0dd5cb0ac0ad47dab4550274924"),
    ("ceq", 3, 2, 1, 2, "exhaustive", {}, "979a0346411a55d8c8a9ebee569cc36cf81945b5520c832e83a8999e78ca6abb"),
    ("or", 6, 3, 2, 3, "exhaustive", {}, "9f21ea216528044823bc0ba0388523af753f55e11cf32d3aaedce5e0235a21da"),
    ("or", 22, 3, 1, 1, "exhaustive", {}, "d53b4f0456eb56772a275bdc8c63e090eb0004f953d656465e9ac1d012079453"),
    ("or", 21, 22, 1, 1, "exhaustive", {}, "2f88c44e1b28a0b9686ae04ead81b50565cfed86eebdb66908efd605b70604c1"),
    ("or", 21, 12, 1, 2, "exhaustive", {}, "a146b9734aff522ca4cd7ed2eb32f335168dc6c6a1d6c2ba0a82b2126b195ad4"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 0, "samples": 40}, "522e9fe5c081351157890569c2a17657e777896a8634a3ec5b00c56bd2b684a4"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 1, "samples": 40}, "038f2aba1e1ef4d88e5ecb08b01c9904655eee64af87177820adc6c27c1d7ad0"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 2, "samples": 40}, "59617de65355cd1a221984cd4308621f7c0579692d36185dafc76b81f7f487da"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 3, "samples": 40}, "0a6af4923e883c0658ae74afd895a2a44038fb03ce38263ff1f140d3d52b0561"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 0, "samples": 40}, "e8d6c132793077915f68303fa0de53e3f241f907d7d2758f78df5c387780209f"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 1, "samples": 40}, "eee7f593cf4e15d123bd830d1f00423f5c133d77e4ca669f3dfbc4d6a6f7b43b"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 2, "samples": 40}, "9ae5e31855fe31cd31ed80eb9ef36cbc8853d7e33715ce876098e2c9e36857d4"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 3, "samples": 40}, "6a94fe48f7ae5886811d9148602e30c48697d33be934db5ff9331225c35e92af"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 0}, "bffb258bbae458c9fa4010cabc64f9b0b3d5f72199c01d7b9b0cd4065b049d52"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 0, "budget": 2000}, "c8789a561f30ce57829655368576d5e8783ddcf49eda10ba572883ca12ea4c99"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 0, "budget": 300}, "bd2943514ce3cc282f05c380fb07c22a275ade4931ebc0d10aaf6df1c11ffb90"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 0, "budget": 300}, "9b23adb9669fa19318269c0a64de67bce3e81f4be81c21e1e01033f4dd228003"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 0, "budget": 200}, "e0310aa0d566fdd8262dbb718e91ad8109f5c7ddc49846bf283301ca944d4882"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 0, "budget": 200}, "1fc649f5a3a72e353ba05a619898cf15a8e44dbc143cabe0aa5600bc534f5d04"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 1}, "9fbde885392f78c14380a0070436a663890f6fc07c1db30f491fed2c2b312230"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 1, "budget": 2000}, "825102b1006b6c426892625ad790f8bff1e7cf43ff950bf6b95451a2e1e92e39"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 1, "budget": 300}, "6d685e732e8effa64f3588a4d823b075971269cae2d0f983690d1f8578f182fa"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 1, "budget": 300}, "3f7df82ee409d4c9258b0b84052c8c9449cf6118019679d719ce920be1d419b9"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 1, "budget": 200}, "f6a8a7b91c1b0a2b40a5c18d24df6d2677963222b749cacc907b2fb3975ddf73"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 1, "budget": 200}, "1bb6b954d06c1ab06062e7579459c426c854a664ff20554f6ca47d821076f201"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 2}, "bfb75a6fbf1a5c333243ff365a9e04e7b5fb76deb519ab6c42c636ded2d88168"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 2, "budget": 2000}, "825102b1006b6c426892625ad790f8bff1e7cf43ff950bf6b95451a2e1e92e39"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 2, "budget": 300}, "6d685e732e8effa64f3588a4d823b075971269cae2d0f983690d1f8578f182fa"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 2, "budget": 300}, "f839783fce8330dd6168cba394e36c532651bcf8d59cd62ec93c125174d61caa"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 2, "budget": 200}, "9f143935ced9e899e9fb56c5826bcc02ce25b937040f817d01fc943aace548a6"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 2, "budget": 200}, "518004b1b02b04023d372f7a47f42ee12d414e39cf05133864d9817633d530ca"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 3}, "caf1e00dac4dfeee8e23f98f55e647767eb95098a40a6f8e73eab1750bc68aec"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 3, "budget": 2000}, "825102b1006b6c426892625ad790f8bff1e7cf43ff950bf6b95451a2e1e92e39"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 3, "budget": 300}, "bd2943514ce3cc282f05c380fb07c22a275ade4931ebc0d10aaf6df1c11ffb90"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 3, "budget": 300}, "9913d775baf960572b416aa48cca77a5c28c3ad101d5dc02e775a3e525bd2485"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 3, "budget": 200}, "0920a86445cac5344d5d46d67bbf5ac1558889773b0e9c6a4e278c07505e95da"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 3, "budget": 200}, "c7e32e22012fa801a91c460d612cb39ef580bb22468884d1af30e308d0601f1d"),
    # the benchmark's counterexample shapes: 3 colours below R(3,3,3) = 17
    ("or", 11, 3, 2, 3, "counterexample", {"seed": 0, "budget": 500}, "67974d53b1e2f0b91e1c4c67187cedef7ce399885295b0f9e5947e5fde4bfe0b"),
    ("or", 11, 3, 2, 3, "counterexample", {"seed": 1, "budget": 500}, "6d3a6ab45aef71fa82c0cded774081214d979ef8e3bb81198bf43c3d98772506"),
    ("or", 12, 3, 2, 3, "counterexample", {"seed": 0, "budget": 500}, "ed90dfdf781157e5b4681eeddec2647f3fb5437f28e34a28374572647e811ccc"),
    ("or", 12, 3, 2, 3, "counterexample", {"seed": 1, "budget": 500}, "b08fafbf6b4c98fa16ccb8ae7cd4ff35907ecbbe6ac05cb3e6d9dcf98a567e40"),
]


@pytest.mark.parametrize("cls, ambient, sub, arity, colors, mode, kwargs, digest", PINS)
def test_arrow_verdict_bytes_pinned(cls, ambient, sub, arity, colors, mode, kwargs, digest):
    # exhaustive: both forks (the candidate scan up to 20 elements, direct
    # search above) and the distinct-types shortcut; counterexample: the
    # enumerated pool up to 20 elements and the sampled pool above
    query = ArrowQuery(parse_class(cls), ambient, sub, arity, colors)
    assert _sha256(arrow_check(query, mode=mode, **kwargs).to_doc()) == digest


def test_ramsey_table_bytes_pinned():
    report = ramsey_table(parse_class("or"), 2, 2, [1, 2, 3], [1, 2, 3, 4, 5, 6])
    assert _sha256(report.to_doc()) == "a340cee03ea2542ea74e2654644b137d7c4975510e1cba7638ebb4005293df4e"
