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
    ("or", 4, 3, 2, 2, "exhaustive", {}, "c48a4757d7ea2a01153c85e33a53495c166fecbc989fceb357fdadd50339dcdc"),
    ("or", 5, 3, 2, 2, "exhaustive", {}, "7ac88fbc274a3a66e8dc2770069132a9e64f0676f41f871923b05bd2df7254f7"),
    ("or", 6, 3, 2, 2, "exhaustive", {}, "1d76930693db2524b304bd27dece422d4930d9b18055a428de56d575c73a9d80"),
    ("chi_or:2", 3, 1, 2, 2, "exhaustive", {}, "67a5ccc7437266cb3a82887a6600272ab21782a2077be61e9c57693a9dc0b81b"),
    ("ceq", 3, 2, 1, 2, "exhaustive", {}, "ca865175976a5aadc18145449bc8bf4b1f4e0cc4103a53485ca3e1f29b11849f"),
    ("or", 6, 3, 2, 3, "exhaustive", {}, "63c60790b8b1766b4c1e17bbb51116aa0a1847e68858c2986dc164fe6966421b"),
    ("or", 22, 3, 1, 1, "exhaustive", {}, "d53b4f0456eb56772a275bdc8c63e090eb0004f953d656465e9ac1d012079453"),
    ("or", 21, 22, 1, 1, "exhaustive", {}, "2f88c44e1b28a0b9686ae04ead81b50565cfed86eebdb66908efd605b70604c1"),
    ("or", 21, 12, 1, 2, "exhaustive", {}, "a146b9734aff522ca4cd7ed2eb32f335168dc6c6a1d6c2ba0a82b2126b195ad4"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 0, "samples": 40}, "49d425aef583ac52b02bb8d9b12a41c3dd9ed26de54bf5296f5a65be03a0ef94"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 1, "samples": 40}, "2320dc201425d479d4f96affc4dcf3c69b3260f06c438a97dd80e4c93b34b055"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 2, "samples": 40}, "1642cc9b63ed539f132081f866a581bc76de481c521f50d4447bdf2442304313"),
    ("or", 5, 3, 2, 2, "randomized", {"seed": 3, "samples": 40}, "438cb84b265e38c7c0f5dffdcf1e518c9b1bc9007f9f70e9556d5c3ccadb1b21"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 0, "samples": 40}, "5b971186f6882a999e2169afbbc82b45eef0c9ec928660d5f4a1e8f9fdbcabf0"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 1, "samples": 40}, "4823569ab9e5144502ff4970ac18bcf451e132c3a8846de3218461250df59311"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 2, "samples": 40}, "8058bab8863fc613d69ea34affd79546ee4fa59fdf01a66278ac0330f08467a2"),
    ("or", 6, 3, 2, 2, "randomized", {"seed": 3, "samples": 40}, "8a0e1353f075657612ade19efe355224217bbb2100e5b89f2fa34b8a11edef2f"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 0}, "62468faa80fd3803faa1e590a6f00c2e8732d1881f55815cc93c825520f625ec"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 0, "budget": 2000}, "c8789a561f30ce57829655368576d5e8783ddcf49eda10ba572883ca12ea4c99"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 0, "budget": 300}, "a615a5d6549e24c30c3461008c24cc879d80e7f79d8b8416cafd5c8937b66d1a"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 0, "budget": 300}, "a5a6afa6498115ef58115eb9f801bff4ef6680d440662ac3a62a3ee788409cec"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 0, "budget": 200}, "b8ab0fb47f25ad0948fbf9b0258e27bd328c5580fd73c27a0890cda9679bdf7a"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 0, "budget": 200}, "d4b4d1ac8534f52c663bb7ee7a48f2a18867674c1fffb43e77b8387df11a6ea5"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 1}, "67fa1ce164a028fccc53f2930c5550295f4b48d7a24e5c74aaa945f3ea8734df"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 1, "budget": 2000}, "c8789a561f30ce57829655368576d5e8783ddcf49eda10ba572883ca12ea4c99"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 1, "budget": 300}, "9501aea49a22bbabf5d700728713586e9857661a4389ddc5e7a041206cb7b330"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 1, "budget": 300}, "f49a510c1da6759b7582e2058d8bd73132cb8444283c48933042bfc68b7e6122"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 1, "budget": 200}, "cacb54ef73d97c6cd58a6ed7f8cad0963e87b61405c613ce1c96d212d14b3560"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 1, "budget": 200}, "619a923009af327cd703fbff75309996abca519d34dba67a90e4afb9d58d682b"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 2}, "1d9728b52b8dc41abc7e76d5c6b3d2c29a5564c8bb3740604073afa69afe72f6"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 2, "budget": 2000}, "c8789a561f30ce57829655368576d5e8783ddcf49eda10ba572883ca12ea4c99"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 2, "budget": 300}, "5cfaeaab133c7e0ca8d053302eb5ae74fc888dfe35b68e0e449acc8f32a20ca1"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 2, "budget": 300}, "0222c717aabf7e36a68a2aec9f5a7fa7b14b0502bf398ac32831f5223dbe2903"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 2, "budget": 200}, "b8ab0fb47f25ad0948fbf9b0258e27bd328c5580fd73c27a0890cda9679bdf7a"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 2, "budget": 200}, "6b7c56faecc4e5ffac2f38980ae9984d13cd51c36ca9704d57c80fdc00008642"),
    ("or", 5, 3, 2, 2, "counterexample", {"seed": 3}, "3280793bea40b34fc6806c155ca11a7c32c25ecc364f756b308c699f7540f54b"),
    ("or", 6, 3, 2, 2, "counterexample", {"seed": 3, "budget": 2000}, "c8789a561f30ce57829655368576d5e8783ddcf49eda10ba572883ca12ea4c99"),
    ("or", 10, 3, 2, 3, "counterexample", {"seed": 3, "budget": 300}, "5bdca84db970e1efa1118062195f9bc2dd8237ae24511bcfaa39cadd47899000"),
    ("ceq", 3, 2, 2, 2, "counterexample", {"seed": 3, "budget": 300}, "e1ebcc1992bdcc93bad9a419f45f1d7942f5bdbf659bd44fec048683ba79990d"),
    ("or", 22, 3, 2, 2, "counterexample", {"seed": 3, "budget": 200}, "3f37eac5f584343b6b9a1e2c2ecaaacfd100f19068e01c711e92f7983f3100bc"),
    ("chi_or:2", 11, 3, 2, 2, "counterexample", {"seed": 3, "budget": 200}, "97f2f1375b7442810eb226c7eaefbf5ad360796c9f075a872f3520146039f70b"),
    # the benchmark's counterexample shapes: 3 colours below R(3,3,3) = 17
    ("or", 11, 3, 2, 3, "counterexample", {"seed": 0, "budget": 500}, "32cbf6edb9b415c21f5b847bf3f93e85cb9e78216ec3a5dbbf77739c93367b96"),
    ("or", 11, 3, 2, 3, "counterexample", {"seed": 1, "budget": 500}, "efdcf38328abe6218298a23764bbcb5ff20859b1fea4dc23eaded2db648ed193"),
    ("or", 12, 3, 2, 3, "counterexample", {"seed": 0, "budget": 500}, "95d31896613d823b1b38f91c9442e588d7b8ca1d4b83643c601d3335b9ca914e"),
    ("or", 12, 3, 2, 3, "counterexample", {"seed": 1, "budget": 500}, "7a400fa85cc7590a6e6a40acf9a63252d7df4e985fe1a440a029fa7515123ad3"),
]


# Digests of the rows re-captured since they were first recorded, by row.
# A pin's test name is the one it was first recorded under (its query, the
# index of its probe options, and its first digest), so a re-capture updates
# what the pin checks without renaming it.
FIRST_CAPTURE = {
    5: "f3f9539b114085e11e47537c90081ee7c905151cd2fd2aa4e33c6e84c4e140c3",
    7: "6fc1e206587003cfe79527626b3f3b5b2b4ffa91ae53a2fefae71766c6ff8dc8",
    8: "bad8813c21bdd8615581523976ad14d366f9ec35af7b4a8626833ae1823273f0",
    12: "522e9fe5c081351157890569c2a17657e777896a8634a3ec5b00c56bd2b684a4",
    13: "038f2aba1e1ef4d88e5ecb08b01c9904655eee64af87177820adc6c27c1d7ad0",
    14: "59617de65355cd1a221984cd4308621f7c0579692d36185dafc76b81f7f487da",
    15: "0a6af4923e883c0658ae74afd895a2a44038fb03ce38263ff1f140d3d52b0561",
    16: "e8d6c132793077915f68303fa0de53e3f241f907d7d2758f78df5c387780209f",
    17: "eee7f593cf4e15d123bd830d1f00423f5c133d77e4ca669f3dfbc4d6a6f7b43b",
    18: "9ae5e31855fe31cd31ed80eb9ef36cbc8853d7e33715ce876098e2c9e36857d4",
    19: "6a94fe48f7ae5886811d9148602e30c48697d33be934db5ff9331225c35e92af",
    20: "a34b465b8cc330c6f8f6202f9f5ca47189525280fb11dcb76658c12d7bb7c530",
    22: "b7fda370053ad0c233ff0c21e72f39a52fd9b7ea0921f0be1c553fd9d5fc35bb",
    23: "5bb9c67804b1216c7f418487626f71b7edeaac69a0f4e539c8b4daeb0b606cfd",
    24: "ba6cd86806ac83aac049ce50bb9478f2576d681567e5384590575025387d028e",
    25: "37a166d26713507b85fd3d420a182ad808e94de1c14f7190d4923614bf74f695",
    26: "dcb99934b6d59af4949e7136e845545fa856e2419d96178e45efdea902c2a30c",
    28: "7f286ed2f758f4386233ca8d012da410866a187e8994f3b0eedd5f9164e5ee24",
    29: "2f059190571360672e0952441def6503284c38f8ed453434c80e386972589d54",
    30: "2c40ac2da7b7e1f9c87d2a8ee474321cee88e09d6143074481d2a7c0230c6aed",
    31: "c9e97d02ad9d44ae677e85f31a0d79166c2979e46e38c8feef4476525877ad92",
    32: "63b4ea3a648c2e181d90853c9153af21fd84af66df5db2309894117ef7fac56d",
    34: "74e8e3d8b7edb8b618221fe1171e27f4c20a4a619970269f91894a2bcd40a454",
    35: "b72243e4c39cc09a4dfa80da8d9217bba825a60b8a80bb9bc967d8b875dbe4af",
    36: "ae4be7bb7a97e72c7dc4c140ccde157b1860929e86da6477956dbdcf784a7b8c",
    37: "db6a889b2c7a9d704bb11c69a65cd0272d54f3fd50ea0784af643f7907e28f0f",
    38: "9f18490ea15892b44463a692860c313bf65131d6cf0e27eeab32c66816cb1096",
    39: "825102b1006b6c426892625ad790f8bff1e7cf43ff950bf6b95451a2e1e92e39",
    40: "74e8e3d8b7edb8b618221fe1171e27f4c20a4a619970269f91894a2bcd40a454",
    41: "64b31d5a28def255d359bae48f6312a002d1a12cd55d9454af63ab4a4e108e12",
    42: "46a0dec9cf3923eb854c3376da920227fd6adc5181acc38022cecba8d91ece1a",
    43: "9e90e26bd5ee99a0bd6009b08e56fdc492eabe4be730d54e400e6e1fc20afc8b",
    44: "387ef875013d7e1b7ccbb733f4c39e0a89aea93999011e9f0511cffd2260b72a",
    45: "31327e59a43f15bf511ba69acb8423603737b158351a46d0a72a1e0ef8406e6b",
    46: "387ef875013d7e1b7ccbb733f4c39e0a89aea93999011e9f0511cffd2260b72a",
    47: "68eccdfe91ed9fef22aa32fd967b07d8c8fc0bc42ff77a47d59e2f643b2e36ed",
}


def _pin_id(index: int) -> str:
    cls, ambient, sub, arity, colors, mode, _, digest = PINS[index]
    digest = FIRST_CAPTURE.get(index, digest)
    return f"{cls}-{ambient}-{sub}-{arity}-{colors}-{mode}-kwargs{index}-{digest}"


@pytest.mark.parametrize("cls, ambient, sub, arity, colors, mode, kwargs, digest", PINS, ids=map(_pin_id, range(len(PINS))))
def test_arrow_verdict_bytes_pinned(cls, ambient, sub, arity, colors, mode, kwargs, digest):
    # exhaustive: both forks (the pool scan, and direct search when the pool
    # is over its bound: or at 21, sub 12) and the distinct-types shortcut;
    # counterexample: focused descents on the pool of minimal candidates,
    # refuting and giving up
    query = ArrowQuery(parse_class(cls), ambient, sub, arity, colors)
    assert _sha256(arrow_check(query, mode=mode, **kwargs).to_doc()) == digest


def test_ramsey_table_bytes_pinned():
    report = ramsey_table(parse_class("or"), 2, 2, [1, 2, 3], [1, 2, 3, 4, 5, 6])
    assert _sha256(report.to_doc()) == "464866ee4fd92bf82d969e13522fe6b5c376e082a1eac13b3b43561ba93e5781"
