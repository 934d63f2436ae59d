"""Partition results are stable: the sha256 of each result's assignment,
``seed_used``, ``passes_run``, ``gain_updates`` and cut is pinned for the
fixtures and for ghz, qft and random ladders, over k in {2, 3, 4}, modes
``fm`` and ``kway``, grouped and plain hypergraphs and capacity slack in
{0, 0.2}: at slack s each block's capacity is ceil((1+s)*c) of its equal
share c.  A changed digest means a changed decision somewhere in the deal,
an FM pass or the restart driver, or a changed count of the work they did."""

import hashlib
import json
import math
from itertools import product

import pytest

from qpart import Mode, PartitionConfig, build_hypergraph, find_groups, generate, partition
from qpart.fm import resolve_capacities

from conftest import fixture_names, load_fixture

LADDER = ["ghz:60", "ghz:400", "qft:16", "qft:32", "random:24:1", "random:40:2"]


def _cases():
    """(circuit, k, mode, grouped, slack): every fixture over the full
    product; each ladder circuit at every k and mode, with grouping and
    slack alternating so both values of each meet every k and mode."""
    yield from product(fixture_names(), (2, 3, 4), ("fm", "kway"), (True, False), (0.0, 0.2))
    for i, name in enumerate(LADDER):
        for j, (k, mode) in enumerate((k, m) for k in (2, 3, 4) for m in ("fm", "kway")):
            yield name, k, mode, (i + j) % 2 == 0, (0.0, 0.2)[(i + j // 2) % 2]


CASES = list(_cases())


def _circuit(name: str):
    if name.endswith(".qasm"):
        return load_fixture(name)
    family, n, *seed = name.split(":")
    return generate(family, int(n), int(seed[0]) if seed else 0)


def _digest(name: str, k: int, mode: str, grouped: bool, slack: float) -> str:
    c = _circuit(name)
    h = build_hypergraph(c, find_groups(c) if grouped else None)
    caps = None
    if slack:
        caps = [math.ceil((1 + slack) * cap)
                for cap in resolve_capacities(None, len(h.vertices), k)]
    res = partition(h, PartitionConfig(blocks=k, capacities=caps, seed=k, mode=Mode(mode)))
    text = json.dumps([res.assignment, res.seed_used, res.passes_run, res.gain_updates,
                       [res.cut.cut_edges, res.cut.lambda_minus_one, res.cut.ebits]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the first 16 hex digits of each sha256; any changed field changes them
RESULTS = {
    ("ansatz_6.qasm", 2, "fm", True, 0.0): "f5a5db0dd39df87e",
    ("ansatz_6.qasm", 2, "fm", True, 0.2): "67ad81d54e90566c",
    ("ansatz_6.qasm", 2, "fm", False, 0.0): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "fm", False, 0.2): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "kway", True, 0.0): "f5a5db0dd39df87e",
    ("ansatz_6.qasm", 2, "kway", True, 0.2): "67ad81d54e90566c",
    ("ansatz_6.qasm", 2, "kway", False, 0.0): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "kway", False, 0.2): "29e361ec53fd441a",
    ("ansatz_6.qasm", 3, "fm", True, 0.0): "581a198c251cee83",
    ("ansatz_6.qasm", 3, "fm", True, 0.2): "4bf96bd49695ec94",
    ("ansatz_6.qasm", 3, "fm", False, 0.0): "39a943a49fee825c",
    ("ansatz_6.qasm", 3, "fm", False, 0.2): "4d454e5494545a05",
    ("ansatz_6.qasm", 3, "kway", True, 0.0): "3ef63ed501cbea61",
    ("ansatz_6.qasm", 3, "kway", True, 0.2): "a1a33e2f3da872c0",
    ("ansatz_6.qasm", 3, "kway", False, 0.0): "fb8535d2a79e1c64",
    ("ansatz_6.qasm", 3, "kway", False, 0.2): "0e6733c91a86dc01",
    ("ansatz_6.qasm", 4, "fm", True, 0.0): "fe45f992a2957afa",
    ("ansatz_6.qasm", 4, "fm", True, 0.2): "b5d781cf0a8f603a",
    ("ansatz_6.qasm", 4, "fm", False, 0.0): "0b8c913ddd4efc33",
    ("ansatz_6.qasm", 4, "fm", False, 0.2): "55b7ac737a5dbe16",
    ("ansatz_6.qasm", 4, "kway", True, 0.0): "1c89431d9a22ffde",
    ("ansatz_6.qasm", 4, "kway", True, 0.2): "90128ad2cd1b1eb3",
    ("ansatz_6.qasm", 4, "kway", False, 0.0): "fcc75b67f9edab73",
    ("ansatz_6.qasm", 4, "kway", False, 0.2): "fff20258df9e1037",
    ("ansatz_8.qasm", 2, "fm", True, 0.0): "1faf416acb95f72a",
    ("ansatz_8.qasm", 2, "fm", True, 0.2): "1faf416acb95f72a",
    ("ansatz_8.qasm", 2, "fm", False, 0.0): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "fm", False, 0.2): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "kway", True, 0.0): "1faf416acb95f72a",
    ("ansatz_8.qasm", 2, "kway", True, 0.2): "1faf416acb95f72a",
    ("ansatz_8.qasm", 2, "kway", False, 0.0): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "kway", False, 0.2): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 3, "fm", True, 0.0): "f891a4de886dc511",
    ("ansatz_8.qasm", 3, "fm", True, 0.2): "184a1b552a21eec7",
    ("ansatz_8.qasm", 3, "fm", False, 0.0): "314af6da70e7bd49",
    ("ansatz_8.qasm", 3, "fm", False, 0.2): "a10dc8476712c73e",
    ("ansatz_8.qasm", 3, "kway", True, 0.0): "149b220d7e2326b3",
    ("ansatz_8.qasm", 3, "kway", True, 0.2): "f95b42f947d33ac2",
    ("ansatz_8.qasm", 3, "kway", False, 0.0): "e768964062104421",
    ("ansatz_8.qasm", 3, "kway", False, 0.2): "a20b551aa26e5095",
    ("ansatz_8.qasm", 4, "fm", True, 0.0): "397913b2f28ccd42",
    ("ansatz_8.qasm", 4, "fm", True, 0.2): "397913b2f28ccd42",
    ("ansatz_8.qasm", 4, "fm", False, 0.0): "06ebe3dee3de2195",
    ("ansatz_8.qasm", 4, "fm", False, 0.2): "6e057508bc5f2147",
    ("ansatz_8.qasm", 4, "kway", True, 0.0): "83aeeca076066fce",
    ("ansatz_8.qasm", 4, "kway", True, 0.2): "b193f6c022925a97",
    ("ansatz_8.qasm", 4, "kway", False, 0.0): "bc4c6575716ce3d6",
    ("ansatz_8.qasm", 4, "kway", False, 0.2): "69dcdc617e9f2903",
    ("ghz_4.qasm", 2, "fm", True, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "fm", True, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "fm", False, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "fm", False, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "kway", True, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "kway", True, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "kway", False, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "kway", False, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 3, "fm", True, 0.0): "77eef618606afabc",
    ("ghz_4.qasm", 3, "fm", True, 0.2): "77eef618606afabc",
    ("ghz_4.qasm", 3, "fm", False, 0.0): "77eef618606afabc",
    ("ghz_4.qasm", 3, "fm", False, 0.2): "77eef618606afabc",
    ("ghz_4.qasm", 3, "kway", True, 0.0): "753c3ad98ee0503d",
    ("ghz_4.qasm", 3, "kway", True, 0.2): "753c3ad98ee0503d",
    ("ghz_4.qasm", 3, "kway", False, 0.0): "753c3ad98ee0503d",
    ("ghz_4.qasm", 3, "kway", False, 0.2): "753c3ad98ee0503d",
    ("ghz_4.qasm", 4, "fm", True, 0.0): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", True, 0.2): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", False, 0.0): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", False, 0.2): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "kway", True, 0.0): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", True, 0.2): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", False, 0.0): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", False, 0.2): "2f233c8ed3b41347",
    ("phase_kernel_6.qasm", 2, "fm", True, 0.0): "a14ed67600ced976",
    ("phase_kernel_6.qasm", 2, "fm", True, 0.2): "e6ced467719de968",
    ("phase_kernel_6.qasm", 2, "fm", False, 0.0): "73307fab26b9e203",
    ("phase_kernel_6.qasm", 2, "fm", False, 0.2): "7d9a42e826905fa2",
    ("phase_kernel_6.qasm", 2, "kway", True, 0.0): "a14ed67600ced976",
    ("phase_kernel_6.qasm", 2, "kway", True, 0.2): "e6ced467719de968",
    ("phase_kernel_6.qasm", 2, "kway", False, 0.0): "73307fab26b9e203",
    ("phase_kernel_6.qasm", 2, "kway", False, 0.2): "7d9a42e826905fa2",
    ("phase_kernel_6.qasm", 3, "fm", True, 0.0): "09317c590dd52241",
    ("phase_kernel_6.qasm", 3, "fm", True, 0.2): "a5f8c2d0a5c2bdf2",
    ("phase_kernel_6.qasm", 3, "fm", False, 0.0): "69f8c372964df758",
    ("phase_kernel_6.qasm", 3, "fm", False, 0.2): "cc8b8446cb273a1b",
    ("phase_kernel_6.qasm", 3, "kway", True, 0.0): "85e17add3205edd4",
    ("phase_kernel_6.qasm", 3, "kway", True, 0.2): "091b0a0c654d3618",
    ("phase_kernel_6.qasm", 3, "kway", False, 0.0): "996b8aba50ab2a31",
    ("phase_kernel_6.qasm", 3, "kway", False, 0.2): "5a5905772134e7b0",
    ("phase_kernel_6.qasm", 4, "fm", True, 0.0): "0405903e3848447e",
    ("phase_kernel_6.qasm", 4, "fm", True, 0.2): "99a3be510a0839a8",
    ("phase_kernel_6.qasm", 4, "fm", False, 0.0): "8ab819577f1b6c0d",
    ("phase_kernel_6.qasm", 4, "fm", False, 0.2): "8df5f52cd7c35183",
    ("phase_kernel_6.qasm", 4, "kway", True, 0.0): "7d362e5e2d006452",
    ("phase_kernel_6.qasm", 4, "kway", True, 0.2): "3a9f7c75188cfa20",
    ("phase_kernel_6.qasm", 4, "kway", False, 0.0): "2240d245fecb4417",
    ("phase_kernel_6.qasm", 4, "kway", False, 0.2): "97fc49230c8ddee9",
    ("phase_kernel_8.qasm", 2, "fm", True, 0.0): "d70a7b601f605a8e",
    ("phase_kernel_8.qasm", 2, "fm", True, 0.2): "7f7c507ad5b382e6",
    ("phase_kernel_8.qasm", 2, "fm", False, 0.0): "49e029eb5bfbd396",
    ("phase_kernel_8.qasm", 2, "fm", False, 0.2): "b42c8447b7953cca",
    ("phase_kernel_8.qasm", 2, "kway", True, 0.0): "d70a7b601f605a8e",
    ("phase_kernel_8.qasm", 2, "kway", True, 0.2): "7f7c507ad5b382e6",
    ("phase_kernel_8.qasm", 2, "kway", False, 0.0): "49e029eb5bfbd396",
    ("phase_kernel_8.qasm", 2, "kway", False, 0.2): "b42c8447b7953cca",
    ("phase_kernel_8.qasm", 3, "fm", True, 0.0): "dd3eb45413d80df5",
    ("phase_kernel_8.qasm", 3, "fm", True, 0.2): "246faa686ec5f41b",
    ("phase_kernel_8.qasm", 3, "fm", False, 0.0): "0058895e3a47dd3a",
    ("phase_kernel_8.qasm", 3, "fm", False, 0.2): "fa81725dfa0ce437",
    ("phase_kernel_8.qasm", 3, "kway", True, 0.0): "c51d4ed4be998fdf",
    ("phase_kernel_8.qasm", 3, "kway", True, 0.2): "a1f762c6943b7433",
    ("phase_kernel_8.qasm", 3, "kway", False, 0.0): "fd601224cd08a4f7",
    ("phase_kernel_8.qasm", 3, "kway", False, 0.2): "6f303372cbcc6f28",
    ("phase_kernel_8.qasm", 4, "fm", True, 0.0): "6daf1450e9932ed3",
    ("phase_kernel_8.qasm", 4, "fm", True, 0.2): "49b6f97c8a4fa7aa",
    ("phase_kernel_8.qasm", 4, "fm", False, 0.0): "5d1601b18591a735",
    ("phase_kernel_8.qasm", 4, "fm", False, 0.2): "ae98903df856775e",
    ("phase_kernel_8.qasm", 4, "kway", True, 0.0): "d1f9b437844d02cb",
    ("phase_kernel_8.qasm", 4, "kway", True, 0.2): "ec97dc6204ecceb4",
    ("phase_kernel_8.qasm", 4, "kway", False, 0.0): "235657da39887a81",
    ("phase_kernel_8.qasm", 4, "kway", False, 0.2): "1c267e41b201e81c",
    ("toffoli_mix_5.qasm", 2, "fm", True, 0.0): "f816123972b4696f",
    ("toffoli_mix_5.qasm", 2, "fm", True, 0.2): "f816123972b4696f",
    ("toffoli_mix_5.qasm", 2, "fm", False, 0.0): "c6e594755f64fd3f",
    ("toffoli_mix_5.qasm", 2, "fm", False, 0.2): "aeb26a63a2dc1885",
    ("toffoli_mix_5.qasm", 2, "kway", True, 0.0): "f816123972b4696f",
    ("toffoli_mix_5.qasm", 2, "kway", True, 0.2): "f816123972b4696f",
    ("toffoli_mix_5.qasm", 2, "kway", False, 0.0): "c6e594755f64fd3f",
    ("toffoli_mix_5.qasm", 2, "kway", False, 0.2): "aeb26a63a2dc1885",
    ("toffoli_mix_5.qasm", 3, "fm", True, 0.0): "c7f2fdc9cc5d82f3",
    ("toffoli_mix_5.qasm", 3, "fm", True, 0.2): "50a439d42240f904",
    ("toffoli_mix_5.qasm", 3, "fm", False, 0.0): "ce57080962d7455a",
    ("toffoli_mix_5.qasm", 3, "fm", False, 0.2): "1e83ad3b074e1499",
    ("toffoli_mix_5.qasm", 3, "kway", True, 0.0): "12ba5604b39cf9c8",
    ("toffoli_mix_5.qasm", 3, "kway", True, 0.2): "537bc644199c56d9",
    ("toffoli_mix_5.qasm", 3, "kway", False, 0.0): "397cc3e279dea803",
    ("toffoli_mix_5.qasm", 3, "kway", False, 0.2): "db200e5db81e255d",
    ("toffoli_mix_5.qasm", 4, "fm", True, 0.0): "aa622e83aa518d34",
    ("toffoli_mix_5.qasm", 4, "fm", True, 0.2): "82dc505099c9c7df",
    ("toffoli_mix_5.qasm", 4, "fm", False, 0.0): "d7bac443aa86ed3a",
    ("toffoli_mix_5.qasm", 4, "fm", False, 0.2): "e7e0c334cca5c83d",
    ("toffoli_mix_5.qasm", 4, "kway", True, 0.0): "c9692ddf6190ef8e",
    ("toffoli_mix_5.qasm", 4, "kway", True, 0.2): "c9692ddf6190ef8e",
    ("toffoli_mix_5.qasm", 4, "kway", False, 0.0): "e33dba483378a662",
    ("toffoli_mix_5.qasm", 4, "kway", False, 0.2): "e33dba483378a662",
    ("ghz:60", 2, "fm", True, 0.0): "4109011c2f6cf7e0",
    ("ghz:60", 2, "kway", False, 0.0): "4109011c2f6cf7e0",
    ("ghz:60", 3, "fm", True, 0.2): "65c586c829ab0afd",
    ("ghz:60", 3, "kway", False, 0.2): "f19d705f2f41c64d",
    ("ghz:60", 4, "fm", True, 0.0): "6b0e99d9a349cabf",
    ("ghz:60", 4, "kway", False, 0.0): "5a3efa0db0febcea",
    ("ghz:400", 2, "fm", False, 0.2): "f70556cf1ba64c91",
    ("ghz:400", 2, "kway", True, 0.2): "f70556cf1ba64c91",
    ("ghz:400", 3, "fm", False, 0.0): "6b4150a1d7d77a87",
    ("ghz:400", 3, "kway", True, 0.0): "816056f32e12abec",
    ("ghz:400", 4, "fm", False, 0.2): "1dcc73ebe4d13063",
    ("ghz:400", 4, "kway", True, 0.2): "2525a9208aa7c546",
    ("qft:16", 2, "fm", True, 0.0): "ce78d005614ffab3",
    ("qft:16", 2, "kway", False, 0.0): "2ed37655e3137110",
    ("qft:16", 3, "fm", True, 0.2): "a6110614194f053f",
    ("qft:16", 3, "kway", False, 0.2): "9dea8d1412b37186",
    ("qft:16", 4, "fm", True, 0.0): "09c4fc68d5da5b53",
    ("qft:16", 4, "kway", False, 0.0): "8e2dafa01633dbba",
    ("qft:32", 2, "fm", False, 0.2): "a3cec70b8b8886fa",
    ("qft:32", 2, "kway", True, 0.2): "ebebf27491d5159f",
    ("qft:32", 3, "fm", False, 0.0): "37d7fc29e2f4f888",
    ("qft:32", 3, "kway", True, 0.0): "69897c72bf896d27",
    ("qft:32", 4, "fm", False, 0.2): "21182a15133036d0",
    ("qft:32", 4, "kway", True, 0.2): "a78e16a7b9ed7869",
    ("random:24:1", 2, "fm", True, 0.0): "562d621521601ed8",
    ("random:24:1", 2, "kway", False, 0.0): "17641746f07a5753",
    ("random:24:1", 3, "fm", True, 0.2): "7f7ec805996e28c6",
    ("random:24:1", 3, "kway", False, 0.2): "b497ee6b38cc5b34",
    ("random:24:1", 4, "fm", True, 0.0): "673579a5d0ceb73f",
    ("random:24:1", 4, "kway", False, 0.0): "6d44feaf90e5367f",
    ("random:40:2", 2, "fm", False, 0.2): "d0a5206c67ed8d0b",
    ("random:40:2", 2, "kway", True, 0.2): "11ef65fceb74c8e3",
    ("random:40:2", 3, "fm", False, 0.0): "7c279d73fc7ffd1c",
    ("random:40:2", 3, "kway", True, 0.0): "13d50e620297f4ea",
    ("random:40:2", 4, "fm", False, 0.2): "8885d7cfc561b990",
    ("random:40:2", 4, "kway", True, 0.2): "64c427202be5f322",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_partition_is_stable(case):
    assert _digest(*case) == RESULTS[case]
