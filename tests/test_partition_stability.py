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

from qpart import (Mode, PartitionConfig, build_hypergraph, find_groups, generate, partition,
                   resolve_capacities)

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
                for cap in resolve_capacities(None, h.n_qubit_vertices(), k)]
    res = partition(h, PartitionConfig(blocks=k, capacities=caps, seed=k, mode=Mode(mode)))
    text = json.dumps([res.assignment, res.seed_used, res.passes_run, res.gain_updates,
                       [res.cut.cut_edges, res.cut.lambda_minus_one, res.cut.ebits]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# the first 16 hex digits of each sha256; any changed field changes them
RESULTS = {
    ("ansatz_6.qasm", 2, "fm", True, 0.0): "70afce80a8b791c9",
    ("ansatz_6.qasm", 2, "fm", True, 0.2): "0ba1ea2f5d00d07a",
    ("ansatz_6.qasm", 2, "fm", False, 0.0): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "fm", False, 0.2): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "kway", True, 0.0): "70afce80a8b791c9",
    ("ansatz_6.qasm", 2, "kway", True, 0.2): "0ba1ea2f5d00d07a",
    ("ansatz_6.qasm", 2, "kway", False, 0.0): "29e361ec53fd441a",
    ("ansatz_6.qasm", 2, "kway", False, 0.2): "29e361ec53fd441a",
    ("ansatz_6.qasm", 3, "fm", True, 0.0): "752203b14562b923",
    ("ansatz_6.qasm", 3, "fm", True, 0.2): "f07cb49ce808198c",
    ("ansatz_6.qasm", 3, "fm", False, 0.0): "39a943a49fee825c",
    ("ansatz_6.qasm", 3, "fm", False, 0.2): "4d454e5494545a05",
    ("ansatz_6.qasm", 3, "kway", True, 0.0): "c90a9e10094917c0",
    ("ansatz_6.qasm", 3, "kway", True, 0.2): "a46eed4414ab7719",
    ("ansatz_6.qasm", 3, "kway", False, 0.0): "fb8535d2a79e1c64",
    ("ansatz_6.qasm", 3, "kway", False, 0.2): "0e6733c91a86dc01",
    ("ansatz_6.qasm", 4, "fm", True, 0.0): "635fab555160ad24",
    ("ansatz_6.qasm", 4, "fm", True, 0.2): "882da99461dfa9a6",
    ("ansatz_6.qasm", 4, "fm", False, 0.0): "0b8c913ddd4efc33",
    ("ansatz_6.qasm", 4, "fm", False, 0.2): "55b7ac737a5dbe16",
    ("ansatz_6.qasm", 4, "kway", True, 0.0): "3414d47d8f36b52f",
    ("ansatz_6.qasm", 4, "kway", True, 0.2): "fa937d5465ce7c48",
    ("ansatz_6.qasm", 4, "kway", False, 0.0): "2d94e818eb363740",
    ("ansatz_6.qasm", 4, "kway", False, 0.2): "fff20258df9e1037",
    ("ansatz_8.qasm", 2, "fm", True, 0.0): "7567c0519970b6a6",
    ("ansatz_8.qasm", 2, "fm", True, 0.2): "7567c0519970b6a6",
    ("ansatz_8.qasm", 2, "fm", False, 0.0): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "fm", False, 0.2): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "kway", True, 0.0): "7567c0519970b6a6",
    ("ansatz_8.qasm", 2, "kway", True, 0.2): "7567c0519970b6a6",
    ("ansatz_8.qasm", 2, "kway", False, 0.0): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 2, "kway", False, 0.2): "fd74afd5d6449af0",
    ("ansatz_8.qasm", 3, "fm", True, 0.0): "cfb25176e006cbd6",
    ("ansatz_8.qasm", 3, "fm", True, 0.2): "83a60e80a33d768f",
    ("ansatz_8.qasm", 3, "fm", False, 0.0): "314af6da70e7bd49",
    ("ansatz_8.qasm", 3, "fm", False, 0.2): "a10dc8476712c73e",
    ("ansatz_8.qasm", 3, "kway", True, 0.0): "aaaf7fa5bb176f54",
    ("ansatz_8.qasm", 3, "kway", True, 0.2): "728d57e588d1fad6",
    ("ansatz_8.qasm", 3, "kway", False, 0.0): "e768964062104421",
    ("ansatz_8.qasm", 3, "kway", False, 0.2): "a20b551aa26e5095",
    ("ansatz_8.qasm", 4, "fm", True, 0.0): "741f4e09f28be70d",
    ("ansatz_8.qasm", 4, "fm", True, 0.2): "42ed6f76a8c0795c",
    ("ansatz_8.qasm", 4, "fm", False, 0.0): "06ebe3dee3de2195",
    ("ansatz_8.qasm", 4, "fm", False, 0.2): "d0e96ba4b26d8bdf",
    ("ansatz_8.qasm", 4, "kway", True, 0.0): "24396f348b1b9fd7",
    ("ansatz_8.qasm", 4, "kway", True, 0.2): "6cca73d90267a8e2",
    ("ansatz_8.qasm", 4, "kway", False, 0.0): "abeacd7bde2973da",
    ("ansatz_8.qasm", 4, "kway", False, 0.2): "d244a3d450ac67c3",
    ("ghz_4.qasm", 2, "fm", True, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "fm", True, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "fm", False, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "fm", False, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "kway", True, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "kway", True, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 2, "kway", False, 0.0): "45d1439cba294511",
    ("ghz_4.qasm", 2, "kway", False, 0.2): "201a2f518cf6981e",
    ("ghz_4.qasm", 3, "fm", True, 0.0): "77eef618606afabc",
    ("ghz_4.qasm", 3, "fm", True, 0.2): "895b1d53380ae272",
    ("ghz_4.qasm", 3, "fm", False, 0.0): "77eef618606afabc",
    ("ghz_4.qasm", 3, "fm", False, 0.2): "895b1d53380ae272",
    ("ghz_4.qasm", 3, "kway", True, 0.0): "fbe24bf314905b73",
    ("ghz_4.qasm", 3, "kway", True, 0.2): "fbe24bf314905b73",
    ("ghz_4.qasm", 3, "kway", False, 0.0): "fbe24bf314905b73",
    ("ghz_4.qasm", 3, "kway", False, 0.2): "fbe24bf314905b73",
    ("ghz_4.qasm", 4, "fm", True, 0.0): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", True, 0.2): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", False, 0.0): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "fm", False, 0.2): "6455a7e0fc73d3a6",
    ("ghz_4.qasm", 4, "kway", True, 0.0): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", True, 0.2): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", False, 0.0): "2f233c8ed3b41347",
    ("ghz_4.qasm", 4, "kway", False, 0.2): "2f233c8ed3b41347",
    ("phase_kernel_6.qasm", 2, "fm", True, 0.0): "3f9f721772a317fc",
    ("phase_kernel_6.qasm", 2, "fm", True, 0.2): "a8398368ebe266a9",
    ("phase_kernel_6.qasm", 2, "fm", False, 0.0): "73307fab26b9e203",
    ("phase_kernel_6.qasm", 2, "fm", False, 0.2): "7d9a42e826905fa2",
    ("phase_kernel_6.qasm", 2, "kway", True, 0.0): "3f9f721772a317fc",
    ("phase_kernel_6.qasm", 2, "kway", True, 0.2): "a8398368ebe266a9",
    ("phase_kernel_6.qasm", 2, "kway", False, 0.0): "73307fab26b9e203",
    ("phase_kernel_6.qasm", 2, "kway", False, 0.2): "7d9a42e826905fa2",
    ("phase_kernel_6.qasm", 3, "fm", True, 0.0): "84d011c084d687ff",
    ("phase_kernel_6.qasm", 3, "fm", True, 0.2): "af44f3a4101f1732",
    ("phase_kernel_6.qasm", 3, "fm", False, 0.0): "6766f76c9d093cee",
    ("phase_kernel_6.qasm", 3, "fm", False, 0.2): "cc8b8446cb273a1b",
    ("phase_kernel_6.qasm", 3, "kway", True, 0.0): "2964dcf41a4dad42",
    ("phase_kernel_6.qasm", 3, "kway", True, 0.2): "ab15a40eb17aed45",
    ("phase_kernel_6.qasm", 3, "kway", False, 0.0): "996b8aba50ab2a31",
    ("phase_kernel_6.qasm", 3, "kway", False, 0.2): "5a5905772134e7b0",
    ("phase_kernel_6.qasm", 4, "fm", True, 0.0): "d96e5d07e6fbeb0b",
    ("phase_kernel_6.qasm", 4, "fm", True, 0.2): "0b191b0d5cded601",
    ("phase_kernel_6.qasm", 4, "fm", False, 0.0): "8ab819577f1b6c0d",
    ("phase_kernel_6.qasm", 4, "fm", False, 0.2): "8df5f52cd7c35183",
    ("phase_kernel_6.qasm", 4, "kway", True, 0.0): "22de2b6ee2a4af39",
    ("phase_kernel_6.qasm", 4, "kway", True, 0.2): "3fbc8d35dbb85ee8",
    ("phase_kernel_6.qasm", 4, "kway", False, 0.0): "2240d245fecb4417",
    ("phase_kernel_6.qasm", 4, "kway", False, 0.2): "97fc49230c8ddee9",
    ("phase_kernel_8.qasm", 2, "fm", True, 0.0): "701509aa91e80dd4",
    ("phase_kernel_8.qasm", 2, "fm", True, 0.2): "e71b9bcfe71b82da",
    ("phase_kernel_8.qasm", 2, "fm", False, 0.0): "49e029eb5bfbd396",
    ("phase_kernel_8.qasm", 2, "fm", False, 0.2): "b42c8447b7953cca",
    ("phase_kernel_8.qasm", 2, "kway", True, 0.0): "701509aa91e80dd4",
    ("phase_kernel_8.qasm", 2, "kway", True, 0.2): "e71b9bcfe71b82da",
    ("phase_kernel_8.qasm", 2, "kway", False, 0.0): "49e029eb5bfbd396",
    ("phase_kernel_8.qasm", 2, "kway", False, 0.2): "b42c8447b7953cca",
    ("phase_kernel_8.qasm", 3, "fm", True, 0.0): "a1e76c747d93bed2",
    ("phase_kernel_8.qasm", 3, "fm", True, 0.2): "9b761758b041a077",
    ("phase_kernel_8.qasm", 3, "fm", False, 0.0): "e2d563a20b3b165a",
    ("phase_kernel_8.qasm", 3, "fm", False, 0.2): "fa81725dfa0ce437",
    ("phase_kernel_8.qasm", 3, "kway", True, 0.0): "cd1a2938d45d3348",
    ("phase_kernel_8.qasm", 3, "kway", True, 0.2): "d8ae66c11b0d8cd4",
    ("phase_kernel_8.qasm", 3, "kway", False, 0.0): "b1575da814aa8fb0",
    ("phase_kernel_8.qasm", 3, "kway", False, 0.2): "9cc709990571eb49",
    ("phase_kernel_8.qasm", 4, "fm", True, 0.0): "7b5ffd197137f7ce",
    ("phase_kernel_8.qasm", 4, "fm", True, 0.2): "1955ca291f0f6ddf",
    ("phase_kernel_8.qasm", 4, "fm", False, 0.0): "5d1601b18591a735",
    ("phase_kernel_8.qasm", 4, "fm", False, 0.2): "261e4af7ec02fe82",
    ("phase_kernel_8.qasm", 4, "kway", True, 0.0): "a3696951744556de",
    ("phase_kernel_8.qasm", 4, "kway", True, 0.2): "4a79e299e3a0b3b6",
    ("phase_kernel_8.qasm", 4, "kway", False, 0.0): "7e9085a66f85308e",
    ("phase_kernel_8.qasm", 4, "kway", False, 0.2): "e789495ddf6f5a83",
    ("toffoli_mix_5.qasm", 2, "fm", True, 0.0): "db74891ca14d0e3f",
    ("toffoli_mix_5.qasm", 2, "fm", True, 0.2): "db74891ca14d0e3f",
    ("toffoli_mix_5.qasm", 2, "fm", False, 0.0): "c6e594755f64fd3f",
    ("toffoli_mix_5.qasm", 2, "fm", False, 0.2): "aeb26a63a2dc1885",
    ("toffoli_mix_5.qasm", 2, "kway", True, 0.0): "db74891ca14d0e3f",
    ("toffoli_mix_5.qasm", 2, "kway", True, 0.2): "db74891ca14d0e3f",
    ("toffoli_mix_5.qasm", 2, "kway", False, 0.0): "c6e594755f64fd3f",
    ("toffoli_mix_5.qasm", 2, "kway", False, 0.2): "aeb26a63a2dc1885",
    ("toffoli_mix_5.qasm", 3, "fm", True, 0.0): "9b05b88b79879da9",
    ("toffoli_mix_5.qasm", 3, "fm", True, 0.2): "fb6ed5dd0a548519",
    ("toffoli_mix_5.qasm", 3, "fm", False, 0.0): "ce57080962d7455a",
    ("toffoli_mix_5.qasm", 3, "fm", False, 0.2): "1e83ad3b074e1499",
    ("toffoli_mix_5.qasm", 3, "kway", True, 0.0): "f2adfb778de2b71d",
    ("toffoli_mix_5.qasm", 3, "kway", True, 0.2): "b2507089cee81cff",
    ("toffoli_mix_5.qasm", 3, "kway", False, 0.0): "fc948725255323d2",
    ("toffoli_mix_5.qasm", 3, "kway", False, 0.2): "826d5a31079ab150",
    ("toffoli_mix_5.qasm", 4, "fm", True, 0.0): "eb33c8ede34fb477",
    ("toffoli_mix_5.qasm", 4, "fm", True, 0.2): "efecab28318a6035",
    ("toffoli_mix_5.qasm", 4, "fm", False, 0.0): "d7bac443aa86ed3a",
    ("toffoli_mix_5.qasm", 4, "fm", False, 0.2): "e7e0c334cca5c83d",
    ("toffoli_mix_5.qasm", 4, "kway", True, 0.0): "b1c58952cbbda4d3",
    ("toffoli_mix_5.qasm", 4, "kway", True, 0.2): "b1c58952cbbda4d3",
    ("toffoli_mix_5.qasm", 4, "kway", False, 0.0): "e33dba483378a662",
    ("toffoli_mix_5.qasm", 4, "kway", False, 0.2): "e33dba483378a662",
    ("ghz:60", 2, "fm", True, 0.0): "4109011c2f6cf7e0",
    ("ghz:60", 2, "kway", False, 0.0): "4109011c2f6cf7e0",
    ("ghz:60", 3, "fm", True, 0.2): "65c586c829ab0afd",
    ("ghz:60", 3, "kway", False, 0.2): "89091667efd497b4",
    ("ghz:60", 4, "fm", True, 0.0): "6b0e99d9a349cabf",
    ("ghz:60", 4, "kway", False, 0.0): "079c67956d2f8e7f",
    ("ghz:400", 2, "fm", False, 0.2): "6eb6f9a843c5296b",
    ("ghz:400", 2, "kway", True, 0.2): "6eb6f9a843c5296b",
    ("ghz:400", 3, "fm", False, 0.0): "a1cc3d6612ba9a88",
    ("ghz:400", 3, "kway", True, 0.0): "0d4a2d1e0a8d7b3e",
    ("ghz:400", 4, "fm", False, 0.2): "201181f85adf5af1",
    ("ghz:400", 4, "kway", True, 0.2): "a1ecede26b5ba783",
    ("qft:16", 2, "fm", True, 0.0): "048a974d9d7eab0f",
    ("qft:16", 2, "kway", False, 0.0): "2ed37655e3137110",
    ("qft:16", 3, "fm", True, 0.2): "780fe967f6d6e391",
    ("qft:16", 3, "kway", False, 0.2): "9dea8d1412b37186",
    ("qft:16", 4, "fm", True, 0.0): "78a12bb49f229cf8",
    ("qft:16", 4, "kway", False, 0.0): "8e2dafa01633dbba",
    ("qft:32", 2, "fm", False, 0.2): "a3cec70b8b8886fa",
    ("qft:32", 2, "kway", True, 0.2): "be433706fa5381bc",
    ("qft:32", 3, "fm", False, 0.0): "37d7fc29e2f4f888",
    ("qft:32", 3, "kway", True, 0.0): "a477c85c3bc84801",
    ("qft:32", 4, "fm", False, 0.2): "21182a15133036d0",
    ("qft:32", 4, "kway", True, 0.2): "456dd6db89045fd4",
    ("random:24:1", 2, "fm", True, 0.0): "ea6468306f4bbaeb",
    ("random:24:1", 2, "kway", False, 0.0): "47315559fde75877",
    ("random:24:1", 3, "fm", True, 0.2): "93b05d52b3691b52",
    ("random:24:1", 3, "kway", False, 0.2): "ae6f48cf010fc791",
    ("random:24:1", 4, "fm", True, 0.0): "64ee52453c9c9310",
    ("random:24:1", 4, "kway", False, 0.0): "6d44feaf90e5367f",
    ("random:40:2", 2, "fm", False, 0.2): "bb6990abf7917adb",
    ("random:40:2", 2, "kway", True, 0.2): "76a543d0cb76807a",
    ("random:40:2", 3, "fm", False, 0.0): "881219fb5ef17975",
    ("random:40:2", 3, "kway", True, 0.0): "38750fd5b1220d2c",
    ("random:40:2", 4, "fm", False, 0.2): "15afab633fe1f807",
    ("random:40:2", 4, "kway", True, 0.2): "077cecaf1054fef2",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_partition_is_stable(case):
    assert _digest(*case) == RESULTS[case]
