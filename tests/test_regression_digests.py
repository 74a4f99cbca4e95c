"""Byte regression oracle for the exact-integer CLI commands.

Every output below is exact integer arithmetic, so its bytes never drift
across refactors or platforms.  The digests are sha256 of stdout and of
each emitted file, with the files written to the relative directory
``out`` so that stdout's ``wrote`` lines are location independent.
"""

import hashlib

import pytest

from combcluster.cli import main

DIGESTS = {
    ("lattice", "--M", "4"): {
        "stdout": "96356eb70b306c7247f686fb3779c6234d62bb1335c00ef2ab6ce7d70eca2ccb",
        "lattice_M4.dot": "cfc2f999847336048651f2cc8d339a8238a29e67156fef0bda2f36af59a488b8",
        "lattice_M4.report": "4da2311a781e41c3e51d86f822ae03688f5afad8256a4e7ab052575a13092a9a",
        "lattice_M4.triplets": "68d70de2aa68144ca4e8e2136ec2ff1734d6505b4a6f56658a2f6e3cefcb21ae",
        "supergraph_M4.triplets": "ebc7ee7e5e2792dd7aa7d80153d44bcfa5f41ada79e41c87253384b35c9f6ad0",
    },
    ("lattice", "--M", "16"): {
        "stdout": "ba1e794d708d5ae06c043570247987d54f6d0be22deded859037e5521d15273d",
        "lattice_M16.dot": "b8ce4c62c5178b2a49990bb87abfa6d4e9c44125c06483ef2041559ce652b659",
        "lattice_M16.report": "ebdc00a126cc3ca823433ca4690f032ecbff163c14ae898ae2155bdd507fcb28",
        "lattice_M16.triplets": "4cfc46c4120e7cd3b811a2a0c24a90e233aa605bcf4c7ee51da1cd7ff0b45bf5",
        "supergraph_M16.triplets": "58210238eb089f48372df2eceed88b04f3dc827657dc8be6b27f3654080be2da",
    },
    ("lattice", "--M", "32", "--formats", "triplet,report"): {
        "stdout": "d86caa04703247fe26a9bcdaa54ee95f5fb6ce2ae5552325c7192158eb8a82e1",
        "lattice_M32.report": "5395e56a2dc5f5cc4ac83e3aad1f11d6868047e222cc93d9fffba71f070647fa",
        "lattice_M32.triplets": "5b445acb00b63568257c847ae3c2e8d084f6a343b6b9d5c715a04321015abbe0",
        "supergraph_M32.triplets": "134301db929e781b65da5efbc78877114409e175cbad634515169c7889d1c606",
    },
    ("ring", "--n-macro", "4"): {
        "stdout": "22ffac09a010ca48a9eca190197eec809a1b02d85250957a5fc71059f49af8cd",
        "crown_n4.triplets": "1fa8d81f7f94cb50645ef40282c7f67144e690bfa5ec16226fc6a5df1688e3a5",
        "ring_n4.triplets": "fbb55bbad6a0980e0da5cb7ee068b2d42b93d0a2ccf6d8dc256dbd6dd565392b",
    },
    ("ring", "--n-macro", "6"): {
        "stdout": "c395015937fbcd7b70d6f8e4359a6bc3ca67d67cdc2ded9c283a0a3accd85231",
        "crown_n6.triplets": "b573bf8435506054522322668f2d03f15df4243fcd1490575ef273b78f4d9243",
        "ring_n6.triplets": "88b004ff7fbdedb4ef73652d902ebc84206cd8f6ac3d341a3581463f22601bab",
    },
    ("pump", "--M", "6"): {
        "stdout": "3d0fa70e32805d8a6e756282d69a867ff5a42c50a789c59037131df2cba57f6c",
        "pump_M6.txt": "0082bf40721f6e9a3e246bda3e4db98ab32df44ca07e10df9929dd4da9fecc05",
        "shorthand_M6.txt": "361e34944beb715b9aa740d8fad6377a0e6622e657383a3734c756944fcf2737",
    },
    ("pump", "--M", "40"): {
        "stdout": "0e3220f487f6a4f846f70e8e01740408e035f0c41c226efd769c0a7753cafabf",
        "pump_M40.txt": "f8dc1275bd9f468c356d895f64b6af5158f6dc7b29889c49c37e4c41892beb54",
        "shorthand_M40.txt": "5bb70e319e0863b8216f2664577ed2a37144653f70e66f7b529f479473ee1742",
    },
    ("scaling", "--M", "6,8,10,20"): {
        "stdout": "c25da292d2d25a4a506e4ea9ac5dcb119079259b2097026dea6796be10772b8d",
        "scaling.txt": "7c75c748372b217212e63894b2be72c3d573439fde7b89b4d404ddb2c0189418",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_exact_command_outputs_are_byte_stable(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "--output-dir", "out"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    got = {"stdout": sha256(captured.out.encode())}
    got.update((f.name, sha256(f.read_bytes())) for f in (tmp_path / "out").iterdir())
    assert got == DIGESTS[argv]
