"""Byte-identity of `oracle --json` output on fixed inputs.

Each case hashes the stdout of ``oracle <problem> --k K --json`` for all
four brute-force problems at k = 1, 2, 3 on six seeded random DAGs
(n 6-10) and on gc 2 and ga 2. Every search visits its nodes in a fixed
order, so its witness family is deterministic; a change to a search that
moves a single byte of a witness shows up here. To print the table
again, run ``python tests/test_golden_oracle.py`` from the repository
root.
"""

import hashlib
import random

import pytest

from gkcover.adversarial import gen_ga, gen_gc
from gkcover.cli import ORACLE_PROBLEMS, format_dag, main

KS = (1, 2, 3)
RANDOM_SEEDS = (1, 2, 3, 4, 5, 6)


def random_dag_text(seed: int) -> str:
    """A DAG file on n in 6..10 vertices with shuffled names: each pair
    of positions is linked forward with a density of 0.15, 0.3 or 0.5."""
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    p = rng.choice((0.15, 0.3, 0.5))
    names = list(range(n))
    rng.shuffle(names)
    edges = [(names[u], names[v]) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    rng.shuffle(edges)
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def instances() -> dict[str, str]:
    out = {f"random-{seed}": random_dag_text(seed) for seed in RANDOM_SEEDS}
    out["gc-2"] = format_dag(gen_gc(2).dag)
    out["ga-2"] = format_dag(gen_ga(2).dag)
    return out


GOLDEN = {
    "random-1 alpha 1": "0e9cdd38bed0e71d945f202f33fb5133b2d77038766b5c19c530aa205f8a9d2c",
    "random-1 alpha 2": "dd4e91c0fd502ae0322ffa741e0f35604050047fe951680c78d3922145c49be9",
    "random-1 alpha 3": "314530a84c66d057c3bee9527b196e9bb910ab1073706b3a70884a50a6858b7d",
    "random-1 beta 1": "e94ab9b2964985722e79bc2e88433a2fc5fe80ef5890efd744c816ec2545536f",
    "random-1 beta 2": "a1178424f9202b8294d0133ab88a88b877c96e1af9a2399db84044e843072032",
    "random-1 beta 3": "d797486b74a95bb44d3d5a32d0012b92b9ae5cde0c9929ad6604222d7506bfee",
    "random-1 chain-partition 1": "ab0cf7b01059b5097a3398bf25962f22fbe269e1d0e9307fbbcfe106ddff4165",
    "random-1 chain-partition 2": "4297a18737c3261ad0d1c4ef3c678d24810e5a76e64e873ef20313e5619f34a6",
    "random-1 chain-partition 3": "f3a95ab975e034a3e9dd214ec7a83162752eab3c91eb5adeb5f1eedd98d8da02",
    "random-1 antichain-partition 1": "5c03f3b0d250df07e432d7488b8763a4311b71f8e5e8b014bd1050643fbb7763",
    "random-1 antichain-partition 2": "90c3fc984cf63b6003f5cc6d85bf7efead8d81c31d9c4a13bcda0267e525a4be",
    "random-1 antichain-partition 3": "8aee9d2dd4957bd1b81fa995703ac2ec04bc002e0d392f62f6ef896dec9921ae",
    "random-2 alpha 1": "79e3f5899bd229f22339bf4cb281480f3bf467d6bf99265f0758c806b2e7321e",
    "random-2 alpha 2": "41858c0e67ef4f79fbe03d2b9a7f6d0d284f7ac9ba83abd3a9873211db14e936",
    "random-2 alpha 3": "66d975bd9820896d673c5fdabffe1cfce830aefd35f718e581d1d8d9caa8ebc4",
    "random-2 beta 1": "b4e5d3d7632e7c2812864f895b145c4259d076f9fdd8b488d300a72f522e813d",
    "random-2 beta 2": "a3a9ec3f7c8e34fff533f7424a573538ebf43b21b5f1c8b18e459198110affc8",
    "random-2 beta 3": "1b2c7049ae5463134a887ec0dffe66f3f3a6dcca01d082062bda73cb3c25faf9",
    "random-2 chain-partition 1": "6b69315daba98796dcb26129a96adf8ac94664ff985fec56c7b45ffffe1056e7",
    "random-2 chain-partition 2": "9c847510989243daf1bd9d74a8616140d04284e75254f7223a0c2c6455dbce06",
    "random-2 chain-partition 3": "bb394d08d4d904503c6778ab9472bcd71c0819b057cdb80016b8b206f143a7ab",
    "random-2 antichain-partition 1": "2a3c18b09b9af921a1054fea5cc2a6e3d8dc39c009a78dfeb27e9d5401641a37",
    "random-2 antichain-partition 2": "bfdd04e5487fe3e962cb52b54ce0976c629ccd7c964a08a1d139c1c1b72766a1",
    "random-2 antichain-partition 3": "2f8d1a431fe8a4209c1cbc30e1b5722b09f98492fb70410b6c9026a4b223ef92",
    "random-3 alpha 1": "dbceea390f3dc4748c4cbf7e039b4d5f83d13bfc99fc427a4479300a880d0a1f",
    "random-3 alpha 2": "0680d229895f6609be0ad2a49dd6c7095b7dea0c7aad52aac3131ea6aa2ef1d1",
    "random-3 alpha 3": "ae93caaadfd94fec145b6de581d93df98509dc436462a7cd3ed4a51effa8776c",
    "random-3 beta 1": "353e0232afc53eaff3fc5a6d18fdcf8be3e2f54ba4043d68677505af1c0244cc",
    "random-3 beta 2": "f3c2a9ffddee01a3534ccae0ac9843b15d2c01cd1c9b062ee8eb09556d4f4c24",
    "random-3 beta 3": "600cd96da8a380403033c81b49c69e5f74d4068ff363f5fd5f83143a3e09d70c",
    "random-3 chain-partition 1": "0dfe21849baabc4b16c6eb87023a02e1f41dec8170ebf73cc3b9433871be937e",
    "random-3 chain-partition 2": "7116d344bf12ef5d14fc13587e24c3bd8f5922f19d417e8eda69f884f493467b",
    "random-3 chain-partition 3": "7f8fc6d6360b0df9fa006b19b3e31d158ef9ca22fb4d97fed7ade371df78099a",
    "random-3 antichain-partition 1": "bebe6da12b1a5e874fe1aa00c3b6906bcdae523e717967f0757f97959c550fdb",
    "random-3 antichain-partition 2": "423ca42f17a21cec5c29e4cb7281b9908ab25bf44c8542d98753a19cabf9f29d",
    "random-3 antichain-partition 3": "5d48b5d0c06ca2912db7afa915adb728905a5bf88830822e43bad2a8b6c9d437",
    "random-4 alpha 1": "c32d2cedc656183506f797a72e7787b1eddd7a8efe8d5f26876b6cbaa392e8e5",
    "random-4 alpha 2": "40d3e08943b61b11477e1697ee573858af0294d7a6b2155965ca71b4528b8930",
    "random-4 alpha 3": "5bfce168d47683b84f7bc10ca922a22c213fedbd5d64e8dd9e393c01a5216ce0",
    "random-4 beta 1": "2811ed27999aa77506996eabfd41ad4b8ccdf04b45778086715308646e4645cf",
    "random-4 beta 2": "ccb23593bf84a2ce0e190a30a2b550d14c4e75df3510091150f603a4c199f99c",
    "random-4 beta 3": "01c5978fdac7d3128fb246696efcac714bd3ee2d22b62c4c699badede470f6f2",
    "random-4 chain-partition 1": "9c210a4d5b2872d9e18ecd78204ebef70f24fd3ac506c7256f7d7e14fcb1b971",
    "random-4 chain-partition 2": "93f05ce163eca31fd8fe487cc4caacf4fc1b7d2fd71d93a1356d3eb1e477784f",
    "random-4 chain-partition 3": "19023dc105de6fca2b32a685f943614866b2dc0159544ab6678e2940b85e4b3f",
    "random-4 antichain-partition 1": "33e229eee6609e72b4c7f656418401ebe1e6ed123acf96c8339eceb50799521f",
    "random-4 antichain-partition 2": "3ae3fb23789f0d478ddf356ea67a132e52ddd62fa7350319367c807335bbc5c7",
    "random-4 antichain-partition 3": "0acfdd465d85e9aa356824cc369fbd491141227521a8cff98a4e31513c206eb2",
    "random-5 alpha 1": "a3e7300c76d02857fee35c548d4cffec39f006591d819283e6a3d23fb8afd6f2",
    "random-5 alpha 2": "898db113afd0cbb2aed8d5ffa73e1ac2356f3f9656904ea7fc94e2a6c0abe9ad",
    "random-5 alpha 3": "3278adb5d321fdd57a0c92b1d6b7817eebf8f984000efdf2e04a0c8b6de26c5d",
    "random-5 beta 1": "8e004bd3fd9b6ea879d4e909988832a2d6a3ca2c7e0abb99f6f1e40092193d6e",
    "random-5 beta 2": "2d3c9033436c338be5d24bce986ad28ce987eaf3fcd209be547bb4e4145ca984",
    "random-5 beta 3": "fa4a6e01e2046107de0a89e324143b21339ecb0b43a5d39172fe1d84e97e8ca6",
    "random-5 chain-partition 1": "9b7d91023239d52ba364fe0edc28c2b1b777e205d54210408298df385a695922",
    "random-5 chain-partition 2": "3da07fb427c98c60ad7030e74da38a2fbee3f3bb644f522f6aa724e606d18780",
    "random-5 chain-partition 3": "bf48ddda5ee7055867f8e5975e5be82279fc872e50494e47f2b8dde633007401",
    "random-5 antichain-partition 1": "0b11b0580e8d40f02ec596027839b849a4a94cafbcbcdf54708a2d2cc258125f",
    "random-5 antichain-partition 2": "359f30329cdef3a059c2eaa25a6cc75ab00ed46c2abd2486e1d7c790bd77085d",
    "random-5 antichain-partition 3": "763f64a27d6c94443d672efb581b79629dd14d43b4043cfb1c35de4f309ee804",
    "random-6 alpha 1": "b6b3c281268aed2bd8e7d185dce9efdf1b9a273e639fcd461a60bec42aaaa4be",
    "random-6 alpha 2": "5e16de9ac58f5869c7e543670bcec6082e5c28ded0db5934e3ec6775db283529",
    "random-6 alpha 3": "d8eeddca2812baa0fadb7601dbdc70ed806c8adb880d1e9ce4f1bf91bc1ac22e",
    "random-6 beta 1": "8edb9f0c30b0e4c0d965faaba423e7c76aa1af6f5fceeaea98107aff0faae83a",
    "random-6 beta 2": "62d3d91a4cfbd1764bde99276c523b46bcc0c9ac5016024acdcafe8ea6e2f069",
    "random-6 beta 3": "db27a2dbeb71c221b642de70f52e074ac70dfdb1698d963dcb3738c623705837",
    "random-6 chain-partition 1": "6c41c4fca7f92d9f4a14bf40ca3cf93e16feea998170cc172cd3aed868185e1a",
    "random-6 chain-partition 2": "aa95519a84d12421ba2a3ebabb0adc3496e52381ac3acf4b6be0d3d3020fc66f",
    "random-6 chain-partition 3": "2bee46ba609273397307758aeae69e81bf23722240bb97936cf896b78e2ac382",
    "random-6 antichain-partition 1": "d688dd96156432eb02a8107668990a552d0cafedca6432809643c1aa4280268a",
    "random-6 antichain-partition 2": "90c2f642a0a5ec1cf084c279882d12f0676b4111ca9d79142d921bf24469578b",
    "random-6 antichain-partition 3": "0bb4f423030a8ff9c7e9da89e87cefbd03799f6071556da50944570a0b8f6b8f",
    "gc-2 alpha 1": "8fd2ff40d75f992dd13307071003f3862064844c70e7241c464b7e55607f9df1",
    "gc-2 alpha 2": "8b7d85229992493f11d465110038e0108d1583db9fde26a6fe7942ee468be94e",
    "gc-2 alpha 3": "66c6505cf7c61eec918565877df3f6ba1bd4d99716cf5d9f69fe0bb14e40af37",
    "gc-2 beta 1": "a74c3504a2613c98f6e411170f6f80cd2e081edc5e9de4f445f4264d853d1f45",
    "gc-2 beta 2": "abfbcbcd8467e1c9149377732d955cb72dec1c1415359a9e9baef3ab8b020373",
    "gc-2 beta 3": "a38be96b04ece43639b9a5604333a847001d1e9b6d316577ca68b46eb4cfae84",
    "gc-2 chain-partition 1": "243256b0722ab1f2107a8040903800588e33cad256aae4c60681525c3f6100d3",
    "gc-2 chain-partition 2": "a7baf83145ae043622f9231b267d603a895c70f3bd51e7b382f640dabfeab924",
    "gc-2 chain-partition 3": "08954e6e157d9b436188779a7e12e5b8c1d827f5a8c78eaaa0e789b38d075c68",
    "gc-2 antichain-partition 1": "c2ff40a1379876c3d013c487dbbd7bac1d36d11ed63452eb859cc2a221193a46",
    "gc-2 antichain-partition 2": "11f26b00a2c784bb22f7c51adfb7fb843c0b943c5c73bd7291287c26f39ec1f6",
    "gc-2 antichain-partition 3": "07bedaffd0a1182699162cc9810d3f3b997dde051313df5ad9a3935eb272cc4f",
    "ga-2 alpha 1": "8a3f61899291271e4beb7b1b96cbe1281f75aec7ad2f29028d5e8a0f9e3e0a10",
    "ga-2 alpha 2": "9912d548026bc112fdb2a5a448d9a81113fd530927a939a8a7519c6f3aef9f1d",
    "ga-2 alpha 3": "b41497f38e18c2115e94a4fb29e0f90e7af8d2304581341ae82b4477305c9349",
    "ga-2 beta 1": "7ba2b6287f2cc9828aa35ec220e24277b6403ca75c310068b23d7d6a9794b143",
    "ga-2 beta 2": "1fbcb112695e172ac8f3c88c2644c468deaca89aa07a0f5bf0970591c1e4fa89",
    "ga-2 beta 3": "5e0eb430b5a7d93d112774f68cc8a25495b71e637f399313c4394310ee8bbec1",
    "ga-2 chain-partition 1": "b055ce096dcbc74d7313bea791d34f7161f15b198e5213ff5beaef87f9ee2d22",
    "ga-2 chain-partition 2": "d3ff8b5cfb6b256f4f72b986eeb6e64185a3799ad23bacd36f8dc31d54b7580f",
    "ga-2 chain-partition 3": "6530847bd018d41906c528482956542bea5c0ec8569c985961c3bfc3df2f0b32",
    "ga-2 antichain-partition 1": "5b4c81cbde4b262268829d670a10d706393614a906eb0a8202ca63e396157771",
    "ga-2 antichain-partition 2": "362460b88aa35cbe586f623627fe9374edebce70095a2dd8114d2ca2859e46fe",
    "ga-2 antichain-partition 3": "daad3f501953530e292bbf627e60a169fae53df3d5d75ee491c8523038873a52",
}


def oracle_digest(path: str, problem: str, k: int, capsys) -> str:
    assert main(["oracle", problem, "--k", str(k), "--json", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(instances()))
def test_oracle_json_bytes_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(instances()[name])
    got = {f"{name} {p} {k}": oracle_digest(str(path), p, k, capsys)
           for p in ORACLE_PROBLEMS for k in KS}
    want = {key: digest for key, digest in GOLDEN.items() if key.startswith(f"{name} ")}
    assert got == want


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in instances().items():
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w") as fh:
                fh.write(text)
            for p in ORACLE_PROBLEMS:
                for k in KS:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        assert main(["oracle", p, "--k", str(k), "--json", path]) == 0
                    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
                    print(f'    "{name} {p} {k}": "{digest}",')
