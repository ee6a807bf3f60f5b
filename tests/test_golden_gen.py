"""Byte-identity of `gen` output on every family and output form.

Each case hashes the exit code, stdout and stderr of one ``gen`` call:
- chain-ratio and antichain-ratio at k = 2..7, plain, ``--json`` and
  ``--check --json`` (antichain-ratio's check exits 2 by design,
  criterion 4 in README), and at k = 1, below the families' domain
- gc and ga at i = 1..6, plain and ``--json``
- each family without its parameter
- ``chain-ratio --k 3 -o g.txt``, text and ``--json``, run in an empty
  directory so the report's ``output`` field is the same on every
  run; the written file is hashed too

The plain form pins the DAG text itself, so an edge moved in a
generator shows up here. To print the table again, run
``python tests/test_golden_gen.py`` from the repository root.
"""

import hashlib

import pytest

from gkcover.cli import main

RATIO_FORMS = ([], ["--json"], ["--check", "--json"])
OUTPUT = "g.txt"


def cases() -> list[list[str]]:
    out = []
    for family in ("chain-ratio", "antichain-ratio"):
        out.extend(["gen", family, "--k", str(k), *form]
                   for k in range(2, 8) for form in RATIO_FORMS)
        out.append(["gen", family, "--k", "1"])
    for family in ("gc", "ga"):
        out.extend(["gen", family, "--i", str(i), *form]
                   for i in range(1, 7) for form in RATIO_FORMS[:2])
    out.extend(["gen", family] for family in ("chain-ratio", "antichain-ratio", "gc", "ga"))
    out.extend(["gen", "chain-ratio", "--k", "3", "-o", OUTPUT, *form]
               for form in RATIO_FORMS[:2])
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(code: int, out: str, err: str) -> str:
    return sha256(f"{code}\n{out}\n{err}")


GOLDEN = {
    "gen chain-ratio --k 2": "f884ff5536bbc720ae060fc6404f941106939b2fbff1e7eb3c0c4dde82be8ff0",
    "gen chain-ratio --k 2 --json": "108051463d87f49a2a69466731dc224075f86e8fcedf6966d16120bc26e297e7",
    "gen chain-ratio --k 2 --check --json": "6b039c4d988a7b014c6839d9af001f304b7b1c475fd71c822f55a3b06e1a7642",
    "gen chain-ratio --k 3": "44d2314e505ebbc5616bec499a1ef93144ce9fc36018c4020e8428948ede9460",
    "gen chain-ratio --k 3 --json": "28249d23c07b90bc18b7a7ecddfd8d92b9ca4e6380b7b38f6b309696abd575e8",
    "gen chain-ratio --k 3 --check --json": "acaeb32d3a756de4f49707ba40320808804d280de178d541a67d94c7d2bccc8f",
    "gen chain-ratio --k 4": "e1e49c99762aee9145949887563693ff7b5a95b612a30d8878a0a448febb48d4",
    "gen chain-ratio --k 4 --json": "56ab569232fdf29b3182af9877263c416fa99aca5c3216b46f1983ae59c11f71",
    "gen chain-ratio --k 4 --check --json": "1acf2fdac1afc14d078441d392722f1ccfd03a97717ba179f26bcaa053120193",
    "gen chain-ratio --k 5": "d24433f70ea9c4044f169fc811bee503d442360a570981d9b627cd5c02de2734",
    "gen chain-ratio --k 5 --json": "4bd61ede91d27f2a0c61fcef543415497a53f8c7b76d011dfde0c5e94a35e9c1",
    "gen chain-ratio --k 5 --check --json": "449e9f2935544312437604a69b5ab2801e13002a76307db5e68416f1045eccf8",
    "gen chain-ratio --k 6": "509fed8eda0f25a7448d18b4ef9a24b2d4106ae4e7650ec21402f2ab12891632",
    "gen chain-ratio --k 6 --json": "9ebd4e87231eb2fa252d28f6b6c72c4ee44b60f04346bb6dd925d1ab3f0796c0",
    "gen chain-ratio --k 6 --check --json": "03f8b24a5695664d6b18d608c8cb60a5e5cc4993d4604243a71d425e280568f3",
    "gen chain-ratio --k 7": "1d68e6cea7a7a93e8b4c5baa0da22dc6d6e67016d8b5b242126ab4b5d3653762",
    "gen chain-ratio --k 7 --json": "bb136e465686b87a6466cc86bbe1315a4c4fdef647e9b752e8b71f8495f86bdf",
    "gen chain-ratio --k 7 --check --json": "ad0268a955f3365cb9ee17c130fc8b155950c4093e000af96e94b475b3cc6ed2",
    "gen chain-ratio --k 1": "d2f968258c01a0704f41867637c2077be0356ee2558cf0f18848b738e2d1c704",
    "gen antichain-ratio --k 2": "efe18ce6798e5829ba3cb330c47d21e6b872775ed5cc40de18f510f3392add77",
    "gen antichain-ratio --k 2 --json": "8549f57f89fb5e065b8c7fed6bbc5e93869fd7866ea427fecfae9d5d36249776",
    "gen antichain-ratio --k 2 --check --json": "626aa93eb3edaf0922333f5790c8c2a432ce73dcde70e2e46aeb7b87ab7d3554",
    "gen antichain-ratio --k 3": "4ec453bc1b9011e27140d2c81f3b275149c957908b90b32a73b72c484cb0c339",
    "gen antichain-ratio --k 3 --json": "99ffff4c6759e0c711bef32352d71fc793b35512327116d1530357b56b8d8489",
    "gen antichain-ratio --k 3 --check --json": "d7e9027aca7c2b1563fe282ea372326348504e3406167bcaea89aa8001a05b10",
    "gen antichain-ratio --k 4": "c85f56542cc6e206344238cfaaa3db794048766417c8b9b4834b5a75c71de682",
    "gen antichain-ratio --k 4 --json": "d50fef397a184858f3aa1dc9495a35b14de6677eee985e3f4f67dcccea96f0c4",
    "gen antichain-ratio --k 4 --check --json": "5b66b668dea6cd5326e95dbc46e9f7e2de8ba26638ea19327e9f46a3ec2a6111",
    "gen antichain-ratio --k 5": "cd6c3adeae2ff78ffdb5c3cec3ff5154c44315c6b02fefbde6f6df7f20c6fca4",
    "gen antichain-ratio --k 5 --json": "747c70770e8437f34ee9219fdfccdf47d31a598a43136ce3d2d1cfc2beb658f1",
    "gen antichain-ratio --k 5 --check --json": "0bfc8c2817342ef88e33db2c66c2ec22a54e02345fd18795ffabca38b143af16",
    "gen antichain-ratio --k 6": "f173ecbaec5407b0386bf7ab7aef96c70ed93d7a3ec2105c06c8e46fc01a4ec2",
    "gen antichain-ratio --k 6 --json": "bbac65af49a8af823a2aa63e43fec051950f80d12dd56cb980aefec1f86df4e3",
    "gen antichain-ratio --k 6 --check --json": "f5f0980fd80b6492fd29d5a234ed58a16f929ffc707511405b71a57f0d1f78e1",
    "gen antichain-ratio --k 7": "cb107a298b4ec75e4e915e5e30510e1558bc410ff9dfc1022a56c9db4fd231f9",
    "gen antichain-ratio --k 7 --json": "1411493986a562587f9193aeff459dae10eae9f0514d2972f1e2a04e8a6b6763",
    "gen antichain-ratio --k 7 --check --json": "9ba93274ad6ddfa8461f3073804968a43fdb3aa5b0d302bc4aa40da0a6fd1ccf",
    "gen antichain-ratio --k 1": "84e439bfad33ce9ffe02e66802be2cd6916310e068e000cb9198a0c772ce48df",
    "gen gc --i 1": "3805cd8c3c3bd68e477e2b3ca44243f21ffc8a580a2fb255f0b4e2e82a468dda",
    "gen gc --i 1 --json": "dd187d6776e9411686d54d69c599e02ffc76f2cb3bc3d33b8ed6d7fceeedec92",
    "gen gc --i 2": "7e5ee61ac45fab5a62c0b1b5d5f3338972d9d5d040ed9e1b0e078294874a4c62",
    "gen gc --i 2 --json": "9a54582a4f5cd42755e2f090295dc16580515686e84ee43090209039d083ac9b",
    "gen gc --i 3": "b94664914693105add4ad984549a3574d0a20887bb7e75918621f6672ba20e36",
    "gen gc --i 3 --json": "995847d064eb98f611beebc775c8af4065030ba2ec8172cc815ca1fdd5fdedee",
    "gen gc --i 4": "af20433117316a209b7957dce53e327d9a130f213c23e6144751feaf4414c263",
    "gen gc --i 4 --json": "ab49b8a3c5e1e12a3841a980aa3dc200174848542ce44f5571af7b051165d0ee",
    "gen gc --i 5": "45ef1575384738fef2c314ce3a4cbe80007d493d303a298ca6ab6be8e8e94408",
    "gen gc --i 5 --json": "a525a8182739baf07e076acb4f4c4b01c83e1d55c2fe02b79d035a757aa2cf28",
    "gen gc --i 6": "15346b690bf006da0be9ed5394f35d82a5031bd6b62aed588424a4ae91c6aca0",
    "gen gc --i 6 --json": "b37236f4d50fd3c828df2b05c97278278e55ed416070487dd56ec7348f830f7f",
    "gen ga --i 1": "d65bb484d1e3bb9fd1353498684b562386e3ea6b5c25b844832278ce9a4a1636",
    "gen ga --i 1 --json": "3d73e3aa64eadd52dc772a10989f759b86870a89f88a9ac73dce9ebd353e5ea3",
    "gen ga --i 2": "186985aeef38c91a43667a274576734bf1dd346b6520e853cd9a9b4d479e6143",
    "gen ga --i 2 --json": "a0d788bee781925db1bddf7b39df2f1e23d6e31e05c6958e3615f5e5cbf01033",
    "gen ga --i 3": "46223255743c5a8e9c8e388b1330744bbfe4d9dcf347a00783729b0c632062a3",
    "gen ga --i 3 --json": "e0a204bca9ecdabd58893a3543c14d1dae28eae582716f57511f4bef4296188f",
    "gen ga --i 4": "4a6347019bd1c18d9af2b6d12f125f25a1e8ca448c5f13582a9e56059689dcd0",
    "gen ga --i 4 --json": "1840822ceb919f8b8bc49099158f1555f44c2e6ea6cb2b470b58aec7e6c02a91",
    "gen ga --i 5": "78dc194ab72df1f8c4fe7b6010f29b3e8046eff76c0e0cf3a2512beeb2979b72",
    "gen ga --i 5 --json": "c30b07db68054cbb005b263b7fbcb6b384bdfbc8d11ffc5c6d0f0e1eef70a343",
    "gen ga --i 6": "d0833dc0f443cfbf2053a4eed194b6cdfc10a255dee8d673aac8daf3ab6dd0c3",
    "gen ga --i 6 --json": "cc299d4faa02ffd4b6ac2425eacac4e97ff869459b186ae90448a575bd24c709",
    "gen chain-ratio": "1aa129815365351c1ca570b168396f76c66fd2822c2c739b6b5793fb5900efa4",
    "gen antichain-ratio": "bbc4b389b0ba29217164a2fdd44f4a9410fcc7535e7c2eccb89a2fb3a859ead2",
    "gen gc": "cc963a44daf41e0e497403b28d7a8b233cbcab38f7ab8228cf44158b77a6989e",
    "gen ga": "1d1995340b4e116631180b5a38be14bdd60431b08e9f011bfac44f1306a80b00",
    "gen chain-ratio --k 3 -o g.txt": "f09e1d857798857b6c935d0178fb1df054c53ff4ba47a654abb72209948fc9d3",
    "gen chain-ratio --k 3 -o g.txt file": "75e4d53f040cd9b396c65099c5cc23ad28ad8ae6a46ffb9a260d0e30b26ac878",
    "gen chain-ratio --k 3 -o g.txt --json": "04e9965a6033aaa0ce77cd1304e96ffeb119f69c892a14498ea7b342a6754ba5",
    "gen chain-ratio --k 3 -o g.txt --json file": "75e4d53f040cd9b396c65099c5cc23ad28ad8ae6a46ffb9a260d0e30b26ac878",
}


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_gen_bytes_are_pinned(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    key = " ".join(argv)
    assert run_digest(code, captured.out, captured.err) == GOLDEN[key]
    if OUTPUT in argv:
        assert sha256((tmp_path / OUTPUT).read_text()) == GOLDEN[f"{key} file"]


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv in cases():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            key = " ".join(argv)
            print(f'    "{key}": "{run_digest(code, out.getvalue(), err.getvalue())}",')
            if OUTPUT in argv:
                with open(OUTPUT) as fh:
                    print(f'    "{key} file": "{sha256(fh.read())}",')
                os.remove(OUTPUT)
