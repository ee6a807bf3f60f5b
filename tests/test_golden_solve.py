"""Byte-identity of `solve --json` output on fixed inputs.

Each case hashes the stdout of ``solve <problem> --k K --json`` for all
seven problems at k = 1, 2, 4 on six seeded random DAGs (n 20-120) and
on gc 4 and ga 3. A change to the solver that moves a single byte of a
witness family shows up here. To print the table again, run
``python tests/test_golden_solve.py`` from the repository root.
"""

import hashlib
import random

import pytest

from gkcover.adversarial import gen_ga, gen_gc
from gkcover.cli import SOLVE_PROBLEMS, format_dag, main

KS = (1, 2, 4)
RANDOM_SEEDS = (1, 2, 3, 4, 5, 6)


def random_dag_text(seed: int) -> str:
    """A DAG file on n in 20..120 vertices with shuffled names: each
    vertex links to some of the next 12 positions."""
    rng = random.Random(seed)
    n = rng.randint(20, 120)
    names = list(range(n))
    rng.shuffle(names)
    edges = []
    for u in range(n):
        ahead = range(u + 1, min(n, u + 13))
        for v in rng.sample(ahead, min(len(ahead), rng.randint(0, 4))):
            edges.append((names[u], names[v]))
    rng.shuffle(edges)
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def instances() -> dict[str, str]:
    out = {f"random-{seed}": random_dag_text(seed) for seed in RANDOM_SEEDS}
    out["gc-4"] = format_dag(gen_gc(4).dag)
    out["ga-3"] = format_dag(gen_ga(3).dag)
    return out


GOLDEN = {
    "random-1 ma-k 1": "8b053f29b02ae3f14a7355809dc1f1c47b519c4753fd899ae43f602510a4e93c",
    "random-1 ma-k 2": "1f153f479ecaaabf32e5895c66f790bfba0c7c56de1867939acb599ba1f76aa4",
    "random-1 ma-k 4": "3fa88ea1bc34af7b39c652e1d7c6f635f2265fcc859dc0fffd224203712b63bd",
    "random-1 mc-k 1": "9fe6f57c0e7fb7deb84751d3ddefdf1d7ca25d4d74506fe69cb6dc904f86544b",
    "random-1 mc-k 2": "9854efee2fe3fa1518433dd8bef1d30b06a6157c43e9cc02e25b0c46062f7d65",
    "random-1 mc-k 4": "0daa520de650cee36fcb7ae62dbf3c99d02d9d5beff148134b315c18b4e5a465",
    "random-1 mp-k 1": "aa0be1c4e2d9ddcabb0c8c9a4f2700aaa8f876363814a2aad11d68745dfdebae",
    "random-1 mp-k 2": "5d6b254bcbf48d8e71fc03cfcc5641cf4495d956ea9a70015871d4cfc28a1158",
    "random-1 mp-k 4": "d02d4065c17d405a38c9c9d63990807ba6fdf7948a20ab9323ec811d075d2597",
    "random-1 mcp-k 1": "9f55095bff631c50060f6ab710f2749e8d1ac8baa680684fb52492ecd461788d",
    "random-1 mcp-k 2": "ec23500470492e8dd0694aedbe5af19891bf484fe4e31366d714ede031e9c808",
    "random-1 mcp-k 4": "64e488e03898b94e083425f27519e7273134b0cd120e3d206134c7324cb47f57",
    "random-1 map-k 1": "442be749ab6fc7ab319c57d1cd7f8a314a0bd8e0cc21cbaddaf8fde983cbbe35",
    "random-1 map-k 2": "1f4344e871dd3f8f3347cc7b7826832ca755ede497bc56b3e48ed3f54a029806",
    "random-1 map-k 4": "503e797afadc15bdda234e584964acb55f33a0b1b68d025b5b859be1a8b8d724",
    "random-1 mas-k 1": "7434b93f11e7e1c642f167ec1c7f123a818494538bc8122a472137e5dc577ac6",
    "random-1 mas-k 2": "e9442fb6d73ba2b46c9883decc0bd37a2992dd1922406eeae6696e3b5f74f38e",
    "random-1 mas-k 4": "87877c31e99c8dc73cbd323e12c51016ba7350ab5a0efd83c6ce59b6d2990055",
    "random-1 mps-k 1": "15e8974b993fd617fda3dd0e37bbe961561ec84b6686650b550e53335ee4d8a0",
    "random-1 mps-k 2": "c91bab0f923ba31d67d1b8d204b4728c86466967a5ca331639c1a038d5644970",
    "random-1 mps-k 4": "dd7b4895828f9a14efdfd6ca1589a921f0c17e213707374341072b3fcd3430ca",
    "random-2 ma-k 1": "d82cd46afc1d7b926cc9c07d06b34cfb19a44bc7759c615234d76c04ce43282a",
    "random-2 ma-k 2": "13dfaa9d4d6b49de17bf9f40ea8c9841d21dc7e0535f8c7f4a185ffa0b730780",
    "random-2 ma-k 4": "ca677f0c3e17c604c5e229317468ecf1839ae71b1805ea7d18a91839d4ed3cbe",
    "random-2 mc-k 1": "39010584de2200c09ca5d29dace85415a4313a37913c342997cf9004568ac744",
    "random-2 mc-k 2": "a0f493481cc07aa0cc91c01d057696225457a7c24563146a945d2d650273834e",
    "random-2 mc-k 4": "f02211721e081397eabebcb6100cb07f7e92b6cecf0bff31bf40fdb21749824d",
    "random-2 mp-k 1": "69d4719f31e48faa777efd5ff57ef7fa4614785d61805fdf4853890cd94cc873",
    "random-2 mp-k 2": "62f2d5642970e0b6d9b51b76aa2625e5f1c9910f10f341091c20006e24a5a739",
    "random-2 mp-k 4": "81b55f76098a66c229a94983f8419b27dc472257754766ce63b9a5fee2c61407",
    "random-2 mcp-k 1": "8c05f27760165001c83588b67ce6c965c6ceb4ed17a81b81a4ee3ab0dcd498b2",
    "random-2 mcp-k 2": "81630e94a3d7fbf799812069b6d488ecc72c8fb314cc2e41913439700814f9cd",
    "random-2 mcp-k 4": "3139f139661e983421ee56d93f71876d27b57ae827690c31ba3682ca42336f1f",
    "random-2 map-k 1": "7b40805635a6ab85e253c3673c9c1cffba727b68c6ca7c77181466c59c6cac91",
    "random-2 map-k 2": "b1c5a058ff189121a04e628528e5ac1a3c1070ee7c04852d24328c7c7ff216be",
    "random-2 map-k 4": "bde7f3bbfe291f45b6c8e2351e9247647dc0c195692c252b5d809fe9d8e24104",
    "random-2 mas-k 1": "752f61e5b4f0f812c9809b098cfaef912ef217ea54410ca753c903ccdfd015e8",
    "random-2 mas-k 2": "247fc7217293af53e49f33d7757b5b49f59925e3d6906780004197732e68eb04",
    "random-2 mas-k 4": "0402eced78e422859c89c4bd39cca5c7f1e4c8068392341dc87fe5e64cc1b2be",
    "random-2 mps-k 1": "71e7fcf8b53272a360d1ab2c29c82e02467947e7aa57a54688fa8824290f221a",
    "random-2 mps-k 2": "5a1e16772435ed0c64d531592fde749a7ed5bbdaa39022d8fc2b8045e7eb2148",
    "random-2 mps-k 4": "136fdcd43f11101c6d7960a035007125b5977066fc532fb1746f08d06eb6926d",
    "random-3 ma-k 1": "02d58a918015f07926ff5e4106775fd3fb5c683c9c3bbf629c032f36134f60d1",
    "random-3 ma-k 2": "8008fce71994fe216b85d707191d891b66f1ffb256d9fd4935bb83c83d0379d5",
    "random-3 ma-k 4": "3d692b0e2c8132563e897c13f2ee693580ff289ba90166090e9314b8ea2e7ac6",
    "random-3 mc-k 1": "eb98572eeba136af62fa0b0afc4c63f608fec717922193ca75201f583bd86143",
    "random-3 mc-k 2": "a214773cf766a94ca13299267249fe4ecf66437697eb40ddb0b4e45eda08f7f9",
    "random-3 mc-k 4": "4c22f06f59d0545301ad49cd8f3fb945ac730b467f967e5705b0c88132b95b81",
    "random-3 mp-k 1": "38cdb280daeadddeda6e9417a3e008dbd45eaca327cee64f1192ad11198bc188",
    "random-3 mp-k 2": "cb22f99b8970dbc4dc4f21965bbe76141324e5fbe29bb0a7b8c36bdf655b897a",
    "random-3 mp-k 4": "70a3632df645052b8b63ca64bd4d54307a2b33e1f4af7818c999a89e120ff667",
    "random-3 mcp-k 1": "b72ec2ed287a43dfd983e4345c988a5b9412dded30c86a66926e6e774745c473",
    "random-3 mcp-k 2": "ccbc6d258e2f89cbc904935163af9dd2264d0c40144a873fd52532dcf25cb8fe",
    "random-3 mcp-k 4": "c2bb0cb979846a5f67275280a5676b812febb1967269f4ef97d12c6207d5e547",
    "random-3 map-k 1": "80116ef3530867c13141d3e7ba280fe789ae30eace9f2e8177b6ef760d2e251c",
    "random-3 map-k 2": "ab09253f3aada5c2487b35c5730bce5b4a2c2d82f220dfbc836ea47a3dd9d626",
    "random-3 map-k 4": "9271c9443bb1bee6420e72e23ea2e1050e828cf4c3ab59709da9fda9441a1d6f",
    "random-3 mas-k 1": "b4a312604fe93c7bd5829404815ff2041f339fb976c903243f2f790ecc45b490",
    "random-3 mas-k 2": "d878f9d564d488c828671a360659759dfcdc37d1d39243baeb582f94fe52d305",
    "random-3 mas-k 4": "1b83e704ca8e20244a669341bb351879cd5e6d56a375f218c31f6debce1fe7eb",
    "random-3 mps-k 1": "5502510bb2189b473866ff60661ec33c0b5e72d99f3065e08f6689c81ad627a3",
    "random-3 mps-k 2": "aba8eec5a6deefeff791a00dd5c2efa96fae10e29710671a0d1b07f6c1f081f3",
    "random-3 mps-k 4": "416dc3f3a85737de077f3296094d9e3f839b7c6269c17fe9c7d758255d9c2780",
    "random-4 ma-k 1": "fbbda5ec35289d3fe395e12186b475912e1313a415039a5cc9d9f06b913a9fa6",
    "random-4 ma-k 2": "ab4133bffa3af9a986cfc51e737a7c1b1d41ccc3c4e12bada00334d37b88b3b4",
    "random-4 ma-k 4": "f5f7c352c803566c3bf6779fe7a67c459c0c07ef48ecc6e99a807c41b8629a33",
    "random-4 mc-k 1": "b5ab104b5b4ae4fc48f11ade6eda8ad04deafad5a43646d2df0382d220de7195",
    "random-4 mc-k 2": "93259b501fc5e6ef3c9aef3d1a050e26dcfbdf272672a31da68893fcfc3fcbe3",
    "random-4 mc-k 4": "dab57129a659d9633ed9f23ee80d74d6dbab82bca2bee09decc29eacb531bfd0",
    "random-4 mp-k 1": "47278c103fcf6c34275e30d7c80ef0738c5f8250fbb8c659c2bf0d5ca380ffc6",
    "random-4 mp-k 2": "d2f82aca439aae4af6803f9a028e8419ac3b899cca6f0a2398a385987750e074",
    "random-4 mp-k 4": "8f7a5bfc6f8824608fd46128c94376df030f824a1f42ff8fcb3d4db8d6d63724",
    "random-4 mcp-k 1": "67e5e49429290f666a6f4968faa23976910045717268a2bd7fa0c709fa0c47e7",
    "random-4 mcp-k 2": "a951adb336d4f95ad431a0b8d054dcdc930c077af92df7bccf03593b091ce23b",
    "random-4 mcp-k 4": "322bf1748d3b92b7ef9250ea9fa5166dfc86e23959f9b7ad94fa58b77d5f5cdf",
    "random-4 map-k 1": "9d99d74b4fa7e3a2f07e7a454b301a0cead3ce5f69c976552e9a4fc2cf98af94",
    "random-4 map-k 2": "09bffe9664fd5750d640201aad4f681b6593b2637e90ca440922886a2ba7d460",
    "random-4 map-k 4": "ece96791717d271244a8ed9f32747361a0759c17876300e0de1af7e076f6cf15",
    "random-4 mas-k 1": "4acaf1ed7f904c7ccaf561d34759283e28e553920e7f47c76b19f00fa3e3f8c5",
    "random-4 mas-k 2": "1b012630d4b29ccf8e23ae2b214d06099dcc00fbc6948d7c70d6b4be7ec7193d",
    "random-4 mas-k 4": "1bb7089e643ef1da185ee379b72e6e5cbe3885a585ed95754085bdd2a728d3c5",
    "random-4 mps-k 1": "a4659a8f66eef49ae228d155479c73032daf0f60e89d1c48e93e3059b9385dc4",
    "random-4 mps-k 2": "75c3e455f0f6ff51c679ad72d0dcaa503ced04fad9d4f23e29644850fee03857",
    "random-4 mps-k 4": "cb0ffb4318217102ccd3da7acac5721c61a8717d28faaf04e609e0c16722a34f",
    "random-5 ma-k 1": "4cd5cc84d3e13c024d126157218793dc752f0a58f1232469bdf2bfc0e2a0358a",
    "random-5 ma-k 2": "278b18e99eab7101937c7c6adf3975ecd87f6fc4ff6102226799b02e10ae341d",
    "random-5 ma-k 4": "f9439e888dc09aea058a304b8ab7357393d2f754e98159fe94effe163f36d1b5",
    "random-5 mc-k 1": "3320226bc4adefe5b801269816379c01eda8e59f2436798b017908b973fb9312",
    "random-5 mc-k 2": "0a653736011ac3b25ad25850e3a3a7f4225fd77924a5c59e0f77c826515f2bc2",
    "random-5 mc-k 4": "f2e7c7ec38b94ec69dd86ec34d9dae50892319c571fa1721bb2a8be286b3f2fb",
    "random-5 mp-k 1": "4daf0aa616101b1ac535c71a9d24a241e9513f2cd688866d16d7fedb015f9ea6",
    "random-5 mp-k 2": "6343fa40f6ecb41af547a6a49d9bb07dde3af622b2fea54e65f19032d19593ec",
    "random-5 mp-k 4": "8448e340b54326808a669eb291a88afbe9865cfada132f04a87e1cfd598cba2a",
    "random-5 mcp-k 1": "7852a4d865cd5dd2cd109a0881b103b0e416a0b5b319ec96fb0755d3fcf98849",
    "random-5 mcp-k 2": "8b25c1c6b1b8f60bb2226a32adb6b3550e08ed7608ea3678a519e18f41fd0270",
    "random-5 mcp-k 4": "1ba83bbdbaa0efbf2aa41562378b85bfa718521e534ce7098a626e6608106521",
    "random-5 map-k 1": "a656e3cc902914ad4a0a7d2d5e2d406c1a93d532c3988e8d45aa57ebd02df1a4",
    "random-5 map-k 2": "bbf1b3394454cef1fe22f2d89c81817a01f79a5e2dafbb85674b6101beb83708",
    "random-5 map-k 4": "c7a181047af7228da88a3856a7694728f716e9910fcd47cbe3720b6ff4d0a1c1",
    "random-5 mas-k 1": "dd348b8502a53c41890a3e8a64eecd079ca6158f7ba1fc9a63adbe0bb651e60b",
    "random-5 mas-k 2": "34ea92c2d4da58c966085ef365cd580c8b6c1d66444851f950f937a0bd91c92f",
    "random-5 mas-k 4": "2b912b13d139802d1364a61468c3cc819d1c60ebc48b56f03d3d955201e84ee4",
    "random-5 mps-k 1": "281cc1ae56615dff1ffef0a44d1cbbab0cc74018b232caebd5fd4991fd80824f",
    "random-5 mps-k 2": "304afcba58ddee41d5806b858e438edf53cde3511c43733ec76eb586c6234fb6",
    "random-5 mps-k 4": "f531fb3ed460a5d228d004926815c4193e485957fbdb7df67ed8bf0f7612644e",
    "random-6 ma-k 1": "3b72566a38c727229299a896066bbca521e5db826a91aee5adc1bdb59c9d28f0",
    "random-6 ma-k 2": "2cb1f90350e92ace2cdd556198a86fb996d3d268d60abde35c1accc2ea2186ea",
    "random-6 ma-k 4": "e4be993f3b18f13be9fff3bc2312c51b536e46e6115558cfdad3c38879a8458e",
    "random-6 mc-k 1": "8a95432edf2e521d0bb435e39c91fb2994a6042f5aef76677de4dfb8ec343fe9",
    "random-6 mc-k 2": "cad5ade2218fbdc840e5c428653680959321a12cbb52d1fa7eca4b5dceedb179",
    "random-6 mc-k 4": "116be4f01b0f9a2f2cd7e219bbaf6f2a04adc5136a94f76538859f1c5dd7271c",
    "random-6 mp-k 1": "ba3d6b4ee2f0a23b518379b34a60362ced0745384df30f0b8374e5f7696b758e",
    "random-6 mp-k 2": "7b49521323d44ca933fe457815723a959858a96c2e8a26ebbd7da2a37671d631",
    "random-6 mp-k 4": "c3e3c97ab31a985f78a7bf566cef35bcce13616e1e3dac06f2346ba2bbe76a0b",
    "random-6 mcp-k 1": "9c5118e29c97fe52e7d6ac043b14a101b561a0dedd9246791d56ec9b9ee58796",
    "random-6 mcp-k 2": "7a3cea9a7482cfa993281717edb0ff7e8135d7d342221b0d0bc638278e948815",
    "random-6 mcp-k 4": "63f2aeaceefeaf0467ec4a679902d2df2bb07806bf0c04f8067f6b7aa9f1054e",
    "random-6 map-k 1": "3a4856bf1413054d195e88f34355dd53ea6db1a42042ce3324178b4f45cb1529",
    "random-6 map-k 2": "736956f00b64d1d9e4d4521c2c66d54b6e79a3a4979e787ad89630e3529115bc",
    "random-6 map-k 4": "df2a151caeb3108ec2ca894f8a307b04b7a80b543dab2a5a34db36a17ac30365",
    "random-6 mas-k 1": "01c1c343a2326b96e5831efb520c5735b1f3d17db6b69bbcaf16e90901cd81ee",
    "random-6 mas-k 2": "5b30c1ce89cb7ce21558ad48df8493fca75d7b40d426575c3b11380da155f501",
    "random-6 mas-k 4": "097552a9dea4c5ef5b3f92bfb98e8c32b489251a52e7c0515f98e7675efdfd5b",
    "random-6 mps-k 1": "8c9fe949e39589ee55010264682d28bc6256146617c507a9b0a287fe00765dea",
    "random-6 mps-k 2": "5f2e3b9fa43d30f17343ca24795b404da0d39b2a31b723fd051edd630cc8d557",
    "random-6 mps-k 4": "64035ced59ea2a79943820d82e270ad4d0ab2e68b21e5ed8137809205a0af350",
    "gc-4 ma-k 1": "470dc2a6624492943a9ad632e6c2d1aacc4eb7d857d0ab11165c141d9f9c7cb0",
    "gc-4 ma-k 2": "3582642fb436f4ca1132db965253aea40452b62c8803ed1a8621c73b2358f336",
    "gc-4 ma-k 4": "819930fd4a929fe4750793117164b4c92b65cd075902ca72062a141335ae2396",
    "gc-4 mc-k 1": "8fccc5bb79b8505d6a9055cdb767751e65bdd6e9a3ecde13335c0c06074a72c9",
    "gc-4 mc-k 2": "c38b81e4fb415f288dd673be6a6c1e3201000d5e08e819453c713136f86f738c",
    "gc-4 mc-k 4": "45078d9146ec6b6ee52e8b84cf3c8599288f76c1fc2da2097a241753995d6ab7",
    "gc-4 mp-k 1": "228f635232f17247b807b318229758074282d417a6dde9e7ad1e09620097a8ec",
    "gc-4 mp-k 2": "8286a8f194335d1dba9ccb89d69a2e9cb53822144f983794fdeab40d54fc1878",
    "gc-4 mp-k 4": "2b62be4ea7f28df4b629aeed03414335df5f2b44a5d232047e591f57d1f3bbb3",
    "gc-4 mcp-k 1": "821a5301fe93969e409fe75ee7148fe330d2539723efb82781696214f3dc2b01",
    "gc-4 mcp-k 2": "cf5a6c7fb03b491f9993ba4564dfc61debd0b19a72e413615669c90c83f4a9ad",
    "gc-4 mcp-k 4": "4023e906a96557826f2f2e2f6c41cd7e12c224e688ccaa1266107c21055f0646",
    "gc-4 map-k 1": "4464d4801b8b2c54314f92fb4a972027341a10a06c3e8cda0cab9c36c9425b0f",
    "gc-4 map-k 2": "7a8d2589a8b95d4ce63d1d1a8ac929af460bb86d48274db4e9ba8c4bf8d79326",
    "gc-4 map-k 4": "80328f8f1a0ce7ca852cc553e407951a1625e9d691d686fe54a259516a2dc2c6",
    "gc-4 mas-k 1": "fe3c8c3f921b0aea811e603706a860ebf90d0dbc4c88bf607e4100f1eb278b49",
    "gc-4 mas-k 2": "64549593e48d2012dcdf662c3dfadede3ca9bd4c70a9a6de6e46de116ad3169d",
    "gc-4 mas-k 4": "61eb00c576cba3d9d7f16e45a220daae28a44ea23b2538901617080ad1f0d3bd",
    "gc-4 mps-k 1": "8e2bc2f1be0c4cebf9050c4dd4443ae23ed779dd44016a4d91bac87e901ac11e",
    "gc-4 mps-k 2": "2380b7684296768e702180284c110b6ede4d42bb7fceaacf89b670fa79fd79fb",
    "gc-4 mps-k 4": "1cc829da135883cc5cdff7ab2a328a9e68585d4559266a8e2a087675b57a14c5",
    "ga-3 ma-k 1": "ef9dff0382893a47d7647ab9c8b5ec8bae81c48c611639c0c22981dfffeec2c7",
    "ga-3 ma-k 2": "c3cb269bf78a5dd51f08be1ad3518d52b90e2fb43418d845cef1f82ba774405e",
    "ga-3 ma-k 4": "701af41dc24e6234435aa368a83909bbcb31a121e35da6b43a6d6ad46c900f89",
    "ga-3 mc-k 1": "828df5051b1a902fce5d8d7c40bf3e8d4e2d8892f71bb2c3caea93123430c193",
    "ga-3 mc-k 2": "c65b27e0cee4e6a5919ce241d496ec04e161d019741c88fb64a8ed6b2224177f",
    "ga-3 mc-k 4": "f7dad942c441442912ee2cf02e76d08d956fbba042d1bf85e3495d3e2f169673",
    "ga-3 mp-k 1": "55ca24cde4392b002a916d7c54206f15c1e3d3bf0e519fc9b747227f33189411",
    "ga-3 mp-k 2": "5f9ab090cddef27d1d26bebcc360db828b6cc6cd3adabb37dce20c3a86652d21",
    "ga-3 mp-k 4": "d0b87759aac405310ce8a66caa486f20ff7c73cfa9205dc570028710315df147",
    "ga-3 mcp-k 1": "eac7f683874773602f722379fea8de3ca8afd7de0342b11957972516b877e15f",
    "ga-3 mcp-k 2": "9b3b77e94808f295eac33cf7b42be6744cdb02b56e5ec01ca753325d74c45230",
    "ga-3 mcp-k 4": "1203231bf091a534248edf02ea7b6493b7eaa8e73b9e992a1367879b5dabdb72",
    "ga-3 map-k 1": "65b047a7fb1882d8a4b0772028428d64e596117033bcb6df9afb24fcdeb630c8",
    "ga-3 map-k 2": "f33e7a20ab043d94f492dee6eb3a70ce4a9c5b8f7c4bca83e3e191ca14036a06",
    "ga-3 map-k 4": "465ca96e96253d5e6e9eea8938b3672affeb3ef0f860d71da47ecc48ae8e33ff",
    "ga-3 mas-k 1": "024035ddfbf67c17ceb9bc3a2960482ced2f17ddedd542aeb70b30d1adb7efc3",
    "ga-3 mas-k 2": "32d2cc33a198694089356e77b5d35154bbcf60d4a51aed5a9752e26788ffe6fb",
    "ga-3 mas-k 4": "f030214c966a50dadee9b331e9a629d7be20c8ca97061f649a0f43a1d41bc1e1",
    "ga-3 mps-k 1": "da4ad132ed214b211ee6b68e31879e26aeeaf78d2152c4275bddd0dc11f928c3",
    "ga-3 mps-k 2": "507e2de580a2ce0a180e89de9453e73fd3cfddc7226b7569126a3eb2fdde36c9",
    "ga-3 mps-k 4": "97e91e45d7911859dae06a1b99494c9208b32fdc65c93848c12bad0fbc311c8c",
}


def solve_digest(path: str, problem: str, k: int, capsys) -> str:
    assert main(["solve", problem, "--k", str(k), "--json", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(instances()))
def test_solve_json_bytes_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(instances()[name])
    got = {f"{name} {p} {k}": solve_digest(str(path), p, k, capsys)
           for p in SOLVE_PROBLEMS for k in KS}
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
            for p in SOLVE_PROBLEMS:
                for k in KS:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        assert main(["solve", p, "--k", str(k), "--json", path]) == 0
                    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
                    print(f'    "{name} {p} {k}": "{digest}",')
