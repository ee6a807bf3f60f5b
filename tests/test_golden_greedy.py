"""Byte-identity of `greedy --json` and `gen --check --json` output.

Each greedy case hashes the stdout of ``greedy <kind> --k K --json`` for
all four kinds at k = 1, 2, 3 on gc 3-8, ga 2-5, chain-ratio and
antichain-ratio 2-4, and four seeded random DAGs. Each gen case hashes
the exit code, stdout and stderr of ``gen <family> --i|--k P --check
--json``: the ga and antichain-ratio checks exit 2 by design (criteria 6
and 4 in README), and their messages carry the greedy results. The
hashes pin every witness byte, the gains and stop reasons, and
``iterations.decrementing_searches``. The ratio families' gen hashes
are test_golden_gen's, which pins the same argv with the same digest;
the gc and ga ones are here. To print this table again, run
``python tests/test_golden_greedy.py`` from the repository root.
"""

import hashlib

import pytest

from gkcover.adversarial import gen_antichain_ratio, gen_chain_ratio, gen_ga, gen_gc
from gkcover.cli import GREEDY_KINDS, format_dag, main

import test_golden_gen
from test_golden_solve import random_dag_text

KS = (1, 2, 3)
RANDOM_SEEDS = (1, 2, 3, 4)
GEN_CASES = ([("gc", "--i", i) for i in range(3, 9)]
             + [("ga", "--i", i) for i in range(2, 6)]
             + [("chain-ratio", "--k", k) for k in range(2, 5)]
             + [("antichain-ratio", "--k", k) for k in range(2, 5)])


def instances() -> dict[str, str]:
    out = {f"random-{seed}": random_dag_text(seed) for seed in RANDOM_SEEDS}
    out.update({f"gc-{i}": format_dag(gen_gc(i).dag) for i in range(3, 9)})
    out.update({f"ga-{i}": format_dag(gen_ga(i).dag) for i in range(2, 6)})
    out.update({f"chain-ratio-{k}": format_dag(gen_chain_ratio(k).dag) for k in range(2, 5)})
    out.update({f"antichain-ratio-{k}": format_dag(gen_antichain_ratio(k).dag)
                for k in range(2, 5)})
    return out


def greedy_argv(kind: str, k: int, path: str) -> list[str]:
    return ["greedy", kind, "--k", str(k), "--json", path]


def gen_argv(family: str, flag: str, param: int) -> list[str]:
    return ["gen", family, flag, str(param), "--check", "--json"]


def gen_golden(family: str, flag: str, param: int) -> str:
    """A gen case's pinned hash, from test_golden_gen's table for the
    ratio families and from this one for gc and ga."""
    if family.endswith("-ratio"):
        return test_golden_gen.GOLDEN[" ".join(gen_argv(family, flag, param))]
    return GOLDEN[f"gen {family} {param}"]


GOLDEN = {
    "random-1 chains 1": "6c7f70b5ab9c95536c1d6658e5ce98ef013537c9aeee2d5b1c987708ddecd13c",
    "random-1 chains 2": "da77a388671df86ef36ef756870a2cd87bbacba5eb4f19e726a23cd441191194",
    "random-1 chains 3": "18ebae9342170a9dd3ed4a26c1309acb50be48a19cd6ca2f4640ab6d8321e792",
    "random-1 antichains 1": "901018eeee3f125c35d359ad08d98b9bac450a782d094129426fd6e5a59c0d0e",
    "random-1 antichains 2": "40966afad623f4ec8cbea76769421713cc9898a76170c05a39687fe55459aca6",
    "random-1 antichains 3": "2929e4a9b571465fa953e51dea985039433b897f09dcf00d01346b0e04a6cfc1",
    "random-1 chain-cover 1": "2cade187c98769fb22997763ee0a1cd59c6ee46d0d41641366152eae187cbee0",
    "random-1 chain-cover 2": "b69bb899f086fbdc9fdaf6abfa959dff69021709dee90952f7fa12ab49e367f1",
    "random-1 chain-cover 3": "7489b8220ae34e28aedb3226f86bfdff54729e6e7a59a55b2c0a838087bf0e65",
    "random-1 antichain-cover 1": "6fa1d259efc76ed2d34d6353943854549d5c6227683b7edf8974893c9418cbaa",
    "random-1 antichain-cover 2": "fcbd528af068c5823a84b5d5dcfce0a81043c03bd1e8f72f92ee1b319cd7c075",
    "random-1 antichain-cover 3": "92281097549bff1a52f162d939e73d34ea1d2b840f15520acd0a7f1b5995dbb7",
    "random-2 chains 1": "d819dafc41bbbf6128d6a79b32a9adc008928fbabc44f4667825e30c0c4ddcd2",
    "random-2 chains 2": "657cbe9e07fabc35020ea7c94ac28eab65d1313b9d1279aa4851e4260a6d614e",
    "random-2 chains 3": "eefc9f7df30172c07deddd582961a3f1c5d2050166023ef5ea5dfc6602bfc272",
    "random-2 antichains 1": "84bc7eeccae337306817694418f55fc1cbd70e636e27d7a85b06dd4365f8c14a",
    "random-2 antichains 2": "6e7fddd8ca47cc37cee4f5d082c8dbc51f4cf5c06aecc93c33ab808feaed8110",
    "random-2 antichains 3": "85947f604a330e01c55238f8d68ae394dfeec7e0447f470521733e6d368f075b",
    "random-2 chain-cover 1": "bc3c7a6da2116f41fc97cbd657d67296e16bb718814e8ab97e216063fafe0ab4",
    "random-2 chain-cover 2": "3075be043dc0e1bb02ea5f8df2cdc85fa188cd23c8c5a69f5292eb2473058919",
    "random-2 chain-cover 3": "bd270be9e4ce8af5a0c8c5a22c318047860181c467e15b910972513ea283eb7c",
    "random-2 antichain-cover 1": "b211f7e4d9973654770d17f9a03f0b98542a05c7b8c3db199674b7d354f2846f",
    "random-2 antichain-cover 2": "e543012d74ceed6c0d7d14445abd5e00382a4d77dcad89067a422c9c7e058374",
    "random-2 antichain-cover 3": "16bcb52fa0258630ab4650eb7a48dc84d0e09ef8b03acfe51f951d8276eb3e29",
    "random-3 chains 1": "af2c7347a8fb52450c6bf7527b525140402e4b7f9c62fecfba367f759205fef4",
    "random-3 chains 2": "22fe0071444089ed197e5ddf440fdd731fee832ec37f8266d5d281dca759fa4e",
    "random-3 chains 3": "16ce1d29edf6d8fe946cb3854ef6ab7f1e3d585c0dc1dee07bbd021c7d5437a6",
    "random-3 antichains 1": "fb7abf297a91584d45d8b6c7708a307f752f33d8217b27c1a0bc20dac0e1ccc0",
    "random-3 antichains 2": "fab0f85f808242eda07a7193fc90a4348b0a0392a4eecf00a569754d916ebf7d",
    "random-3 antichains 3": "421b1dfccf026daef987c4d3df4c629a36a20ed2d58ab3484c394dc5adce373c",
    "random-3 chain-cover 1": "114cfdb6f9a578ba52c288bd6d88b02c20c03dc62712fc872ea8559bf0dc97aa",
    "random-3 chain-cover 2": "9cb70910eaebc76352be7fa67ed619ead70b2264a680d2296ee74e64499233a1",
    "random-3 chain-cover 3": "253c9f6d1327df0a4ee0348b29c26b3ec27e16dd770fd0044ea5a139ab46874e",
    "random-3 antichain-cover 1": "1ae3fd8f6304737a3b03d7bdc5db49500d2d1dd3196b474611ef34675cc4a131",
    "random-3 antichain-cover 2": "92f0673226ae894b9a91fbdae2685914cbd4b3e53395b3ba31a263cb1ad362f9",
    "random-3 antichain-cover 3": "44bcf448c54998bd7741b57acbbbe00f8c343a5d1824a4b475d6d72fab2a2166",
    "random-4 chains 1": "c85b85d562ecb89fa79feecf163bc664cf47b60640b4051228812aa7e8e8a89d",
    "random-4 chains 2": "7652b44357642e5b254be737046a604e87d73c66eeb8ce1433972a4f553db6d8",
    "random-4 chains 3": "3b3e2aaa0c261c1ecc7590ecd324ffe768b05a0e52194b01fa177317b9c45213",
    "random-4 antichains 1": "c2e77f18e7582eaa770a5878e1dc44e510ac4880358d17980b50e294e9fc94cd",
    "random-4 antichains 2": "90c056177a8fdf83ce8817a4f770fdff7919373537674e3a1c9f0053c3c8623c",
    "random-4 antichains 3": "1541d378667774b7161540bab986a632fc1ffd46cc2356c0e92dc05aadf299fd",
    "random-4 chain-cover 1": "b7083379044b4be985902fa33d535994eb1aec9d81de0892ac891b722b139df0",
    "random-4 chain-cover 2": "f29baae0e86b19c8943226b711f5573d341d8617b119fafb16cf94db3d284b17",
    "random-4 chain-cover 3": "4affc05720fb8f4ed013082002b67ad6d3e6cbd9d95adaa61091020952957c19",
    "random-4 antichain-cover 1": "a7a29170472c9be0ea8ef869f130943261c404523b1e95fc27e0bf9f52cf75c7",
    "random-4 antichain-cover 2": "dff7795581b82876ee737c1e08a1e49dec9caba7123df1d0b66294a0cba85a4d",
    "random-4 antichain-cover 3": "8074872851c9a75febe12e7f6ed1ebc6affd402837aff27311a3ad08b7ddb570",
    "gc-3 chains 1": "268cb60f97ca0b9ca98c1d133a0abaef29abba57126b6a67d3e224baa25ac033",
    "gc-3 chains 2": "568f12ef826ab24cf863429ac1d9dda042104803c321650d3eae63b48669dade",
    "gc-3 chains 3": "9b4fdb3ded00dc9bb3801b40c60d202b61ce6f402d0a66da417010bf5c4288dd",
    "gc-3 antichains 1": "f15d9eef363a7f828c00024e2bb7adcd28fd61cbf2c086f33a246ab2895fd587",
    "gc-3 antichains 2": "63dbbd8c3fd0bb6a85145591dcd25e6c00655c97809907ac9d54c1a0b7691565",
    "gc-3 antichains 3": "80ba502206852ae2ef1c00696dc17fe37813c964baacee4de2c215a027caa2cb",
    "gc-3 chain-cover 1": "441d812e650b08212324abd8800ed3e7707bf388f3217ea54787cdea8e718651",
    "gc-3 chain-cover 2": "a6c0bc79b190daf4e3dce4d9e379ab9f2e00a4aff00991ae5b009866733acc2f",
    "gc-3 chain-cover 3": "1013e97d5ae5c5040c8b38ec33883585a3d9e0aa84081209393fbcadf9668682",
    "gc-3 antichain-cover 1": "c1866b5a3c948fa2deb8958a5319af97cf862d3c2e06d9f0c7e3d5a8cc093eaf",
    "gc-3 antichain-cover 2": "8623dbb767e044ee07d6d56d7ebd35d69f10412bb9cac73a185ba00f1669780d",
    "gc-3 antichain-cover 3": "940cc62c9a4078a75bafa1e9cb8859103a93e14f4751ddb41bcfd9dbb910ad13",
    "gc-4 chains 1": "85475565b5f0002e8fbd7effed32fe4b92d86325b3d39bd9b2902ea45dbc7f56",
    "gc-4 chains 2": "676e037150230d4827e61304393606729459a515597e6ae0658ead4bd9c295e5",
    "gc-4 chains 3": "d4647ce3de42c0fc866e68bf9c4333ba9e97f5426865b837abcbb4b09110d78b",
    "gc-4 antichains 1": "55d596d5dc0d141b904d125a92de1bb8e319d0b5b5b823843d511f45e800af98",
    "gc-4 antichains 2": "c7c516194efb00e2efba9fe07d09883a8a6aca01cef96762053fc85e533fe8b7",
    "gc-4 antichains 3": "ce55f948a5bf8fc0e7563d4220281bc68004497c4cd7a66a39655c889d6ba2d4",
    "gc-4 chain-cover 1": "357b019185a46a94fe4da1af44641d0b119fbb1979ae92e8b3eb62aeb3745d34",
    "gc-4 chain-cover 2": "afb37753163acb465c1315688451013a8d10d15b19f8c05d22670a9a68dac2ee",
    "gc-4 chain-cover 3": "ec6d193188785cce5b1b5ee79cad47cc54320d132f985fcedf8f10e400dade62",
    "gc-4 antichain-cover 1": "920989408123f466914a89bc5dee4a663968944d89f3f348f49816d89cfdbcce",
    "gc-4 antichain-cover 2": "0a730c838632e7a1a24aa25e674c4f26deb4ab49415445e8520d0aaa8edcec86",
    "gc-4 antichain-cover 3": "75fca6857ec08b36e64f7f579d4412f44cfbeda1d661a50c00d01ddac2e564f2",
    "gc-5 chains 1": "3f380f8cbf04274f3e0807b41c65c705c0aaeae0b9394a86e76f0b76a2853482",
    "gc-5 chains 2": "be91d0e7a651e8a8a6d685b7799c129105451f2de13e40a62dffe76cdaa5e56e",
    "gc-5 chains 3": "6bc3d473a1d63367b217f030ef4fa5e98db2bf33d118d3da3117ed4bdfeedc6e",
    "gc-5 antichains 1": "a5be8bb1d0befaff60b8c67ae673a0d0b61500ef2f20e55dcfe5a9a415c815c8",
    "gc-5 antichains 2": "da2d9aa7337da119fe5fcb9eeefd5618ebae20e43a14939de6a77fb9c826c001",
    "gc-5 antichains 3": "9f313381d307680bca3dba3d29423f4144c1ab870c557819ac3af0d07c004e21",
    "gc-5 chain-cover 1": "b058ad35f9094c2526ae5d2a04ff33868be2fced352bb4e7a89b2119f99f9362",
    "gc-5 chain-cover 2": "4b081e2519bd357b5cb4f615da29799fe244fe757b3a2139c08f2709d3bf53df",
    "gc-5 chain-cover 3": "b0034b78c0786165e4ce241d09e966d6665d5d778c0d11cc5458861ecc8c31c7",
    "gc-5 antichain-cover 1": "cc19b14eaa5cf88c730af5a4cfc626159258cf4fd405f3a6825b59ba76a0b481",
    "gc-5 antichain-cover 2": "4303c3fe386522538e0627b9a80265ac86c5fbb9ae80c58fc834cef94ac21899",
    "gc-5 antichain-cover 3": "98294238b691f0f7126fa6b1068652bc4eb72ab09a56d6ab1e592382151a81c0",
    "gc-6 chains 1": "6b061e8550d0c71fe74c15fb4343ba048517092384678f7ca734e9ff8f7ee350",
    "gc-6 chains 2": "e4a22bc5c66d2b703a10917edbd5b51e199cf1645421bfa68fe6710c772a715b",
    "gc-6 chains 3": "2a3dc2a713b3b9ccf82e15daf7f631ae2d903779b634fd97029eeb44bdede039",
    "gc-6 antichains 1": "27452443ad9f3ee14791ffde548e5dd45af82e231c0dec5fc7a9d58d2fdb4dfe",
    "gc-6 antichains 2": "47903a9a73efa5c74f67a54dcc8b21daea83fb98c130fa662e4390fb2185cc21",
    "gc-6 antichains 3": "e6470390fcf9ff8db0ecbd405c4614fcd20b1826581ffb74ca74d8f63fed5763",
    "gc-6 chain-cover 1": "df477b9d031bb407d1e0ded653a3520db121a95284c6db13eb89e2e26a096a2b",
    "gc-6 chain-cover 2": "aa250f42494be5708e5855d5be39e2cbbf7dd18cda65ffa8aecc1784824c2275",
    "gc-6 chain-cover 3": "00fbe1ca0f657829bbc159dd873be7b3ac1b22639719b40bc2729dc3dac1af98",
    "gc-6 antichain-cover 1": "4d908ab266f413fb678928f94054884ec5261c104d6b7a3105b4557e59e3465c",
    "gc-6 antichain-cover 2": "54ca752c7216b0780d0133b57243116045da907919f47a3cc396b528b4a142cb",
    "gc-6 antichain-cover 3": "e5f3afa6afb0c4f4857d1d11b2365c53b582b262b3cf78b598f3389e6c3d0723",
    "gc-7 chains 1": "6cfdbf49e24565eac7f1392e7af7ffdf8bcc761ad3cf2b1c54cd2c88eca0ce38",
    "gc-7 chains 2": "a50f34d1428bded6e0b6eb1972f897b9ba10959332ea9f780fa5ffc3e6fa918d",
    "gc-7 chains 3": "2249c8401ba413c63eb797edf35910c95b702e1dbea779a9d4e93a3ed32b7b1a",
    "gc-7 antichains 1": "7cb459267ce65fbe98caf7f4f2a863552998c722784f6990d2bce31fa07fa0b2",
    "gc-7 antichains 2": "61efff90f8b5dc30f8c657cbc6bdbd72faa8a12e81aa7c2c1b326428552c777f",
    "gc-7 antichains 3": "4cb7a131a7dc1e07dadd32edc2c136732a3d4cca83641d92078ef596e5ec0c3b",
    "gc-7 chain-cover 1": "0657cd7b390b9a4a7f245a8aa7018750706943cc1d7fa85caa2d5cedbf42d64c",
    "gc-7 chain-cover 2": "ae6cc19180ab9ecced04dde536b7239d38e4bfbe96f06740c61f659750f4e40e",
    "gc-7 chain-cover 3": "814f896eab01756509d75a8b11005efa4bc8c0640d0e1b2b025a368804dd77c3",
    "gc-7 antichain-cover 1": "abb6f20476a43fdfa73e34b0bd74d0db4bad7cb7c9a1ba42ee59fd6292f2bd81",
    "gc-7 antichain-cover 2": "900dac8a632fb8630524e097f2a56ad84ed67650262fb311d71c357b515ad144",
    "gc-7 antichain-cover 3": "f152252a349ca1c2003e383e8a740ddaf3d6b1c634b3e0ce84e46f822dd8cebc",
    "gc-8 chains 1": "630f7e5babe86af28fe90a04cbb4ddf921ce5cf78f172b87268b0d4d801b1c9f",
    "gc-8 chains 2": "eccefded644a16e1b81ef591f91f52428b508bf0cc044b2b079be7f8c005480b",
    "gc-8 chains 3": "543b8f839382447e69db19d50acf151392c5649637eae9459a899fee565b06b2",
    "gc-8 antichains 1": "ae8074be7e05e1aa8914141c780cc7e1316884f2bebd33a1b11f8c6feca78637",
    "gc-8 antichains 2": "2f3bf0f47bb974f142599824017141ba90deb6f882b380ede8aca8ccb7b5aace",
    "gc-8 antichains 3": "033efdba0d66076dbbcd1810939761d07ee4cd2220d4bdf53c13f3fe3cf82197",
    "gc-8 chain-cover 1": "64b337b45941c8db590fee56fd677aab0e24ab2a4ed4d06152ac23f7f03e84cb",
    "gc-8 chain-cover 2": "8c30dc893ab0f6183a5b31300ad1b5b92f7e91c4f222ea5fa6eb19f458e1f37d",
    "gc-8 chain-cover 3": "b04ad26f671e21f611f00c8d9aef2a8242d79d7b6d994c5c16868c221f92546d",
    "gc-8 antichain-cover 1": "c736b69db97b5274851358ecd900a1a2b0166a4f329d7c54c2d731496f96dff9",
    "gc-8 antichain-cover 2": "e911b307d271b66697bf34a7f97cdfb50015564ff5c751afa73ff145dd2d51e8",
    "gc-8 antichain-cover 3": "9a0e75d804a6c666bc12661c03fcae17a52dcc73a5a8baf9243d36574070ec71",
    "ga-2 chains 1": "6dfe22c28f8a0bc42e423746e6b339c93b63adb884fa8293de31a9a7da0b2855",
    "ga-2 chains 2": "88c0881bfe694e4ec43f3f5cc9d58519e3eb3adf4cbc4e9211ebdf28be0b4d54",
    "ga-2 chains 3": "1169f117515b685c80fbc6628e9db728b2c8a1c20871dd5b5e34a90c60d33950",
    "ga-2 antichains 1": "52cd0e77f05e477c128b3d343cc06bc2f5e1d09d2e41ba574d1a4c9a4c416997",
    "ga-2 antichains 2": "7c682bd933c3f865916a6c2cc6e78a52b9d6357dc85fbdc492802dc6eca36a03",
    "ga-2 antichains 3": "69c7cb88907abe8212cd3dfeb5b8213c92d7593b6ce7b111f8ec884ff7c93209",
    "ga-2 chain-cover 1": "2f7234079c2ebdef827038640238e8fb7d3355f6d3ca9aa11e8314e3187a81b6",
    "ga-2 chain-cover 2": "8b7f9eeb597cef7eccfee2123faed045f474ffcbbe5cd830fae5a86738e200f3",
    "ga-2 chain-cover 3": "75d74265c616f0bbf7aee7f02a44460d484db34f59724acd60bc0b5c5e37fdbc",
    "ga-2 antichain-cover 1": "34450ea55dff4fc2dd177107af9a35e3096e48be44948a9f7b8e161eaa1b326b",
    "ga-2 antichain-cover 2": "da2d323fa7950ef95c8340f26330ec81294e02edf1540f0a9b4e1bcf3faf99ba",
    "ga-2 antichain-cover 3": "39fcb1144ae03ae970d5e4477c7a983b7f090eb2e3ef6a4bd9d6e31781e77277",
    "ga-3 chains 1": "cafa92120cd9148f960836d0919b95ad7d723eb179835010095d4eb60e025550",
    "ga-3 chains 2": "0a549064b6499baf8a590f7bcdfe22d918db326da9572897c18e891def92d293",
    "ga-3 chains 3": "873aed6e1da37e1cbb76b1ec6cd918c87e0eab4274e06d0c565bfbf596ef93c3",
    "ga-3 antichains 1": "a432c65b5afb58e5b4bed236d290932cd3f57ba29876914b324b3fbe8dbf97f8",
    "ga-3 antichains 2": "afd186703daab13bb748f8658b860a4270c46ea54dadffea0221c951fed4e91f",
    "ga-3 antichains 3": "79f44a4116ec0eef9fc43eb2f9fb73c5de31a07577a64db490984c213cf62ba3",
    "ga-3 chain-cover 1": "5504407c21c29b590936d130d2c3d5a0ba9044e684a42ceced92e1186e911f24",
    "ga-3 chain-cover 2": "696616f20898bd08f89d552e945d0cfa9fd9fb28d925a9ffb077a549cfee8408",
    "ga-3 chain-cover 3": "7c8380c0e1b71cf7a32ac514af7b0f994d5082ea8f291c767b2bc196c264704f",
    "ga-3 antichain-cover 1": "4a66278f0ac94442137ceab7d23defb67ae30d7cbc23c2f9d3c1413fc7a7175f",
    "ga-3 antichain-cover 2": "1cb752e5ef3f18731e0d7dea35d54ca5067ee51adaefb3c1a2fe9091f214540e",
    "ga-3 antichain-cover 3": "67a2940fa6a750e0a75bc221795b79811e1b6cf7750e38b2e1f62808bef6d438",
    "ga-4 chains 1": "4625fde737aab766508de0d5e8ed60de3d5cff909c4a978d52da77ea1016e9ed",
    "ga-4 chains 2": "34a909d79fb0655ebf6aaf4510af008e51555edf3689fd6e80b8a69f5bf26e18",
    "ga-4 chains 3": "93f5af875b958625c4b8f5bed6e97bd85054e4788d510dab3337684bad706ee2",
    "ga-4 antichains 1": "1425eb7e4977b358d0a65710c6bdd1a8ae92c58980a6934c38ae68f96e025469",
    "ga-4 antichains 2": "1e181b43b1ff9d9bb08fa2a369a7b2be61eac335f78fc233cd50934989d75a83",
    "ga-4 antichains 3": "c17dc97ea4995b1c53a0943eeecc94b1c7f4bdde114d708046eb3fc1a1808a8f",
    "ga-4 chain-cover 1": "6cc4990bbe3fd30ca14e90da0330ec8812fa7a3b94b1a336c3ec32f1725212af",
    "ga-4 chain-cover 2": "22b9fcfa9c5c61c3ef9c06c9b597bb144582dc982d8dc478eec487189c89dbc5",
    "ga-4 chain-cover 3": "cc292827b103033c522a9b4e948e0e59ee94c46149743ac5cee391d189b44397",
    "ga-4 antichain-cover 1": "9cb5f9455c2d3bddcb1386400553c37c951cc08d58cc5f5200e0b62e0c508186",
    "ga-4 antichain-cover 2": "baa255fac25f4198134a7a0da0c2946b75fded5bca8639d1ce513d4dfede6dcc",
    "ga-4 antichain-cover 3": "cf29a0a630aaa5648dae453a0ace19c36fc44c22d364d1a3735197af068ecaa5",
    "ga-5 chains 1": "59ada95b6daabbd721570a0c95565fc01808a95b3e656a29532fee1c21387b3f",
    "ga-5 chains 2": "ace7e41e0154cfa1c41def8519c4bf7935d1f5bad3f91ebae7970f0742a25bb8",
    "ga-5 chains 3": "3e6f16c503e5c0d5efd3da1cdeba6628f709f70c132f0fda21ee87c93304cd2b",
    "ga-5 antichains 1": "b2e3eff4077a2ef4bab78a5a9535d3d22813459150ce33c4605c4a9b1e6aa91c",
    "ga-5 antichains 2": "7773c615e0152c8a0a1f830251e576c51bd85efe8e8dae0080065d1b8750877d",
    "ga-5 antichains 3": "f7b3ee4eea0b757a2c2c38b4613388c021f18a58e457505e9733844042e0b41a",
    "ga-5 chain-cover 1": "ad0f0780a316c3cf61ed56f47eef1b04d496e015d020e2331438a6d8ad0043e0",
    "ga-5 chain-cover 2": "1a8d06393bb4d4be410549bee60afcfeb28f87235d9f3c88d6388e09dc1219d5",
    "ga-5 chain-cover 3": "0c65eacdb6d2c0223f4ff4a4f6f010167f224dffc516d26747ada11fce6805be",
    "ga-5 antichain-cover 1": "e164d09b278b6f68905b5eca29be8c4e529353a331b811fed85cd2df8f4cc66a",
    "ga-5 antichain-cover 2": "f868eeb140759fda3ec5ef56f4296c0e2073f20e1aba59c3edd1ea08f18f0149",
    "ga-5 antichain-cover 3": "9b0676d0aca16787a51bffa4e2a9ee4e50c1dde039dc0d87455872c681cc0bf2",
    "chain-ratio-2 chains 1": "0c95e17a40ec93c60231ffa6e639d215fb13031a5de53c9f29186efc0a7d5a1b",
    "chain-ratio-2 chains 2": "bc1b35423e31d6f1c84f7963f71a673f384811331719fb9e0d140042c9d8a05a",
    "chain-ratio-2 chains 3": "727acbbff460d0b23a81e56c217d9252f326cd317c8778f32d35e5b040234245",
    "chain-ratio-2 antichains 1": "45f180a3870563e53e9a78593f1911f2f1c42d4af75d6aadfcdfad5d8ce2167e",
    "chain-ratio-2 antichains 2": "faf952d3be7351728aaf0a23f81224ac07f1e745352eb106f36b45b4550c1e87",
    "chain-ratio-2 antichains 3": "1196a4974df18183e6033040c9aae60b9b0e6c0a6561f73d3f5a6624cfaf3823",
    "chain-ratio-2 chain-cover 1": "154cbce7aea74ef7a2146ebad409adb9b236cb7dfdf3692e43ae0d13369ef61c",
    "chain-ratio-2 chain-cover 2": "1afa7dd0493d892fb897a96474f19232d85d78bbeeead248b49d4766d21ad55f",
    "chain-ratio-2 chain-cover 3": "12b1ad2c0c536fa609d3261cc79688591ca922d2f633bea9ea33d3a370cfcbbb",
    "chain-ratio-2 antichain-cover 1": "f01921445dc36fc78663797ebbdca1a2568e34b8a031679c267cee41e12fd61e",
    "chain-ratio-2 antichain-cover 2": "b223827be43d090764e0999a538a0ad95448ca6822eceefb97fd8f56e1b298c7",
    "chain-ratio-2 antichain-cover 3": "6ad1f03e83544ea9de46d27ba8a9d5114f9312253d7a7fa297ef6b293b205fe7",
    "chain-ratio-3 chains 1": "1bd56ddcf977a07b70b545cd5ade983b09dbdac0a1ae9d8ec4d86d8ca8ea577a",
    "chain-ratio-3 chains 2": "5e6c2c932697edd4cceafb2864245357d5d2613772aeb247ce680fa5f4fb83e6",
    "chain-ratio-3 chains 3": "8ca9f646025c2d1580653c5250743d0f2b52b67ec12ee72b7c5a75c8ac442e55",
    "chain-ratio-3 antichains 1": "0907d2eee8eb9d2b2f9ecca48bac4de316c5c3e18fc7ab4791adec89b8fba271",
    "chain-ratio-3 antichains 2": "635f924235b325f4c8c1971e23b83b6aa8b05467ca7895f30cf02b0b85ff4be0",
    "chain-ratio-3 antichains 3": "bf7d5bc195918c6bb7ada2ae91f4e13677531e579cf36196211b1cbcdcfd08a2",
    "chain-ratio-3 chain-cover 1": "5e7634690764b1cadef2a789f2c916732c041d10298cda0c50db6153e4ba60d8",
    "chain-ratio-3 chain-cover 2": "b7b295e109b0a7b34d656f794b3f706ca7d854566adf222eee95492b8ad7b24b",
    "chain-ratio-3 chain-cover 3": "e4d1fc66d015b40e98fc23887753d10688ae977dea1ee80b854687818de0d83b",
    "chain-ratio-3 antichain-cover 1": "72d984b54a7ae991237b94acb5bec1ab913fb9ffcbb77bda8c66327227b89dbe",
    "chain-ratio-3 antichain-cover 2": "488ac4a1257de448c378a70fa06866196e4131ced7af4577e82e31f7fc103313",
    "chain-ratio-3 antichain-cover 3": "c017fbfb1c5bce0b686b7140f554436f7508b792cfa0915cf3393743f0331ca7",
    "chain-ratio-4 chains 1": "0c95e17a40ec93c60231ffa6e639d215fb13031a5de53c9f29186efc0a7d5a1b",
    "chain-ratio-4 chains 2": "f5fac37ecdbb8a8904cc0be6ef3875d552cebe578a88bcda6e943d33c12d96fd",
    "chain-ratio-4 chains 3": "2fc9895ed199fc15fc9b9524eb90def4be1c8c4219183ddef014323434cca5a7",
    "chain-ratio-4 antichains 1": "cff0b9e2eda909705dea272b479d6a8740520f49a1cde414dd556b42e944729f",
    "chain-ratio-4 antichains 2": "7d8b425e942cacd8c24db12e2914fbf713e7899b4d461231dfdbf201b513e284",
    "chain-ratio-4 antichains 3": "25b456073cfedd1b7ef37a60ff53b9d80da12c72e09b606757c8d85f3da9d84d",
    "chain-ratio-4 chain-cover 1": "f6a3f7dded874b2d7e49b036713f4833ce8c344c87d6f799373d958b321ee005",
    "chain-ratio-4 chain-cover 2": "7d2fe6bfa05ab9639d777acf582a4957d14949f9ec6db9070f6500ab1a71c5b9",
    "chain-ratio-4 chain-cover 3": "bab95dfef149f052c2af978af6146695cd5f1501640d2e14980b4e2f14d9f8c2",
    "chain-ratio-4 antichain-cover 1": "a22275831a6cf6f716d29c0c946b872e4d000f7b163dac73b7fccb1808e34900",
    "chain-ratio-4 antichain-cover 2": "f01c7730951f67c98ad639a8349b3d36c961421391e1afacbb39e6e277491a8d",
    "chain-ratio-4 antichain-cover 3": "9f934eea4f667163a00396789093739597e588b49d0d4bc4428457519a652645",
    "antichain-ratio-2 chains 1": "cafa92120cd9148f960836d0919b95ad7d723eb179835010095d4eb60e025550",
    "antichain-ratio-2 chains 2": "298df3da54287c1d7bb56edde58d61ce9becbcd9e9b6a5dbc5a827ac49a385d5",
    "antichain-ratio-2 chains 3": "76b0b26ba9a1ba18b0cc7240571b86c82b3bf136695baaab58be71ed0908a2d8",
    "antichain-ratio-2 antichains 1": "b9216d0ac49e72aadecee1a89d2bd7daa14e98f629afef9d673ca7c50ef04e29",
    "antichain-ratio-2 antichains 2": "92215667bc93ddf15d3264c208fe13a178105322e3194a1b1a2f3f4adeaa16d5",
    "antichain-ratio-2 antichains 3": "fc5ab07285d0956a2f9f73002477a7d703162752380bfe3a7ecf325a3a50742b",
    "antichain-ratio-2 chain-cover 1": "6f2b293a7de9730984883c63a953d8095b2fce1f3c5e199d1d23f9c729a970b5",
    "antichain-ratio-2 chain-cover 2": "1de5201072cddc6e13e71ce8646fa9083ddff5e4665b0bdb0b4faebf48d3e0bd",
    "antichain-ratio-2 chain-cover 3": "c43d84b4ca7d83334fefe848373dba7f42c21da2b635fa6f1aff1baa732f5cbb",
    "antichain-ratio-2 antichain-cover 1": "f5addcd4d12cd7819e813c96a7133790ca1d09e4d28c57724f0491a0fc1c1bfb",
    "antichain-ratio-2 antichain-cover 2": "cbde300bdb7fffa969190fe4b3b3be39b7f40a26d9b6964dde2e30b185114764",
    "antichain-ratio-2 antichain-cover 3": "232afad943662f3317ecf1245a42eb6df200de96c3db7a73413f1e0f222c5f1c",
    "antichain-ratio-3 chains 1": "da55010a3c97fcf602251e674fb5491d6e4e54359e65700ba8b792bd33896410",
    "antichain-ratio-3 chains 2": "a5427b16c85b329e4b5b37caf0f075c6509ea47fac693b3dd72f3452648bb295",
    "antichain-ratio-3 chains 3": "da7692bd0e52c4f6fd8a8aef2ea0133aadd71e621bf4e5a4ade8e0b9f1cf2615",
    "antichain-ratio-3 antichains 1": "943640a1585ad35bb540dbae4f68284d633ac0f4cd13510246d0c7ebd1f68b4b",
    "antichain-ratio-3 antichains 2": "a5ff3af20c227874495d37f37bfec3f8db3854c9d1e7b882f22d8f624b942893",
    "antichain-ratio-3 antichains 3": "c5f91d7ec8e9508df1635a30797d869a9a0647962cd8c3f7dc69494d211c3555",
    "antichain-ratio-3 chain-cover 1": "51df6701fc41df3fa06557abe8f2bb617740083aadcd85c1e88bcbd821419e74",
    "antichain-ratio-3 chain-cover 2": "1851e49fd78754a13729fd565f25e57d58a13ff6ac34e49b9878598ba619150e",
    "antichain-ratio-3 chain-cover 3": "91678de868a1af9bfe7422590d6204f0715eee2ed81a7d38a7b98c20c8731351",
    "antichain-ratio-3 antichain-cover 1": "a817268b3a5ab42d747ed21dfe998f9cdaf27d129ac25641729f63086e7e4ba9",
    "antichain-ratio-3 antichain-cover 2": "9d1ff9ae9e499d333911353d949f34784203284f3d83d9e6ef26909584c42313",
    "antichain-ratio-3 antichain-cover 3": "699db2a575c86044299cbecc7cdef1ed67131624b6f133d03e938708cb95b157",
    "antichain-ratio-4 chains 1": "44154b730adaba607657d6c4822b0eb4a9abd071cb56862911cc01fb3c6b18c2",
    "antichain-ratio-4 chains 2": "ff0dbd4b6d1afa9e44c8fd6cd5b4833dfcdb45a254dae9e4fc36215fc1e31c64",
    "antichain-ratio-4 chains 3": "515b78e5837e87e854374b04b8e861097211c63ecc9d8c041cdbe43f76b60055",
    "antichain-ratio-4 antichains 1": "99da423e1c28393b76192ace1ba398485c93b7d829388e71061ebdaa7aa8b0da",
    "antichain-ratio-4 antichains 2": "3f632afe87e946d278151b8415874440bcb431e2e61e0fb6d305cc68e1cb8c42",
    "antichain-ratio-4 antichains 3": "b10706a1fce7debc6f006460394591b19295d94f1cffda467e9e36f378a08846",
    "antichain-ratio-4 chain-cover 1": "f17adffbe446648229541ae41565dec164d3a762ffb3899c9d1dde6e6aeaa575",
    "antichain-ratio-4 chain-cover 2": "c82c734aba27193535f08b9872fea7db6d5dfe8d789f4fccfac2204a3bae566f",
    "antichain-ratio-4 chain-cover 3": "4d9ea72b770631bd2c11011a388695875345e285a7eeaab824fec5efa8d02f7c",
    "antichain-ratio-4 antichain-cover 1": "9525736d59470e9c57481c111fd2938e70b2740bbe0483efdc2a83a78f4d3193",
    "antichain-ratio-4 antichain-cover 2": "45d02f4ad25e5284e711276595fe54215f7c151caf4e6829b73bea702c3c866f",
    "antichain-ratio-4 antichain-cover 3": "f7bb71d300c705bb90b293d4ed05aa9549dcbeb9ad715fd5d7adddd9c75c43ef",
    "gen gc 3": "fbf6bfcf81862aa3ee22cd9e4291fe7902bafa277e600bbda9c5a001bd362354",
    "gen gc 4": "8ed56e418e603c8a7901fa984239e7bf2f2742590801eda60d9028f8c8372ea0",
    "gen gc 5": "74f26ffe65315967288dc20acf2ad8b276c80ff8786591cfffa708da7f7a65f5",
    "gen gc 6": "96863d7c3b12e1055438f48090d0625279733adc5bbd2ec247a1a8e2280247ff",
    "gen gc 7": "cf8b24d842012966fceba997dcb300a6375e68506b2200bb2bdf1823a885026a",
    "gen gc 8": "477d57f65dbb791ae17dfe86e9e30c565b7dcbbfe92ad1cfeae48f9fbbcf2068",
    "gen ga 2": "5c02cc5682485b232cc34581d99c10682f0f42f3707a4e91cbd74271b5dc43b7",
    "gen ga 3": "58c4a3df9c95ac7a1ccdb375ce17f188569ca6509320353e450561b296f0f94e",
    "gen ga 4": "54d932a3d942b6b83fdbbe4daca709bc3c569f72d2eea62d8e17ffc73fe0ad66",
    "gen ga 5": "c916eef676300611dc056c72918e21e5bc81fabd9ee8e2f55b5272be26682796",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_digest(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return sha256(captured.out)


def run_digest(argv: list[str], capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return sha256(f"{code}\n{captured.out}\n{captured.err}")


@pytest.mark.parametrize("name", sorted(instances()))
def test_greedy_json_bytes_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(instances()[name])
    got = {f"{name} {kind} {k}": stdout_digest(greedy_argv(kind, k, str(path)), capsys)
           for kind in GREEDY_KINDS for k in KS}
    want = {key: digest for key, digest in GOLDEN.items() if key.startswith(f"{name} ")}
    assert got == want


@pytest.mark.parametrize("family,flag,param", GEN_CASES)
def test_gen_check_json_bytes_are_pinned(family, flag, param, capsys):
    assert run_digest(gen_argv(family, flag, param), capsys) == gen_golden(family, flag, param)


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    def digest(argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return sha256(buf.getvalue())

    def run(argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}")

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in instances().items():
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w") as fh:
                fh.write(text)
            for kind in GREEDY_KINDS:
                for k in KS:
                    print(f'    "{name} {kind} {k}": "{digest(greedy_argv(kind, k, path))}",')
    for family, flag, param in GEN_CASES:
        if not family.endswith("-ratio"):
            print(f'    "gen {family} {param}": "{run(gen_argv(family, flag, param))}",')
