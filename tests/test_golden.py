"""Byte identity of CLI artifacts.

Each case runs one CLI command in-process on fixed inputs and compares
the sha256 digest of everything it prints (summary lines and JSON
artifact) and its exit code with values recorded from the reference
implementation.  Criterion 10 only compares two runs of the same code;
these digests pin the artifacts across changes to the library.  The
verify cases pin the round trip `certify --out cert.json` then `verify
cert.json` (printed output, exit codes and the file's bytes).  A change
that alters an artifact on purpose records the new digest here and says
so in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from fullgroup.cli import main

# per backend: comparison pair, commutator-transfer pair, inside-case
# (or second) transfer pair, swap pair, one full-support element, and
# two overlapping swaps whose commutator is nontrivial
INPUTS = {
    "odo2": {
        "compare": ("b2:{00}", "b2:{1}"),
        "commutator": ("b2:{000}", "b2:{1}"),
        "transfer2": ("b2:{01}", "b2:{11,001}"),
        "swap": ("b2:{00}", "b2:{11}"),
        "rotation": "elem:odo2:[(ε;+1)]",
        "alpha": "elem:odo2:[(00;+2),(01;-2),(1;+0)]",
        "beta": "elem:odo2:[(00;+0),(01;-1),(10;+1),(11;+0)]",
    },
    "odo3": {
        "compare": ("b3:{00}", "b3:{1}"),
        "commutator": ("b3:{000}", "b3:{1}"),
        "transfer2": ("b3:{01}", "b3:{1,02}"),
        "swap": ("b3:{0}", "b3:{1}"),
        "rotation": "elem:odo3:[(ε;+1)]",
        "alpha": "elem:odo3:[(00;+3),(01;-3),(02;+0),(1;+0),(2;+0)]",
        "beta": "elem:odo3:[(00;+0),(01;+4),(02;+0),(10;+0),(11;+0),(12;-4),(2;+0)]",
    },
    "shift2": {
        "compare": ("b2:{0}", "b2:{11}"),
        "commutator": ("b2:{0}", "b2:{1}"),
        "transfer2": ("b2:{0}", "b2:{00}"),
        "swap": ("b2:{00}", "b2:{1}"),
        "rotation": "elem:shift2:[(0>1),(1>0)]",
        "alpha": "elem:shift2:[(00>01),(01>00),(1>1)]",
        "beta": "elem:shift2:[(00>00),(01>10),(10>01),(11>11)]",
    },
    "shift3": {
        "compare": ("b3:{0,1}", "b3:{22}"),
        "commutator": ("b3:{0}", "b3:{1}"),
        "transfer2": ("b3:{0,1}", "b3:{00}"),
        "swap": ("b3:{0}", "b3:{10,11,2}"),
        "rotation": "elem:shift3:[(0>1),(1>2),(2>0)]",
        "alpha": "elem:shift3:[(00>01),(01>00),(02>02),(1>1),(2>2)]",
        "beta": "elem:shift3:[(00>00),(01>12),(02>02),(10>10),(11>11),(12>01),(2>2)]",
    },
}

SELFTEST_SEED = 7
SELFTEST_TRIALS = 3
SELFTEST_SUITES = ("clopen-algebra", "group-axioms", "measure-invariance",
                   "support-conjugation", "comparison", "lemma-transfers",
                   "swap-involution", "gw-intertwining", "decompose-small",
                   "split-normal", "certificates")


def certify_argv(tag: str) -> list[str]:
    x = INPUTS[tag]
    return ["certify", "--tau0", x["rotation"], "--alpha", x["alpha"], "--beta", x["beta"]]


def _cases():
    cases = []
    for tag, x in INPUTS.items():
        b = ["--backend", tag]
        cases += [
            (f"compare-{tag}", ["compare", *x["compare"], *b]),
            (f"transfer-{tag}", ["transfer", *x["compare"], *b]),
            (f"transfer2-{tag}", ["transfer", *x["transfer2"], *b]),
            (f"transfer-commutator-{tag}", ["transfer", *x["commutator"], "--commutator", *b]),
            (f"swap-{tag}", ["swap", *x["swap"], *b]),
            (f"gw-{tag}", ["gw", *x["swap"], "--rounds", "4", *b]),
            (f"decompose-{tag}", ["decompose", x["rotation"], "--eps", "1/8"]),
            (f"decompose-swap-{tag}", ["decompose", x["alpha"], "--eps", "1/8"]),
            (f"split-{tag}", ["split", x["rotation"]]),
            (f"split-swap-{tag}", ["split", x["beta"]]),
            (f"certify-{tag}", certify_argv(tag)),
        ]
    for tag in INPUTS:
        for suite in SELFTEST_SUITES:
            cases.append((f"selftest-{suite}-{tag}",
                          ["selftest", "--suite", suite, "--seed", str(SELFTEST_SEED),
                           "--trials", str(SELFTEST_TRIALS), "--max-depth", "4",
                           "--backend", tag]))
    return cases


CASES = _cases()


def artifact_digest(argv: list[str]) -> str:
    """sha256 of the exit code and everything the command prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    payload = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


DIGESTS = {
    "compare-odo2": "e6a6a3c1c6cd38531d1247cbffb66ed02fe600220705f3e9d0732dbcfd94c707",
    "transfer-odo2": "b23605c4d9782a1a62db4164da3c6b5c803cb7fe07904e96f590d8c1a436e931",
    "transfer2-odo2": "5153b1e1998039f3e563849084a5b6a5031bde4724641d3bddb297898de89205",
    "transfer-commutator-odo2": "2465f79a842ed76e9db35c84c3544bd9792d33596c65d2368b38d318cb9ed0c3",
    "swap-odo2": "c5f0170d9802c1882f783c0cb56da40fffad408af9f6f0dee356833bfe1a1329",
    "gw-odo2": "2b13ed315b45ac14729c12ef29c7f19d64dc0e8d346bc36c92395174685b9919",
    "decompose-odo2": "3e011978cf0ca2470f02a580b1a7086aed26d95c2ec0fc2e4c8f3374abcd80e6",
    "decompose-swap-odo2": "9a92c86b0de7a056e8f359b40ba239d0ebfe5550c5db4d0b7d0e3d7704e60ead",
    "split-odo2": "63c3fb6790948602b76d815e7b6b02f64a785798521094995a6787338bc73e61",
    "split-swap-odo2": "d925f9118b22c1d31ca99390267c685e9fef93adbdced22c0da697389015c1eb",
    "certify-odo2": "2543da3070275bce7915040eba9ca0b628c2242982928ab8ee20f0cb7a345cd4",
    "compare-odo3": "a608cbf839392b8643ffbf5d9606ea2407e5f9fa91e7623d406983a7155607f2",
    "transfer-odo3": "7f1077dd2ec4d5c2d42ba4c2cedc3b1251f8411aa72c2efd733d4538bea24520",
    "transfer2-odo3": "eb730bf64041b24238957fb5c83675a4895ce32c66ef097ef5392cd0605e4b66",
    "transfer-commutator-odo3": "e87edfdfc3dbf3a6277b91899f13b80db3dbd3cf0cfbcfdc7b5e5b4ce0ebff3f",
    "swap-odo3": "0dd5482e9dc7d4997dc75b1c2aa406d629c809b7a405a3e9eb1c4be10e20f3a9",
    "gw-odo3": "e648e919132c3e5e36749ced081baccdef948ec8d9a24d806d0c47c6d7abaa5b",
    "decompose-odo3": "f9f1d3c7a5c6524c4b1bf18a57de251ed465d415cffcb500c5cb8331bfdffd01",
    "decompose-swap-odo3": "79e46a0af50e7fc37956e372c0b44afb6044dd4d976a105346573905d841da02",
    "split-odo3": "b66a002f64b1ffee05323b3f4f5f63ed40fdd82f6531f339582a2b7f37492598",
    "split-swap-odo3": "eed59d6e781a0c8a45ad3f36c2a7be0163f6d0d9d9273e583d8d53e97ed03d6b",
    "certify-odo3": "6d047d81477b5a1d9ea160abd72b99824cffae8e43d42e6781f5bbf78ca06724",
    "compare-shift2": "2e6541fcb83f83fd48378e9ede0c5c42d8b7612219e4bebea50ab616b1425e16",
    "transfer-shift2": "aab13ed28cabcec8fd8c42959c7547be6be04f51baecb5f9ae027b5cd340d511",
    "transfer2-shift2": "84c7cccb8765cd408cf029cb7a72175c978ac8ca7e9302372c7a2788c2d61256",
    "transfer-commutator-shift2": "f75e2c4db4076ffc5b6b2145b7800b08bb420a02fd65f0fd4ab4970f264b2aef",
    "swap-shift2": "2d94aa86912ea7f7abc143e32a77060ff826c66c46ff14055945d9936bf1bddc",
    "gw-shift2": "9ec11b9fa2d06efb1608cc9b9bf1d0a4e0d5f6adddfe2c28852d4e26696b6d85",
    "decompose-shift2": "123f249cbf3d75458db6f5add2a8169096189f9c2b7fa5ee677277f1c696a090",
    "decompose-swap-shift2": "cce1a75b5ae2d02ef3df12728ca8707c905c40a615033e5234921ebf97099a02",
    "split-shift2": "980f11b1de1aec25513d3d7da52fe52eef7519ee2cd3cc82212be9f331e01e67",
    "split-swap-shift2": "5eec715a215526580509fbfe87d4734330d4fc490f1aa03299245c97be38507b",
    "certify-shift2": "1bea87650ea0e30aa381746e9138966c7fd58ef45c47aa4714fc05e421b78766",
    "compare-shift3": "58651b85442592a3c7d9af4e70fa2563d40f8f6424e762e29027ae34084b018c",
    "transfer-shift3": "71abe06dbce0e97ec1edfbd40c2fb592379d7a617dd5180b4761c5567a4de44b",
    "transfer2-shift3": "8f09b060a3b6ce84989e05a6bbb16edbb83ef6828ff941854a40b699b8ddf917",
    "transfer-commutator-shift3": "e80afaf7e258d90ce4b398ca9b87de344d7d6ee27498b9e0575b3448b5a14a3f",
    "swap-shift3": "de37e7691f6b11783faf60773c881de09a376da04d2562c442d4f695b7c5b3e4",
    "gw-shift3": "f7e8ea960737901d35096425937e0f6ab6907776f1b2bc5cc0d435571ac19134",
    "decompose-shift3": "e9dc4154e70c5f3bc856452c964f05f1cdaa73cb9fad45bdb640bb0816f695d7",
    "decompose-swap-shift3": "390b34e7ac0cbb94a596865a55ca6ed980da7a59f03a4151d61e1573638a991d",
    "split-shift3": "32438d05b0bd4624c7d1bec20f947717cb18a826b83b45b6361d9db41c525fec",
    "split-swap-shift3": "f27a291f7ae8c81d2b085ab73a529e2159e86379a63fe2aebc2d5cebf5a3cb08",
    "certify-shift3": "6ac7273ffff8f7c305ec3d3a6f0ec3b0fec83c07feeeb4256fb2f7fc270fdb4b",
    "selftest-clopen-algebra-odo2": "636f8b980ef55ef4fc30edf048092fe8d9ab0831c309b9e3f171099cb114f770",
    "selftest-group-axioms-odo2": "b34492bd24dd0e0616c77b3577dd04533dfe2cc4fa93003562ffc278460ce84a",
    "selftest-measure-invariance-odo2": "a71f7ee937c6a343e441a17f6d8d1c11c5b6d5ce4c4cbca8c2945ed66c94a02c",
    "selftest-support-conjugation-odo2": "f62081d337fcb83c5552ee3dd1bd5219f80b6cfe5cb3e2a961bb32e5ab4238fa",
    "selftest-comparison-odo2": "23dad9eca99dd802f08d0585468b05fffc966ee7a307248d977758184a2e55ad",
    "selftest-lemma-transfers-odo2": "289842d735c9d7483ee9a90a77833e24b6b269c000f53468ba005fe5d9b59069",
    "selftest-swap-involution-odo2": "1a4447b036b88ca1c8177840badacd3b59e1258f8c1682d332e9b86e7e5caa3e",
    "selftest-gw-intertwining-odo2": "d75e4961af058be350b6a32df6a8cdc359f2221471342e235e655d98b89148ca",
    "selftest-decompose-small-odo2": "45a1a3822d4cd0771606cb135b105f6bf05c6a76ec29029049e9bb9a38abe2f3",
    "selftest-split-normal-odo2": "5095f22cddb6b5d283ecc56664bb29f73d509b9c3baa81acca29edae47ed3759",
    "selftest-certificates-odo2": "115dc6364082d94fa081e36d4ef972c202605345ed40522f2b583c1922f91370",
    "selftest-clopen-algebra-odo3": "4dfe3a099d7f41a1e5161194f1336cb562ddecf1429cb025d5deb4bc4f6eb353",
    "selftest-group-axioms-odo3": "0bbe69d2b542439a537325c8214929322ae8b74b92eb21dab44493a75c14c82c",
    "selftest-measure-invariance-odo3": "881cb141ba7121353214052169dbe4f0cae9def59bc8d5d229d7f08ba56009e3",
    "selftest-support-conjugation-odo3": "e56ed7d1eda8a2eeab58e4682b6b3e05d30a6783d5a62b2c20ce8c53d1091233",
    "selftest-comparison-odo3": "b8736fb929b3aaed903417f39829ea92339b131e209cda068fb27f400fc501b3",
    "selftest-lemma-transfers-odo3": "b18dd9877e53e05514af72ddd94b5006ae0b4313985cfc72d1d926aa5a1fe222",
    "selftest-swap-involution-odo3": "b7175e858a05864bb9ec58ff63c8ec11e3cace7650a9afa29fb9bca0fd07cd04",
    "selftest-gw-intertwining-odo3": "2934b30d2b019f8d5e658e904611290aa0412f06b2af984578864b611f1d0f08",
    "selftest-decompose-small-odo3": "c379ff6dddb58eec2ca3ccf6f8efd602f6c1d6d4ebf3fd41951226a16fb2bb01",
    "selftest-split-normal-odo3": "27c1856548ed5c3368fd1ac8077775e9a527138647359058fe13fc670b8b7237",
    "selftest-certificates-odo3": "276bf3450a3af2411adf49e0e1330126cb591afe91e270597f2a4d1888794261",
    "selftest-clopen-algebra-shift2": "6c39c8d1f375bb5f66b37321e98af5b272e417dfdf5fe6deaa816d7588dc728e",
    "selftest-group-axioms-shift2": "0c7e5c2e238b8422dd6e33fdde2a65f90040e8f7fcc76392dbc3f094d69b07c3",
    "selftest-measure-invariance-shift2": "a537e8c15fa4a91db4740c5264377c3ae98bf84f2401d2434360c9d157fb729a",
    "selftest-support-conjugation-shift2": "d08bb9d942d107ed50d32d4c3b8399dba7577b6d2baa497752a9d138732d88a7",
    "selftest-comparison-shift2": "c3c6a5e8e708b72afa6e0e5dcf1adb65eddaefa1ffe734a47672ad7a256ea838",
    "selftest-lemma-transfers-shift2": "7dd1fbb6c717f0d45740617c64ab70eb805182d36f5ab9f5d682cc25a05e9bad",
    "selftest-swap-involution-shift2": "34029cd59eef5686e6eb6b32b133522f395a62a58fceed9c2b7c3c81df151d0e",
    "selftest-gw-intertwining-shift2": "0b299628a8f2961411963cce2efa27c4136fd1cac17d56c3978242556e6fb218",
    "selftest-decompose-small-shift2": "5713274859f5d2bcb7b81ba62e8d827cd03b0f3683210a709ba34a5d603ca89f",
    "selftest-split-normal-shift2": "9e36eb5f4a11dcf8c95e24cdbf73656286ad4111607ca2ab4b6e10fe09997ba1",
    "selftest-certificates-shift2": "fb1e2ef2cbba4f6b0ee3cfecf5706db26d75d2b0ec1576d1c75733bcbf7a0119",
    "selftest-clopen-algebra-shift3": "856da440dcb17715a959b6edf8124607735d54a983b622d7a57ba0035ea91fd5",
    "selftest-group-axioms-shift3": "b83ed4d49f5475c13fb4dd3d2ed6afeb7d53367c634a1f447df204ecb6a36a6d",
    "selftest-measure-invariance-shift3": "82f7fe0726f20d0a6a856a863ea245c6f1225b3e2f0089ddab77b20572a07025",
    "selftest-support-conjugation-shift3": "a9d3bf83127f18b2299cfbb0e01bcc8a2144e15ae46ea2b4edfb5dc4af181664",
    "selftest-comparison-shift3": "71b5a01cddf51eef73875be4b1a8b0fa755d89bee0e66dbf4e55824c9a5ab815",
    "selftest-lemma-transfers-shift3": "dd89e0f33f79f3ec6179667de2356edeb0dcb3855fe863e2be251398118906ed",
    "selftest-swap-involution-shift3": "64601e7af119d2a49f3958253bb4317f2783f39c99ad2ef34e114baac8306df3",
    "selftest-gw-intertwining-shift3": "2c3564ecb78d159cfd48491b343574a1335b0c1c0d9ee9abe447324799e67d61",
    "selftest-decompose-small-shift3": "6707ddff13ac2e11c97a3a8d729a5f1609873c6baa114e269f9c582803d51551",
    "selftest-split-normal-shift3": "379d72a0f259f5067feac917909773d8525dfd04568bd2b8f5a5b0c64d304c62",
    "selftest-certificates-shift3": "59d9902b73a67bba7be64e5843cd5e6954fe7be843cb987c408b7cb6f4f6324a",
    "verify-odo2": "bfe9b719130155e57435116a5087d0dc6092c7aae232d8101b48e09bc7207841",
    "verify-odo3": "c07c937d1a70765202f318147b69872bdbe11393c0b27424111a77e399759e7f",
    "verify-shift2": "76cc50c0dfac5d6d25b79e481d2ed54aeea958e2ce16b95f1981153889ad41c8",
    "verify-shift3": "fd60576443153cbfc409cf7b712c85c441bda221dc3b150bd79b487a1f02864f",
}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_digest(name, argv):
    assert artifact_digest(argv) == DIGESTS[name]


def verify_digest(tag: str) -> str:
    """sha256 over `certify --out cert.json`, the file it writes and
    `verify cert.json`, run by relative path in the current directory."""
    parts = [artifact_digest([*certify_argv(tag), "--out", "cert.json"])]
    with open("cert.json", "rb") as fh:
        parts.append(hashlib.sha256(fh.read()).hexdigest())
    parts.append(artifact_digest(["verify", "cert.json"]))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("tag", list(INPUTS))
def test_verify_digest(tag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert verify_digest(tag) == DIGESTS[f"verify-{tag}"]
