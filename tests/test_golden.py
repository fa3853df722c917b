"""Golden digests: learned models, a bootstrap report and the files the CLI
writes stay byte-identical.

Performance work on the search, the score kernel and the artifact IO must
not change any result.  These sha256 digests were recorded before such work
began; a mismatch means the output changed, and that is a bug unless the
change to results is the point of the patch (then record the new digests
and say so in CHANGES.md).
"""

import contextlib
import hashlib
import io
import itertools
import json
import re

import pytest

from oracles import famafrench
from sbcn import bootstrap, learn
from sbcn.bootstrap import edge_confidence
from sbcn.cli import main
from sbcn.datagen import (
    ground_truth_dag,
    market_factor_spec,
    simulate_dataset,
    sparse_random_instance,
)
from sbcn.evaluation import SweepConfig, run_sweep
from sbcn.learn import LearnOptions, fit_cpts, learn_bn, learn_sbcn

LEARNERS = {"sbcn": learn_sbcn, "bn": learn_bn}

GOLDEN = {
    "ff400-sbcn-arcs-bic-r0": "90197f1f93f712ebe5815719f1a6d35121bcf17eac50ce7a84bcadca1051bae8",
    "ff400-sbcn-arcs-bic-r2": "24e6a3c20211e67b00d7bd8f3a7c8a8975d421eefc87f8d239136f838a9443bc",
    "ff400-sbcn-arcs-aic-r0": "e260aab6909eb36547052b8d1e7878fbb1b5c7b2c870eb7d6c91aead86ca7182",
    "ff400-sbcn-arcs-aic-r2": "e260aab6909eb36547052b8d1e7878fbb1b5c7b2c870eb7d6c91aead86ca7182",
    "ff400-sbcn-parameters-bic-r0": "5d6ca4f7b2dbf70379d3c83d21de320fe2d4010faff679600fbe136de00fc109",
    "ff400-sbcn-parameters-bic-r2": "477dacb4570c7131a8c2024f351e23e6c6d9813216c4530a86d4183843bf9a25",
    "ff400-sbcn-parameters-aic-r0": "df786a98bf8a42db837b6523f6d3c559fd54ab7ed49f267a014830415032d778",
    "ff400-sbcn-parameters-aic-r2": "df786a98bf8a42db837b6523f6d3c559fd54ab7ed49f267a014830415032d778",
    "ff400-bn-arcs-bic-r0": "d40474e43925455ea82ea61e90019a1fdf470f2d23d99311b2d2a1f8e284bcc9",
    "ff400-bn-arcs-bic-r2": "d40474e43925455ea82ea61e90019a1fdf470f2d23d99311b2d2a1f8e284bcc9",
    "ff400-bn-arcs-aic-r0": "0e699b3f540d30ea80c105398151e9bcb91571b025df41da98534f57c6b5f52b",
    "ff400-bn-arcs-aic-r2": "0e699b3f540d30ea80c105398151e9bcb91571b025df41da98534f57c6b5f52b",
    "ff400-bn-parameters-bic-r0": "0b96a795091cf958facdd87a8051103dc8096f4148e42e79091eb596f8883fa5",
    "ff400-bn-parameters-bic-r2": "0b96a795091cf958facdd87a8051103dc8096f4148e42e79091eb596f8883fa5",
    "ff400-bn-parameters-aic-r0": "352e3ca23d2f665a14b11eb854f388e61ec2ced24ec9b4c80f7ec7834fb6ca8d",
    "ff400-bn-parameters-aic-r2": "185b5d099e4cc39043fc838a97acd013c4c8cbfc9dc5598fbe73896121227841",
    "ff5000-sbcn-arcs-bic-r0": "e8a11d2d14382c65769f1e3da8db97a96830f42d300249ae64f7086a6f8c71a7",
    "ff5000-sbcn-arcs-bic-r2": "e8a11d2d14382c65769f1e3da8db97a96830f42d300249ae64f7086a6f8c71a7",
    "ff5000-sbcn-arcs-aic-r0": "d7a5fb2817d01b3c8db01dd496a63d5976ad527a945f5e60875d91f6ff45fc05",
    "ff5000-sbcn-arcs-aic-r2": "d7a5fb2817d01b3c8db01dd496a63d5976ad527a945f5e60875d91f6ff45fc05",
    "ff5000-sbcn-parameters-bic-r0": "f26a912394fc8add4abd7035d5ac48773e7aa14120646df01fb95ff76766c27a",
    "ff5000-sbcn-parameters-bic-r2": "f26a912394fc8add4abd7035d5ac48773e7aa14120646df01fb95ff76766c27a",
    "ff5000-sbcn-parameters-aic-r0": "7e2d3e017964e9bf111b91245f99946eaec8d772770614aec7841c393b2a2d57",
    "ff5000-sbcn-parameters-aic-r2": "c4c7c4c8213a5f52d675fb918ba23f21fe48a0143df636c2ea81eb1b0ce3d8c7",
    "ff5000-bn-arcs-bic-r0": "346ae3204a39d938553b189d79fb9fab3a790fe0dbfa65cb0fc35cd8271492a8",
    "ff5000-bn-arcs-bic-r2": "c933c4f670c7cef85f142d56df80992150c3e347d5a0882dd682ac31979ef657",
    "ff5000-bn-arcs-aic-r0": "346ae3204a39d938553b189d79fb9fab3a790fe0dbfa65cb0fc35cd8271492a8",
    "ff5000-bn-arcs-aic-r2": "9e6d5d898b9f34653cb05d1d68871384d8d6b84669c4f3d23671923c040a39d6",
    "ff5000-bn-parameters-bic-r0": "d6bcbd449f12fb12db163eceda271952cad8123b82f21e4be4fb32e420d4cdba",
    "ff5000-bn-parameters-bic-r2": "b8f73feee0ce667be1b512c059b6ea6ae116b8ff970c27d8c1d8edb99df670ee",
    "ff5000-bn-parameters-aic-r0": "6f85cfcc391b6a63bd4c18f7084ace0839e35f9951849e02c0421aef6395047e",
    "ff5000-bn-parameters-aic-r2": "4a9ccff6b8db140dfcd667d99f23832c1b031fe72d556ea102130dd69b679dbc",
    "sparse250-sbcn-arcs-bic-r0": "d7fa66cab738ef17726b2431a1214dff78167c931b1d5bda8a55e2c2724bbaca",
    "sparse250-sbcn-arcs-bic-r2": "d7fa66cab738ef17726b2431a1214dff78167c931b1d5bda8a55e2c2724bbaca",
    "sparse250-sbcn-arcs-aic-r0": "94154d6b1a8261e2fb8e6a098b7f5750274ca2bc394e848f47ef03fb99686822",
    "sparse250-sbcn-arcs-aic-r2": "94154d6b1a8261e2fb8e6a098b7f5750274ca2bc394e848f47ef03fb99686822",
    "sparse250-sbcn-parameters-bic-r0": "89220b1be4e9ffb5129b4d02da30e5143d810c22895221b1485247cfadcba790",
    "sparse250-sbcn-parameters-bic-r2": "a09d4ebcc4f0220c382af3e16c0eb1bd78adfbb0fc818e6ab75e754afa99d7b1",
    "sparse250-sbcn-parameters-aic-r0": "2666e6de1ad33ec5980edf15efaaf77028d979da72ca89b2827405ab383759f4",
    "sparse250-sbcn-parameters-aic-r2": "2666e6de1ad33ec5980edf15efaaf77028d979da72ca89b2827405ab383759f4",
    "sparse250-bn-arcs-bic-r0": "4806d06284768c16012d5bc7c5d2c6f2b0793aa47fcb3922da26a63ae2083161",
    "sparse250-bn-arcs-bic-r2": "af7b1a61c699400d8d68a50f3c1f26f688f9733932865a9b37f8be07eb7f7941",
    "sparse250-bn-arcs-aic-r0": "d6d80afcad3ee0d98b2720471cd559d58d892e5bdb99f92e65bbb30bc545341b",
    "sparse250-bn-arcs-aic-r2": "d6d80afcad3ee0d98b2720471cd559d58d892e5bdb99f92e65bbb30bc545341b",
    "sparse250-bn-parameters-bic-r0": "d2a206e1d87994d1c117aa78939c7f210c267bc14b976e6377ee95176a12ba41",
    "sparse250-bn-parameters-bic-r2": "cf1fe0c57aa783f676101059b4bf1bb094e71bd9e1db2b85134492774b721eeb",
    "sparse250-bn-parameters-aic-r0": "ecbe70cf5de3d9e7a69ae699281bfb72d9aeafd432bce4f969d053eb550c6382",
    "sparse250-bn-parameters-aic-r2": "7332bc214fae6db4f4264a53dc241c4e5d0324f85dd502e13b1eb98207b97560",
}

BOOTSTRAP_GOLDEN = "b1bbd8857ae32f23dbc03c48bfcc6d4cf22ca600acf51f2cb86cf56df519401d"

CASES = [
    f"{data}-{learner}-{penalty}-{criterion}-r{restarts}"
    for data, learner, penalty, criterion, restarts in itertools.product(
        ("ff400", "ff5000", "sparse250"), LEARNERS, ("arcs", "parameters"), ("bic", "aic"), (0, 2)
    )
]


@pytest.fixture(scope="module")
def datasets():
    return {
        "ff400": famafrench(400),
        "ff5000": famafrench(5000),
        "sparse250": sparse_random_instance(T=250, seed=5)[2],
    }


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_learned_model_digest(datasets, case):
    data, learner, penalty, criterion, restarts = case.split("-")
    options = LearnOptions(criterion=criterion, penalty=penalty, restarts=int(restarts[1:]), seed=3)
    model = LEARNERS[learner](datasets[data], options)
    assert sha256(model.to_json()) == GOLDEN[case]


def test_bootstrap_report_digest(datasets):
    report = edge_confidence(datasets["ff400"], LearnOptions(seed=3), replicates=4)
    assert sha256(report.to_json()) == BOOTSTRAP_GOLDEN


def test_bootstrap_replicates_fit_no_cpts(datasets, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bootstrap replicate fitted CPTs")

    monkeypatch.setattr(learn, "fit_cpts", refuse)
    monkeypatch.setattr(bootstrap, "fit_cpts", refuse)
    report = edge_confidence(datasets["ff400"], LearnOptions(seed=3), replicates=4, threads=1)
    assert sha256(report.to_json()) == BOOTSTRAP_GOLDEN


# The baseline learner bootstrapped, and sweep CSVs over both learners with
# bootstrap off and on, recorded before the learners shared one registry.
BN_BOOTSTRAP_GOLDEN = "17610ea56f803a0eef59e921436eec4a338cdd847e91dd382c12bdb1833b8078"

SWEEP_GOLDEN = {
    "famafrench": "35def36d8d5fc0178b9746d5c3e2c78d3d5db258de8f6505b146710632c41eaa",
    "sparse": "5a080db147b17939af6eac18551f349fa119330d6bcadc61dfc27ac472eb9ea2",
}

SWEEP_GENERATORS = {
    "famafrench": {"mode": "famafrench", "n_stocks": 4, "positive_loadings": True, "lag": 1},
    "sparse": {"mode": "sparse", "n_factors": 4, "n_stocks": 8, "p": 0.4, "signed_loadings": True},
}


def test_bn_bootstrap_report_digest(datasets):
    report = edge_confidence(datasets["ff400"], LearnOptions(seed=3), replicates=4, learner="bn")
    assert sha256(report.to_json()) == BN_BOOTSTRAP_GOLDEN


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("generator", sorted(SWEEP_GOLDEN))
def test_sweep_csv_digest(generator, threads):
    config = SweepConfig.from_json(json.dumps({
        "generator": SWEEP_GENERATORS[generator], "sample_sizes": [150], "criteria": ["bic"],
        "bootstrap": [False, True], "learners": ["sbcn", "bn"], "repetitions": 2,
        "seed": 13, "bootstrap_replicates": 3, "max_iterations": 300,
    }))
    assert sha256(run_sweep(config, threads=threads).to_csv()) == SWEEP_GOLDEN[generator]


# Learns on either side of the packed score kernel's row cap (1024 rows),
# `learn_sbcn` on both data sets and `learn_bn` on famafrench, seed 3, bic.
CROSSOVER_GOLDEN = {
    "ff64-sbcn-arcs": "ce8bd67ebaa07b36f0ba7a71f2537a833e4da5e81c42cd5d76f2348d86dff123",
    "ff64-sbcn-parameters": "76fec186e425e54b9587575e66cbe76eb5eccfecde4ff91c120af321c19b1d9f",
    "ff64-bn-arcs": "a67c96295004874ab37d5cdff51227562df3655e3dc76ff7ffc206aaa0003137",
    "ff64-bn-parameters": "8b3fedd39b7d99317e45cb4d908eaa79befc0aacf9cb889b1ceb3cb1e33ff289",
    "ff1000-sbcn-arcs": "e6962f46b1436cbd475a8f6942a6af6927c06f61b044ae1c8c50ca29115464d0",
    "ff1000-sbcn-parameters": "6f1df797e0c5b6fbe158073740b58b0979908e2ae150a9b08d2a571a7782c319",
    "ff1000-bn-arcs": "834d79862893c88b5e977062c0187338c1597e5f0a0ae3ad4aa158390f2e8d3a",
    "ff1000-bn-parameters": "00453f0de6d1ddf42b6e657100bdd0a211f6631fc49652f595d8350a32e3b580",
    "ff1024-sbcn-arcs": "0eabd03ca54731646f71692eb13e3ba34add2517d6034668c3dda222f2820a0d",
    "ff1024-sbcn-parameters": "f904819d22a75bb7eba598f5e42ca7e38f7cd678578c50a5dac39c93c909a25c",
    "ff1024-bn-arcs": "57baa0df7de0e2293a974777760a30e183682fdfdefa1f36a40ab064d49e9d82",
    "ff1024-bn-parameters": "24efeaa77924ce928f17643846a8d75244c3319d6ac3c0f24fb5ae114ff3cd41",
    "ff1025-sbcn-arcs": "c99e79897131c0180f99b7b423c8d4acee8cd9c98d57554f43dd0761b7d7ea52",
    "ff1025-sbcn-parameters": "cfb2b09bc1a11d324194b44d84004d97988ce835746b1f6d9696f20e75ca4f0c",
    "ff1025-bn-arcs": "3d506d2ae734bb79bd3dfee342287930d819aec27e2ae77914db26c27cd525a4",
    "ff1025-bn-parameters": "e48d84c2a5c6965613715e77ecaf966d09fc32620993b1900efb2aee514277d0",
    "sparse64-sbcn-arcs": "8224678bff574f8a9680de9cf9eadbd4de1f74eaa257194118dac8afbafc4b22",
    "sparse64-sbcn-parameters": "5596d655019c9bb2a97f074a84d51bc949537537e7b9f18d5a2e8c150db75141",
    "sparse1000-sbcn-arcs": "3c0322916ebf3c1a3e6ec64473d5da60b69e4408b272fc827103748bddc61886",
    "sparse1000-sbcn-parameters": "5e77879ea50d80b0c032da9a8496b4f5d5cca0c08f3ad6aedca2ce5175da64b6",
    "sparse1024-sbcn-arcs": "ab74b34e52ce41c0faab525cf8f9ed61ed7643f0de0e2620eab26d084b06e719",
    "sparse1024-sbcn-parameters": "5b327bcfa5576dc5f5c2d5781398d6ae125f808772c33915655f4aea9b734699",
    "sparse1025-sbcn-arcs": "cce6c32857307dde2eff37b73bd075c3b4e4ccd263ccb67050f19a7ad1475c7d",
    "sparse1025-sbcn-parameters": "a1876af9ec8427408333c71a4ba60c384b2689bc9c0ba736e11be597d3b3f77b",
}

PARAMETERS_BOOTSTRAP_GOLDEN = "590197440118e9c96567c4afe70d3ced654157b59e14f17a07673901b7daed44"


# Bootstrap on 5000 rows, so every resampled learn is past the packed
# kernel's row cap; recorded before the score kernel counted distinct rows.
LARGE_BOOTSTRAP_GOLDEN = {
    "sbcn": "2086e54f7a0c9ae08ffaa5bcea2ddafefbcc6335af67eaf44f748b05cf2cd04e",
    "bn": "a9059e872ed75a603c39f9c3e3dacb9a4c9ddf9df8de6ebcbe774f399060df89",
}


@pytest.mark.parametrize("learner", sorted(LARGE_BOOTSTRAP_GOLDEN))
def test_large_bootstrap_report_digest(datasets, learner):
    report = edge_confidence(datasets["ff5000"], LearnOptions(seed=3), replicates=4, learner=learner)
    assert sha256(report.to_json()) == LARGE_BOOTSTRAP_GOLDEN[learner]


@pytest.mark.parametrize("case", sorted(CROSSOVER_GOLDEN))
def test_crossover_model_digest(case):
    name, learner, penalty = case.split("-")
    source, m = re.fullmatch(r"(ff|sparse)(\d+)", name).groups()
    data = famafrench(int(m)) if source == "ff" else sparse_random_instance(T=int(m), seed=5)[2]
    model = LEARNERS[learner](data, LearnOptions(penalty=penalty, seed=3))
    assert sha256(model.to_json()) == CROSSOVER_GOLDEN[case]


def test_parameters_bootstrap_report_digest(datasets):
    options = LearnOptions(seed=3, penalty="parameters")
    report = edge_confidence(datasets["sparse250"], options, replicates=4)
    assert sha256(report.to_json()) == PARAMETERS_BOOTSTRAP_GOLDEN


# CLI artifacts at fixed seeds: every file the subcommands write, in the
# byte layout the IO layer emits (CSV rows, indent-2 JSON, float text).
CLI_GOLDEN = {
    "evaluate.csv": "385d9da2e715be5535b4cce89801beb0a8c00a09b6fc9c2385b03b8448b7e64c",
    "ff-data.csv": "345f67e32fe295597baf5590f323eba83dcb65a29c0a188084d00e14b07f05a7",
    "ff-truth.json": "4defb99f30f18e311eaf43e25220856d0f0417d8a9f126f2bcebb0438cc3063f",
    "infer-model.json": "38db2eaf329882f8fbfb8dd5a794d378206b9221fc55c5bad331aba200bd7003",
    "infer-report.json": "b5ba18d85a40c18e23b19b8b33492e2326b1a6cf72427f81a59f9879d8867be9",
    "sparse-data.csv": "9eb6717633fc2affe52617b44260cad3dcaf5c3d74e161eb30ee965120c9ee39",
    "sparse-truth.json": "6e956417715bdf09e0845dc3ca9300d9ee05293e65cc89c3eb61f104c23b95d7",
    "stress-clamp.csv": "d53766d4762cd41cb4a5097861e58372f5305e0717409a88b68c2342074aaef1",
    "stress-count0-tree.json": "10418886582a62529a4734dedbede93039eb067fe894a7d7faa7f2417897db91",
    "stress-count0.csv": "5cdd5c8b2d03fba51e16300669defba5a5475510e52f649b6e0b52fb23243661",
    "stress-tree.csv": "f5c351c0c0fc42db46a6f5462e5a4a9d567448343e7b6ccac918ce5c1e3a3c7a",
    "stress-tree.json": "10418886582a62529a4734dedbede93039eb067fe894a7d7faa7f2417897db91",
}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def run(*args):
        assert main([str(a) for a in args]) == 0

    run("simulate", "--mode", "famafrench", "--samples", 2000, "--seed", 5,
        "--out-data", d / "ff-data.csv", "--out-truth", d / "ff-truth.json")
    run("simulate", "--mode", "sparse", "--samples", 300, "--seed", 7,
        "--out-data", d / "sparse-data.csv", "--out-truth", d / "sparse-truth.json")
    run("infer", "--data", d / "ff-data.csv", "--bootstrap", 2, "--threads", 1, "--seed", 3,
        "--out-model", d / "infer-model.json", "--out-report", d / "infer-report.json")
    run("stress", "--model", d / "infer-model.json", "--risky-fraction", 0.2,
        "--count", 500, "--seed", 4, "--out-scenarios", d / "stress-tree.csv",
        "--out-tree", d / "stress-tree.json")
    run("stress", "--model", d / "infer-model.json", "--clamp", "Km=0,SMB=0",
        "--count", 500, "--seed", 4, "--out-scenarios", d / "stress-clamp.csv")
    run("stress", "--model", d / "infer-model.json", "--risky-fraction", 0.2,
        "--count", 0, "--seed", 4, "--out-scenarios", d / "stress-count0.csv",
        "--out-tree", d / "stress-count0-tree.json")
    run("evaluate", "--model", d / "infer-model.json", "--truth", d / "ff-truth.json",
        "--out", d / "evaluate.csv")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()}


@pytest.mark.parametrize("artifact", sorted(CLI_GOLDEN))
def test_cli_artifact_digest(cli_artifacts, artifact):
    assert cli_artifacts[artifact] == CLI_GOLDEN[artifact]


def test_cli_artifacts_all_pinned(cli_artifacts):
    assert sorted(cli_artifacts) == sorted(CLI_GOLDEN)


# `stress` runs that draw far more rows than one sampling block and grow the
# tree on many rows: a truth-fitted model (one parent per factor, five per
# stock) and a dense model learned without bootstrap (102 arcs, a node with
# 14 parents).  Each run pins its scenario CSV, tree JSON and stderr log
# (with the output directory masked).
STRESS_LARGE_GOLDEN = {
    "truth-0.1-0": {
        "scenarios": "0c263371cfd5f4b140ce10a89075b37680c172760bcc255e860d6a32a6be8ca6",
        "tree": "bc9db33591cf54ecfe6df6578c5917be338eb0d7a160440943997dbb3f542446",
        "log": "059e69177794b680f8ce105f1c6d5b5005e8f3ae2052d82b2a326ed217a969ec",
    },
    "truth-0.35-3": {
        "scenarios": "b10aaaab807f7973713e825d97907d06db0ed33e2d2ce05d63635df08077b44c",
        "tree": "115671d3a58b91bd13226f85fa6ee8c9c3b5905f19a78c1cb1cca069ce4de5d7",
        "log": "a2f5b51110aee133b05ab854c71702811af7f01a7ad935e32df64065133de9f1",
    },
    "dense-0.1-0": {
        "scenarios": "2f6e4fcffebcb032be4be141128979e9695243bb402b67c96bade33c837df7e0",
        "tree": "492440a153ca770e2cd01d84392cd6aaf79b280bcd00f6856b6e2aba5697d81f",
        "log": "467c297e20cc81cb8d497d7bfde339ed33b78aec29abae34f955b5a64681f65f",
    },
    "dense-0.35-3": {
        "scenarios": "3aeb9b137a98c3bd167d61dbab2967cd9eeb95a75ea8196fad03b5b09a549454",
        "tree": "19ddf3a4b7f897d42ffc86538adddfa5480b0c9545ee497a6eccd1ef78fb1b51",
        "log": "ae4444d1fa8609103e46f5c642a8ddfd1aed094ba6b87eddea5a54c6ad462945",
    },
}


@pytest.fixture(scope="module")
def stress_large_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("stress-large")
    spec = market_factor_spec(1, positive_loadings=True)
    truth = fit_cpts(simulate_dataset(spec, 5000, 2), ground_truth_dag(spec))
    (d / "truth.json").write_text(truth.to_json(), encoding="utf-8")
    assert main(["simulate", "--mode", "famafrench", "--samples", "3000", "--seed", "6",
                 "--out-data", str(d / "ff.csv"), "--out-truth", str(d / "ff-truth.json")]) == 0
    assert main(["infer", "--data", str(d / "ff.csv"), "--seed", "3",
                 "--out-model", str(d / "dense.json")]) == 0
    digests = {}
    for case in STRESS_LARGE_GOLDEN:
        model, fraction, path = case.split("-")
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = main(["stress", "--model", str(d / f"{model}.json"),
                         "--risky-fraction", fraction, "--path-index", path,
                         "--samples-for-tree", "30001",
                         "--count", "40003", "--seed", "8",
                         "--out-scenarios", str(d / "out.csv"), "--out-tree", str(d / "tree.json")])
        assert code == 0
        digests[case] = {
            "scenarios": hashlib.sha256((d / "out.csv").read_bytes()).hexdigest(),
            "tree": hashlib.sha256((d / "tree.json").read_bytes()).hexdigest(),
            "log": sha256(log.getvalue().replace(str(d), "<dir>")),
        }
    return digests


@pytest.mark.parametrize("case", sorted(STRESS_LARGE_GOLDEN))
def test_stress_large_digest(stress_large_artifacts, case):
    assert stress_large_artifacts[case] == STRESS_LARGE_GOLDEN[case]
