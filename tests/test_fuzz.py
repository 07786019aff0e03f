"""Fuzzed parsers: whatever bytes they are given, the model loader, the image
reader and the key=value config parser either succeed or raise a
psrnn.errors type, which the CLI maps to exit code 1 or 2. `psrnn eval` of
fuzzed model files and images, and `psrnn train`, `psrnn demo`,
`psrnn compare-losses` and `psrnn ablate-units` of fuzzed config files, exit
0, 1 or 2 without a traceback.

Mutations reach the model's config-text widths too: load_model refuses a
config with more parameters than the file's records hold before it builds
the network, so a width grown from 4 to 4000 cannot allocate gigabytes. The
parse-and-resolve config fuzz stops at `resolve`, since a verb would run as
long as a fuzzed `iters` asks. The verb fuzz draws each value from a short
list of accepted values and edge cases for its key, over a small base
config, and the command line caps `iters` at 2 and `samples` at 64.
"""

import contextlib
import io
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrnn import cli, errors
from psrnn import data as D
from psrnn import model as M

PSRNN_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and v.__module__ == errors.__name__)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def lean_model(workdir) -> bytes:
    lean = M.NetworkConfig(pu_size=8, preproc_channels=(4, 4), unit_hidden=(4, 2, 2),
                           recon_channels=(4,))
    M.save_model(M.build_network(lean, seed=0), workdir / "lean.psrnn")
    return (workdir / "lean.psrnn").read_bytes()


def seal(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)


def mutated_model(data, blob: bytes) -> bytes:
    """A model file with byte edits, maybe truncated, its CRC maybe resealed."""
    blob = bytearray(blob)
    # edits in the header and config text (the first 200 bytes) half the time
    position = st.integers(0, 199) | st.integers(0, len(blob) - 1)
    for i, value in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                       min_size=1, max_size=4)):
        blob[i] = value
    blob = bytes(blob[: data.draw(st.none() | st.integers(0, len(blob)))])
    return seal(blob) if data.draw(st.booleans()) and len(blob) >= 4 else blob


@settings(max_examples=400)
@given(data=st.data())
def test_load_model_mutations(workdir, lean_model, data):
    path = workdir / "model.psrnn"
    path.write_bytes(mutated_model(data, lean_model))
    try:
        M.load_model(path)
    except PSRNN_ERRORS:
        pass


TOKEN = st.one_of(st.integers(-3, 300), st.integers(-2**40, 2**40)).map(lambda v: b"%d" % v)
SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# comment 7\n", b""])


@st.composite
def pnm_files(draw) -> bytes:
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    blob = magic
    for _ in range(3):  # width, height, maxval
        blob += draw(SEP) + draw(TOKEN)
    blob += draw(SEP)
    ascii_payload = st.lists(TOKEN, max_size=60).map(b" ".join)
    return blob + draw(st.binary(max_size=200) | ascii_payload)


@settings(max_examples=300)
@given(blob=pnm_files() | st.tuples(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]),
                                    st.binary(max_size=100)).map(b"".join))
def test_load_image_pnm(workdir, blob):
    path = workdir / "image.pnm"
    path.write_bytes(blob)
    try:
        D.load_image(path)
    except PSRNN_ERRORS:
        pass


@st.composite
def small_p5_images(draw) -> bytes:
    """A well-formed binary PGM of up to 40x40, large enough for some 8x8 blocks."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return b"P5 %d %d 255\n" % (w, h) + draw(st.binary(min_size=w * h, max_size=w * h))


def assert_clean_exit(argv: list[str]) -> None:
    """cli.main(argv) exits 0, 1 or 2 and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150)
@given(data=st.data(), image=small_p5_images() | pnm_files())
def test_cli_eval_exit_codes(workdir, lean_model, data, image):
    model = workdir / "cli_model.psrnn"
    # an intact model half the time, so that the image reader and eval run
    model.write_bytes(lean_model if data.draw(st.booleans()) else mutated_model(data, lean_model))
    (workdir / "cli_image.pgm").write_bytes(image)
    manifest = workdir / "cli_images.txt"
    manifest.write_text(f"{workdir / 'cli_image.pgm'}\n")
    assert_clean_exit(["eval", "--out", str(workdir / "cli_out"), "--set", f"models={model}",
                       "--set", f"images={manifest}", "--set", "sizes=8"])


@settings(max_examples=200)
@given(payload=st.binary(max_size=120),
       sidecar=st.binary(max_size=20) | st.tuples(TOKEN, SEP, TOKEN).map(b"".join))
def test_load_image_raw_plane(workdir, payload, sidecar):
    path = workdir / "plane.y"
    path.write_bytes(payload)
    (workdir / "plane.y.txt").write_bytes(sidecar)
    try:
        D.load_image(path)
    except PSRNN_ERRORS:
        pass


@st.composite
def config_files(draw) -> tuple[str, bytes]:
    verb = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    key = st.sampled_from(sorted(cli.SCHEMAS[verb])) | st.text(max_size=6)
    line = st.tuples(key, st.text(max_size=12)).map("=".join) | st.text(max_size=16)
    text = st.lists(line, max_size=8).map(lambda lines: "\n".join(lines).encode())
    return verb, draw(text | st.binary(max_size=120))


@settings(max_examples=400)
@given(config=config_files())
def test_config_parse_and_resolve(workdir, config):
    verb, blob = config
    path = workdir / "run.config"
    path.write_bytes(blob)
    try:
        cli.resolve(verb, cli.parse_config_file(path), {})
    except PSRNN_ERRORS:
        pass


def test_non_utf8_config_is_a_usage_error(workdir):
    path = workdir / "latin1.config"
    path.write_bytes("out=r\xe9sultats\n".encode("latin-1"))
    with pytest.raises(errors.UsageError):
        cli.parse_config_file(path)


def _ints_text(low: int, high: int):
    return st.integers(low, high).map(str)


WIDTHS = st.lists(st.integers(0, 5), max_size=3).map(lambda v: ",".join(map(str, v)))
FLOATS = st.sampled_from(["0", "1e-3", "0.5", "1", "2", "-1", "nan", "inf", "1e308"])
TRAIN_VALUES = {
    "data": st.sampled_from(["synthetic", "no/such/dir", "", "."]),
    "n": st.sampled_from(["4", "8", "16", "0", "5", "-8"]),
    "availability": st.sampled_from(["three-block", "four-block", "none"]),
    "loss": st.sampled_from(["satd", "mse", "l1"]),
    "batch": _ints_text(-1, 70),
    "base_lr": FLOATS,
    "milestones": st.sampled_from(["", "1", "0", "1,1", "2", "5", "-1"]),
    "val_fraction": FLOATS,
    "selection_window": FLOATS,
    "partition": st.sampled_from(["0", "1", "2", "3", "4", "8", "16", "-4"]),
    "epsilon": FLOATS,
    "fill": FLOATS,
    "gate_activation": st.sampled_from(["sigmoid", "tanh", "relu"]),
    "preproc_channels": WIDTHS,
    "unit_hidden": WIDTHS,
    "recon_channels": WIDTHS,
    "fusion_kernel": _ints_text(-1, 5),
    "clip_grad_norm": FLOATS,
    "qps": st.sampled_from(["22", "32,37", "0", "51", "99", "-5", ""]),
    "corpus_size": _ints_text(-1, 40),
    "corpus_kinds": st.lists(st.sampled_from(["directional", "sinusoid", "rings", "flat",
                                              "bogus"]), max_size=3).map(",".join),
    "corpus_per_kind": _ints_text(-1, 3),
    "seed": _ints_text(-2, 2**64),
}
# lean widths and a small corpus, which fuzzed lines override
TRAIN_BASE = ["preproc_channels=4,4", "unit_hidden=4,2,2", "recon_channels=4",
              "corpus_size=32", "corpus_per_kind=2"]


def verb_configs(values: dict, base: list[str]):
    """Config files: base, then up to four keys with values drawn for them.
    Lines `resolve` rejects are test_config_parse_and_resolve's business."""
    keyed = st.sampled_from(sorted(values)).flatmap(lambda k: values[k].map(f"{k}={{}}".format))
    return st.lists(keyed, max_size=4).map(lambda lines: "\n".join(base + lines).encode())


def run_verb(workdir, verb: str, config: bytes, *argv: str) -> None:
    path = workdir / f"{verb}.config"
    path.write_bytes(config)
    assert_clean_exit([verb, "--config", str(path), "--out", str(workdir / f"{verb}_out"),
                       *argv])


@settings(max_examples=30)
@given(config=verb_configs(TRAIN_VALUES, TRAIN_BASE), iters=st.integers(0, 2),
       samples=st.integers(1, 64))
def test_cli_train_exit_codes(workdir, config, iters, samples):
    run_verb(workdir, "train", config, "--set", f"iters={iters}",
             "--set", f"samples={samples}")


@settings(max_examples=30)
@given(data=st.data())
def test_cli_demo_exit_codes(workdir, lean_model, data):
    model = workdir / "lean.psrnn"  # the lean_model fixture's file
    values = {
        "model": st.sampled_from([str(model), str(workdir / "none"), str(workdir)]),
        "kind": st.sampled_from(["directional", "sinusoid", "rings", "flat", "bogus"]),
        "cases": _ints_text(-1, 3),
        "qp": _ints_text(-60, 80),
        "seed": _ints_text(-2, 2**64),
    }
    config = data.draw(verb_configs(values, [f"model={model}"]))
    run_verb(workdir, "demo", config)


# the experiment verbs train default-width networks, so the fuzz keeps their
# sizes, batches and corpora small
EXPERIMENT_VALUES = {
    "n": st.sampled_from(["4", "8", "0", "5", "-8"]),
    "availability": st.sampled_from(["three-block", "four-block", "none"]),
    "batch": _ints_text(-1, 8),
    "seed": _ints_text(-2, 2**64),
    "corpus_size": _ints_text(-1, 40),
}


@settings(max_examples=15)
@given(data=st.data(), iters=st.integers(0, 2), samples=st.integers(1, 64))
def test_cli_compare_losses_exit_codes(workdir, data, iters, samples):
    seeds = st.lists(st.integers(-2, 4), max_size=5).map(lambda v: ",".join(map(str, v)))
    config = data.draw(verb_configs({**EXPERIMENT_VALUES, "seeds": seeds},
                                    ["corpus_size=32"]))
    run_verb(workdir, "compare-losses", config, "--set", f"iters={iters}",
             "--set", f"samples={samples}")


@settings(max_examples=15)
@given(data=st.data(), iters=st.integers(0, 2), samples=st.integers(1, 64))
def test_cli_ablate_units_exit_codes(workdir, data, iters, samples):
    values = {**EXPERIMENT_VALUES,
              "counts": st.lists(st.integers(-1, 3), max_size=3).map(
                  lambda v: ",".join(map(str, v))),
              "qp": _ints_text(-60, 80)}
    config = data.draw(verb_configs(values, ["corpus_size=32", "counts=1"]))
    run_verb(workdir, "ablate-units", config, "--set", f"iters={iters}",
             "--set", f"samples={samples}")

