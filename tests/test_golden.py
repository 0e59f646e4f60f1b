"""Golden outputs: the committed configs must keep producing the same bytes.

Each config under ``tests/golden`` is run through ``cli.main`` and the SHA-256
of ``series.csv``, ``report.txt`` and the ``verify`` stdout are compared
against digests recorded when the outputs were last accepted.  A change that
alters any of these bytes on purpose records new digests and says why:
``PYTHONPATH=src python tests/test_golden.py`` prints the current digests of
every config in ``DIGESTS`` in the form of the table below, with
``# changed`` after each digest that differs from the recorded one, and
then the ``verify`` stdout of every config whose verify digest changed.
"""
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from sgdcheck import objective
from sgdcheck.cli import ENV_OUTPUT_DIR, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (series.csv, report.txt, verify stdout) SHA-256 digests.
DIGESTS = {
    "quadratic_descent": (
        "78720bed8ddf5a52c38b3ed83c604cd2d5fb9f835c2dfad3c93425ce1bf01b71",
        "5cb5730375469fe84fe7f6f8b17c75a5c025532a93e1df6696fb2a34f9798dff",
        "3d1af60f21e5a47f928b58b23317ba5ef02e27dcef06c2f4d78708b1b2b32dbe",
    ),
    "ls_descent_convergence": (
        "44b773dc49302293b6a1fe537da331f4129eb8a0f2642e9b6eae413e826b861f",
        "8ade97cb00305f194e71543cba4b33d0527bccfd95658fcd7e6657d77eefe50c",
        "aa0650326f655ff935b7a80497c5f4fd9ffc891725cc71786d5382b0b8fa05f2",
    ),
    "ls_lemma": (
        "21dd941c17e9cd949deb9db35f71fca953015bb77153114de4b6fefd0550d817",
        "0466e5ed763e4444d04fe15d151142de5009833b25b2df0daa0ae7918e05f414",
        "c42e27a327224df1264df57ddcb851297cb28018654fb27969863c7f3f307c72",
    ),
    # A 200x8 design with odd sample counts (33 001 audited, 1 001 gradient
    # checks): the audit draws four blocks of 8 192 samples, then one block
    # of 233, each from the stage generator jumped by its block number.
    "ls_chunk_tails": (
        "cba9aec8fcb801b5d8b34d568dc8b9d365c5933c05467732492e15dca44f599e",
        "6a482291e0d16576b89781af7c5935b0ddf72244f0f3fd3da1ded4cf18f3be06",
        "24ca6e35dd96ec9b3c25265dcc06232a1ef1d33ee40d156c032d87227a0f4484",
    ),
    # A d=3 quadratic at R=37, H=2000: the noise is drawn in one block of
    # replication tiles of 5, so the last tile holds 2.
    "quadratic_tile_tails": (
        "e43241abbfa202162ed414ec54d1cfbc590a604c8ef4b6e9a5cec6f32ee0df03",
        "199732f26967d8aeebcf957c6da7315796818fc6efae5910729bed53ab2aaa07",
        "962f0febefbd3154b1a3b60cb0ce6aab48a1bbce15cb7e6dc91242f22a289d4d",
    ),
    # A d=2 quadratic at R=2085, H=200: three parts of replications, the
    # last of 37, so these bytes pin how the parts are merged.
    "quadratic_parts": (
        "76a771e59009b7f1c58c1f04c772bdaeece3415bb9be388e94ccb247b54b43bc",
        "96511e0188ea48fffde7eaf9d8e5ccf1fd931b2e2c441238f6746e789d9e392f",
        "3df3edcb8d5bd5483026786258fb2acf6eeb0ca33f647740cc5af1a994547206",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_output(name: str) -> str:
    """The ``verify`` stdout of config ``name``."""
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        assert main(["verify", str(GOLDEN_DIR / f"{name}.json")]) == 0
    return verify_out.getvalue()


def verify_digest(name: str) -> str:
    """Digest of the ``verify`` stdout of config ``name``."""
    return sha256(verify_output(name).encode("utf-8"))


def golden_digests(name: str, out_dir: Path) -> tuple[str, str, str]:
    """Digests of the outputs of config ``name``, written into ``out_dir``,
    which ENV_OUTPUT_DIR must name."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(GOLDEN_DIR / f"{name}.json")]) == 0
    return (
        sha256((out_dir / "series.csv").read_bytes()),
        sha256((out_dir / "report.txt").read_bytes()),
        verify_digest(name),
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
    assert golden_digests(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_verify_digest_holds_at_one_sample_per_chunk(name, monkeypatch):
    # A sample's values do not depend on the chunk it is evaluated in.  The
    # chunk slicing is patched, not _VERIFY_BYTES, which sizes the blocks too.
    monkeypatch.setattr(
        objective, "_verify_chunks",
        lambda samples, dimension: [slice(i, i + 1) for i in range(samples)],
    )
    assert verify_digest(name) == DIGESTS[name][2]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_verify_output_does_not_depend_on_the_core_count(name, fake_cores):
    # The cores size the one thread pool that runs the blocks of both stages.
    for cores in (1, 2, 4):
        fake_cores(cores)
        assert verify_digest(name) == DIGESTS[name][2]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_output_does_not_depend_on_the_core_count(name, tmp_path, monkeypatch, fake_cores):
    # The cores size the replication workers.
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
    stdouts = set()
    for cores in (1, 4):
        fake_cores(cores)
        with contextlib.redirect_stdout(io.StringIO()) as run_out:
            assert main(["run", str(GOLDEN_DIR / f"{name}.json")]) == 0
        stdouts.add(run_out.getvalue())
        assert sha256((tmp_path / "report.txt").read_bytes()) == DIGESTS[name][1]
    assert len(stdouts) == 1


if __name__ == "__main__":
    changed_verify = []
    for name in DIGESTS:
        with tempfile.TemporaryDirectory() as out_dir:
            os.environ[ENV_OUTPUT_DIR] = out_dir
            digests = golden_digests(name, Path(out_dir))
        print(f'    "{name}": (')
        for digest, recorded in zip(digests, DIGESTS[name]):
            print(f'        "{digest}",' + ("  # changed" if digest != recorded else ""))
        print("    ),")
        if digests[2] != DIGESTS[name][2]:
            changed_verify.append(name)
    # The new verify stdout of each config whose verify digest changed, so
    # the values behind the digests can be compared.
    for name in changed_verify:
        print(f"\n# verify stdout of {name}:")
        for line in verify_output(name).splitlines():
            print(f"#   {line}")
