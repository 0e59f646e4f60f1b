"""Golden outputs: the committed configs must keep producing the same bytes.

Each config under ``tests/golden`` is run through ``cli.main`` and the SHA-256
of ``series.csv``, ``report.txt`` and the ``verify`` stdout are compared
against digests recorded when the outputs were last accepted.  A change that
alters any of these bytes on purpose records new digests and says why:
``PYTHONPATH=src python tests/test_golden.py`` prints the current digests of
every config in ``DIGESTS`` in the form of the table below.
"""
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from sgdcheck.cli import ENV_OUTPUT_DIR, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (series.csv, report.txt, verify stdout) SHA-256 digests.
DIGESTS = {
    "quadratic_descent": (
        "0458677b21810391dcafdac24e6910e8b40e1ae8acae5e2c7d7773bfe5744241",
        "5cb5730375469fe84fe7f6f8b17c75a5c025532a93e1df6696fb2a34f9798dff",
        "3d1af60f21e5a47f928b58b23317ba5ef02e27dcef06c2f4d78708b1b2b32dbe",
    ),
    "ls_descent_convergence": (
        "20c032bbb7080fed35fd158c412ab1409f2454755f5353d4320a6d58c5ba1ca0",
        "8ade97cb00305f194e71543cba4b33d0527bccfd95658fcd7e6657d77eefe50c",
        "aa0650326f655ff935b7a80497c5f4fd9ffc891725cc71786d5382b0b8fa05f2",
    ),
    "ls_lemma": (
        "219abfce2ab3c97030c2366f18a9d99977efac9a1b280eb9dd5067380410e79f",
        "e5ddf7aa784dd054fead6fb0f4f072c05049598ef020b1fe3e040e7e4806d9cb",
        "c42e27a327224df1264df57ddcb851297cb28018654fb27969863c7f3f307c72",
    ),
    # A 200x8 design with odd sample counts (33 001 audited, 1 001 gradient
    # checks): the audit runs past the 2^15 block boundary into a short tail.
    "ls_chunk_tails": (
        "c25e0243a37c4e3e27570fe76adef43fd2be3ca5db0932063a8da328140be8a1",
        "6a482291e0d16576b89781af7c5935b0ddf72244f0f3fd3da1ded4cf18f3be06",
        "7856b910bb19e29892f0ed503068a8a21cc8264a903a9df75b21eef91c803cf8",
    ),
    # A d=3 quadratic at R=37, H=2000: the noise is drawn in one block of
    # replication tiles of 5, so the last tile holds 2.
    "quadratic_tile_tails": (
        "3d23d325be58c6cb5ba9f6e1575fa1a7a0091b8b0304589836530f78086ee0fc",
        "199732f26967d8aeebcf957c6da7315796818fc6efae5910729bed53ab2aaa07",
        "962f0febefbd3154b1a3b60cb0ce6aab48a1bbce15cb7e6dc91242f22a289d4d",
    ),
    # A d=2 quadratic at R=2085, H=200: three parts of replications, the
    # last of 37, so these bytes pin how the parts are merged.
    "quadratic_parts": (
        "ec9b76963857ca146fce71559f8551b95aa5a1a83327546fcc2a95d755939424",
        "96511e0188ea48fffde7eaf9d8e5ccf1fd931b2e2c441238f6746e789d9e392f",
        "3df3edcb8d5bd5483026786258fb2acf6eeb0ca33f647740cc5af1a994547206",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(name: str, out_dir: Path) -> tuple[str, str, str]:
    """Digests of the outputs of config ``name``, written into ``out_dir``,
    which ENV_OUTPUT_DIR must name."""
    config = str(GOLDEN_DIR / f"{name}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", config]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as verify_out:
        assert main(["verify", config]) == 0
    return (
        sha256((out_dir / "series.csv").read_bytes()),
        sha256((out_dir / "report.txt").read_bytes()),
        sha256(verify_out.getvalue().encode("utf-8")),
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
    assert golden_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    for name in DIGESTS:
        with tempfile.TemporaryDirectory() as out_dir:
            os.environ[ENV_OUTPUT_DIR] = out_dir
            digests = golden_digests(name, Path(out_dir))
        print(f'    "{name}": (')
        for digest in digests:
            print(f'        "{digest}",')
        print("    ),")
