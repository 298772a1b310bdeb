"""The binary container layout shared by the four binary artifact formats."""

import struct

import numpy as np
import pytest

from ldaselect.corpus import Utterance, read_features, write_features
from ldaselect.docmodel import bag_of_words, load_docs, save_docs
from ldaselect.errors import FormatError
from ldaselect.gmm import GmmModel, load_gmm, save_gmm
from ldaselect.lda import LdaModel, load_lda, save_lda

# Each format: file suffix, a writer of one valid file, its reader.
FORMATS = {
    "aldf": (
        lambda p: write_features(np.arange(6.0).reshape(3, 2), p),
        lambda p: read_features(Utterance("u", str(p), 3, 2, 0.03, "d")),
    ),
    "agmm": (
        lambda p: save_gmm(GmmModel(
            2, weights=np.array([0.25, 0.75]), means=np.array([[0.0, 1.0], [2.0, 3.0]]),
            variances=np.ones((2, 2)),
        ), p),
        load_gmm,
    ),
    "alda": (
        lambda p: save_lda(LdaModel(
            2, 3, alpha=np.array([0.1, 0.2]), log_beta=np.log(np.full((2, 3), 1 / 3)),
        ), p),
        load_lda,
    ),
    "adoc": (lambda p: save_docs(bag_of_words(["a", "b"], [[0, 2, 2], [1]], 3), p), load_docs),
}

# Each corruption of a valid file's bytes and the words its error must say;
# "{size}" stands for the valid file's size.
CORRUPTIONS = {
    "header-cut-short": (lambda b: b[:15], ["truncated", "header"]),
    "payload-one-byte-short": (lambda b: b[:-1], ["truncated", "expected {size} bytes"]),
    "one-trailing-byte": (lambda b: b + b"\0", ["trailing", "expected {size} bytes"]),
    "bad-magic": (lambda b: b"XXXX" + b[4:], ["magic"]),
    "bad-version": (lambda b: b[:4] + struct.pack("<I", 99) + b[8:], ["version 99"]),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("suffix", FORMATS)
def test_corrupt_container_is_refused(tmp_path, suffix, corruption):
    write, read = FORMATS[suffix]
    corrupt, words = CORRUPTIONS[corruption]
    p = tmp_path / f"f.{suffix}"
    write(p)
    read(p)  # the file is valid before it is corrupted
    good = p.read_bytes()
    p.write_bytes(corrupt(good))
    with pytest.raises(FormatError) as exc:
        read(p)
    message = str(exc.value)
    assert str(p) in message
    for word in words:
        assert word.format(size=len(good)) in message
