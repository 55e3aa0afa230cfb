import numpy as np
import pytest

from stripkit.dictionaries import BinaryCode, Dictionary, span_of_generator


@pytest.fixture(scope="session")
def identity8() -> Dictionary:
    return Dictionary("identity8", np.eye(8))


def reed_muller_1_3() -> BinaryCode:
    """First-order length-8 Reed-Muller code: 16 words, weights {0, 4, 8}."""
    x = np.indices((2, 2, 2)).reshape(3, -1)
    rows = np.vstack([np.ones(8, dtype=np.uint8), x.astype(np.uint8)])
    return BinaryCode.from_generator(rows.T)


def full_space(m: int) -> BinaryCode:
    words = np.indices((2,) * m).reshape(m, -1).T.astype(np.uint8)
    return BinaryCode.from_words(words)


def span_bits(generator: np.ndarray) -> np.ndarray:
    """span_of_generator(generator) unpacked to an (2^l, m) 0/1 matrix."""
    return BinaryCode(generator.shape[0], span_of_generator(generator)).bits()
