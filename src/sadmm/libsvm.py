"""LIBSVM text-format ingestion.

Grammar per line: ``label idx:val idx:val ...`` with 1-based strictly
increasing indices. Blank lines and lines starting with '#' are skipped.
Binary label conventions are normalized to {-1, +1}: label sets inside
{-1, +1} pass through, {0, 1} maps 0 -> -1, and {1, 2} maps 1 -> -1
(the convention of the mushrooms distribution).
"""

import numpy as np
import scipy.sparse as sp

from .exceptions import DataError, ParseError
from .problems import Dataset

__all__ = ["parse_libsvm"]


def _map_labels(raw):
    values = set(np.unique(raw))
    if values <= {-1.0, 1.0}:
        return raw
    if values <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    if values <= {1.0, 2.0}:
        return np.where(raw == 1.0, -1.0, 1.0)
    raise DataError(
        f"unsupported label set {sorted(values)}; expected {{-1,+1}}, {{0,1}} or {{1,2}}"
    )


def parse_libsvm(path, n_features=None):
    """Parse a LIBSVM file into a Dataset.

    ``n_features`` overrides the inferred dimension (the maximum index
    seen); it must not be smaller than that maximum.
    """
    data, indices, indptr = [], [], [0]
    raw_labels = []
    max_index = 0
    # undecodable bytes become lone surrogates, which no UTF-8 text holds
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not valid UTF-8 text", line=lineno) from None
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"non-numeric label {parts[0]!r}", line=lineno) from None
            prev_idx = 0
            for token in parts[1:]:
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise ParseError(f"malformed pair {token!r}", line=lineno)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(
                        f"non-numeric pair {token!r}", line=lineno
                    ) from None
                if idx <= prev_idx:
                    raise ParseError(
                        f"indices must be strictly increasing and 1-based, got {idx} after {prev_idx}",
                        line=lineno,
                    )
                prev_idx = idx
                indices.append(idx - 1)
                data.append(val)
            max_index = max(max_index, prev_idx)
            raw_labels.append(label)
            indptr.append(len(indices))
    if not raw_labels:
        raise DataError(f"no samples in {path}")
    d = max_index if n_features is None else int(n_features)
    if d < max_index:
        raise DataError(
            f"n_features={d} is smaller than the largest index {max_index}"
        )
    if d < 1:
        raise DataError("dataset has no features")
    if d > np.iinfo(np.intp).max:
        raise DataError(f"{d} features exceed the largest array index")
    n = len(raw_labels)
    features = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(n, d),
    )
    labels = _map_labels(np.array(raw_labels, dtype=float))
    return Dataset(features=features, labels=labels)
