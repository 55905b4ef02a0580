"""ResultSet.lines() as it formatted one object array of label texts per
leaf column and joined the columns with per-row string concatenation,
before printing moved to one byte matrix.  Kept verbatim as the oracle
for the byte formatter: both must print the same lines for every
answer matrix.
"""

import numpy as np


def lines(rs) -> list[str]:
    """One tab-separated line of dotted leaf labels per answer."""
    line = _dotted(rs.pg, rs.leaves[:, 0])
    for j in range(1, rs.leaves.shape[1]):
        line = line + "\t" + _dotted(rs.pg, rs.leaves[:, j])
    return line.tolist()


def _dotted(pg, ids: np.ndarray) -> np.ndarray:
    """The label of each row id as text, ε for the root's empty label,
    in an object array; each distinct row and component value is
    formatted once."""
    block, depth, at = pg.label_block(ids)
    values, word = np.unique(block, return_inverse=True)
    words = np.array(list(map(str, values.tolist())), dtype=object)[word.reshape(block.shape)]
    text = np.full(len(block), "ε", dtype=object)
    for c in range(block.shape[1]):
        text = np.where(depth > c, text + "." + words[:, c] if c else words[:, c], text)
    return text[at]
