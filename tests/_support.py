"""Shared helpers for the test modules."""

import collections
import json
import struct

import numpy as np

import qckt.errors
import qckt.model as qm

# every exception class the package defines: the only ones its loaders raise
PACKAGE_ERRORS = tuple(
    v for v in vars(qckt.errors).values() if isinstance(v, type) and issubclass(v, Exception)
)

FakeInteraction = collections.namedtuple("FakeInteraction", "question kcs response")


def make_seq(rng, length, n, m, max_kcs=3):
    out = []
    for _ in range(length):
        q = int(rng.integers(n))
        size = int(rng.integers(1, min(max_kcs, m) + 1))
        kcs = tuple(int(k) for k in rng.choice(m, size=size, replace=False))
        out.append(FakeInteraction(q, kcs, int(rng.integers(2))))
    return out


def random_params(cfg, seed, scale=0.05):
    """Generic-position parameters for finite-difference comparisons.

    The training init puts many biases exactly at zero, which parks relu
    preactivations on their kink; central differences then step across the
    kink and disagree with the subgradient for reasons that are not bugs.
    Adding continuous noise to every tensor makes exact-kink events have
    probability zero.
    """
    p = qm.Parameters.init(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    return qm.Parameters(
        cfg, {k: v + rng.normal(0.0, scale, size=v.shape) for k, v in p.items()}
    )


def with_header(blob, edit):
    """A checkpoint whose JSON header has gone through ``edit``."""
    start = len(qm.CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", blob, len(qm.CHECKPOINT_MAGIC))
    header = json.loads(blob[start : start + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    return qm.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + blob[start + hlen :]
