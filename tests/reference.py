"""Reference implementations kept for the tests: the pure-Python pair
loops of the realization sweep, the dict-of-dicts intersection builder, and
the dense r x r x r intersection array. They read the intersection data
only through slice(), star() and iter_nonzero(), so they run against
tensors and symmetric-power views alike."""

import numpy as np

from ccmm.realization import RealizationInvalid, _check_injective

DENSE_TENSOR_CAP = 512


def dense(t):
    """The intersection numbers as an r x r x r array, below a rank cap."""
    if t.rank > DENSE_TENSOR_CAP:
        raise ValueError("rank %d exceeds dense cap %d" % (t.rank, DENSE_TENSOR_CAP))
    out = np.zeros((t.rank, t.rank, t.rank), dtype=np.int64)
    for i, j, k, p in t.iter_nonzero():
        out[i, j, k] = p
    return out


def dict_tensor(config):
    """{(i, j, k): p} from one column profile per class, as the first
    builder computed it."""
    M = config.matrix.astype(np.int64)
    r = config.rank
    out = {}
    for k in range(r):
        x, y = config.rep_pair(k)
        keys, counts = np.unique(M[x] * r + M[:, y], return_counts=True)
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            i, j = divmod(key, r)
            out[(i, j, k)] = cnt
    return out


def loop_verify_realization(t, real):
    """verify_realization as a loop over (a, b') x (b, c')."""
    l, m, n = real.dims
    for name, arr in (("alpha", real.alpha), ("beta", real.beta), ("gamma", real.gamma)):
        _check_injective(name, arr)
    owner = {}
    for c in range(n):
        for a in range(l):
            owner[t.star(int(real.gamma[c, a]))] = (c, a)
    for a in range(l):
        for bp in range(m):
            i = int(real.alpha[a, bp])
            for b in range(m):
                for cp in range(n):
                    j = int(real.beta[b, cp])
                    zs = {owner[kp] for kp in t.slice(i, j) if kp in owner}
                    want = {(cp, a)} if b == bp else set()
                    if zs == want:
                        continue
                    extra = zs - want
                    if extra:
                        c, ap = sorted(extra)[0]
                        raise RealizationInvalid(
                            ("triangle", a, ap, b, bp, c, cp, "extra"),
                            "unexpected triangle for a=%d a'=%d b=%d b'=%d "
                            "c=%d c'=%d" % (a, ap, b, bp, c, cp),
                        )
                    c, ap = sorted(want - zs)[0]
                    raise RealizationInvalid(
                        ("triangle", a, ap, b, bp, c, cp, "missing"),
                        "matched triple is not a triangle for a=%d a'=%d "
                        "b=%d b'=%d c=%d c'=%d" % (a, ap, b, bp, c, cp),
                    )
    return True


def loop_verify_simultaneous(t, reals):
    """verify_simultaneous as a loop over (ia, a, b') x (ib, b, c')."""
    reals = list(reals)
    for slot in ("alpha", "beta", "gamma"):
        seen = {}
        for ci, real in enumerate(reals):
            arr = getattr(real, slot)
            _check_injective("%s[%d]" % (slot, ci), arr)
            for v in arr.reshape(-1).tolist():
                if v in seen and seen[v] != ci:
                    raise RealizationInvalid(
                        ("disjoint", slot, seen[v], ci, v),
                        "%s images of components %d and %d share class %d"
                        % (slot, seen[v], ci, v),
                    )
                seen[v] = ci
    owner = {}
    for ci, real in enumerate(reals):
        nn, ll = real.gamma.shape
        for c in range(nn):
            for a in range(ll):
                owner[t.star(int(real.gamma[c, a]))] = (ci, c, a)
    for ia, ra in enumerate(reals):
        la, ma = ra.alpha.shape
        for a in range(la):
            for bp in range(ma):
                i = int(ra.alpha[a, bp])
                for ib, rb in enumerate(reals):
                    mb, nb = rb.beta.shape
                    for b in range(mb):
                        for cp in range(nb):
                            j = int(rb.beta[b, cp])
                            zs = {owner[kp] for kp in t.slice(i, j) if kp in owner}
                            want = {(ia, cp, a)} if ia == ib and b == bp else set()
                            if zs != want:
                                raise RealizationInvalid(
                                    (
                                        "triangle",
                                        (ia, a),
                                        (ib, b, bp),
                                        (cp,),
                                        sorted(zs - want or want - zs)[0],
                                    ),
                                    "simultaneous triangle condition fails "
                                    "between components %d and %d at "
                                    "a=%d b'=%d b=%d c'=%d"
                                    % (ia, ib, a, bp, b, cp),
                                )
    return True
