"""Output checks. Each takes plain values and raises CheckFailed on a wrong
output; selftest.py shows that each one fails on a corrupted output."""

import numpy as np

# float64 forwards that differ only in the order of operations agree to
# ~1e-14; 1e-9 leaves room for that and nothing else
TOL = 1e-9


class CheckFailed(Exception):
    pass


def _agree(what, got, want, tol=TOL):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    if not err <= tol * scale:
        raise CheckFailed(f"{what}: max error {err:.3g} > {tol:g} x {scale:.3g}")


def forward_matches(program_out, reference_out):
    """The program's eval-mode outputs equal the NumPy reference forward."""
    _agree("eval-mode outputs vs reference", program_out, reference_out)


def loss_matches(what, program_loss, reference_loss):
    _agree(what, program_loss, reference_loss)


def directional_derivative(loss_at, arrays, grads, rng, steps=(1e-5, 1e-6, 1e-7), tol=1e-6):
    """Central difference of loss_at() along one random unit direction equals
    the analytic gradient's projection on it, at one of the step sizes.

    A ReLU or batch-norm kink within a step of the point spoils the larger
    steps; a wrong gradient is off at every step. arrays: the parameter
    arrays loss_at() reads, perturbed in place and restored; grads: the
    analytic gradient of each.
    """
    dirs = [rng.standard_normal(a.shape) for a in arrays]
    norm = np.sqrt(sum(float((u * u).sum()) for u in dirs))
    dirs = [u / norm for u in dirs]
    analytic = sum(float((g * u).sum()) for g, u in zip(grads, dirs))
    saved = [a.copy() for a in arrays]
    numerics = []
    try:
        for eps in steps:
            values = []
            for sign in (1.0, -1.0):
                for a, s, u in zip(arrays, saved, dirs):
                    a[...] = s + sign * eps * u
                values.append(loss_at())
            numeric = (values[0] - values[1]) / (2 * eps)
            if abs(numeric - analytic) <= tol * max(abs(analytic), abs(numeric), 1e-8):
                return
            numerics.append(f"{numeric:.10g} at step {eps:g}")
    finally:
        for a, s in zip(arrays, saved):
            a[...] = s
    raise CheckFailed(f"directional derivative: analytic {analytic:.10g} vs central "
                      f"difference {', '.join(numerics)}")


def adaptation_lowers_loss(adapted_loss, start_loss):
    if not adapted_loss < start_loss:
        raise CheckFailed(f"held-out MLM loss {adapted_loss:.6f} after adaptation "
                          f"is not below the starting model's {start_loss:.6f}")


def best_checkpoint(curve, provenance, selected_val_loss):
    """The selected checkpoint is the first point with the lowest val loss,
    and its val loss, recomputed, is the one the curve recorded.

    curve: (stage, epoch, val_loss) triples in training order.
    """
    best = min(range(len(curve)), key=lambda i: (curve[i][2], i))
    stage, epoch, val_loss = curve[best]
    if (provenance.get("stage"), provenance.get("epoch")) != (stage, epoch):
        raise CheckFailed(f"selected {provenance.get('stage')} epoch "
                          f"{provenance.get('epoch')}, lowest val loss is "
                          f"{stage} epoch {epoch}")
    _agree("recorded val loss of the selected checkpoint", provenance.get("val_loss"), val_loss)
    _agree("recomputed val loss of the selected checkpoint", selected_val_loss, val_loss)


def frozen_encoder_unchanged(provenance, start, selected):
    """When the selected checkpoint comes from the frozen stage, every encoder
    parameter is bit-identical to the starting model's.

    start, selected: encoder parameter name -> ndarray.
    """
    if provenance.get("stage") != "frozen":
        return
    changed = sorted(n for n in start if not np.array_equal(start[n], selected[n]))
    if changed or set(start) != set(selected):
        raise CheckFailed(f"frozen-stage checkpoint changed encoder parameters {changed[:3]}")


def decodes_back(pairs):
    """pairs: (decoded text, normalized source text)."""
    bad = [i for i, (got, want) in enumerate(pairs) if got != want]
    if bad:
        raise CheckFailed(f"{len(bad)} encodings do not decode back, first at {bad[0]}")


def chunks_cover_stream(stream, chunks, chunk_size):
    """The chunks are the token stream cut into floor(len / size) full blocks."""
    if len(chunks) != len(stream) // chunk_size:
        raise CheckFailed(f"{len(chunks)} chunks from {len(stream)} tokens "
                          f"at size {chunk_size}")
    joined = [t for c in chunks for t in c]
    if joined != list(stream[:len(joined)]):
        raise CheckFailed("chunks are not the token stream in order")


def tfidf_matches(program_vectors, reference_vectors, term_index, reference_terms):
    """program_vectors: dense rows over term_index; reference_vectors:
    term -> weight dicts."""
    if set(term_index) != reference_terms:
        raise CheckFailed("TF-IDF term space differs from the training terms")
    for row, ref in zip(program_vectors, reference_vectors):
        dense = np.zeros(len(term_index))
        for t, w in ref.items():
            dense[term_index[t]] = w
        _agree("TF-IDF vector", row, dense)


def f1_at_least(f1, floor):
    if not f1 >= floor:
        raise CheckFailed(f"test F1 {f1:.4f} below {floor}")
