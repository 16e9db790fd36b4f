"""Checkpointing of estimators between domains.

In the deployment scenario the paper motivates (data arrive over days or from
different subsidiaries), the learner must be persisted between arrivals: the
whole point of CERL is that *only* the model and the representation memory are
kept, never the raw data.  This module serialises exactly that state — the
configurations, the current module parameters, the scalers and (for CERL) the
memory buffer — into a single ``.npz`` archive, and restores a fully
functional estimator from it.

Two layers:

* :func:`save_cerl` / :func:`load_cerl` — the historical CERL-specific format
  (kept verbatim for back-compat; archives written before the estimator API
  carry no kind marker and load as CERL).
* :func:`save_estimator` / :func:`load_estimator` — the generic path the
  model registry uses.  CERL round-trips through the CERL codec; every other
  registered estimator provides ``state_arrays()`` / ``load_state_arrays()``
  hooks, and the archive's ``meta_json`` records its registry name as
  ``estimator_kind`` so :func:`load_estimator` can rebuild it through
  :func:`repro.core.api.make_estimator` — which is what lets the serving
  stack version and hot-swap any registered estimator without knowing its
  type.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..memory import MemoryBuffer
from ..utils import Standardizer, atomic_write, load_npz_mapped
from .cerl import CERL
from .config import ContinualConfig, ModelConfig
from .outcome import OutcomeHeads
from .representation import RepresentationNetwork

__all__ = [
    "save_cerl",
    "load_cerl",
    "save_estimator",
    "load_estimator",
    "save_modules",
    "load_modules",
    "module_checkpointer",
]

_FORMAT_VERSION = 1


def _flatten_state(prefix: str, state: dict) -> dict:
    return {f"{prefix}{name}": value for name, value in state.items()}


def _npz_path(path: Union[str, Path]) -> Path:
    """Append the ``.npz`` suffix only when it is missing.

    ``Path.with_suffix`` *replaces* the last dotted component, so a stem like
    ``model.v1`` would silently become ``model.npz`` and collide with other
    checkpoints; appending preserves every dot the caller put in the name.
    """
    path = Path(path)
    if path.suffix == ".npz":
        return path
    return path.with_name(path.name + ".npz")


def _atomic_savez(path: Path, arrays: dict, compressed: bool = True) -> None:
    """Write an ``.npz`` archive so the target is never partially written.

    A crash mid-save leaves either the previous checkpoint or none — never a
    truncated archive (see :func:`repro.utils.atomic_write`).  Saving through
    an open file handle also stops NumPy from appending its own ``.npz`` to
    the temporary name.  ``compressed=False`` stores members verbatim
    (``np.savez``), which is what makes them memory-mappable on load — see
    :func:`repro.utils.load_npz_mapped`.
    """
    savez = np.savez_compressed if compressed else np.savez
    with atomic_write(path) as tmp:
        with open(tmp, "wb") as handle:
            savez(handle, **arrays)


def save_modules(modules: dict, path: Union[str, Path]) -> Path:
    """Serialise named module state dicts to one ``.npz`` archive.

    ``modules`` maps a name to any :class:`repro.nn.Module`; the archive can
    be restored with :func:`load_modules`.  This is the primitive behind
    engine-level checkpointing (see :func:`module_checkpointer`).
    """
    path = _npz_path(path)
    arrays: dict = {}
    for name, module in modules.items():
        arrays.update(_flatten_state(f"{name}/", module.state_dict()))
    _atomic_savez(path, arrays)
    return path


def load_modules(modules: dict, path: Union[str, Path]) -> None:
    """Restore module parameters saved with :func:`save_modules` in place."""
    with np.load(Path(path), allow_pickle=False) as archive:
        for name, module in modules.items():
            module.load_state_dict(_extract(archive, f"{name}/"))


def module_checkpointer(modules: dict, directory: Union[str, Path], stem: str = "checkpoint"):
    """Build a ``save_fn`` for :class:`repro.engine.Checkpoint`.

    Returns a callable ``save_fn(epoch) -> Path`` writing
    ``<directory>/<stem>_epoch<k>.npz`` snapshots of the given modules, wiring
    the engine's checkpoint callback to this module's persistence format::

        trainer = Trainer(..., callbacks=[
            Checkpoint(module_checkpointer({"encoder": enc}, out_dir), every=10),
        ])
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def save_fn(epoch: int) -> Path:
        return save_modules(modules, directory / f"{stem}_epoch{epoch:04d}.npz")

    return save_fn


def save_cerl(learner: CERL, path: Union[str, Path], compressed: bool = True) -> Path:
    """Serialise a fitted CERL learner to ``path`` (``.npz`` archive).

    ``compressed=False`` writes members uncompressed so a later
    ``load_cerl(path, mmap_mode='r')`` can memory-map the large state (the
    representation memory, the scalers) zero-copy instead of inflating it —
    the trade serving deployments want (the registry uses it for every saved
    version).

    Raises
    ------
    RuntimeError
        If the learner has not observed any domain yet.
    """
    if learner.domains_seen == 0 or learner.encoder is None or learner.heads is None:
        raise RuntimeError("cannot save a CERL learner that has not observed any domain")
    path = _npz_path(path)

    meta = {
        "format_version": _FORMAT_VERSION,
        "n_features": learner.n_features,
        "domains_seen": learner.domains_seen,
        "model_config": asdict(learner.model_config),
        "continual_config": asdict(learner.continual_config),
    }
    arrays = {
        "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    arrays.update(_flatten_state("encoder/", learner.encoder.state_dict()))
    arrays.update(_flatten_state("heads/", learner.heads.state_dict()))

    if learner.encoder.scaler.is_fitted:
        arrays["scaler/covariates/mean"] = learner.encoder.scaler.mean_
        arrays["scaler/covariates/std"] = learner.encoder.scaler.std_
    if learner.outcome_scaler.is_fitted:
        arrays["scaler/outcomes/mean"] = learner.outcome_scaler.mean_
        arrays["scaler/outcomes/std"] = learner.outcome_scaler.std_

    if learner.memory is not None and len(learner.memory):
        arrays["memory/representations"] = learner.memory.representations
        arrays["memory/outcomes"] = learner.memory.outcomes
        arrays["memory/treatments"] = learner.memory.treatments

    _atomic_savez(path, arrays, compressed=compressed)
    return path


def _read_archive(path: Path, mmap_mode) -> dict:
    """Materialise an archive as a plain ``{name: array}`` mapping.

    With ``mmap_mode=None`` every member is read eagerly through ``np.load``
    (the historical behaviour).  With a mode, uncompressed members become
    ``np.memmap`` views of the archive file — zero-copy, page-cache-shared
    across worker processes — via :func:`repro.utils.load_npz_mapped`;
    compressed members are read eagerly either way (``np.load`` itself
    silently ignores ``mmap_mode`` for zip archives, so this is the only
    honest mapping path).
    """
    if mmap_mode is not None:
        return load_npz_mapped(path, mode=mmap_mode)
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def load_cerl(path: Union[str, Path], mmap_mode: Optional[str] = None) -> CERL:
    """Restore a CERL learner saved with :func:`save_cerl`.

    The restored learner can continue observing new domains and predicting for
    all previously seen domains, exactly as the original instance could.

    Parameters
    ----------
    path:
        The ``.npz`` archive.
    mmap_mode:
        ``None`` (default) loads eagerly.  ``'r'`` memory-maps the archive's
        uncompressed members read-only — the representation memory and the
        scalers are *adopted* as mapped views (zero-copy; shard workers use
        this so N workers loading the same checkpoint share one page-cache
        copy), while module parameters are copied into the layers as always.
        Predictions are bit-identical either way; on POSIX a held mapping
        survives the archive being atomically replaced on disk.
    """
    archive, meta = _open_checkpoint(path, mmap_mode)
    return _load_cerl_from(archive, meta)


def _open_checkpoint(path: Union[str, Path], mmap_mode: Optional[str]) -> tuple:
    """Read an archive and its validated ``meta_json`` header."""
    archive = _read_archive(Path(path), mmap_mode)
    meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {meta.get('format_version')!r}; "
            f"expected {_FORMAT_VERSION}"
        )
    return archive, meta


def _model_config(meta: dict) -> ModelConfig:
    """The archived :class:`ModelConfig`, minus the one retired field.

    Archives written while training could run on a compile-and-replay tape
    record which of the two paths trained them.  Both paths trained
    bit-identical parameters, so that key is dropped and such archives load
    unchanged.  Any other unknown key still raises ``TypeError``.
    """
    fields = {key: value for key, value in meta["model_config"].items() if key != "backend"}
    return ModelConfig(**fields)


def _load_cerl_from(archive: dict, meta: dict) -> CERL:
    model_config = _model_config(meta)
    continual_config = ContinualConfig(**meta["continual_config"])
    learner = CERL(meta["n_features"], model_config, continual_config)

    rng = np.random.default_rng(model_config.seed)
    encoder = RepresentationNetwork(
        in_features=meta["n_features"],
        representation_dim=model_config.representation_dim,
        hidden_sizes=model_config.encoder_hidden,
        activation=model_config.activation,
        use_cosine_norm=model_config.use_cosine_norm,
        standardize=model_config.standardize_covariates,
        l1_ratio=model_config.elastic_net_l1_ratio,
        rng=rng,
    )
    heads = OutcomeHeads(
        representation_dim=model_config.representation_dim,
        hidden_sizes=model_config.outcome_hidden,
        activation=model_config.activation,
        rng=rng,
    )
    encoder.load_state_dict(_extract(archive, "encoder/"))
    heads.load_state_dict(_extract(archive, "heads/"))

    if "scaler/covariates/mean" in archive:
        encoder.scaler.mean_ = archive["scaler/covariates/mean"]
        encoder.scaler.std_ = archive["scaler/covariates/std"]
    outcome_scaler = Standardizer()
    if "scaler/outcomes/mean" in archive:
        outcome_scaler.mean_ = archive["scaler/outcomes/mean"]
        outcome_scaler.std_ = archive["scaler/outcomes/std"]

    memory = None
    if "memory/representations" in archive:
        memory = MemoryBuffer(
            archive["memory/representations"],
            archive["memory/outcomes"],
            archive["memory/treatments"],
        )

    learner.encoder = encoder
    learner.heads = heads
    learner.outcome_scaler = outcome_scaler
    learner.memory = memory
    learner.domains_seen = int(meta["domains_seen"])
    return learner


def _extract(archive: dict, prefix: str) -> dict:
    return {
        key[len(prefix):]: value
        for key, value in archive.items()
        if key.startswith(prefix)
    }


# --------------------------------------------------------------------------- #
# generic estimator checkpoints (the model-registry path)
# --------------------------------------------------------------------------- #
def save_estimator(learner, path: Union[str, Path], compressed: bool = True) -> Path:
    """Serialise any registered estimator to ``path`` (``.npz`` archive).

    CERL goes through :func:`save_cerl` unchanged (same archive layout as
    every checkpoint written before the estimator API existed).  Any other
    estimator must expose ``state_arrays()`` / ``load_state_arrays()`` plus
    the protocol attributes (``name``, ``n_features``, ``domains_seen``,
    ``model_config``); its archive records the registry name as
    ``estimator_kind`` so :func:`load_estimator` can rebuild it by name.

    ``compressed=False`` keeps members memory-mappable on load, exactly as
    for :func:`save_cerl`.
    """
    if isinstance(learner, CERL):
        return save_cerl(learner, path, compressed=compressed)
    if not hasattr(learner, "state_arrays") or not hasattr(learner, "load_state_arrays"):
        raise TypeError(
            f"{type(learner).__name__} does not implement the estimator "
            "checkpoint hooks (state_arrays/load_state_arrays)"
        )
    if learner.domains_seen == 0:
        raise RuntimeError(
            "cannot save an estimator that has not observed any domain"
        )
    path = _npz_path(path)

    continual_config = getattr(learner, "continual_config", None)
    meta = {
        "format_version": _FORMAT_VERSION,
        "estimator_kind": learner.name,
        "n_features": learner.n_features,
        "domains_seen": learner.domains_seen,
        "model_config": asdict(learner.model_config),
        "continual_config": asdict(continual_config) if continual_config else None,
    }
    arrays = {
        "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    arrays.update(learner.state_arrays())
    _atomic_savez(path, arrays, compressed=compressed)
    return path


def load_estimator(path: Union[str, Path], mmap_mode: Optional[str] = None):
    """Restore any estimator saved with :func:`save_estimator`.

    The archive's ``estimator_kind`` selects the registry builder; archives
    without a kind marker predate the estimator API and load as CERL.
    ``mmap_mode`` behaves exactly as for :func:`load_cerl` (module parameters
    are copied into layers; large flat arrays are adopted as mapped views).
    """
    archive, meta = _open_checkpoint(path, mmap_mode)
    kind = meta.get("estimator_kind", "CERL")
    if kind.strip().upper() == "CERL":
        return _load_cerl_from(archive, meta)

    from .api import make_estimator

    model_config = _model_config(meta)
    continual_config = (
        ContinualConfig(**meta["continual_config"])
        if meta.get("continual_config")
        else None
    )
    learner = make_estimator(kind, meta["n_features"], model_config, continual_config)
    learner.load_state_arrays(archive)
    learner.domains_seen = int(meta["domains_seen"])
    return learner
