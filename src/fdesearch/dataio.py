"""Binary and text artifact formats.

* ``.mvec``: multi-vector embeddings. Header: magic ``MVEC``, version u32,
  dim u32, count u64. Per record: id u64, num_tokens u32, then
  num_tokens*dim little-endian float32 values.
* index file: magic ``MVIX``, version u32, a length-prefixed JSON header
  (encoding config, fingerprint, storage kind, shapes), doc ids as u64,
  optional k-means partition centers (f64), then the payload: dense f32
  encodings, or a PQ codebook (f64 centers + u16 effective center counts)
  followed by u8 codes, one row of num_groups bytes per document (the
  PQ scan holds them group-major, see pq.py).
* qrels: tab-separated ``query_id<TAB>doc_id<TAB>grade`` lines.
* run: tab-separated ``query_id<TAB>doc_id<TAB>rank<TAB>score`` lines;
  ``#`` lines carry the resolved configuration that produced the run.
* config: flat ``key=value`` text. Dataclass fields are written and read
  back through their annotations (:func:`fields_from_text`): ``None`` is an
  empty value, a tuple is ``a:b``, a bool is ``True``/``False``.

Binary readers validate magic/version and report truncation with byte
offsets. They read from the open file: each section's size is checked
against the file's size before its array is allocated, and the section is
then read straight into that array (PQ codes through one small block, as
they are transposed to the group-major layout). The writers write each
section straight from its array. So neither side holds a second copy of
the file. write-then-read round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import types
import typing
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoding import PARAM_NAMES, FdeConfig, config_fingerprint, config_params, fde_dim
from .engine import FdeIndex
from .partition import KMeansPartitioner
from .pq import PqCodebook

MVEC_MAGIC = b"MVEC"
INDEX_MAGIC = b"MVIX"
FORMAT_VERSION = 1
_BLOCK_BYTES = 1 << 16  # PQ codes are written and read through row blocks of about this size


class _Reader:
    """Cursor over an open binary file, with offset-aware truncation errors.

    Each section's size is checked against the file's size before anything
    is allocated for it, so a corrupt count cannot make the reader allocate
    past what the file holds. Arrays are read straight into their own
    memory (readinto); a read that comes back short, because the file
    shrank while it was read, raises the same truncation error.
    """

    def __init__(self, f, path):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0
        self.path = str(path)

    def _truncated(self, n: int, what: str, remain: int) -> ValueError:
        return ValueError(f"{self.path}: truncated file reading {what}: need {n} bytes at offset "
                          f"{self.off}, only {remain} remain")

    def _check(self, n: int, what: str) -> None:
        if self.off + n > self.size:
            raise self._truncated(n, what, self.size - self.off)

    def _consume(self, got: int, n: int, what: str) -> None:
        if got < n:
            raise self._truncated(n, what, got)
        self.off += n

    def take(self, n: int, what: str) -> bytes:
        self._check(n, what)
        data = self.f.read(n)
        self._consume(len(data), n, what)
        return data

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def into(self, out: np.ndarray, what: str) -> np.ndarray:
        """Fill the C-contiguous array out with the next out.nbytes bytes."""
        self._check(out.nbytes, what)
        self._consume(self.f.readinto(out), out.nbytes, what)
        return out

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next count values, read into a new array."""
        dt = np.dtype(dtype)
        self._check(dt.itemsize * count, what)  # before the array is allocated
        return self.into(np.empty(count, dtype=dt), what)

    def transposed(self, rows: int, cols: int, what: str) -> np.ndarray:
        """The next (rows, cols) u1 matrix, returned as its (cols, rows) C-contiguous transpose.

        It is read through one block of about _BLOCK_BYTES, so no second
        copy of the section is held.
        """
        self._check(rows * cols, what)
        out = np.empty((cols, rows), dtype=np.uint8)
        step = max(1, _BLOCK_BYTES // cols)
        block = np.empty((min(step, rows), cols), dtype=np.uint8)
        for lo in range(0, rows, step):
            part = self.into(block[:min(step, rows - lo)], what)
            out[:, lo:lo + len(part)] = part.T
        return out

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic), "magic")
        if got != magic:
            raise ValueError(f"{self.path}: bad magic {got!r} at offset 0: expected {magic!r}")

    def expect_version(self) -> None:
        v = self.u32("version")
        if v != FORMAT_VERSION:
            raise ValueError(f"{self.path}: unsupported format version {v} at offset 4: expected {FORMAT_VERSION}")

    def done(self) -> None:
        if self.off != self.size:
            raise ValueError(f"{self.path}: {self.size - self.off} unexpected trailing bytes at offset {self.off}")


def write_mvec(path, records: Sequence) -> None:
    """Write (id, matrix) records; all matrices must share one dimension.

    Every record is checked before the file is opened; each matrix is then
    written straight from its own memory when it is float32.
    """
    if len(records) == 0:
        raise ValueError("no records to write")
    mats = [np.asarray(m) for _, m in records]
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise ValueError(f"records have mixed dimensions: {sorted(dims)}")
    dim = dims.pop()
    heads = []
    for (doc_id, _), mat in zip(records, mats):
        if mat.shape[0] < 1:
            raise ValueError(f"record {doc_id} has no tokens")
        heads.append(struct.pack("<QI", int(doc_id), mat.shape[0]))
    with open(path, "wb") as f:
        f.write(MVEC_MAGIC + struct.pack("<IIQ", FORMAT_VERSION, dim, len(records)))
        for head, mat in zip(heads, mats):
            f.write(head)
            f.write(np.ascontiguousarray(mat, dtype="<f4"))


def _normalize_rows(mat: np.ndarray, where: str) -> np.ndarray:
    """mat with every row divided by its norm, as float32; a zero row raises ValueError."""
    norms = np.linalg.norm(mat.astype(np.float64), axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError(f"{where} has a zero row; cannot normalize")
    return (mat / norms).astype(np.float32)


def read_mvec(path, normalize: bool = False) -> list:
    """Read (id, float32 matrix) records; normalize divides rows by their norm."""
    with open(path, "rb") as f:
        rd = _Reader(f, path)
        rd.expect_magic(MVEC_MAGIC)
        rd.expect_version()
        dim = rd.u32("dimension")
        count = rd.u64("record count")
        if dim < 1:
            raise ValueError(f"{path}: dimension must be >= 1, got {dim}")
        records = []
        for i in range(count):
            doc_id = rd.u64(f"record {i} id")
            ntok = rd.u32(f"record {i} token count")
            if ntok < 1:
                raise ValueError(f"{path}: record {i} (id {doc_id}) has num_tokens={ntok}, must be >= 1")
            mat = rd.array("<f4", ntok * dim, f"record {i} values").reshape(ntok, dim)
            records.append((doc_id, _normalize_rows(mat, f"{path}: record {i} (id {doc_id})") if normalize else mat))
        rd.done()
    return records


def read_text_embeddings(path, normalize: bool = False) -> list:
    """One-way text import: each line ``id v1 v2 ... vd``.

    Consecutive lines sharing an id form one document, in line order.
    normalize divides rows by their norm, as read_mvec does.
    """
    records = []
    cur_id, cur_rows = None, []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                doc_id = int(parts[0])
                row = [float(x) for x in parts[1:]]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: expected 'id float float ...': {e}") from None
            if not row:
                raise ValueError(f"{path}:{lineno}: no values after the id")
            if doc_id != cur_id and cur_id is not None:
                records.append((cur_id, np.asarray(cur_rows, dtype=np.float32)))
                cur_rows = []
            cur_id = doc_id
            cur_rows.append(row)
    if cur_id is not None:
        records.append((cur_id, np.asarray(cur_rows, dtype=np.float32)))
    if not records:
        raise ValueError(f"{path}: no embeddings found")
    dims = {m.shape[1] for _, m in records}
    if len(dims) != 1:
        raise ValueError(f"{path}: lines have mixed dimensions: {sorted(dims)}")
    if normalize:
        records = [(i, _normalize_rows(m, f"{path}: document {i}")) for i, m in records]
    return records


def _field_types(cls, names: Sequence[str]) -> dict:
    """Each named field of dataclass cls mapped to the types its annotation allows."""
    hints = typing.get_type_hints(cls)
    union = (typing.Union, types.UnionType)
    return {n: typing.get_args(hints[n]) if typing.get_origin(hints[n]) in union else (hints[n],) for n in names}


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _from_text(allowed: tuple, text: str):
    for t in allowed:
        try:
            if t is type(None):
                if text in ("", "None"):
                    return None
            elif t is bool:
                return _BOOLS[text.lower()]
            elif typing.get_origin(t) is tuple:  # a:b
                parts, item_types = text.split(":"), typing.get_args(t)
                if len(parts) == len(item_types):
                    return tuple(it(p) for it, p in zip(item_types, parts))
            else:
                return t(text)
        except (KeyError, ValueError):
            pass
    raise ValueError(f"cannot parse {text!r} as {' or '.join(t.__name__ for t in allowed)}")


def _to_text(value) -> str:
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    return "" if value is None else str(value)


def fields_from_text(cls, raw: Mapping, where, names: Sequence[str] | None = None) -> dict:
    """Typed values for the dataclass fields named in a key=value mapping.

    Keys must be fields of cls (or among names, when given); values are
    parsed by the field annotations. An unknown key or a value that does not
    parse raises ValueError naming where.
    """
    allowed = _field_types(cls, names or [f.name for f in dataclasses.fields(cls)])
    out = {}
    for key, text in raw.items():
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of {', '.join(allowed)}")
        try:
            out[key] = _from_text(allowed[key], text)
        except ValueError as e:
            raise ValueError(f"{where}: {key}: {e}") from None
    return out


def _header_value(obj, key: str, allowed: tuple, path, where: str = ""):
    """obj[key] from a JSON header, checked against the allowed exact types."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{path}: index header has no {where}{key}")
    value = obj[key]
    if type(value) not in allowed:  # exact: JSON true is not an int here
        raise ValueError(f"{path}: index header {where}{key} is {type(value).__name__}, "
                         f"expected {' or '.join(t.__name__ for t in allowed)}")
    return value


def _header_count(obj, key: str, path, where: str = "", least: int = 0) -> int:
    value = _header_value(obj, key, (int,), path, where)
    if value < least:
        raise ValueError(f"{path}: index header {where}{key}={value} must be >= {least}")
    return value


_CONFIG_TYPES = _field_types(FdeConfig, PARAM_NAMES)


def _config_from_header(header, path) -> FdeConfig:
    """The config of an index header, without k-means partitioners.

    d_proj and d_final may be null (files that stored an unresolved d_proj).
    """
    obj = _header_value(header, "config", (dict,), path)
    unknown = sorted(set(obj) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(f"{path}: index header config has unknown keys {unknown}")
    return FdeConfig(**{name: _header_value(obj, name, allowed, path, "config.")
                        for name, allowed in _CONFIG_TYPES.items()})


def write_index(path, index: FdeIndex) -> None:
    """Serialize an index; the raw corpus is not stored."""
    header = {
        "config": config_params(index.config),
        "fingerprint": index.fingerprint,
        "num_docs": index.num_docs,
        "fde_dim": index.fde_dim,
        "storage": index.storage,
    }
    if index.config.kmeans_partitioners is not None:
        header["kmeans"] = {"b": index.config.num_clusters}
    if index.codebook is not None:
        header["pq"] = {"num_groups": index.codebook.num_groups,
                        "c": index.codebook.num_centers, "g": index.codebook.group_dim}
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # each section is written straight from its array; the ids are stored as u64, whose bytes int64 shares
    sections = [np.ascontiguousarray(index.doc_ids, dtype="<i8")]
    if index.config.kmeans_partitioners is not None:
        sections += [np.ascontiguousarray(p.centers, dtype="<f8") for p in index.config.kmeans_partitioners]
    if index.dense is not None:
        sections.append(np.ascontiguousarray(index.dense, dtype="<f4"))
    else:
        sections.append(np.ascontiguousarray(index.codebook.effective_c, dtype="<u2"))
        sections.append(np.ascontiguousarray(index.codebook.centers, dtype="<f8"))
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC + struct.pack("<II", FORMAT_VERSION, len(hdr)) + hdr)
        for section in sections:
            f.write(section)
        if index.codes is not None:  # (n, groups) rows, through row blocks of the group-major matrix
            step = max(1, _BLOCK_BYTES // index.codebook.num_groups)
            for lo in range(0, index.num_docs, step):
                f.write(np.ascontiguousarray(index.codes[lo:lo + step], dtype="u1"))


def read_index(path, corpus_records: Sequence | None = None) -> FdeIndex:
    """Load an index; pass mvec records to attach the corpus for reranking."""
    with open(path, "rb") as f:
        rd = _Reader(f, path)
        rd.expect_magic(INDEX_MAGIC)
        rd.expect_version()
        hdr_len = rd.u32("header length")
        header = json.loads(rd.take(hdr_len, "header").decode())
        config = _config_from_header(header, path)
        fingerprint = _header_value(header, "fingerprint", (str,), path)
        num_docs = _header_count(header, "num_docs", path)
        dim = _header_count(header, "fde_dim", path)
        storage = _header_value(header, "storage", (str,), path)
        if storage not in ("dense", "pq"):
            raise ValueError(f"{path}: index header storage must be 'dense' or 'pq', got {storage!r}")
        for section, present in (("kmeans", config.partitioner == "kmeans"), ("pq", storage == "pq")):
            if present:
                _header_value(header, section, (dict,), path)
            elif section in header:
                raise ValueError(f"{path}: index header has a {section} section its config does not use")

        doc_ids = rd.array("<i8", num_docs, "doc ids")  # stored as u64, whose bytes int64 shares
        if config.partitioner == "kmeans":
            b = _header_count(header["kmeans"], "b", path, "kmeans.", least=1)
            partitioners = tuple(KMeansPartitioner(centers=rd.array("<f8", b * config.dim, f"kmeans centers rep {rep}")
                                                   .reshape(b, config.dim)) for rep in range(config.r_reps))
            config = dataclasses.replace(config, kmeans_partitioners=partitioners)
        if config_fingerprint(config) != fingerprint:
            raise ValueError(f"{path}: stored fingerprint does not match the stored config; file is corrupt")
        if dim != fde_dim(config):
            raise ValueError(f"{path}: index header fde_dim={dim} does not match its config ({fde_dim(config)})")

        if storage == "dense":
            dense = rd.array("<f4", num_docs * dim, "encodings").reshape(num_docs, dim)
            index = FdeIndex(doc_ids, config, dense=dense)
        else:
            groups, c, g = (_header_count(header["pq"], key, path, "pq.", least=1) for key in ("num_groups", "c", "g"))
            if groups * g != dim or c > 256:
                raise ValueError(f"{path}: index header pq shape ({groups} groups x {g} dims, {c} centers) "
                                 f"does not fit fde_dim={dim} with one-byte codes")
            effective = rd.array("<u2", groups, "effective center counts").astype(np.int64)
            centers = rd.array("<f8", groups * c * g, "codebook").reshape(groups, c, g)
            codes = rd.transposed(num_docs, groups, "codes").T  # group-major, as the scan holds them
            codebook = PqCodebook(centers=centers, effective_c=effective)
            index = FdeIndex(doc_ids, config, codebook=codebook, codes=codes)
        rd.done()

    if corpus_records is not None:
        by_id = {int(i): m for i, m in corpus_records}
        if len(by_id) != len(corpus_records):
            repeated = sorted(i for i, n in Counter(int(i) for i, _ in corpus_records).items() if n > 1)
            raise ValueError(f"{path}: corpus records repeat doc ids, e.g. {repeated[:5]}")
        missing = [int(d) for d in doc_ids if int(d) not in by_id]
        if missing:
            raise ValueError(f"{path}: corpus records missing indexed doc ids, e.g. {missing[:5]}")
        index.attach_corpus([by_id[int(d)] for d in doc_ids])
    return index


def write_qrels(path, qrels: Mapping) -> None:
    lines = []
    for qid in sorted(qrels):
        entry = qrels[qid]
        items = entry.items() if isinstance(entry, Mapping) else ((d, 1) for d in entry)
        for doc_id, grade in sorted(items):
            lines.append(f"{int(qid)}\t{int(doc_id)}\t{int(grade)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_qrels(path) -> dict:
    qrels: dict[int, dict[int, int]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'query<TAB>doc<TAB>grade', got {line!r}")
        qid, doc_id, grade = (int(x) for x in fields)
        if grade < 1:
            raise ValueError(f"{path}:{lineno}: grade must be >= 1, got {grade}")
        qrels.setdefault(qid, {})[doc_id] = grade
    return qrels


def write_run(path, run: Mapping, meta: Mapping | None = None) -> None:
    """run maps query id -> ranked [(doc_id, score)] or [doc_id]."""
    lines = []
    for key in sorted((meta or {})):
        lines.append(f"# {key}={(meta or {})[key]}")
    for qid in sorted(run):
        for rank, item in enumerate(run[qid], 1):
            doc_id, score = item if isinstance(item, tuple) else (item, 0.0)
            lines.append(f"{int(qid)}\t{int(doc_id)}\t{rank}\t{float(score)!r}")  # repr reads back exactly
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_run(path) -> tuple[dict, dict]:
    """Returns (meta, run) with run mapping query id -> [(doc_id, score)]."""
    meta: dict[str, str] = {}
    rows: dict[int, list[tuple[int, int, float]]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'query<TAB>doc<TAB>rank<TAB>score', got {line!r}")
        qid, doc_id, rank = int(fields[0]), int(fields[1]), int(fields[2])
        rows.setdefault(qid, []).append((rank, doc_id, float(fields[3])))
    run = {qid: [(doc_id, score) for _, doc_id, score in sorted(entries)]
           for qid, entries in rows.items()}
    return meta, run


def write_config_file(path, values: Mapping) -> None:
    """Write sorted key=value lines; values are formatted as fields_from_text reads them."""
    lines = [f"{k}={_to_text(values[k])}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config_file(path) -> dict:
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key=value', got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def inspect_path(path) -> str:
    """Human-readable summary of any artifact file."""
    p = Path(path)
    with open(p, "rb") as f:
        head = f.read(4)
    if head == MVEC_MAGIC:
        records = read_mvec(p)
        tokens = [m.shape[0] for _, m in records]
        return (f"mvec file: {len(records)} records, dim {records[0][1].shape[1]}, "
                f"tokens per record min/mean/max = {min(tokens)}/{sum(tokens) / len(tokens):.1f}/{max(tokens)}")
    if head == INDEX_MAGIC:
        index = read_index(p)
        rows = {"num_docs": index.num_docs, **config_params(index.config), "fde_dim": index.fde_dim,
                "storage": index.storage, "bytes/doc": index.payload_bytes_per_doc,
                "fingerprint": index.fingerprint}
        return "\n".join(["index file:"] + [f"  {k:<12} = {v}" for k, v in rows.items()])
    text = p.read_text(encoding="utf-8", errors="replace")
    sample = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if sample and all(len(ln.split("\t")) == 4 for ln in sample[:20]):
        meta, run = read_run(p)
        depths = [len(v) for v in run.values()]
        meta_str = ", ".join(f"{k}={v}" for k, v in sorted(meta.items())) or "none"
        return (f"run file: {len(run)} queries, depth min/max = {min(depths)}/{max(depths)}, "
                f"meta: {meta_str}")
    if sample and all(len(ln.split("\t")) == 3 for ln in sample[:20]):
        qrels = read_qrels(p)
        rel = sum(len(v) for v in qrels.values())
        return f"qrels file: {len(qrels)} queries, {rel} relevance judgements"
    if sample and all("=" in ln for ln in sample[:20]):
        cfg = read_config_file(p)
        return "config file:\n" + "\n".join(f"  {k}={v}" for k, v in sorted(cfg.items()))
    raise ValueError(f"{path}: unrecognized artifact format")
