"""Synthetic populations with known true labels, plus grader pools that corrupt them.

The population is a mixture of isotropic Gaussian clusters per class. With
clusters_per_class=1 the class means sit on a line whose spacing shrinks as
ambiguity_overlap grows. With more clusters per class, cluster centres scatter
in a low-dimensional subspace (deterministic under structure_seed) so that the
classes interleave at a fine scale and the task rewards additional data; a
bulk/rare weight split lets some presentation types stay scarce.

Grader noise is class-conditional per grader: each profile carries a
row-stochastic confusion matrix (row = true class), and graders are assigned
per example in proportion to workload. Per-example randomness derives from
(seed, example id), so the output is independent of iteration order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import (CHUNK_ROWS, ClassScheme, Dataset, InputError, check_record, check_value,
                      default_scheme, record)

# role -> (error severity, grader count, per-grader workload) in the default
# pool, shaped after a specialist-heavy pool
POOL_ROLES = {
    "glaucoma-specialist": (0.28, 5, 0.068),
    "retina-specialist": (0.75, 2, 0.080),
    "ophthalmologist": (1.00, 3, 0.060),
    "trainee-fellow": (2.80, 3, 0.080),
    "optometrist": (1.30, 1, 0.080),
}
GRADER_ROLES = tuple(POOL_ROLES)


@dataclass(frozen=True)
class PopulationConfig:
    n: int
    feature_dim: int
    class_priors: tuple[float, ...]
    class_spread: float = 1.0
    ambiguity_overlap: float = 0.0
    # cluster extension: 1 cluster per class reproduces the plain line layout
    clusters_per_class: int = 1
    cluster_scatter: float = 0.0
    cluster_bulk_shares: tuple[float, ...] | None = None
    cluster_region_offsets: tuple | None = None
    structure_seed: int = 0

    def __post_init__(self):
        priors = tuple(float(p) for p in self.class_priors)
        object.__setattr__(self, "class_priors", priors)
        if self.n <= 0:
            raise ValueError("population size must be positive")
        if self.feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        # written as `not x >= 0` rather than `x < 0` so that NaN fails too
        if not all(p >= 0 for p in priors):
            raise ValueError("class priors must be non-negative")
        if abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError(f"class priors must sum to 1, got {sum(priors)}")
        if not self.class_spread > 0:
            raise ValueError("class_spread must be positive")
        if not self.ambiguity_overlap >= 0:
            raise ValueError("ambiguity_overlap must be >= 0")
        if self.clusters_per_class < 1:
            raise ValueError("clusters_per_class must be >= 1")
        if not self.cluster_scatter >= 0:
            raise ValueError("cluster_scatter must be >= 0")
        if max(self.n, self.feature_dim, self.clusters_per_class) > np.iinfo(np.intp).max:
            raise ValueError("n, feature_dim and clusters_per_class must each fit a 64-bit index")
        for name in ("class_spread", "ambiguity_overlap", "cluster_scatter"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.structure_seed < 0:
            raise ValueError("structure_seed must be >= 0")
        if self.cluster_bulk_shares is not None:
            shares = tuple(float(s) for s in self.cluster_bulk_shares)
            object.__setattr__(self, "cluster_bulk_shares", shares)
            if len(shares) != len(priors):
                raise ValueError("cluster_bulk_shares needs one entry per class")
            if not all(0 <= s <= 1 for s in shares):
                raise ValueError(f"cluster_bulk_shares must each be in [0, 1], got {list(shares)}")
        if self.cluster_region_offsets is not None:
            offs = tuple(tuple(float(v) for v in row) for row in self.cluster_region_offsets)
            object.__setattr__(self, "cluster_region_offsets", offs)
            if len(offs) != len(priors):
                raise ValueError("cluster_region_offsets needs one entry per class")


@dataclass(frozen=True)
class GraderProfile:
    grader_id: str
    role: str
    workload_weight: float
    confusion: np.ndarray

    def __post_init__(self):
        if self.role not in GRADER_ROLES:
            raise ValueError(f"unknown grader role {self.role!r}")
        conf = np.asarray(self.confusion, dtype=float)
        object.__setattr__(self, "confusion", conf)
        if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
            raise ValueError("confusion matrix must be square")
        if not (conf >= 0).all():
            raise ValueError("confusion entries must be non-negative")
        if not np.abs(conf.sum(axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("confusion rows must sum to 1")
        if not 0 < self.workload_weight < np.inf:
            raise ValueError("workload_weight must be positive and finite")


def line_means(feature_dim: int, n_classes: int, ambiguity_overlap: float) -> np.ndarray:
    """Class means on the all-ones direction, spacing 2/(1+overlap)."""
    u = np.ones(feature_dim) / np.sqrt(feature_dim)
    delta = 2.0 / (1.0 + ambiguity_overlap)
    return np.stack([c * delta * u for c in range(n_classes)])


def cluster_centers(config: PopulationConfig) -> np.ndarray:
    """(n_classes, clusters_per_class, d) cluster centres, fixed by structure_seed."""
    k = len(config.class_priors)
    d = config.feature_dim
    base = line_means(d, k, config.ambiguity_overlap)
    j = config.clusters_per_class
    rng = np.random.default_rng(config.structure_seed)
    centers = np.zeros((k, j, d))
    m = min(2, d)  # centres scatter in the first two feature dimensions
    for c in range(k):
        offs = np.zeros((j, d))
        if j > 1 and config.cluster_scatter > 0:
            offs[:, :m] = config.cluster_scatter * rng.standard_normal((j, m))
        if config.cluster_region_offsets is not None:
            offs[:, :m] += np.asarray(config.cluster_region_offsets[c])[:m]
        centers[c] = base[c] + offs
    return centers


def _cluster_weights(config: PopulationConfig, class_idx: int) -> np.ndarray:
    j = config.clusters_per_class
    if config.cluster_bulk_shares is None:
        return np.full(j, 1.0 / j)
    bulk = config.cluster_bulk_shares[class_idx]
    h = j // 2
    if h == 0:
        return np.full(j, 1.0 / j)
    w = np.empty(j)
    w[:h] = bulk / h
    w[h:] = (1.0 - bulk) / (j - h)
    return w


def generate_population(config: PopulationConfig, seed: int,
                        scheme: ClassScheme | None = None) -> Dataset:
    """Draw n examples; label starts equal to true_label (noiseless)."""
    scheme = scheme or default_scheme()
    if len(config.class_priors) != scheme.n_classes:
        raise ValueError("class_priors length must match scheme")
    centers = cluster_centers(config)
    rng = np.random.default_rng(seed)
    n, d = config.n, config.feature_dim
    y = rng.choice(scheme.n_classes, size=n, p=np.array(config.class_priors))
    j = np.empty(n, dtype=int)
    for c in range(scheme.n_classes):
        mask = y == c
        if mask.any():
            j[mask] = rng.choice(config.clusters_per_class, size=int(mask.sum()),
                                 p=_cluster_weights(config, c))
    X = centers[y, j] + config.class_spread * rng.standard_normal((n, d))
    width = max(6, len(str(n - 1)))
    ids = [f"ex{i:0{width}d}" for i in range(n)]
    return Dataset(scheme, ids, X, y, true_y=y.copy())


def example_draws(seed: int, ids) -> np.ndarray:
    """(n, 2) uniforms, one seeded stream per example id, so no draw depends on row order:
    row i is default_rng(key).random(2), key the blake2s digest of "seed:id" read big-endian."""
    keys = np.frombuffer(b"".join(hashlib.blake2s(f"{seed}:{i}".encode(), digest_size=8).digest()
                                  for i in ids), ">u8").astype(np.uint64)
    out = np.empty((len(keys), 2))
    for start in range(0, len(keys), CHUNK_ROWS):
        out[start:start + CHUNK_ROWS] = seeded_uniforms(keys[start:start + CHUNK_ROWS])
    return out


# The constants of numpy's SeedSequence (hashmix, generate_state) and of PCG64's LCG step.
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash32(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under const, and the next const."""
    words = words ^ np.uint32(const)
    const = const * mult & _MASK32
    words = words * np.uint32(const)
    return words ^ words >> np.uint32(16), const


def seeded_uniforms(keys: np.ndarray) -> np.ndarray:
    """(n, 2) uniforms: row i is default_rng(keys[i]).random(2) bit for bit, for
    uint64 keys, computed for all rows at once. The 128-bit PCG64 state is held
    in Python ints."""
    # SeedSequence: the key as two little-endian words, a pool of four hashed
    # words, then every word mixed into every other
    lo, hi = np.ascontiguousarray(keys, dtype="<u8").view("<u4").reshape(-1, 2).T
    const, pool = _HASH_A[0], []
    for word in (lo, hi, np.zeros_like(lo), np.zeros_like(lo)):
        word, const = _hash32(word, const, _HASH_A[1])
        pool.append(word)
    for src, dst in itertools.permutations(range(4), 2):
        word, const = _hash32(pool[src], const, _HASH_A[1])
        mixed = pool[dst] * np.uint32(0xCA01F9DD) - word * np.uint32(0x4973F715)
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    # generate_state(4, uint64): eight words hashed round the pool, paired little-endian
    const, words = _HASH_B[0], []
    for i in range(8):
        word, const = _hash32(pool[i % 4], const, _HASH_B[1])
        words.append(word.astype(object))
    seed = [words[j] | words[j + 1] << 32 for j in range(0, 8, 2)]
    # PCG64's seeding: state 0, a step, += the first 128 bits, a step
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & _MASK128
    state = ((inc + (seed[0] << 64 | seed[1])) * _PCG64_MULT + inc) & _MASK128
    out = np.empty((len(lo), 2))
    for j in range(2):
        state = (state * _PCG64_MULT + inc) & _MASK128
        # XSL-RR output: the state's halves xor'd, rotated right by its top 6 bits
        x = (state >> 64 ^ state & _MASK64).astype(np.uint64)
        rot = (state >> 122).astype(np.uint64)
        raw = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        out[:, j] = (raw >> np.uint64(11)) * 2.0**-53
    return out


def draw_category(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF pick per uniform in u, from one CDF or one CDF row per u;
    a CDF that ends below 1 gives its last category to the uniforms beyond it."""
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[-1] - 1)


def apply_grader_noise(dataset: Dataset, pool: list[GraderProfile], seed: int) -> Dataset:
    """Assign one grader per example and redraw the label from their confusion row."""
    if not pool:
        raise ValueError("grader pool is empty")
    k = dataset.scheme.n_classes
    for p in pool:
        if p.confusion.shape != (k, k):
            raise ValueError(f"grader {p.grader_id!r}: confusion must be {k}x{k}")
    if (dataset.true_y < 0).any():
        missing = dataset.ids[np.argmax(dataset.true_y < 0)]
        raise ValueError(f"example {str(missing)!r} has no true_label")
    weights = np.array([p.workload_weight for p in pool], dtype=float)
    u = example_draws(seed, dataset.ids.tolist())
    g = draw_category(np.cumsum(weights / weights.sum()), u[:, 0])
    cum_rows = np.cumsum(np.stack([p.confusion for p in pool]), axis=2)
    labels = draw_category(cum_rows[g, dataset.true_y], u[:, 1])
    graders = np.array([p.grader_id for p in pool])[g]
    return Dataset(dataset.scheme, dataset.ids, dataset.X, labels, dataset.true_y, graders)


def confusion_from_flip_rates(flip_rates, scheme: ClassScheme,
                              within_rate: float = 0.04) -> np.ndarray:
    """Build a confusion matrix from per-class boundary-crossing flip rates.

    Crossing mass from a negative class goes to the nearest positive class
    (and vice versa), 85% of it when there are other classes across; a small
    within-side confusion is spread over the other same-side classes, if any.
    """
    k = scheme.n_classes
    pos = sorted(scheme.positive_indices)
    neg = sorted(set(range(k)) - scheme.positive_indices)
    conf = np.zeros((k, k))
    for c in range(k):
        f = float(flip_rates[c])
        if not 0 <= f < 1:
            raise ValueError("flip rate must be in [0, 1)")
        targets = pos if c in neg else neg
        primary = min(targets, key=lambda t: abs(t - c))
        rest = [t for t in targets if t != primary]
        conf[c, primary] += f * (0.85 if rest else 1.0)
        for t in rest:
            conf[c, t] += f * (1.0 - 0.85) / len(rest)
        same = [t for t in (neg if c in neg else pos) if t != c]
        w = min(within_rate, 1.0 - f) if same else 0.0
        for t in same:
            conf[c, t] += w / len(same)
        conf[c, c] = 1.0 - f - w
    return conf


# per-true-class boundary-crossing rates of the pool as a whole
BASE_FLIP_RATES = (0.09, 0.09, 0.18, 0.40)


def default_grader_pool(scheme: ClassScheme | None = None) -> list[GraderProfile]:
    """Role-graded pool whose workload-weighted flip rates match BASE_FLIP_RATES;
    the scheme must have one class per rate."""
    scheme = scheme or default_scheme()
    if scheme.n_classes != len(BASE_FLIP_RATES):
        raise InputError(f"the default grader pool has {len(BASE_FLIP_RATES)} classes "
                         f"and the scheme {scheme.n_classes}: pass --pool")
    norm = sum(count * w * severity for severity, count, w in POOL_ROLES.values())
    pool = []
    idx = 0
    for role, (severity, count, weight) in POOL_ROLES.items():
        mult = severity / norm
        rates = [min(0.95, r * mult) for r in BASE_FLIP_RATES]
        conf = confusion_from_flip_rates(rates, scheme)
        for _ in range(count):
            pool.append(GraderProfile(
                grader_id=f"g{idx:02d}-{role}", role=role,
                confusion=conf, workload_weight=weight,
            ))
            idx += 1
    return pool


def marginal_flip_rates(pool: list[GraderProfile], scheme: ClassScheme) -> np.ndarray:
    """Workload-weighted probability that each true class is labeled across the boundary."""
    k = scheme.n_classes
    weights = np.array([p.workload_weight for p in pool], dtype=float)
    weights = weights / weights.sum()
    out = np.zeros(k)
    for w, p in zip(weights, pool):
        for c in range(k):
            cross = [t for t in range(k) if scheme.is_positive(t) != scheme.is_positive(c)]
            out[c] += w * p.confusion[c, cross].sum()
    return out


def write_grader_pool(pool: list[GraderProfile], path) -> None:
    """One JSON object per grader, its keys in GraderProfile field order."""
    Path(path).write_text(json.dumps([record(p) for p in pool], indent=2,
                                     default=np.ndarray.tolist) + "\n", encoding="utf-8")


def read_grader_pool(path, scheme: ClassScheme) -> list[GraderProfile]:
    """Load profiles from a non-empty list of entries. Each entry's keys must
    be exactly the GraderProfile fields, each of its JSON type; confusion may
    be K explicit rows of K numbers or {"flip_to_adjacent": p}."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError(f"grader pool: expected a list of grader entries, got "
                         f"{type(payload).__name__}")
    if not payload:
        raise ValueError("grader pool: expected a list of grader entries, got an empty list")
    k = scheme.n_classes
    pool = []
    for i, entry in enumerate(payload):
        where = f"grader entry {i}"
        check_record(entry, {f.name: f.type for f in fields(GraderProfile)}, where)
        conf = entry["confusion"]
        if isinstance(conf, dict):
            check_record(conf, {"flip_to_adjacent": "float"}, f"{where}: confusion")
            conf = _adjacent_flip_matrix(k, conf["flip_to_adjacent"])
        else:
            check_value(conf, "list", f"{where}: confusion")
            for r, row in enumerate(conf):
                check_value(row, "list[float]", f"{where}: confusion row {r}")
                if len(row) != k:
                    raise ValueError(f"{where}: confusion row {r} must have {k} entries, "
                                     f"got {len(row)}")
            if len(conf) != k:
                raise ValueError(f"{where}: confusion must have {k} rows, got {len(conf)}")
        profile = GraderProfile(entry["grader_id"], entry["role"],
                                float(entry["workload_weight"]), np.asarray(conf, dtype=float))
        if any(other.grader_id == profile.grader_id for other in pool):
            raise ValueError(f"duplicate grader id {profile.grader_id!r}")
        pool.append(profile)
    return pool


def _adjacent_flip_matrix(k: int, p: float) -> np.ndarray:
    """Shorthand expansion: flip to each adjacent class with total probability p."""
    conf = np.zeros((k, k))
    for c in range(k):
        neighbors = [t for t in (c - 1, c + 1) if 0 <= t < k]
        conf[c, c] = 1.0 - p
        for t in neighbors:
            conf[c, t] = p / len(neighbors)
    return conf
