"""Worker-attribute sampling.

Worker attributes are drawn per establishment so that each establishment
has a distinctive workforce *shape* (the thing Definition 4.3 protects):
education and sex mixes depend on the establishment's NAICS sector, while
race and ethnicity mixes vary by place (drawn once per place from a
Dirichlet around national shares).  Age is drawn from a common national
profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.naics import NAICS_SECTORS
from repro.data.schema import (
    AGE_VALUES,
    EDUCATION_VALUES,
    ETHNICITY_VALUES,
    RACE_VALUES,
)
from repro.util import as_generator, derive_seed

# Column order of the dicts returned by the workforce samplers (matches
# the worker schema attribute order).
WORKER_COLUMNS: tuple[str, ...] = ("age", "sex", "race", "ethnicity", "education")

# National age profile over AGE_VALUES (roughly the LODES age mix).
AGE_PROFILE = np.array([0.04, 0.06, 0.07, 0.24, 0.22, 0.20, 0.13, 0.04])

# National race profile over RACE_VALUES.
RACE_PROFILE = np.array([0.68, 0.13, 0.01, 0.07, 0.003, 0.027, 0.08])

# National Hispanic share (ETHNICITY_VALUES = NotHispanic, Hispanic).
HISPANIC_SHARE = 0.17

# Concentration of the per-place Dirichlet around the national profiles;
# lower = more geographic heterogeneity.
PLACE_CONCENTRATION = 60.0


def education_profile(college_share: float) -> np.ndarray:
    """Education distribution over EDUCATION_VALUES given a college share.

    The non-college mass is split between the three lower levels with
    fixed proportions, so sectors only differ in how college-heavy they
    are (enough to give establishments distinct shapes).
    """
    non_college = 1.0 - college_share
    return np.array(
        [0.22 * non_college, 0.45 * non_college, 0.33 * non_college, college_share]
    )


@dataclass(frozen=True)
class PlaceMixes:
    """Per-place race and ethnicity distributions (rows align to places)."""

    race: np.ndarray
    hispanic_share: np.ndarray


def draw_place_mixes(n_places: int, seed=None) -> PlaceMixes:
    """Draw per-place race/ethnicity mixes around the national profile."""
    rng = as_generator(seed)
    race = rng.dirichlet(RACE_PROFILE * PLACE_CONCENTRATION, size=n_places)
    hispanic = rng.beta(
        HISPANIC_SHARE * PLACE_CONCENTRATION,
        (1 - HISPANIC_SHARE) * PLACE_CONCENTRATION,
        size=n_places,
    )
    return PlaceMixes(race=race, hispanic_share=hispanic)


def sample_workforce(
    size: int,
    sector_index: int,
    place_index: int,
    place_mixes: PlaceMixes,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Draw attribute code arrays for the ``size`` workers of one establishment.

    Returns a dict of column name to int64 code array, keyed to the worker
    schema attribute order in :mod:`repro.data.schema`.
    """
    sector = NAICS_SECTORS[sector_index]
    age = rng.choice(len(AGE_VALUES), size=size, p=AGE_PROFILE)
    sex = (rng.random(size) < sector.female_share).astype(np.int64)  # 1 == F
    race = rng.choice(len(RACE_VALUES), size=size, p=place_mixes.race[place_index])
    ethnicity = (
        rng.random(size) < place_mixes.hispanic_share[place_index]
    ).astype(np.int64)
    education = rng.choice(
        len(EDUCATION_VALUES), size=size, p=education_profile(sector.college_share)
    )
    return {
        "age": age.astype(np.int64),
        "sex": sex,
        "race": race.astype(np.int64),
        "ethnicity": ethnicity,
        "education": education.astype(np.int64),
    }


def sample_workforce_batch(
    sizes: np.ndarray,
    sector_indices: np.ndarray,
    place_indices: np.ndarray,
    place_mixes: PlaceMixes,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Vectorized draw of worker attributes for all establishments at once.

    ``sizes[i]`` workers are drawn for establishment ``i`` with sector
    ``sector_indices[i]`` and place ``place_indices[i]``; rows of the
    returned columns are ordered establishment-by-establishment (matching
    ``np.repeat(np.arange(len(sizes)), sizes)``).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    job_sector = np.repeat(sector_indices, sizes)
    job_place = np.repeat(place_indices, sizes)

    age = rng.choice(len(AGE_VALUES), size=total, p=AGE_PROFILE).astype(np.int64)

    female_share = np.array([s.female_share for s in NAICS_SECTORS])
    sex = (rng.random(total) < female_share[job_sector]).astype(np.int64)

    # Race: inverse-CDF draw against each job's place-specific categorical.
    race_cdf = np.cumsum(place_mixes.race, axis=1)
    race = (
        rng.random(total)[:, None] > race_cdf[job_place]
    ).sum(axis=1).astype(np.int64)

    ethnicity = (
        rng.random(total) < place_mixes.hispanic_share[job_place]
    ).astype(np.int64)

    college_share = np.array([s.college_share for s in NAICS_SECTORS])
    edu_profiles = np.stack([education_profile(c) for c in college_share])
    edu_cdf = np.cumsum(edu_profiles, axis=1)
    education = (
        rng.random(total)[:, None] > edu_cdf[job_sector]
    ).sum(axis=1).astype(np.int64)

    return {
        "age": age,
        "sex": sex,
        "race": race,
        "ethnicity": ethnicity,
        "education": education,
    }


def chunk_ranges(sizes: np.ndarray, chunk_jobs: int) -> list[tuple[int, int]]:
    """Partition establishments into contiguous blocks of ~``chunk_jobs`` jobs.

    An establishment whose jobs start before a chunk boundary belongs
    entirely to that chunk, so a block can overshoot ``chunk_jobs`` by at
    most one establishment's size.  The partition depends only on
    ``sizes`` and ``chunk_jobs`` — it is what makes chunked generation a
    pure function of the config.
    """
    if chunk_jobs < 1:
        raise ValueError(f"chunk_jobs must be >= 1, got {chunk_jobs}")
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        return []
    starts = np.cumsum(sizes) - sizes  # job offset where each establishment begins
    chunk_of = starts // chunk_jobs
    # Establishments larger than chunk_jobs can leave gaps in the chunk
    # numbering; renumber consecutively while keeping the grouping.
    boundaries = np.flatnonzero(np.diff(chunk_of)) + 1
    edges = [0, *boundaries.tolist(), len(sizes)]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def chunk_generator(
    index: int, rng: np.random.Generator, base_seed: int
) -> np.random.Generator:
    """The noise stream chunk ``index`` draws from.

    Chunk 0 continues ``rng`` — the stream the single-shot path has
    always used — so single-chunk configs stay bit-identical to the
    historical generator; later chunks get independent derived streams.
    Shared by the sequential and sharded builders, which is what makes
    them byte-for-byte interchangeable.
    """
    if index == 0:
        return rng
    return as_generator(derive_seed(base_seed, f"workers:chunk:{index}"))


def sample_workforce_chunked(
    sizes: np.ndarray,
    sector_indices: np.ndarray,
    place_indices: np.ndarray,
    place_mixes: PlaceMixes,
    rng: np.random.Generator,
    *,
    base_seed: int,
    chunk_jobs: int,
) -> dict[str, np.ndarray]:
    """Streaming variant of :func:`sample_workforce_batch` in bounded memory.

    Establishments are processed in contiguous blocks of roughly
    ``chunk_jobs`` jobs (:func:`chunk_ranges`); each block's columns are
    written into preallocated output arrays, so the per-draw transient
    (the ``(jobs, values)`` inverse-CDF buffers) is bounded by the chunk
    size no matter how large the economy is.

    Seeding: chunk 0 continues ``rng`` — the stream the single-shot path
    has always used — so any config whose realized jobs fit one chunk
    produces *bit-identical* columns to the historical
    :func:`sample_workforce_batch` call.  Later chunks draw from
    independent streams derived as
    ``derive_seed(base_seed, "workers:chunk:{c}")``, so a million-job
    build never has to materialize one giant draw to stay deterministic.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ranges = chunk_ranges(sizes, chunk_jobs)
    if len(ranges) <= 1:
        return sample_workforce_batch(
            sizes, sector_indices, place_indices, place_mixes, rng
        )

    total = int(sizes.sum())
    columns = {name: np.empty(total, dtype=np.int64) for name in WORKER_COLUMNS}
    offset = 0
    for index, (lo, hi) in enumerate(ranges):
        chunk_rng = chunk_generator(index, rng, base_seed)
        chunk = sample_workforce_batch(
            sizes[lo:hi],
            sector_indices[lo:hi],
            place_indices[lo:hi],
            place_mixes,
            chunk_rng,
        )
        n_chunk_jobs = chunk["age"].shape[0]
        for name in WORKER_COLUMNS:
            columns[name][offset : offset + n_chunk_jobs] = chunk[name]
        offset += n_chunk_jobs
    return columns


# -- sharded (process-parallel) builds ---------------------------------

# File names of the job-indexed link arrays, as laid out by the snapshot
# store; the sharded builder writes them chunk-by-chunk alongside the
# worker columns so no O(jobs) array ever materializes in the parent.
JOB_ARRAYS: tuple[str, ...] = ("job_worker", "job_establishment")


@dataclass(frozen=True)
class _ShardedBuildContext:
    """Everything a build worker needs, picklable in one piece.

    Pickled once per worker shard by :class:`repro.runtime.ProcessDriver`:
    the O(establishments) plan arrays, the per-place mixes, the advanced
    chunk-0 generator (pickled with its exact bit-stream position), the
    target ``.npy`` paths the chunk slices land in and the byte offset
    of their data (one dtype and shape give every file one header).
    """

    sizes: np.ndarray
    sector_indices: np.ndarray
    place_indices: np.ndarray
    place_mixes: PlaceMixes
    rng0: np.random.Generator
    base_seed: int
    paths: dict  # column/link name -> str path of a preallocated .npy
    offset: int  # header length: where job 0's value starts in each file


def _write_chunk(context: _ShardedBuildContext, item) -> int:
    """Build-worker task: draw one chunk and write its job slices.

    Each chunk owns the disjoint job range ``[job_lo, job_hi)``, so
    concurrent workers write non-overlapping byte ranges of the shared
    ``.npy`` files the parent preallocated — one positioned write per
    file, no sync: the parent fsyncs every file once all chunks landed.
    """
    index, lo, hi, job_lo, job_hi = item
    rng = chunk_generator(index, context.rng0, context.base_seed)
    chunk = sample_workforce_batch(
        context.sizes[lo:hi],
        context.sector_indices[lo:hi],
        context.place_indices[lo:hi],
        context.place_mixes,
        rng,
    )
    chunk["job_worker"] = np.arange(job_lo, job_hi, dtype=np.int64)
    chunk["job_establishment"] = np.repeat(
        np.arange(lo, hi, dtype=np.int64), context.sizes[lo:hi]
    )
    for name, values in chunk.items():
        values = np.ascontiguousarray(values, dtype=np.int64)
        with open(context.paths[name], "r+b") as handle:
            handle.seek(context.offset + job_lo * values.itemsize)
            handle.write(memoryview(values))
    return job_hi - job_lo


def build_workforce_sharded(
    sizes: np.ndarray,
    sector_indices: np.ndarray,
    place_indices: np.ndarray,
    place_mixes: PlaceMixes,
    rng: np.random.Generator,
    *,
    base_seed: int,
    chunk_jobs: int,
    paths: dict[str, Path | str],
    workers: int = 1,
    start_method: str | None = None,
) -> int:
    """Write the workforce directly into ``.npy`` files, chunks in parallel.

    The persisting counterpart of :func:`sample_workforce_chunked`, and
    the only way worker columns reach a snapshot store: instead of
    assembling in-memory columns, the five worker columns plus the two
    job link arrays are preallocated on disk (header written, file
    sized by :func:`np.lib.format.open_memmap`) and each chunk's slice
    is drawn and written at its byte offset by a process-pool task
    (``workers=1`` runs the same tasks inline).  Chunks are
    independently seeded through :func:`chunk_generator`, so the files
    are **byte-identical** to ``np.save`` of :func:`generate`'s
    columns, whatever the worker count or scheduling — and a crashed,
    retried shard rewrites the same bytes.  Every file is fsynced once
    after the last chunk lands, so a build that returns is durable.
    Returns the total number of jobs written.

    ``paths`` maps every :data:`WORKER_COLUMNS` name and both
    :data:`JOB_ARRAYS` names to its target file (typically a snapshot
    store's staging directory).
    """
    missing = [n for n in (*WORKER_COLUMNS, *JOB_ARRAYS) if n not in paths]
    if missing:
        raise ValueError(f"paths is missing targets for {missing}")
    sizes = np.asarray(sizes, dtype=np.int64)
    ranges = chunk_ranges(sizes, chunk_jobs)
    job_edges = np.concatenate([[0], np.cumsum(sizes)])
    items = [
        (index, lo, hi, int(job_edges[lo]), int(job_edges[hi]))
        for index, (lo, hi) in enumerate(ranges)
    ]
    total = int(sizes.sum())
    str_paths = {name: str(paths[name]) for name in (*WORKER_COLUMNS, *JOB_ARRAYS)}
    for path in str_paths.values():
        # Write the header and size the file; the chunk tasks fill
        # disjoint byte ranges after ``offset``.
        offset = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.int64, shape=(total,)
        ).offset
    context = _ShardedBuildContext(
        sizes=sizes,
        sector_indices=np.asarray(sector_indices, dtype=np.int64),
        place_indices=np.asarray(place_indices, dtype=np.int64),
        place_mixes=place_mixes,
        rng0=rng,
        base_seed=base_seed,
        paths=str_paths,
        offset=offset,
    )
    from repro.runtime import ProcessDriver

    driver = ProcessDriver(workers, start_method=start_method)
    n_jobs = int(sum(driver.map(_write_chunk, context, items)))
    # An fsync from any process flushes the file's dirty pages, whoever
    # wrote them: one sync per file makes the whole build durable.
    for path in str_paths.values():
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
    return n_jobs
