// Symbolic persistence — warm restarts for the solver service.
//
// A service restart used to throw away every cached analyze+plan: the
// first request per pattern paid the full symbolic phase again. This
// layer serializes the immutable SolverSymbolic state (analysis + plan)
// to a versioned binary file and loads it back with full re-validation,
// so `treemem_cli serve --state-dir` restarts warm — zero symbolic misses
// on a repeated trace.
//
// Format: a little-structured native-endian binary stream ("TMSYMB01"
// magic + u32 version, then length-prefixed arrays). The file carries the
// build's AnalyzeOptions/PlanOptions and the pattern fingerprint; loading
// re-validates all three (magic/version, fingerprint recomputed from the
// decoded pattern, options equal to the consumer's) and reconstructs
// SparsePattern/Tree through their validating constructors. What can be
// derived is not stored: the permuted pattern, its value gather map and
// the front structure are rebuilt from the pattern and the permutation.
// The rest is checked against them: the supernode partition and its Eq. 1
// weights against the elimination tree, the planned traversal (and its
// eviction schedule) against the tree and the budget. So a stale,
// truncated, foreign or corrupted file can never smuggle malformed state
// into a solver (tests/mutation drives the loader with mutated files).
// Version 3 holds assembly trees with the chain merge and plan options
// reduced to the traversal policy and the budget; an older file is
// rejected, and its pattern rebuilt. Files are written to a temp name and
// renamed, so a crash mid-write never leaves a half file behind.
#pragma once

#include <cstddef>
#include <string>

#include "solver/solver.hpp"
#include "solver/symbolic_cache.hpp"

namespace treemem {

/// Whether two analyze/plan configurations build identical symbolic state
/// (the load-time compatibility check).
bool same_build_options(const AnalyzeOptions& a, const AnalyzeOptions& b);
bool same_build_options(const PlanOptions& a, const PlanOptions& b);

/// Serializes `symbolic` to `path` (atomically: temp file + rename).
/// Throws treemem::Error on I/O failure.
void write_symbolic_file(const SolverSymbolic& symbolic,
                         const std::string& path);

/// Deserializes a SolverSymbolic from `path`. Throws treemem::Error when
/// the file is missing, truncated, carries a wrong magic/version, its
/// stored fingerprint disagrees with the decoded pattern, or any of the
/// checks in the format note above fails.
SolverSymbolic read_symbolic_file(const std::string& path);

/// The canonical file name for a pattern's symbolic state inside a state
/// directory: "pattern-<hex fingerprint>[-<slot>].tmsym" (`slot`
/// disambiguates fingerprint collisions).
std::string symbolic_file_name(std::uint64_t fingerprint, std::size_t slot);

struct SymbolicStoreReport {
  std::size_t saved = 0;    ///< files written (save) / entries added (load)
  std::size_t skipped_options = 0;  ///< files whose build options differ
  std::size_t skipped_invalid = 0;  ///< corrupt/truncated/foreign files
};

/// Writes every built entry of `cache` into directory `dir` (created if
/// missing), one file per pattern. Returns how many files were written.
SymbolicStoreReport save_symbolic_state(const SymbolicCache& cache,
                                        const std::string& dir);

/// Loads every "*.tmsym" file under `dir` into `cache`, skipping files
/// whose analyze/plan options differ from the cache's configuration and
/// files that fail validation (a stale or corrupt state dir degrades to a
/// cold start, never to an error). Missing directory = nothing to load.
SymbolicStoreReport load_symbolic_state(SymbolicCache& cache,
                                        const std::string& dir);

}  // namespace treemem
