#include "solver/symbolic_store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "support/check.hpp"

namespace treemem {

namespace {

constexpr char kMagic[8] = {'T', 'M', 'S', 'Y', 'M', 'B', '0', '1'};
// Version 2: assembly trees carry the chain merge (AssemblyTreeOptions::
// merge_chains). Version 3: the plan options are the policy and the budget
// only, and the plan stats no longer carry a co-searched parallel peak.
// Loading rejects any other version, and the pattern is rebuilt.
constexpr std::uint32_t kVersion = 3;

// ---------------------------------------------------------------------------
// Binary encoding: native-endian scalars and length-prefixed arrays. The
// reader bounds-checks every access, so a truncated file throws a clean
// Error instead of reading garbage.
// ---------------------------------------------------------------------------

class Writer {
 public:
  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  template <typename T>
  void array(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar(static_cast<std::uint64_t>(values.size()));
    const std::size_t at = buffer_.size();
    buffer_.resize(at + values.size() * sizeof(T));
    if (!values.empty()) {  // an empty vector's data() may be null
      std::memcpy(buffer_.data() + at, values.data(),
                  values.size() * sizeof(T));
    }
  }

  void string(const std::string& text) {
    scalar(static_cast<std::uint64_t>(text.size()));
    buffer_.insert(buffer_.end(), text.begin(), text.end());
  }

  const std::vector<char>& buffer() const { return buffer_; }

 private:
  std::vector<char> buffer_;
};

class Reader {
 public:
  Reader(std::vector<char> buffer, std::string path)
      : buffer_(std::move(buffer)), path_(std::move(path)) {}

  template <typename T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, buffer_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = scalar<std::uint64_t>();
    // Bounded by the bytes left, not by count * sizeof(T): a crafted
    // length would wrap that product around.
    TM_CHECK(count <= remaining() / sizeof(T),
             "symbolic file " << path_ << ": truncated (array of " << count
                              << " elements at offset " << at_ << ", have "
                              << remaining() << " bytes)");
    std::vector<T> values(static_cast<std::size_t>(count));
    if (!values.empty()) {  // an empty vector's data() may be null
      std::memcpy(values.data(), buffer_.data() + at_,
                  values.size() * sizeof(T));
    }
    at_ += values.size() * sizeof(T);
    return values;
  }

  std::string string() {
    const std::uint64_t size = scalar<std::uint64_t>();
    require(size);
    std::string text(buffer_.data() + at_, static_cast<std::size_t>(size));
    at_ += static_cast<std::size_t>(size);
    return text;
  }

  void expect_end() const {
    TM_CHECK(at_ == buffer_.size(), "symbolic file " << path_ << ": "
                                    << remaining()
                                    << " trailing bytes");
  }

 private:
  std::size_t remaining() const { return buffer_.size() - at_; }

  // Compares against the bytes left: at_ + bytes could wrap around.
  void require(std::uint64_t bytes) const {
    TM_CHECK(bytes <= remaining(),
             "symbolic file " << path_ << ": truncated (need " << bytes
                              << " bytes at offset " << at_ << ", have "
                              << remaining() << ")");
  }

  std::vector<char> buffer_;
  std::string path_;
  std::size_t at_ = 0;
};

void write_pattern(Writer& out, const SparsePattern& pattern) {
  out.scalar<std::int32_t>(pattern.rows());
  out.scalar<std::int32_t>(pattern.cols());
  out.array(pattern.col_ptr());
  out.array(pattern.row_idx());
}

SparsePattern read_pattern(Reader& in) {
  const Index rows = in.scalar<std::int32_t>();
  const Index cols = in.scalar<std::int32_t>();
  std::vector<std::int64_t> col_ptr = in.array<std::int64_t>();
  std::vector<Index> row_idx = in.array<Index>();
  // The validating constructor rejects malformed CSC arrays.
  return SparsePattern(rows, cols, std::move(col_ptr), std::move(row_idx));
}

/// The options must name real enumerators, and the plan must run under
/// the budget it was built for.
void check_options(const SolverAnalysis& analysis, const SolverPlan& plan,
                   const std::string& path) {
  TM_CHECK(analysis.options.ordering <= OrderingChoice::kNestedDissection &&
               plan.options.policy <= TraversalPolicy::kMinMem,
           "read_symbolic_file: " << path << " names an unknown option");
  TM_CHECK(plan.options.memory_budget > 0 &&
               plan.stats.memory_budget == plan.options.memory_budget,
           "read_symbolic_file: " << path << " plan budget "
                                  << plan.stats.memory_budget
                                  << " differs from its options");
}

/// The plan must be a bottom-up traversal of the tree whose Eq. 1 peak is
/// the planned one and fits the budget — or, out of core, an eviction
/// schedule of that traversal that fits the budget.
void check_plan(const Tree& tree, const SolverPlan& plan,
                const std::string& path) {
  const Weight budget = plan.stats.memory_budget;
  const Weight peak = in_tree_traversal_peak(tree, plan.bottom_up_order);
  if (plan.out_of_core) {
    const CheckResult check = check_out_of_core(tree, plan.io_schedule, budget);
    TM_CHECK(plan.io_schedule.order ==
                     reverse_traversal(plan.bottom_up_order) &&
                 check.feasible &&
                 check.io_volume == plan.stats.planned_io_volume &&
                 plan.stats.planned_peak_entries == budget,
             "read_symbolic_file: " << path << " carries an out-of-core "
                                    << "schedule that misses its budget "
                                    << budget);
  } else {
    TM_CHECK(plan.io_schedule.order.empty() &&
                 plan.io_schedule.writes.empty() &&
                 plan.stats.planned_peak_entries == peak && peak <= budget,
             "read_symbolic_file: " << path << " plan peak "
                                    << plan.stats.planned_peak_entries
                                    << " does not match its traversal's "
                                    << peak << " within budget " << budget);
  }
}

}  // namespace

bool same_build_options(const AnalyzeOptions& a, const AnalyzeOptions& b) {
  return a.ordering == b.ordering && a.relax == b.relax &&
         a.perfect == b.perfect;
}

bool same_build_options(const PlanOptions& a, const PlanOptions& b) {
  return a.policy == b.policy && a.memory_budget == b.memory_budget;
}

void write_symbolic_file(const SolverSymbolic& symbolic,
                         const std::string& path) {
  TM_CHECK(static_cast<bool>(symbolic),
           "write_symbolic_file: symbolic state must carry both an analysis "
           "and a plan");
  const SolverAnalysis& a = *symbolic.analysis;
  const SolverPlan& p = *symbolic.plan;

  Writer out;
  for (const char c : kMagic) {
    out.scalar(c);
  }
  out.scalar(kVersion);

  // Build options — re-validated on load against the consumer's config.
  out.scalar(static_cast<std::uint8_t>(a.options.ordering));
  out.scalar<std::int32_t>(a.options.relax);
  out.scalar(static_cast<std::uint8_t>(a.options.perfect));
  out.scalar(static_cast<std::uint8_t>(p.options.policy));
  out.scalar<std::int64_t>(p.options.memory_budget);

  out.scalar(pattern_fingerprint(a.pattern));

  // Analysis.
  write_pattern(out, a.pattern);
  out.array(a.perm);
  out.array(a.assembly.tree.parents());
  out.array(a.assembly.tree.files());
  out.array(a.assembly.tree.works());
  out.array(a.assembly.supernode_of);
  out.array(a.assembly.eta);
  out.array(a.assembly.mu);
  out.scalar<std::int32_t>(a.assembly.columns);
  out.scalar(static_cast<std::uint8_t>(a.assembly.has_virtual_root));
  out.scalar<std::int64_t>(a.stats.factor_nnz);
  out.string(a.stats.ordering);
  out.scalar(a.stats.analyze_seconds);

  // Plan.
  out.array(p.bottom_up_order);
  out.array(p.io_schedule.order);
  out.array(p.io_schedule.writes);
  out.scalar(static_cast<std::uint8_t>(p.out_of_core));
  out.scalar<std::int64_t>(p.stats.memory_budget);
  out.string(p.stats.strategy);
  out.scalar<std::int64_t>(p.stats.planned_peak_entries);
  out.scalar<std::int64_t>(p.stats.in_core_optimum);
  out.scalar<std::int64_t>(p.stats.best_postorder_peak);
  out.scalar<std::int64_t>(p.stats.planned_io_volume);
  out.scalar(p.stats.plan_seconds);

  // Temp + rename: a crash mid-write never leaves a half file that a
  // later warm start would have to reject.
  const std::string temp = path + ".tmp";
  {
    std::ofstream file(temp, std::ios::binary | std::ios::trunc);
    TM_CHECK(file.good(), "write_symbolic_file: cannot open " << temp);
    file.write(out.buffer().data(),
               static_cast<std::streamsize>(out.buffer().size()));
    TM_CHECK(file.good(), "write_symbolic_file: write failed for " << temp);
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  TM_CHECK(!ec, "write_symbolic_file: rename " << temp << " -> " << path
                                               << " failed: " << ec.message());
}

SolverSymbolic read_symbolic_file(const std::string& path) {
  std::vector<char> buffer;
  {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    TM_CHECK(file.good(), "read_symbolic_file: cannot open " << path);
    const std::streamsize size = file.tellg();
    file.seekg(0);
    buffer.resize(static_cast<std::size_t>(size));
    file.read(buffer.data(), size);
    TM_CHECK(file.good(), "read_symbolic_file: read failed for " << path);
  }
  Reader in(std::move(buffer), path);

  for (const char expected : kMagic) {
    TM_CHECK(in.scalar<char>() == expected,
             "read_symbolic_file: " << path << " is not a symbolic state "
                                    << "file (bad magic)");
  }
  const std::uint32_t version = in.scalar<std::uint32_t>();
  TM_CHECK(version == kVersion, "read_symbolic_file: "
                                    << path << " has version " << version
                                    << ", expected " << kVersion);

  auto analysis = std::make_shared<SolverAnalysis>();
  auto plan = std::make_shared<SolverPlan>();

  analysis->options.ordering =
      static_cast<OrderingChoice>(in.scalar<std::uint8_t>());
  analysis->options.relax = in.scalar<std::int32_t>();
  analysis->options.perfect = in.scalar<std::uint8_t>() != 0;
  plan->options.policy =
      static_cast<TraversalPolicy>(in.scalar<std::uint8_t>());
  plan->options.memory_budget = in.scalar<std::int64_t>();

  const std::uint64_t stored_fingerprint = in.scalar<std::uint64_t>();

  analysis->pattern = read_pattern(in);
  analysis->perm = in.array<Index>();
  std::vector<NodeId> parents = in.array<NodeId>();
  std::vector<Weight> files = in.array<Weight>();
  std::vector<Weight> works = in.array<Weight>();
  // The Tree constructor re-validates the parent array (single root, no
  // cycles, f_i >= 0), so a tampered file cannot build a malformed tree.
  analysis->assembly.tree =
      Tree(std::move(parents), std::move(files), std::move(works));
  analysis->assembly.supernode_of = in.array<NodeId>();
  analysis->assembly.eta = in.array<Index>();
  analysis->assembly.mu = in.array<Index>();
  analysis->assembly.columns = in.scalar<std::int32_t>();
  analysis->assembly.has_virtual_root = in.scalar<std::uint8_t>() != 0;
  analysis->stats.factor_nnz = in.scalar<std::int64_t>();
  analysis->stats.ordering = in.string();
  analysis->stats.analyze_seconds = in.scalar<double>();

  plan->bottom_up_order = in.array<NodeId>();
  plan->io_schedule.order = in.array<NodeId>();
  plan->io_schedule.writes = in.array<IoWrite>();
  plan->out_of_core = in.scalar<std::uint8_t>() != 0;
  plan->stats.memory_budget = in.scalar<std::int64_t>();
  plan->stats.strategy = in.string();
  plan->stats.planned_peak_entries = in.scalar<std::int64_t>();
  plan->stats.in_core_optimum = in.scalar<std::int64_t>();
  plan->stats.best_postorder_peak = in.scalar<std::int64_t>();
  plan->stats.planned_io_volume = in.scalar<std::int64_t>();
  plan->stats.plan_seconds = in.scalar<double>();
  in.expect_end();

  TM_CHECK(pattern_fingerprint(analysis->pattern) == stored_fingerprint,
           "read_symbolic_file: " << path << " fingerprint mismatch (stale "
                                  << "or tampered state file)");
  check_options(*analysis, *plan, path);
  check_permutation(analysis->perm, analysis->pattern.cols());
  // Neither the permuted pattern with its value map nor the front
  // structure is persisted: both are rebuilt from the pattern and the
  // permutation, and rebuilding the front structure also validates the
  // supernode partition against the etree.
  permute_analysis(*analysis);
  analysis->assembly.fronts = build_front_structure(analysis->permuted_pattern,
                                                    analysis->assembly);
  check_plan(analysis->assembly.tree, *plan, path);
  TM_CHECK(analysis->assembly.fronts->factor_nnz ==
               analysis->stats.factor_nnz,
           "read_symbolic_file: " << path << " factor_nnz does not match "
                                  << "the stored pattern");
  // The rest of the analyze report is not persisted either: it reads off
  // the loaded pattern and tree.
  analysis->stats.n = analysis->pattern.cols();
  analysis->stats.pattern_nnz = analysis->pattern.nnz();
  analysis->stats.tree_nodes = analysis->assembly.tree.size();

  return SolverSymbolic{std::move(analysis), std::move(plan)};
}

std::string symbolic_file_name(std::uint64_t fingerprint, std::size_t slot) {
  std::ostringstream name;
  name << "pattern-" << std::hex << std::setw(16) << std::setfill('0')
       << fingerprint;
  if (slot > 0) {
    name << "-" << std::dec << slot;
  }
  name << ".tmsym";
  return name.str();
}

SymbolicStoreReport save_symbolic_state(const SymbolicCache& cache,
                                        const std::string& dir) {
  std::filesystem::create_directories(dir);
  SymbolicStoreReport report;
  // Slot-number fingerprint collisions so two colliding patterns get two
  // files instead of overwriting each other.
  std::map<std::uint64_t, std::size_t> slots;
  for (const SolverSymbolic& symbolic : cache.snapshot()) {
    const std::uint64_t fingerprint =
        pattern_fingerprint(symbolic.analysis->pattern);
    const std::size_t slot = slots[fingerprint]++;
    const std::filesystem::path path =
        std::filesystem::path(dir) / symbolic_file_name(fingerprint, slot);
    write_symbolic_file(symbolic, path.string());
    ++report.saved;
  }
  return report;
}

SymbolicStoreReport load_symbolic_state(SymbolicCache& cache,
                                        const std::string& dir) {
  SymbolicStoreReport report;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return report;  // nothing persisted yet: a cold start, not an error
  }
  // Deterministic load order (directory iteration order is not).
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmsym") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    SolverSymbolic symbolic;
    try {
      symbolic = read_symbolic_file(path.string());
    } catch (const Error&) {
      // A stale or corrupt file degrades that pattern to a cold build;
      // the warm start itself must never fail on leftover state.
      ++report.skipped_invalid;
      continue;
    }
    if (!same_build_options(symbolic.analysis->options,
                            cache.options().analyze) ||
        !same_build_options(symbolic.plan->options, cache.options().plan)) {
      ++report.skipped_options;
      continue;
    }
    if (cache.insert(std::move(symbolic))) {
      ++report.saved;
    }
  }
  return report;
}

}  // namespace treemem
