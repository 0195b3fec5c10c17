// Seeded mutation harness for the library's untrusted-input parsers:
//
//   * read_symbolic_file (solver/symbolic_store.hpp) on byte-level mutants
//     of valid .tmsym files (unbounded, budgeted in-core and out-of-core
//     plans);
//   * the Matrix Market readers (sparse/mm_io.hpp) on valid texts whose
//     banner or entry lines are mutated;
//   * the strict TREEMEM_* parsers (support/env.hpp) on mutated values of
//     the variables the library and the benches read.
//
// Every mutant must yield a treemem::Error or a valid result. A loaded
// symbolic state is valid when a Solver that adopts it factors and solves
// a matrix on its pattern correctly within its memory budget; a parsed
// matrix is valid when it matches its header; a parsed variable when the
// text is exactly the documented spelling of the value returned. Any
// other exception, an Error from a state the loader accepted, or a crash
// (or, in the sanitizer build, a sanitizer report) fails the run.
//
// The size line of a Matrix Market text is never mutated: a declared
// dimension n <= 2^31 - 1 legitimately costs O(n) CSC memory (col_ptr)
// before the first entry is read, so random size lines would only
// measure the allocator. The explicit edge cases in tests/sparse cover
// dimensions beyond Index and overstated entry counts.
//
// Usage: treemem_mutation_driver [--seed N] [--mutants N]
// (N mutants per parser; a plain ctest test, no gtest).
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "multifrontal/numeric.hpp"
#include "parallel/worker_pool.hpp"
#include "solver/solver.hpp"
#include "solver/symbolic_store.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mm_io.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/prng.hpp"

namespace treemem {
namespace {

/// Counts mutants and prints the first few failures.
class Outcomes {
 public:
  explicit Outcomes(std::string parser) : parser_(std::move(parser)) {}

  /// Runs `parse` on one mutant; `parse` returns "" for a valid result or
  /// a description of what is invalid about it.
  void run(const std::string& mutant,
           const std::function<std::string()>& parse) {
    std::string failure;
    try {
      failure = parse();
      if (failure.empty()) {
        ++accepted_;
      }
    } catch (const Error&) {
      ++rejected_;
    } catch (const std::exception& e) {
      failure = std::string("untyped exception: ") + e.what();
    } catch (...) {
      failure = "non-std exception";
    }
    if (!failure.empty() && ++failed_ <= 10) {
      std::cerr << parser_ << ": " << failure << "\n  mutant: " << mutant
                << "\n";
    }
  }

  int report() const {
    std::cout << parser_ << ": " << accepted_ << " valid, " << rejected_
              << " typed errors, " << failed_ << " failures" << std::endl;
    return failed_;
  }

 private:
  std::string parser_;
  int accepted_ = 0;
  int rejected_ = 0;
  int failed_ = 0;
};

std::string printable(const std::string& text) {
  std::ostringstream out;
  out << '"';
  for (const char c : text) {
    if (c == '\n') {
      out << "\\n";
    } else if (std::isprint(static_cast<unsigned char>(c))) {
      out << c;
    } else {
      out << "\\x" << std::hex << (static_cast<unsigned>(c) & 0xFF)
          << std::dec;
    }
  }
  return out.str() + '"';
}

/// A uniform index in [0, n), n > 0.
std::size_t pick(Prng& prng, std::size_t n) {
  return static_cast<std::size_t>(
      prng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// ---------------------------------------------------------------------------
// Symbolic state files
// ---------------------------------------------------------------------------

/// Interesting 64-bit values for overwrites: lengths and counts at and
/// past the boundaries a reader must check.
std::uint64_t interesting_u64(Prng& prng, std::uint64_t file_size) {
  const std::uint64_t values[] = {
      0,
      1,
      2,
      file_size,
      file_size / 8,
      0x7FFFFFFFull,
      0x80000000ull,
      0xFFFFFFFFull,
      std::uint64_t{1} << 61,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0},
      ~std::uint64_t{0} - 7,
      prng.next_u64()};
  return values[pick(prng, std::size(values))];
}

std::string mutate_bytes(std::string bytes, Prng& prng, std::string& what) {
  const std::size_t offset = pick(prng, bytes.size());
  std::ostringstream how;
  switch (prng.uniform_int(0, 6)) {
    case 0: {
      const int bit = static_cast<int>(prng.uniform_int(0, 7));
      bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
      how << "flip bit " << bit << " at " << offset;
      break;
    }
    case 1:
      bytes[offset] = static_cast<char>(prng.uniform_int(0, 255));
      how << "set byte at " << offset;
      break;
    case 2:
    case 3: {
      const std::uint64_t value = interesting_u64(prng, bytes.size());
      const std::size_t width = prng.uniform_int(0, 1) == 0 ? 4 : 8;
      const std::size_t at = std::min(offset, bytes.size() - width);
      std::memcpy(bytes.data() + at, &value, width);
      how << "write " << width << " bytes of " << value << " at " << at;
      break;
    }
    case 4: {
      const std::size_t keep = pick(prng, bytes.size());
      bytes.resize(keep);
      how << "truncate to " << keep;
      break;
    }
    case 5: {
      const auto count = static_cast<std::size_t>(prng.uniform_int(1, 16));
      std::string extra(count, '\0');
      for (char& c : extra) {
        c = static_cast<char>(prng.uniform_int(0, 255));
      }
      bytes.insert(offset, extra);
      how << "insert " << count << " bytes at " << offset;
      break;
    }
    default: {
      const std::size_t count =
          1 + pick(prng, std::min<std::size_t>(16, bytes.size() - offset));
      bytes.erase(offset, count);
      how << "erase " << count << " bytes at " << offset;
      break;
    }
  }
  what = how.str();
  return bytes;
}

/// What makes a loaded state invalid ("" when it is valid): options out of
/// range, or a Solver adopting it that fails to factor and solve a matrix
/// on its pattern correctly within its budget.
std::string check_symbolic(const SolverSymbolic& symbolic) {
  const AnalyzeOptions& analyze = symbolic.analysis->options;
  const PlanOptions& plan = symbolic.plan->options;
  if (analyze.ordering > OrderingChoice::kNestedDissection ||
      plan.policy > TraversalPolicy::kMinMem) {
    return "loaded an out-of-range option";
  }
  const SymmetricMatrix matrix =
      make_spd_matrix(symbolic.analysis->pattern, 2011);
  std::vector<double> rhs(static_cast<std::size_t>(matrix.pattern().cols()));
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = 1.0 + static_cast<double>(i % 7);
  }
  // One worker runs the serial engine, two the threaded one.
  for (const int workers : {1, 2}) {
    if (workers > 1 && symbolic.plan->out_of_core) {
      continue;  // both widths run the out-of-core engine there
    }
    Solver solver;
    FactorizeOptions options;
    options.workers = workers;
    std::vector<double> x;
    try {
      solver.adopt(symbolic).factorize(matrix, options);
      x = solver.solve(rhs);
    } catch (const Error& e) {
      return std::string("the solver rejects the loaded state: ") + e.what();
    }
    const SolverStats stats = solver.stats();
    if (!(relative_residual(matrix, x, rhs) <= 1e-10)) {
      return "wrong solution (" + stats.engine + ")";
    }
    if (stats.measured_peak_entries > stats.modeled_peak_entries ||
        stats.modeled_peak_entries > stats.memory_budget) {
      return "memory above model or budget (" + stats.engine + ")";
    }
  }
  return "";
}

int run_symbolic_mutants(std::uint64_t seed, int mutants) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("treemem_mutation_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.tmsym").string();

  // Four valid files: two unbounded, one budgeted in-core and one
  // out-of-core plan (a budget halfway between max MemReq and MinMem).
  std::vector<std::string> bases;
  auto add_base = [&](const SparsePattern& pattern, Weight budget) {
    SolverOptions options;
    options.plan.memory_budget = budget;
    Solver solver(options);
    solver.analyze(pattern).plan();
    write_symbolic_file(solver.symbolic(), path);
    std::ifstream in(path, std::ios::binary);
    bases.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    return solver;
  };
  // (A random pattern: on small grids max MemReq is the MinMem optimum,
  // which leaves no out-of-core budget.)
  Prng structure(3);
  const SparsePattern random =
      symmetrize(gen::random_symmetric(40, 3.0, structure));
  add_base(gen::grid2d(6, 6), kInfiniteWeight);
  const Solver unbounded = add_base(random, kInfiniteWeight);
  const Weight optimum = unbounded.stats().in_core_optimum;
  const Tree& tree = unbounded.symbolic().analysis->assembly.tree;
  const Weight floor =
      std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  add_base(random, optimum * 3 / 2);
  const Solver ooc = add_base(random, (floor + optimum) / 2);
  TM_CHECK(ooc.stats().planned_io_volume > 0,
           "the out-of-core base plans no I/O");
  for (const std::string& base : bases) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << base;
    const std::string invalid = check_symbolic(read_symbolic_file(path));
    TM_CHECK(invalid.empty(), "a base state file is invalid: " << invalid);
  }

  Outcomes outcomes("read_symbolic_file");
  Prng prng(seed);
  for (int m = 0; m < mutants; ++m) {
    const std::size_t b = pick(prng, bases.size());
    std::string what;
    const std::string bytes = mutate_bytes(bases[b], prng, what);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    outcomes.run("base " + std::to_string(b) + ", " + what,
                 [&] { return check_symbolic(read_symbolic_file(path)); });
  }
  std::filesystem::remove_all(dir);
  return outcomes.report();
}

// ---------------------------------------------------------------------------
// Matrix Market texts
// ---------------------------------------------------------------------------

const std::vector<std::string>& matrix_market_bases() {
  static const std::vector<std::string> bases = {
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% a 4x4 SPD matrix, lower triangle\n"
      "4 4 6\n"
      "1 1 4.0\n2 1 -1.0\n2 2 4.0\n3 2 -1.0\n3 3 4.0\n4 4 4.0\n",
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 5\n"
      "1 1 2.5\n2 1 -0.5\n1 2 -0.5\n2 2 2.5\n3 3 1e-3\n",
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "4 4 5\n"
      "1 1\n2 1\n3 3\n4 2\n4 4\n",
      "%%MatrixMarket matrix coordinate complex hermitian\n"
      "2 2 3\n"
      "1 1 3.0 0.0\n2 1 1.0 -1.0\n2 2 3.0 0.0\n",
      "%%MatrixMarket matrix coordinate integer skew-symmetric\n"
      "3 3 2\n"
      "2 1 4\n3 2 -7\n",
  };
  return bases;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  return tokens;
}

const char* const kTokens[] = {
    "0", "1", "-1", "2", "5", "-0", "+1", "0x10", "1e309", "-1e309", "nan",
    "inf", "2147483647", "2147483648", "-2147483649", "9223372036854775807",
    "9223372036854775808", "1.5", "abc", "%", "%%MatrixMarket", "matrix",
    "coordinate", "array", "real", "integer", "complex", "pattern",
    "general", "symmetric", "skew-symmetric", "hermitian", "REAL",
    "Symmetric", "vector"};

std::string random_token(Prng& prng) {
  return kTokens[pick(prng, std::size(kTokens))];
}

/// Mutates one line: replaces, deletes, duplicates or inserts a token, or
/// flips, inserts or deletes one character.
std::string mutate_line(const std::string& line, Prng& prng) {
  std::vector<std::string> tokens = split_tokens(line);
  std::string out = line;
  switch (prng.uniform_int(0, 5)) {
    case 0:
      if (!tokens.empty()) {
        tokens[pick(prng, tokens.size())] = random_token(prng);
      }
      break;
    case 1:
      if (!tokens.empty()) {
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(pick(prng, tokens.size())));
      }
      break;
    case 2:
      if (!tokens.empty()) {
        const std::size_t i = pick(prng, tokens.size());
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                      tokens[i]);
      }
      break;
    case 3:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(
                                         pick(prng, tokens.size() + 1)),
                    random_token(prng));
      break;
    case 4:
      if (!out.empty()) {
        out[pick(prng, out.size())] =
            static_cast<char>(prng.uniform_int(1, 255));
      }
      return out;
    default:
      out.insert(pick(prng, out.size() + 1), 1,
                 static_cast<char>(prng.uniform_int(1, 255)));
      return out;
  }
  out.clear();
  for (const std::string& token : tokens) {
    out += out.empty() ? token : " " + token;
  }
  return out;
}

/// Index of the size line: the first line after the banner that is
/// neither blank nor a comment.
std::size_t size_line_index(const std::vector<std::string>& lines) {
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto first = lines[i].find_first_not_of(" \t\r");
    if (first != std::string::npos && lines[i][first] != '%') {
      return i;
    }
  }
  return lines.size();
}

std::string check_matrix_market_data(const MatrixMarketData& data) {
  if (data.pattern.rows() != data.rows || data.pattern.cols() != data.cols) {
    return "pattern dimensions differ from the header";
  }
  const bool pattern_field = data.field == "pattern";
  if (data.values.size() !=
      (pattern_field ? 0 : static_cast<std::size_t>(data.pattern.nnz()))) {
    return "value count does not match the pattern";
  }
  return "";
}

std::string check_matrix(const SymmetricMatrix& matrix) {
  const SparsePattern& p = matrix.pattern();
  if (!p.is_square() || !p.is_symmetric() || !p.has_full_diagonal() ||
      matrix.values().size() != static_cast<std::size_t>(p.nnz())) {
    return "matrix is not square, symmetric and full-diagonal";
  }
  return "";
}

int run_matrix_market_mutants(std::uint64_t seed, int mutants) {
  Outcomes data_outcomes("read_matrix_market_data");
  Outcomes matrix_outcomes("read_matrix_market_matrix");
  Prng prng(seed);
  const auto& bases = matrix_market_bases();
  for (const std::string& base : bases) {
    TM_CHECK(check_matrix_market_data(read_matrix_market_data_string(base))
                 .empty(),
             "an invalid base text");
  }
  for (int m = 0; m < mutants; ++m) {
    std::vector<std::string> lines =
        split_lines(bases[pick(prng, bases.size())]);
    const std::size_t size_line = size_line_index(lines);
    // The banner or one entry line; up to three mutations.
    const int rounds = static_cast<int>(prng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) {
      std::size_t line = 0;
      if (prng.uniform_int(0, 2) > 0 && size_line + 1 < lines.size()) {
        line = static_cast<std::size_t>(prng.uniform_int(
            static_cast<std::int64_t>(size_line) + 1,
            static_cast<std::int64_t>(lines.size()) - 1));
        switch (prng.uniform_int(0, 5)) {
          case 0:
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(line));
            continue;
          case 1:
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(line),
                         lines[line]);
            continue;
          default:
            break;
        }
      }
      lines[line] = mutate_line(lines[line], prng);
    }
    std::string text;
    for (const std::string& line : lines) {
      text += line + "\n";
    }
    data_outcomes.run(printable(text), [&] {
      return check_matrix_market_data(read_matrix_market_data_string(text));
    });
    matrix_outcomes.run(printable(text), [&] {
      return check_matrix(read_matrix_market_matrix_string(text));
    });
  }
  return data_outcomes.report() + matrix_outcomes.report();
}

// ---------------------------------------------------------------------------
// TREEMEM_* variables
// ---------------------------------------------------------------------------

bool is_integer_text(const std::string& text) {
  const std::size_t start = !text.empty() && text[0] == '-' ? 1 : 0;
  if (start == text.size()) {
    return false;
  }
  for (std::size_t i = start; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return false;
    }
  }
  return true;
}

/// [-]digits[.digits][e[±]digits] or [-].digits[...]: the plain decimal
/// grammar env_double documents.
bool is_decimal_text(const std::string& text) {
  std::size_t i = !text.empty() && text[0] == '-' ? 1 : 0;
  std::size_t digits = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    ++i;
    ++digits;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
      ++digits;
    }
  }
  if (digits == 0) {
    return false;
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      ++i;
    }
    const std::size_t exponent_start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
    }
    if (i == exponent_start) {
      return false;
    }
  }
  return i == text.size();
}

struct EnvCase {
  const char* name;
  std::vector<std::string> seeds;  ///< valid values the mutants start from
  /// Parses the variable as its consumer does; returns "" when the
  /// result is exactly what `text` spells.
  std::function<std::string(const std::string& text)> parse;
};

std::string expect_integer(const std::string& text,
                           std::optional<long long> value, long long lo,
                           long long hi) {
  if (!value) {
    return text.empty() ? "" : "a set value read as unset";
  }
  if (!is_integer_text(text) || *value < lo || *value > hi ||
      std::strtoll(text.c_str(), nullptr, 10) != *value) {
    return "accepted a value that is not an in-range integer";
  }
  return "";
}

std::vector<EnvCase> env_cases() {
  const long long threads_max = std::numeric_limits<long long>::max() / 2;
  return {
      {"TREEMEM_THREADS",
       {"1", "4", "1024"},
       [=](const std::string& text) {
         return expect_integer(text, env_int("TREEMEM_THREADS", 1,
                                             threads_max),
                               1, threads_max);
       }},
      {"TREEMEM_SCALE",
       {"1.0", "0.5", "4", "1e2", ".25"},
       [](const std::string& text) -> std::string {
         const std::optional<double> value =
             env_double("TREEMEM_SCALE", 1e-3, 1e3);
         if (!value) {
           return text.empty() ? "" : "a set value read as unset";
         }
         if (!is_decimal_text(text) || !(*value >= 1e-3 && *value <= 1e3)) {
           return "accepted a value that is not an in-range decimal";
         }
         return "";
       }},
  };
}

/// Mutates a variable's value: one or two character edits, a '+', space
/// or hex prefix, a suffix, a digit run, or a token from the Matrix
/// Market dictionary (numbers at the integer limits, nan/inf, ...).
std::string mutate_value(std::string value, Prng& prng) {
  switch (prng.uniform_int(0, 6)) {
    case 0:
      if (!value.empty()) {
        value[pick(prng, value.size())] =
            static_cast<char>(prng.uniform_int(1, 255));
      }
      break;
    case 1:
      value.insert(pick(prng, value.size() + 1), 1,
                   static_cast<char>(prng.uniform_int(1, 255)));
      break;
    case 2:
      if (!value.empty()) {
        value.erase(pick(prng, value.size()), 1);
      }
      break;
    case 3: {
      const char* const prefixes[] = {"+", " ", "0x", "-", "--", "\t"};
      value = prefixes[pick(prng, std::size(prefixes))] + value;
      break;
    }
    case 4: {
      const char* const suffixes[] = {" ", "k", ".", "e5", "e999", "\n", "0"};
      value += suffixes[pick(prng, std::size(suffixes))];
      break;
    }
    case 5:
      value = std::string(static_cast<std::size_t>(prng.uniform_int(1, 40)),
                          static_cast<char>('0' + prng.uniform_int(0, 9)));
      break;
    default:
      value = random_token(prng);
      break;
  }
  return value;
}

int run_env_mutants(std::uint64_t seed, int mutants) {
  Outcomes outcomes("TREEMEM_* parsers");
  Prng prng(seed);
  const std::vector<EnvCase> cases = env_cases();
  // Each variable is unset between mutants; main() already unset them
  // all, after the worker pool read TREEMEM_THREADS.
  for (const EnvCase& c : cases) {
    for (const std::string& value : c.seeds) {
      ::setenv(c.name, value.c_str(), 1);
      const std::string invalid = c.parse(value);
      TM_CHECK(invalid.empty(), c.name << "=" << value << ": " << invalid);
    }
    ::unsetenv(c.name);
  }
  for (int m = 0; m < mutants; ++m) {
    const EnvCase& c = cases[pick(prng, cases.size())];
    std::string value = c.seeds[pick(prng, c.seeds.size())];
    const int rounds = static_cast<int>(prng.uniform_int(1, 2));
    for (int r = 0; r < rounds; ++r) {
      value = mutate_value(value, prng);
    }
    ::setenv(c.name, value.c_str(), 1);
    outcomes.run(std::string(c.name) + "=" + printable(value),
                 [&] { return c.parse(value); });
    ::unsetenv(c.name);
  }
  return outcomes.report();
}

}  // namespace
}  // namespace treemem

int main(int argc, char** argv) {
  std::uint64_t seed = 20110516;
  int mutants = 2000;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--mutants") {
      mutants = std::atoi(argv[i + 1]);
    } else {
      std::cerr << "usage: treemem_mutation_driver [--seed N] [--mutants N]\n";
      return 2;
    }
  }
  // The process-wide worker pool sizes itself from the environment the
  // driver was started with; after that, every TREEMEM_* knob is unset so
  // the parsers under test see only the mutants.
  treemem::WorkerPool::instance();
  for (const char* name : {"TREEMEM_THREADS", "TREEMEM_SCALE"}) {
    ::unsetenv(name);
  }
  int failures = 0;
  failures += treemem::run_symbolic_mutants(seed, mutants);
  failures += treemem::run_matrix_market_mutants(seed + 1, mutants);
  failures += treemem::run_env_mutants(seed + 2, mutants);
  std::cout << (failures == 0 ? "PASS" : "FAIL") << " (seed " << seed << ", "
            << mutants << " mutants per parser)\n";
  return failures == 0 ? 0 : 1;
}
