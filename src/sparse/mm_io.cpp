#include "sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

namespace treemem {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// One coordinate triplet before deduplication (0-based indices).
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

/// The shared coordinate parser behind every reader: banner, size line,
/// entries (with values unless the field is `pattern`), symmetry
/// expansion. Duplicate handling is left to the callers — the pattern
/// reader lets from_coo dedup, the data reader sums.
MatrixMarketData parse_coordinate(std::istream& in) {
  std::string line;
  TM_CHECK(static_cast<bool>(std::getline(in, line)), "empty Matrix Market stream");

  // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
  std::istringstream banner(line);
  std::string tag;
  std::string object;
  std::string format;
  MatrixMarketData data;
  banner >> tag >> object >> format >> data.field >> data.symmetry;
  TM_CHECK(to_lower(tag) == "%%matrixmarket",
           "not a Matrix Market file (banner: '" << tag << "')");
  TM_CHECK(to_lower(object) == "matrix", "unsupported object '" << object << "'");
  TM_CHECK(to_lower(format) == "coordinate",
           "only coordinate format is supported, got '" << format << "'");
  data.field = to_lower(data.field);
  data.symmetry = to_lower(data.symmetry);
  TM_CHECK(data.field == "real" || data.field == "integer" ||
               data.field == "pattern" || data.field == "complex",
           "unsupported field '" << data.field << "'");
  TM_CHECK(data.symmetry == "general" || data.symmetry == "symmetric" ||
               data.symmetry == "skew-symmetric" ||
               data.symmetry == "hermitian",
           "unsupported symmetry '" << data.symmetry << "'");

  // Skip comments and blank lines, then read the size line.
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '%') {
      continue;
    }
    break;
  }
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t entries = 0;
  {
    std::istringstream size_line(line);
    TM_CHECK(static_cast<bool>(size_line >> rows >> cols >> entries),
             "malformed size line: '" << line << "'");
  }
  TM_CHECK(rows >= 0 && cols >= 0 && entries >= 0,
           "negative sizes in Matrix Market header");
  // Checked before anything is allocated from the header: indices are
  // Index-sized. The entry count is not bounded by rows * cols, because
  // repeated coordinates are legal here (they sum).
  constexpr std::int64_t kMaxDimension = std::numeric_limits<Index>::max();
  TM_CHECK(rows <= kMaxDimension && cols <= kMaxDimension,
           "Matrix Market header: " << rows << "x" << cols
                                    << " exceeds the largest dimension "
                                    << kMaxDimension);
  data.rows = static_cast<Index>(rows);
  data.cols = static_cast<Index>(cols);

  const bool expand = data.symmetry != "general";
  const bool has_values = data.field != "pattern";
  // The declared count only sizes the first allocation, capped: a header
  // that overstates it fails as a truncated stream, having allocated no
  // more than the entries the stream holds.
  constexpr std::int64_t kMaxReserve = std::int64_t{1} << 20;
  std::vector<Triplet> coo;
  coo.reserve(static_cast<std::size_t>(std::min(entries, kMaxReserve) *
                                       (expand ? 2 : 1)));
  for (std::int64_t k = 0; k < entries; ++k) {
    std::int64_t r = 0;
    std::int64_t c = 0;
    double value = has_values ? 0.0 : 1.0;
    TM_CHECK(static_cast<bool>(in >> r >> c), "truncated entry " << k);
    if (has_values) {
      TM_CHECK(static_cast<bool>(in >> value), "truncated value at entry " << k);
      if (data.field == "complex") {
        // The imaginary part is parsed and dropped: this library factors
        // real symmetric systems, and hermitian storage keeps exactly the
        // real part under the mirror below.
        double imaginary = 0.0;
        TM_CHECK(static_cast<bool>(in >> imaginary),
                 "truncated imaginary part at entry " << k);
      }
    }
    TM_CHECK(r >= 1 && r <= rows && c >= 1 && c <= cols,
             "entry (" << r << "," << c << ") outside " << rows << "x" << cols);
    coo.push_back({static_cast<Index>(r - 1), static_cast<Index>(c - 1), value});
    if (expand && r != c) {
      const double mirrored =
          data.symmetry == "skew-symmetric" ? -value : value;
      coo.push_back(
          {static_cast<Index>(c - 1), static_cast<Index>(r - 1), mirrored});
    }
  }

  // Sort by (col, row) — CSC order — and sum duplicates (the Matrix Market
  // convention for assembled input).
  std::sort(coo.begin(), coo.end(), [](const Triplet& a, const Triplet& b) {
    return std::tie(a.col, a.row) < std::tie(b.col, b.row);
  });
  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<Index> row_idx;
  std::vector<double> values;
  row_idx.reserve(coo.size());
  if (has_values) {
    values.reserve(coo.size());
  }
  for (std::size_t i = 0; i < coo.size(); ++i) {
    if (i > 0 && coo[i].row == coo[i - 1].row && coo[i].col == coo[i - 1].col) {
      if (has_values) {
        values.back() += coo[i].value;
      }
      continue;
    }
    ++col_ptr[static_cast<std::size_t>(coo[i].col) + 1];
    row_idx.push_back(coo[i].row);
    if (has_values) {
      values.push_back(coo[i].value);
    }
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(cols); ++j) {
    col_ptr[j + 1] += col_ptr[j];
  }
  data.pattern = SparsePattern(data.rows, data.cols, std::move(col_ptr),
                               std::move(row_idx));
  data.values = std::move(values);
  return data;
}

/// Round-trip double formatting for the valued writer.
std::string value_text(double value) {
  std::ostringstream oss;
  oss.precision(std::numeric_limits<double>::max_digits10);
  oss << value;
  return oss.str();
}

}  // namespace

SparsePattern read_matrix_market(std::istream& in) {
  return parse_coordinate(in).pattern;
}

SparsePattern read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  TM_CHECK(in.good(), "cannot open " << path);
  return read_matrix_market(in);
}

SparsePattern read_matrix_market_string(const std::string& text) {
  std::istringstream iss(text);
  return read_matrix_market(iss);
}

MatrixMarketData read_matrix_market_data(std::istream& in) {
  return parse_coordinate(in);
}

MatrixMarketData read_matrix_market_data_file(const std::string& path) {
  std::ifstream in(path);
  TM_CHECK(in.good(), "cannot open " << path);
  return parse_coordinate(in);
}

MatrixMarketData read_matrix_market_data_string(const std::string& text) {
  std::istringstream iss(text);
  return parse_coordinate(iss);
}

SymmetricMatrix matrix_from_matrix_market(MatrixMarketData data) {
  TM_CHECK(data.has_values(),
           "matrix has field 'pattern' — no values to solve (generate "
           "synthetic values instead, e.g. treemem_cli solve --synthetic)");
  TM_CHECK(data.symmetry != "skew-symmetric",
           "skew-symmetric matrices have no symmetric value set and cannot "
           "be factored by this (Cholesky) solver");
  TM_CHECK(data.pattern.is_square(),
           "matrix is " << data.rows << "x" << data.cols
                        << " — the solver needs a square system");
  TM_CHECK(data.pattern.is_symmetric(),
           "matrix stored as '" << data.symmetry
                                << "' has an unsymmetric pattern — "
                                   "symmetrize it or solve --synthetic");

  if (!data.pattern.has_full_diagonal()) {
    // Pad the missing diagonal entries with explicit zeros: the matrix is
    // unchanged, and the result satisfies Solver::analyze's full-diagonal
    // requirement (a genuinely zero pivot still fails factorization with
    // the not-positive-definite error, as it must).
    const Index n = data.pattern.cols();
    const auto& old_ptr = data.pattern.col_ptr();
    const auto& old_rows = data.pattern.row_idx();
    std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<Index> row_idx;
    std::vector<double> values;
    row_idx.reserve(old_rows.size() + static_cast<std::size_t>(n));
    values.reserve(old_rows.size() + static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j) {
      bool saw_diagonal = false;
      for (std::int64_t o = old_ptr[static_cast<std::size_t>(j)];
           o < old_ptr[static_cast<std::size_t>(j) + 1]; ++o) {
        const Index r = old_rows[static_cast<std::size_t>(o)];
        if (r > j && !saw_diagonal) {
          row_idx.push_back(j);
          values.push_back(0.0);
          saw_diagonal = true;
        }
        saw_diagonal = saw_diagonal || r == j;
        row_idx.push_back(r);
        values.push_back(data.values[static_cast<std::size_t>(o)]);
      }
      if (!saw_diagonal) {
        row_idx.push_back(j);
        values.push_back(0.0);
      }
      col_ptr[static_cast<std::size_t>(j) + 1] =
          static_cast<std::int64_t>(row_idx.size());
    }
    data.pattern = SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
    data.values = std::move(values);
  }
  // The SymmetricMatrix constructor validates value symmetry, catching
  // numerically unsymmetric `general` files with a clean error.
  return SymmetricMatrix(std::move(data.pattern), std::move(data.values));
}

SymmetricMatrix read_matrix_market_matrix(std::istream& in) {
  return matrix_from_matrix_market(parse_coordinate(in));
}

SymmetricMatrix read_matrix_market_matrix_file(const std::string& path) {
  std::ifstream in(path);
  TM_CHECK(in.good(), "cannot open " << path);
  return read_matrix_market_matrix(in);
}

SymmetricMatrix read_matrix_market_matrix_string(const std::string& text) {
  std::istringstream iss(text);
  return read_matrix_market_matrix(iss);
}

void write_matrix_market(std::ostream& out, const SparsePattern& pattern,
                         bool symmetric_lower) {
  if (symmetric_lower) {
    TM_CHECK(pattern.is_symmetric(),
             "symmetric output requested for a non-symmetric pattern");
  }
  out << "%%MatrixMarket matrix coordinate pattern "
      << (symmetric_lower ? "symmetric" : "general") << "\n";
  out << "% written by treemem\n";

  std::int64_t count = 0;
  for (Index j = 0; j < pattern.cols(); ++j) {
    for (const Index r : pattern.column(j)) {
      if (!symmetric_lower || r >= j) {
        ++count;
      }
    }
  }
  out << pattern.rows() << ' ' << pattern.cols() << ' ' << count << "\n";
  for (Index j = 0; j < pattern.cols(); ++j) {
    for (const Index r : pattern.column(j)) {
      if (!symmetric_lower || r >= j) {
        out << (r + 1) << ' ' << (j + 1) << "\n";
      }
    }
  }
}

void write_matrix_market_file(const std::string& path,
                              const SparsePattern& pattern,
                              bool symmetric_lower) {
  std::ofstream out(path);
  TM_CHECK(out.good(), "cannot open " << path << " for writing");
  write_matrix_market(out, pattern, symmetric_lower);
  TM_CHECK(out.good(), "write to " << path << " failed");
}

void write_matrix_market(std::ostream& out, const SymmetricMatrix& matrix,
                         bool symmetric_lower) {
  const SparsePattern& pattern = matrix.pattern();
  out << "%%MatrixMarket matrix coordinate real "
      << (symmetric_lower ? "symmetric" : "general") << "\n";
  out << "% written by treemem\n";

  std::int64_t count = 0;
  for_each_entry(pattern, [&](Index r, Index j, std::size_t) {
    if (!symmetric_lower || r >= j) {
      ++count;
    }
  });
  out << pattern.rows() << ' ' << pattern.cols() << ' ' << count << "\n";
  for_each_entry(pattern, [&](Index r, Index j, std::size_t offset) {
    if (!symmetric_lower || r >= j) {
      out << (r + 1) << ' ' << (j + 1) << ' '
          << value_text(matrix.values()[offset]) << "\n";
    }
  });
}

void write_matrix_market_file(const std::string& path,
                              const SymmetricMatrix& matrix,
                              bool symmetric_lower) {
  std::ofstream out(path);
  TM_CHECK(out.good(), "cannot open " << path << " for writing");
  write_matrix_market(out, matrix, symmetric_lower);
  TM_CHECK(out.good(), "write to " << path << " failed");
}

}  // namespace treemem
