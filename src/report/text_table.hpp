// Fixed-width text tables in the style of the paper, plus CSV emission.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gmm::report {

enum class Align { kLeft, kRight };

/// Column-oriented table builder: set headers once, append rows of cells.
class TextTable {
 public:
  /// One header per column; alignment defaults to right (numeric style).
  explicit TextTable(std::vector<std::string> headers);

  void set_alignment(std::size_t column, Align align);

  /// Append a row; must have exactly one cell per column.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  /// Render with a header rule, column separators and padding.
  void print(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;

  /// Emit RFC-4180-ish CSV (quotes around cells containing commas).
  void print_csv(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> align_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gmm::report
