#ifndef FAIRMOVE_COMMON_CSV_H_
#define FAIRMOVE_COMMON_CSV_H_

#include <string>
#include <vector>

#include "fairmove/common/status.h"

namespace fairmove {

/// Minimal in-memory tabular builder with CSV / aligned-text rendering.
/// Every bench binary emits its paper table/figure through this class so the
/// output format is uniform and machine-parsable.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Appends a row. Row width must match the header width.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats each cell with %g / passthrough for strings.
  class RowBuilder {
   public:
    explicit RowBuilder(Table* table) : table_(table) {}
    RowBuilder& Str(std::string v);
    RowBuilder& Num(double v, int precision = 4);
    RowBuilder& Int(int64_t v);
    RowBuilder& Pct(double fraction, int precision = 1);
    /// Commits the row to the table.
    void Done();

   private:
    Table* table_;
    std::vector<std::string> cells_;
  };
  RowBuilder Row() { return RowBuilder(this); }

  size_t num_rows() const { return rows_.size(); }
  size_t num_cols() const { return header_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::string>& row(size_t i) const { return rows_.at(i); }
  /// Cell accessor by row index and column name; CHECKs on unknown column.
  const std::string& Cell(size_t row, const std::string& column) const;

  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  std::string ToCsv() const;

  /// Space-padded aligned text for terminal output.
  std::string ToAlignedText() const;

  /// Writes ToCsv() to `path`.
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses RFC-4180-ish CSV text (quoted cells, escaped quotes, CR/LF line
/// endings) produced by Table::ToCsv or external tooling. The first line is
/// the header. Returns InvalidArgument on ragged rows, malformed quoting,
/// or embedded NUL bytes.
StatusOr<Table> ParseCsv(const std::string& text);

/// What ParseCsvLenient skipped instead of failing on — the quarantine
/// counters of a corrupted record stream.
struct CsvQuarantine {
  int64_t ragged_rows = 0;        // truncated / extra-cell rows
  int64_t malformed_quoting = 0;  // unterminated or misplaced quotes
  int64_t nul_rows = 0;           // rows containing embedded NUL bytes

  int64_t total() const {
    return ragged_rows + malformed_quoting + nul_rows;
  }
};

/// Best-effort parse of a possibly corrupted record stream: the header must
/// still parse cleanly (a broken header means the wrong file, not a flaky
/// row), but damaged data rows — truncated, mis-quoted, NUL-ridden — are
/// quarantined (counted in `quarantine` and skipped) instead of failing
/// the whole batch. `quarantine` may be nullptr.
StatusOr<Table> ParseCsvLenient(const std::string& text,
                                CsvQuarantine* quarantine = nullptr);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_CSV_H_
