#include "fairmove/common/csv.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fairmove/common/macros.h"

namespace fairmove {

namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::AddRow(std::vector<std::string> row) {
  FM_CHECK(row.size() == header_.size())
      << "row width " << row.size() << " != header width " << header_.size();
  rows_.push_back(std::move(row));
}

Table::RowBuilder& Table::RowBuilder::Str(std::string v) {
  cells_.push_back(std::move(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  cells_.emplace_back(buf);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Int(int64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::Pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  cells_.emplace_back(buf);
  return *this;
}

void Table::RowBuilder::Done() { table_->AddRow(std::move(cells_)); }

const std::string& Table::Cell(size_t row, const std::string& column) const {
  const auto it = std::find(header_.begin(), header_.end(), column);
  FM_CHECK(it != header_.end()) << "unknown column: " << column;
  const size_t col = static_cast<size_t>(it - header_.begin());
  return rows_.at(row).at(col);
}

std::string Table::ToCsv() const {
  std::ostringstream os;
  for (size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << QuoteCell(header_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << QuoteCell(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

std::string Table::ToAlignedText() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size()) {
        os << std::string(widths[i] - row[i].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

Status Table::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << ToCsv();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

namespace {

/// Splits one logical CSV record starting at `pos`; advances `pos` past the
/// record's trailing newline. Returns false (with status) on malformed
/// quoting.
Status SplitRecord(const std::string& text, size_t* pos,
                   std::vector<std::string>* cells, bool* saw_any) {
  cells->clear();
  *saw_any = false;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;
  size_t i = *pos;
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      cell += c;
      ++i;
      continue;
    }
    if (c == '"') {
      if (!cell.empty()) {
        return Status::InvalidArgument(
            "quote inside unquoted cell near offset " + std::to_string(i));
      }
      in_quotes = true;
      cell_started = true;
      ++i;
      continue;
    }
    if (c == ',') {
      cells->push_back(std::move(cell));
      cell.clear();
      cell_started = true;
      *saw_any = true;
      ++i;
      continue;
    }
    if (c == '\r') {
      ++i;
      continue;  // tolerate CRLF
    }
    if (c == '\n') {
      ++i;
      break;
    }
    cell += c;
    cell_started = true;
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted cell");
  }
  if (cell_started || !cell.empty()) {
    cells->push_back(std::move(cell));
    *saw_any = true;
  }
  *pos = i;
  return Status::OK();
}

/// Embedded NUL bytes never occur in well-formed CSV; they are the
/// signature of torn writes / disk corruption, and they silently truncate
/// any later C-string handling of the cell.
bool AnyCellHasNul(const std::vector<std::string>& cells) {
  for (const auto& cell : cells) {
    if (cell.find('\0') != std::string::npos) return true;
  }
  return false;
}

}  // namespace

StatusOr<Table> ParseCsv(const std::string& text) {
  size_t pos = 0;
  std::vector<std::string> cells;
  bool saw_any = false;
  FM_RETURN_IF_ERROR(SplitRecord(text, &pos, &cells, &saw_any));
  if (!saw_any) return Status::InvalidArgument("empty CSV: no header line");
  if (AnyCellHasNul(cells)) {
    return Status::InvalidArgument("NUL byte in CSV header");
  }
  Table table(cells);
  while (pos < text.size()) {
    FM_RETURN_IF_ERROR(SplitRecord(text, &pos, &cells, &saw_any));
    if (!saw_any) continue;  // blank line
    if (AnyCellHasNul(cells)) {
      return Status::InvalidArgument(
          "NUL byte in row " + std::to_string(table.num_rows() + 1));
    }
    if (cells.size() != table.num_cols()) {
      return Status::InvalidArgument(
          "row " + std::to_string(table.num_rows() + 1) + " has " +
          std::to_string(cells.size()) + " cells, header has " +
          std::to_string(table.num_cols()));
    }
    table.AddRow(cells);
  }
  return table;
}

StatusOr<Table> ParseCsvLenient(const std::string& text,
                                CsvQuarantine* quarantine) {
  CsvQuarantine q;
  size_t pos = 0;
  std::vector<std::string> cells;
  bool saw_any = false;
  FM_RETURN_IF_ERROR(SplitRecord(text, &pos, &cells, &saw_any));
  if (!saw_any) return Status::InvalidArgument("empty CSV: no header line");
  if (AnyCellHasNul(cells)) {
    return Status::InvalidArgument("NUL byte in CSV header");
  }
  Table table(cells);
  while (pos < text.size()) {
    const size_t record_start = pos;
    const Status split = SplitRecord(text, &pos, &cells, &saw_any);
    if (!split.ok()) {
      // SplitRecord leaves `pos` untouched on error; resynchronise at the
      // next physical line so one mangled record cannot poison the rest.
      ++q.malformed_quoting;
      const size_t next = text.find('\n', record_start);
      if (next == std::string::npos) break;
      pos = next + 1;
      continue;
    }
    if (!saw_any) continue;  // blank line
    if (AnyCellHasNul(cells)) {
      ++q.nul_rows;
      continue;
    }
    if (cells.size() != table.num_cols()) {
      ++q.ragged_rows;
      continue;
    }
    table.AddRow(cells);
  }
  if (quarantine != nullptr) *quarantine = q;
  return table;
}

}  // namespace fairmove
