#ifndef AUTOTEST_TABLE_CSV_H_
#define AUTOTEST_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "table/table.h"
#include "util/budget.h"
#include "util/status.h"

namespace autotest::table {

/// Options for CSV parsing/serialization (RFC-4180-style quoting).
///
/// The byte limits bound what untrusted input can make the parser allocate;
/// a value of 0 disables that limit. Exceeding a limit is a
/// kResourceExhausted error from TryParseCsv, with the offending line and
/// field in the message.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Maximum bytes in a single (unquoted or quoted) field.
  size_t max_field_bytes = size_t{1} << 20;  // 1 MiB
  /// Maximum bytes in a single row (sum of its field payloads).
  size_t max_row_bytes = size_t{16} << 20;  // 16 MiB
  /// Maximum number of columns (fields in the widest row).
  size_t max_columns = size_t{1} << 16;
  /// Optional per-request budget (DESIGN.md §4j). When set, the parser
  /// charges each completed row (1 row, its cell count, its payload
  /// bytes) before materializing it, so a request-wide ceiling fails the
  /// parse fast with the budget's structured kResourceExhausted — in
  /// addition to the per-row/per-field limits above. Not owned.
  util::ResourceBudget* budget = nullptr;
};

/// Parses CSV text into a Table. Handles quoted fields with embedded
/// delimiters, quotes ("" escape) and newlines. Short rows are padded with
/// empty strings; long rows are truncated to the header width.
///
/// Errors carry precise diagnostics: kDataLoss for malformed input
/// (unterminated quote, with the line/field/byte offset where the quote
/// opened) and kResourceExhausted for inputs exceeding CsvOptions limits.
[[nodiscard]] util::Result<Table> TryParseCsv(std::string_view text,
                                              const CsvOptions& options = {});

/// Reads and parses a CSV file. kIoError / kNotFound if the file is
/// unreadable, else TryParseCsv's diagnostics with the path as context.
[[nodiscard]] util::Result<Table> TryReadCsvFile(
    const std::string& path, const CsvOptions& options = {});

/// Writes a table as a CSV file; kIoError on failure.
[[nodiscard]] util::Status TryWriteCsvFile(const Table& table,
                                           const std::string& path,
                                           const CsvOptions& options = {});

/// Serializes a Table to CSV text, quoting fields when necessary.
std::string WriteCsv(const Table& table, const CsvOptions& options = {});

}  // namespace autotest::table

#endif  // AUTOTEST_TABLE_CSV_H_
