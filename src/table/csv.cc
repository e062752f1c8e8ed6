#include "table/csv.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/failpoint.h"

namespace autotest::table {

namespace {

using util::DataLossError;
using util::IoError;
using util::NotFoundError;
using util::ResourceExhaustedError;
using util::Result;
using util::Status;

// Cursor state threaded through the cell parser so limit violations and
// malformed input report the exact line (1-based, physical), field (1-based
// within the row) and byte offset.
struct ParsePos {
  size_t line = 1;
  size_t field = 1;
  size_t row_bytes = 0;
};

std::string At(size_t line, size_t field, size_t byte) {
  return "line " + std::to_string(line) + ", field " +
         std::to_string(field) + ", byte offset " + std::to_string(byte);
}

// Parses the raw grid of cells with resource limits applied as the input
// streams through (a hostile input fails fast, before large allocations).
Status ParseCells(std::string_view text, const CsvOptions& opt,
                  std::vector<std::vector<std::string>>* rows) {
  std::vector<std::string> row;
  std::string field;
  size_t i = 0;
  bool in_row = false;
  ParsePos pos;

  auto check_field = [&](size_t at_byte) -> Status {
    if (opt.max_field_bytes != 0 && field.size() > opt.max_field_bytes) {
      return ResourceExhaustedError(
          "field exceeds max_field_bytes=" +
          std::to_string(opt.max_field_bytes) + " at " +
          At(pos.line, pos.field, at_byte));
    }
    if (opt.max_row_bytes != 0 &&
        pos.row_bytes + field.size() > opt.max_row_bytes) {
      return ResourceExhaustedError(
          "row exceeds max_row_bytes=" + std::to_string(opt.max_row_bytes) +
          " at " + At(pos.line, pos.field, at_byte));
    }
    return Status::Ok();
  };
  auto end_field = [&](size_t at_byte) -> Status {
    AT_RETURN_IF_ERROR(check_field(at_byte));
    if (opt.max_columns != 0 && row.size() >= opt.max_columns) {
      return ResourceExhaustedError(
          "row exceeds max_columns=" + std::to_string(opt.max_columns) +
          " at " + At(pos.line, pos.field, at_byte));
    }
    pos.row_bytes += field.size();
    row.push_back(std::move(field));
    field.clear();
    ++pos.field;
    return Status::Ok();
  };
  auto end_row = [&](size_t at_byte) -> Status {
    AT_RETURN_IF_ERROR(end_field(at_byte));
    if (opt.budget != nullptr) {
      // One batched charge per row (row + cells + payload bytes) keeps
      // the budget's atomics off the per-character path while still
      // failing mid-parse, before the next row is materialized.
      const std::string what =
          "csv row at " + At(pos.line, pos.field, at_byte);
      AT_RETURN_IF_ERROR(
          opt.budget->TryCharge(util::ResourceKind::kRows, 1, what));
      AT_RETURN_IF_ERROR(opt.budget->TryCharge(util::ResourceKind::kCells,
                                               row.size(), what));
      AT_RETURN_IF_ERROR(opt.budget->TryCharge(util::ResourceKind::kBytes,
                                               pos.row_bytes, what));
    }
    rows->push_back(std::move(row));
    row.clear();
    pos.field = 1;
    pos.row_bytes = 0;
    in_row = false;
    return Status::Ok();
  };

  while (i < text.size()) {
    char c = text[i];
    if (c == '"') {
      // Quoted field.
      size_t open_line = pos.line;
      size_t open_field = pos.field;
      size_t open_byte = i;
      ++i;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '"') {
          if (i + 1 < text.size() && text[i + 1] == '"') {
            field.push_back('"');
            i += 2;
          } else {
            ++i;
            closed = true;
            break;
          }
        } else {
          if (text[i] == '\n') ++pos.line;
          field.push_back(text[i]);
          ++i;
        }
        AT_RETURN_IF_ERROR(check_field(i));
      }
      if (!closed) {
        return DataLossError("unterminated quoted field (quote opened at " +
                             At(open_line, open_field, open_byte) + ")");
      }
      in_row = true;
    } else if (c == opt.delimiter) {
      AT_RETURN_IF_ERROR(end_field(i));
      in_row = true;
      ++i;
    } else if (c == '\r') {
      ++i;  // handled together with the following \n (or alone)
      if (i < text.size() && text[i] == '\n') ++i;
      AT_RETURN_IF_ERROR(end_row(i));
      ++pos.line;
    } else if (c == '\n') {
      ++i;
      AT_RETURN_IF_ERROR(end_row(i));
      ++pos.line;
    } else {
      field.push_back(c);
      in_row = true;
      ++i;
      AT_RETURN_IF_ERROR(check_field(i));
    }
  }
  if (in_row || !field.empty()) {
    AT_RETURN_IF_ERROR(end_row(text.size()));
  }
  return Status::Ok();
}

bool NeedsQuoting(const std::string& s, char delim) {
  for (char c : s) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(const std::string& s, char delim, std::string* out) {
  if (!NeedsQuoting(s, delim)) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Table> TryParseCsv(std::string_view text, const CsvOptions& options) {
  if (auto injected = util::FailpointFiresCode(util::kFpCsvParse,
                                               util::StatusCode::kDataLoss)) {
    return util::InjectedFault(*injected, util::kFpCsvParse);
  }
  std::vector<std::vector<std::string>> rows;
  AT_RETURN_IF_ERROR(ParseCells(text, options, &rows));
  Table t;
  if (rows.empty()) return t;

  size_t width = rows.front().size();
  size_t first_data_row = 0;
  if (options.has_header) {
    for (size_t j = 0; j < width; ++j) {
      Column c;
      c.name = rows[0][j];
      t.columns.push_back(std::move(c));
    }
    first_data_row = 1;
  } else {
    for (size_t j = 0; j < width; ++j) {
      Column c;
      c.name = "col" + std::to_string(j);
      t.columns.push_back(std::move(c));
    }
  }
  for (size_t i = first_data_row; i < rows.size(); ++i) {
    for (size_t j = 0; j < width; ++j) {
      t.columns[j].values.push_back(j < rows[i].size() ? rows[i][j]
                                                       : std::string());
    }
  }
  return t;
}

std::string WriteCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t j = 0; j < table.columns.size(); ++j) {
      if (j > 0) out.push_back(options.delimiter);
      AppendField(table.columns[j].name, options.delimiter, &out);
    }
    out.push_back('\n');
  }
  size_t rows = table.num_rows();
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < table.columns.size(); ++j) {
      if (j > 0) out.push_back(options.delimiter);
      const auto& col = table.columns[j].values;
      AppendField(i < col.size() ? col[i] : std::string(), options.delimiter,
                  &out);
    }
    out.push_back('\n');
  }
  return out;
}

Result<Table> TryReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  if (auto injected = util::FailpointFiresCode(util::kFpCsvOpen,
                                               util::StatusCode::kIoError)) {
    return util::InjectedFault(*injected, util::kFpCsvOpen)
        .WithContext("reading CSV file " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return IoError("read failure on " + path);
  }
  auto t = TryParseCsv(ss.str(), options);
  if (!t.ok()) {
    return Status(t.status()).WithContext("parsing CSV file " + path);
  }
  t->name = path;
  return t;
}

util::Status TryWriteCsvFile(const Table& table, const std::string& path,
                             const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot open " + path + " for writing");
  out << WriteCsv(table, options);
  out.flush();
  if (!out) return IoError("write failure on " + path);
  return Status::Ok();
}

}  // namespace autotest::table
