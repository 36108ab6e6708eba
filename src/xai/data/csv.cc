#include "xai/data/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace xai {
namespace {

// RFC-4180-style splitting: fields may be wrapped in double quotes, inside
// which the delimiter is literal and "" denotes an escaped quote.
std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == delim) {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

// Quotes a field for writing when it contains the delimiter or a quote.
std::string QuoteIfNeeded(const std::string& field, char delim) {
  if (field.find(delim) == std::string::npos &&
      field.find('"') == std::string::npos)
    return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// The shortest text strtod reads back as exactly `v` (sign of zero
// included). RenderCell's "%.4g" is for display and loses digits.
std::string ExactNumber(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Result<Dataset> ReadCsvString(const std::string& text,
                              const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line))
    return Status::InvalidArgument("empty CSV input");
  std::vector<std::string> header = SplitLine(line, options.delimiter);
  for (auto& h : header) h = Trim(h);
  int ncols = static_cast<int>(header.size());
  if (ncols < 2)
    return Status::InvalidArgument("CSV needs at least two columns");

  int target_col = ncols - 1;
  if (!options.target_column.empty()) {
    auto it = std::find(header.begin(), header.end(), options.target_column);
    if (it == header.end())
      return Status::NotFound("target column '" + options.target_column +
                              "' not in header");
    target_col = static_cast<int>(it - header.begin());
  }

  std::vector<std::vector<std::string>> raw_rows;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);
    if (static_cast<int>(fields.size()) != ncols)
      return Status::InvalidArgument(
          "row " + std::to_string(raw_rows.size() + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(ncols));
    for (auto& f : fields) f = Trim(f);
    raw_rows.push_back(std::move(fields));
  }

  // Decide per column: numeric iff every value parses and the column is not
  // forced categorical.
  std::vector<bool> is_numeric(ncols, true);
  for (int c = 0; c < ncols; ++c) {
    for (const auto& row : raw_rows) {
      double tmp;
      if (!ParseDouble(row[c], &tmp)) {
        is_numeric[c] = false;
        break;
      }
    }
    if (std::find(options.categorical_columns.begin(),
                  options.categorical_columns.end(),
                  header[c]) != options.categorical_columns.end()) {
      is_numeric[c] = false;
    }
  }

  Schema schema;
  schema.target_name = header[target_col];
  schema.task = options.task;
  std::vector<int> feature_cols;
  std::vector<std::map<std::string, int>> encoders(ncols);
  for (int c = 0; c < ncols; ++c) {
    if (c == target_col) continue;
    feature_cols.push_back(c);
    if (is_numeric[c]) {
      schema.features.push_back(FeatureSpec::Numeric(header[c]));
    } else {
      schema.features.push_back(FeatureSpec::Categorical(header[c], {}));
    }
  }

  int n = static_cast<int>(raw_rows.size());
  Matrix x(n, static_cast<int>(feature_cols.size()));
  Vector y(n);
  std::map<std::string, int> target_encoder;
  for (int i = 0; i < n; ++i) {
    for (size_t f = 0; f < feature_cols.size(); ++f) {
      int c = feature_cols[f];
      const std::string& cell = raw_rows[i][c];
      if (is_numeric[c]) {
        double v = 0.0;
        ParseDouble(cell, &v);
        x(i, static_cast<int>(f)) = v;
      } else {
        auto [it, inserted] =
            encoders[c].emplace(cell, static_cast<int>(encoders[c].size()));
        if (inserted) schema.features[f].categories.push_back(cell);
        x(i, static_cast<int>(f)) = it->second;
      }
    }
    const std::string& cell = raw_rows[i][target_col];
    double v = 0.0;
    if (options.task == TaskType::kRegression) {
      if (!ParseDouble(cell, &v))
        return Status::InvalidArgument("non-numeric regression target: " +
                                       cell);
    } else if (!ParseDouble(cell, &v)) {
      auto [it, inserted] = target_encoder.emplace(
          cell, static_cast<int>(target_encoder.size()));
      v = it->second;
    }
    y[i] = v;
  }
  return Dataset(std::move(schema), std::move(x), std::move(y));
}

Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReadCsvString(buf.str(), options);
}

std::string WriteCsvString(const Dataset& dataset, char delimiter) {
  std::ostringstream out;
  const Schema& schema = dataset.schema();
  for (int f = 0; f < schema.num_features(); ++f)
    out << QuoteIfNeeded(schema.features[f].name, delimiter) << delimiter;
  out << QuoteIfNeeded(schema.target_name, delimiter) << "\n";
  for (int i = 0; i < dataset.num_rows(); ++i) {
    for (int f = 0; f < schema.num_features(); ++f) {
      const std::string cell = schema.features[f].is_categorical()
                                   ? dataset.RenderCell(i, f)
                                   : ExactNumber(dataset.At(i, f));
      out << QuoteIfNeeded(cell, delimiter) << delimiter;
    }
    out << ExactNumber(dataset.Label(i)) << "\n";
  }
  return out.str();
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvString(dataset, delimiter);
  return Status::OK();
}

}  // namespace xai
