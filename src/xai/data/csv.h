#ifndef XAI_DATA_CSV_H_
#define XAI_DATA_CSV_H_

#include <string>

#include "xai/core/status.h"
#include "xai/data/dataset.h"

namespace xai {

/// \brief Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// Name of the target column; defaults to the last column when empty.
  std::string target_column;
  /// Columns whose values should be treated as categorical even if they
  /// parse as numbers.
  std::vector<std::string> categorical_columns;
  /// Target handling: classification targets are label-encoded.
  TaskType task = TaskType::kClassification;
};

/// Parses CSV text (first line = header) into a Dataset. Non-numeric columns
/// are label-encoded as categorical features; the mapping is recorded in the
/// schema.
Result<Dataset> ReadCsvString(const std::string& text,
                              const CsvOptions& options = {});

/// Reads a CSV file from disk.
Result<Dataset> ReadCsvFile(const std::string& path,
                            const CsvOptions& options = {});

/// Serializes a dataset to CSV text (header + rows; categorical values are
/// written as their category names). Numeric cells and labels are written
/// in the shortest form that reads back as the same double, so
/// ReadCsvString gives back every number bit for bit.
std::string WriteCsvString(const Dataset& dataset, char delimiter = ',');

/// Writes a dataset to a CSV file.
Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter = ',');

}  // namespace xai

#endif  // XAI_DATA_CSV_H_
