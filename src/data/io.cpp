#include "data/io.hpp"

#include <algorithm>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace fsda::data {

using common::IoError;

Dataset read_dataset_csv(const std::string& path,
                         const std::string& label_column,
                         std::size_t num_classes) {
  const common::CsvTable table = common::read_csv(path);
  if (table.rows.empty()) {
    throw IoError("dataset CSV has no data rows: " + path);
  }
  const std::size_t label_index = table.column_index(label_column);
  const std::size_t d = table.num_cols() - 1;
  FSDA_CHECK_MSG(d >= 1, "dataset CSV needs at least one feature column");

  Dataset ds;
  ds.x = la::Matrix(table.num_rows(), d);
  ds.y.resize(table.num_rows());
  for (std::size_t c = 0; c < table.num_cols(); ++c) {
    if (c != label_index) ds.feature_names.push_back(table.header[c]);
  }

  // Data row r sits on file line r + 2: line 1 is the header and line
  // numbers are 1-based -- matching what an editor or `sed -n` shows.
  auto file_line = [](std::size_t row) { return std::to_string(row + 2); };

  auto parse_double = [&](const std::string& field, std::size_t row) {
    try {
      std::size_t pos = 0;
      const double value = std::stod(field, &pos);
      if (pos != field.size()) throw std::invalid_argument(field);
      return value;
    } catch (const std::exception&) {
      throw IoError("non-numeric value '" + field + "' on line " +
                    file_line(row) + " of " + path);
    }
  };

  std::int64_t max_label = 0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::size_t out_col = 0;
    for (std::size_t c = 0; c < table.num_cols(); ++c) {
      const std::string& field = table.rows[r][c];
      if (c == label_index) {
        const double value = parse_double(field, r);
        const auto label = static_cast<std::int64_t>(value);
        if (static_cast<double>(label) != value || label < 0) {
          throw IoError("label '" + field + "' on line " + file_line(r) +
                        " of " + path + " is not a non-negative integer");
        }
        ds.y[r] = label;
        max_label = std::max(max_label, label);
      } else {
        ds.x(r, out_col++) = parse_double(field, r);
      }
    }
  }
  ds.num_classes = num_classes != 0
                       ? num_classes
                       : static_cast<std::size_t>(max_label) + 1;
  ds.num_classes = std::max<std::size_t>(ds.num_classes, 2);
  ds.validate();
  return ds;
}

void write_dataset_csv(const std::string& path, const Dataset& dataset,
                       const std::string& label_column) {
  dataset.validate();
  common::CsvTable table;
  for (std::size_t c = 0; c < dataset.num_features(); ++c) {
    if (!dataset.feature_names.empty()) {
      table.header.push_back(dataset.feature_names[c]);
      continue;
    }
    // Appended rather than "f" + ...: g++ 12 flags that with a -Wrestrict
    // false positive in Release builds.
    std::string name = "f";
    name += std::to_string(c);
    table.header.push_back(std::move(name));
  }
  table.header.push_back(label_column);
  table.rows.reserve(dataset.size());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    std::vector<std::string> row;
    row.reserve(dataset.num_features() + 1);
    for (std::size_t c = 0; c < dataset.num_features(); ++c) {
      row.push_back(std::to_string(dataset.x(r, c)));
    }
    row.push_back(std::to_string(dataset.y[r]));
    table.rows.push_back(std::move(row));
  }
  common::write_csv(path, table);
}

}  // namespace fsda::data
