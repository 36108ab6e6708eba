#include "xai/data/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace xai {
namespace {

TEST(CsvTest, ParsesNumericAndCategorical) {
  std::string text =
      "age,color,label\n"
      "30,red,0\n"
      "40,green,1\n"
      "50,red,1\n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 3);
  EXPECT_EQ(d.num_features(), 2);
  EXPECT_FALSE(d.schema().features[0].is_categorical());
  EXPECT_TRUE(d.schema().features[1].is_categorical());
  EXPECT_EQ(d.schema().features[1].categories,
            (std::vector<std::string>{"red", "green"}));
  EXPECT_DOUBLE_EQ(d.At(1, 1), 1.0);  // green == index 1.
  EXPECT_DOUBLE_EQ(d.At(2, 1), 0.0);  // red == index 0.
  EXPECT_DOUBLE_EQ(d.Label(2), 1.0);
}

TEST(CsvTest, TargetColumnByName) {
  std::string text =
      "label,x\n"
      "1,10\n"
      "0,20\n";
  CsvOptions options;
  options.target_column = "label";
  Dataset d = ReadCsvString(text, options).ValueOrDie();
  EXPECT_EQ(d.num_features(), 1);
  EXPECT_EQ(d.schema().features[0].name, "x");
  EXPECT_DOUBLE_EQ(d.Label(0), 1.0);
}

TEST(CsvTest, MissingTargetColumnFails) {
  CsvOptions options;
  options.target_column = "nope";
  EXPECT_FALSE(ReadCsvString("a,b\n1,2\n", options).ok());
}

TEST(CsvTest, ForcedCategoricalColumn) {
  std::string text =
      "zip,label\n"
      "12345,0\n"
      "54321,1\n";
  CsvOptions options;
  options.categorical_columns = {"zip"};
  Dataset d = ReadCsvString(text, options).ValueOrDie();
  EXPECT_TRUE(d.schema().features[0].is_categorical());
  EXPECT_EQ(d.schema().features[0].num_categories(), 2);
}

TEST(CsvTest, StringTargetLabelEncoded) {
  std::string text =
      "x,decision\n"
      "1,deny\n"
      "2,approve\n"
      "3,deny\n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  EXPECT_DOUBLE_EQ(d.Label(0), 0.0);
  EXPECT_DOUBLE_EQ(d.Label(1), 1.0);
  EXPECT_DOUBLE_EQ(d.Label(2), 0.0);
}

TEST(CsvTest, RegressionTargetMustBeNumeric) {
  CsvOptions options;
  options.task = TaskType::kRegression;
  EXPECT_FALSE(ReadCsvString("x,y\n1,abc\n", options).ok());
  Dataset d = ReadCsvString("x,y\n1,2.5\n", options).ValueOrDie();
  EXPECT_DOUBLE_EQ(d.Label(0), 2.5);
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("only_one_column\n1\n").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n").ok());  // Ragged row.
}

TEST(CsvTest, SkipsBlankLinesAndTrimsSpaces) {
  std::string text = "a , b \n 1 , 2 \n\n 3 , 4 \n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 2);
  EXPECT_EQ(d.schema().features[0].name, "a");
  EXPECT_DOUBLE_EQ(d.At(1, 0), 3);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(CsvTest, RoundTripThroughString) {
  // Values a display format rounds away: more digits than "%.4g" or
  // "%.6g" keep, the sign of zero, and a small magnitude.
  std::string text =
      "age,color,score,label\n"
      "30,red,12345.678,0\n"
      "40,green,0.30000000000000004,1234567.8\n"
      "-0.0,blue,1e-7,-0.0\n"
      "2.5e300,red,-1.7976931348623157e308,0.1\n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  std::string out = WriteCsvString(d);
  Dataset d2 = ReadCsvString(out).ValueOrDie();
  ASSERT_EQ(d2.num_rows(), d.num_rows());
  ASSERT_EQ(d2.num_features(), d.num_features());
  EXPECT_EQ(d2.RenderCell(1, 1), "green");
  for (int i = 0; i < d.num_rows(); ++i) {
    for (int f = 0; f < d.num_features(); ++f) {
      if (d.schema().features[f].is_categorical()) {
        EXPECT_EQ(d2.RenderCell(i, f), d.RenderCell(i, f));
      } else {
        EXPECT_EQ(Bits(d2.At(i, f)), Bits(d.At(i, f)))
            << "row " << i << " feature " << f << ": " << d.At(i, f)
            << " came back as " << d2.At(i, f);
      }
    }
    EXPECT_EQ(Bits(d2.Label(i)), Bits(d.Label(i)))
        << "row " << i << ": label " << d.Label(i) << " came back as "
        << d2.Label(i);
  }
  // The reader itself is exact, so the comparison above is against the
  // written values.
  EXPECT_EQ(d.At(0, 2), 12345.678);
  EXPECT_EQ(d.At(1, 2), 0.30000000000000004);
  EXPECT_EQ(d.At(2, 2), 1e-7);
  EXPECT_EQ(d.Label(1), 1234567.8);
  EXPECT_TRUE(std::signbit(d.At(2, 0)));
  EXPECT_TRUE(std::signbit(d.Label(2)));
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  std::string text =
      "name,label\n"
      "\"doe, john\",1\n"
      "\"says \"\"hi\"\"\",0\n"
      "plain,1\n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(d.num_rows(), 3);
  EXPECT_EQ(d.schema().features[0].categories[0], "doe, john");
  EXPECT_EQ(d.schema().features[0].categories[1], "says \"hi\"");
  EXPECT_EQ(d.schema().features[0].categories[2], "plain");
}

TEST(CsvTest, QuotedRoundTrip) {
  std::string text =
      "city,label\n"
      "\"springfield, il\",1\n"
      "boston,0\n";
  Dataset d = ReadCsvString(text).ValueOrDie();
  std::string out = WriteCsvString(d);
  Dataset d2 = ReadCsvString(out).ValueOrDie();
  EXPECT_EQ(d2.RenderCell(0, 0), "springfield, il");
  EXPECT_EQ(d2.num_rows(), 2);
}

TEST(CsvTest, FileIo) {
  std::string path = ::testing::TempDir() + "/xai_csv_test.csv";
  Dataset d = ReadCsvString("x,y\n1,0\n2,1\n").ValueOrDie();
  ASSERT_TRUE(WriteCsvFile(d, path).ok());
  Dataset d2 = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(d2.num_rows(), 2);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace xai
