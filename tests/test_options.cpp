#include <gtest/gtest.h>

#include <stdexcept>

#include "util/options.hpp"

namespace hhc::util {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options{static_cast<int>(argv.size()), argv.data()};
}

TEST(Options, ParsesKeyValuePairs) {
  const auto o = parse({"--m", "3", "--pairs", "100"});
  EXPECT_EQ(o.get_int("m", 0), 3);
  EXPECT_EQ(o.get_int("pairs", 0), 100);
}

TEST(Options, ParsesEqualsForm) {
  const auto o = parse({"--m=4", "--name=test"});
  EXPECT_EQ(o.get_int("m", 0), 4);
  EXPECT_EQ(o.get("name", ""), "test");
}

TEST(Options, BooleanFlags) {
  const auto o = parse({"--verbose", "--m", "2"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_FALSE(o.has("quiet"));
}

TEST(Options, FallbacksWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int("m", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("rate", 0.5), 0.5);
  EXPECT_EQ(o.get("name", "dflt"), "dflt");
}

TEST(Options, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"stray"}), std::invalid_argument);
}

TEST(Options, RejectsMalformedNumbers) {
  const auto o = parse({"--m", "abc"});
  EXPECT_THROW((void)o.get_int("m", 0), std::invalid_argument);
}

TEST(Options, NumbersRejectTrailingCharacters) {
  const auto o = parse({"--m", "2abc", "--trials", "1.5", "--rate", "0.5x",
                        "--seed", "7 ", "--ok", "12", "--frac", "1e-3"});
  EXPECT_THROW((void)o.get_int("m", 0), std::invalid_argument);
  EXPECT_THROW((void)o.get_count("trials", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("trials", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW((void)o.get_int("seed", 0), std::invalid_argument);
  EXPECT_EQ(o.get_int("ok", 0), 12);
  EXPECT_EQ(o.get_count("ok", 0), 12u);
  EXPECT_DOUBLE_EQ(o.get_double("ok", 0), 12.0);
  EXPECT_DOUBLE_EQ(o.get_double("frac", 0), 1e-3);
}

TEST(Options, BooleansRejectUnknownSpellings) {
  const auto o = parse({"--a", "true", "--b", "1", "--c", "yes", "--d",
                        "false", "--e", "0", "--f", "no", "--typo", "ture",
                        "--empty="});
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_TRUE(o.get_bool("b", false));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
  EXPECT_FALSE(o.get_bool("e", true));
  EXPECT_FALSE(o.get_bool("f", true));
  EXPECT_THROW((void)o.get_bool("typo", false), std::invalid_argument);
  EXPECT_THROW((void)o.get_bool("empty", false), std::invalid_argument);
}

TEST(Options, CountsRejectNegativeValues) {
  const auto o = parse({"--workers", "-1", "--queries=-100", "--ring", "0",
                        "--trials", "250", "--bad", "x"});
  EXPECT_THROW((void)o.get_count("workers", 4), std::invalid_argument);
  EXPECT_THROW((void)o.get_count("queries", 200), std::invalid_argument);
  EXPECT_THROW((void)o.get_count("bad", 1), std::invalid_argument);
  EXPECT_EQ(o.get_count("ring", 8192), 0u);
  EXPECT_EQ(o.get_count("trials", 200), 250u);
  EXPECT_EQ(o.get_count("absent", 7), 7u);
  // get_int still reads the negative value: seeds and "-1 = none" options
  // keep using it.
  EXPECT_EQ(o.get_int("workers", 4), -1);
}

TEST(Options, ParsesDoubles) {
  const auto o = parse({"--rate", "0.125"});
  EXPECT_DOUBLE_EQ(o.get_double("rate", 0), 0.125);
}

TEST(Options, RejectUnknownFlagsUndescribedKeys) {
  auto o = parse({"--typo", "1"});
  o.describe("m", "cluster dimension");
  EXPECT_THROW(o.reject_unknown(), std::invalid_argument);
}

TEST(Options, RejectUnknownAcceptsDescribedKeys) {
  auto o = parse({"--m", "1"});
  o.describe("m", "cluster dimension");
  EXPECT_NO_THROW(o.reject_unknown());
}

TEST(Options, NegativeValuesViaEquals) {
  // `--key value` treats a leading -- as the next option, so negative
  // numbers must use the = form; plain negatives still work as values.
  const auto o = parse({"--delta", "-3"});
  EXPECT_EQ(o.get_int("delta", 0), -3);
}

}  // namespace
}  // namespace hhc::util
