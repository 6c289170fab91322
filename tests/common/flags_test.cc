#include "common/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace dpbr {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(const_cast<char*>(s.c_str()));
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseArgs({"--eps=0.5", "--name=abc"});
  EXPECT_DOUBLE_EQ(f.GetDoubleOrStatus("eps", 0).value(), 0.5);
  EXPECT_EQ(f.GetString("name", ""), "abc");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseArgs({"--eps", "0.5", "--count", "7"});
  EXPECT_DOUBLE_EQ(f.GetDoubleOrStatus("eps", 0).value(), 0.5);
  EXPECT_EQ(f.GetIntOrStatus("count", 0).value(), 7);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagsTest, BoolParsing) {
  Flags f = ParseArgs({"--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

TEST(FlagsTest, StrictBoolRejectsATypo) {
  Flags f = ParseArgs({"--all-attacks=ture", "--smoke", "--quiet=off"});
  Result<bool> typo = f.GetBoolOrStatus("all-attacks", false);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().ToString().find("--all-attacks"),
            std::string::npos)
      << typo.status().ToString();
  EXPECT_NE(typo.status().ToString().find("ture"), std::string::npos);
  EXPECT_TRUE(f.GetBoolOrStatus("smoke", false).value());
  EXPECT_FALSE(f.GetBoolOrStatus("quiet", true).value());
  EXPECT_TRUE(f.GetBoolOrStatus("missing", true).value());
  // The lenient accessor still reads the typo as its default.
  EXPECT_TRUE(f.GetBool("all-attacks", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetIntOrStatus("missing", 9).value(), 9);
  EXPECT_DOUBLE_EQ(f.GetDoubleOrStatus("missing", 1.5).value(), 1.5);
  EXPECT_EQ(f.GetString("missing", "x"), "x");
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, PositionalCollected) {
  Flags f = ParseArgs({"run", "--eps=1", "fast"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "fast");
}

TEST(FlagsTest, MalformedIntErrors) {
  Flags f = ParseArgs({"--n=abc"});
  auto r = f.GetIntOrStatus("n", 3);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Flags g = ParseArgs({"--n=12"});
  auto r2 = g.GetIntOrStatus("n", 3);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 12);
}

TEST(FlagsTest, DoubleList) {
  Flags f = ParseArgs({"--eps=0.125,0.25,2"});
  Result<std::vector<double>> v = f.GetDoubleList("eps", {});
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v.value().size(), 3u);
  EXPECT_DOUBLE_EQ(v.value()[0], 0.125);
  EXPECT_DOUBLE_EQ(v.value()[2], 2.0);
  Result<std::vector<double>> d = f.GetDoubleList("missing", {1.0});
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.value().size(), 1u);
}

// Regression: strtod reports overflow/underflow only through
// errno == ERANGE. Unchecked, --eps=1e999 sails through as HUGE_VAL (an
// "infinite" privacy budget); read as the default, it silently runs at
// the wrong ε. Either way a malformed flag must be an error.
TEST(FlagsTest, DoubleOverflowRejected) {
  Flags f = ParseArgs({"--eps=1e999"});
  auto r = f.GetDoubleOrStatus("eps", 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("out of double range"),
            std::string::npos);
}

TEST(FlagsTest, DoubleUnderflowRejected) {
  Flags f = ParseArgs({"--eps=1e-999"});
  EXPECT_FALSE(f.GetDoubleOrStatus("eps", 0.5).ok());
}

TEST(FlagsTest, DoubleTrailingGarbageRejected) {
  Flags f = ParseArgs({"--eps=1.5abc"});
  auto r = f.GetDoubleOrStatus("eps", 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, DoubleEmptyValueRejected) {
  Flags f = ParseArgs({"--eps="});
  EXPECT_FALSE(f.GetDoubleOrStatus("eps", 0.5).ok());
}

TEST(FlagsTest, StrictDoubleAcceptsValid) {
  Flags f = ParseArgs({"--eps=0.25"});
  auto r = f.GetDoubleOrStatus("eps", 0.5);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  // Absent flag returns the default, not an error.
  auto d = f.GetDoubleOrStatus("missing", 1.5);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 1.5);
}

TEST(FlagsTest, DoubleListMalformedElementErrors) {
  for (const char* arg : {"--eps=1e999,2", "--eps=0.5,abc", "--eps=,"}) {
    Flags f = ParseArgs({arg});
    Result<std::vector<double>> v = f.GetDoubleList("eps", {0.125});
    ASSERT_FALSE(v.ok()) << arg;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << arg;
  }
}

TEST(FlagsTest, IntOverflowRejected) {
  Flags f = ParseArgs({"--n=99999999999999999999"});
  auto r = f.GetIntOrStatus("n", 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("out of int64 range"),
            std::string::npos);
}

}  // namespace
}  // namespace dpbr
